"""Problem model for agreement-style distributed constraint optimization.

An instance holds n agents, one variable per agent with a domain drawn from
{1..d}, a per-agent unary cost table (absent values cost 0), a per-agent
privacy table pricing revelations, and the penalty (> 0, possibly infinite)
of one global all-equal constraint. An `Instance` checks itself when built.

Three problem kinds share this shape:

* ``dcop``    -- costs only, no privacy tables.
* ``udcop``   -- a privacy cost per domain value: the price of first
  proposing that value to the neighbors.
* ``udcoppc`` -- a privacy cost per constraint id ``c<v>`` (the unary cost
  entry for value v): the price of exposing that constraint's weight.
  The shared all-equal constraint is public and never charged.

In memory every table is keyed by the value it prices, for all three
kinds; the spelling ``c<v>`` exists only in instance files and trace
labels (see `instance_to_json` and `Instance.reveal_entry`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

KINDS = ("dcop", "udcop", "udcoppc")

#: Finite stand-in for an infinite all-equal penalty, used by local-search
#: arithmetic and metrics. Exact optimization keeps the true infinity.
DEFAULT_PENALTY_SURROGATE = 10_000.0


class InstanceFormatError(ValueError):
    """An instance file could not be parsed."""


class InstanceValidationError(ValueError):
    """An instance violates model invariants."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = list(violations)


class IncompleteAssignmentError(ValueError):
    """An assignment is missing a value for some agent."""


@dataclass(frozen=True)
class Instance:
    """Problem instance, checked when built: InstanceValidationError lists
    every violation of `validate_instance`. Treat as immutable, share freely."""

    kind: str
    n: int
    d: int
    domains: tuple[tuple[int, ...], ...]
    unary: tuple[dict, ...]
    privacy: tuple[dict, ...] = ()
    penalty: float = math.inf

    def __post_init__(self):
        violations = validate_instance(self)
        if violations:
            raise InstanceValidationError(violations)

    def unary_cost(self, agent: int, value: int) -> float:
        return float(self.unary[agent].get(value, 0.0))

    def reveal_entry(self, agent: int, value: int):
        """Trace label of the entry revealed when `agent` first proposes
        `value`: the value itself, or its constraint id for udcoppc."""
        if self.kind == "udcoppc":
            return f"c{value}"
        return value

    def reveal_cost(self, agent: int, value: int) -> float:
        """Privacy cost of the revelation triggered by proposing `value`."""
        if not self.privacy:
            return 0.0
        return float(self.privacy[agent].get(value, 0.0))

    def finite_penalty(self, override: float | None = None) -> float:
        """The finite disagreement penalty W of local search and metrics:
        `override` when given, else the instance penalty if finite, else
        DEFAULT_PENALTY_SURROGATE."""
        if override is not None:
            return float(override)
        p = self.penalty
        return float(p) if math.isfinite(p) else DEFAULT_PENALTY_SURROGATE


def validate_instance(inst: Instance) -> list[str]:
    """Return all invariant violations, each naming the offending field.

    An empty list means the instance is well-formed.
    """
    out: list[str] = []
    if inst.kind not in KINDS:
        out.append(f"kind: must be one of {'/'.join(KINDS)}, got {inst.kind!r}")
    if inst.n < 1:
        out.append(f"n: n ≥ 1 required, got {inst.n}")
    if inst.d < 1:
        out.append(f"d: d ≥ 1 required, got {inst.d}")
    if len(inst.domains) != inst.n:
        out.append(f"domains: expected {inst.n} domains, got {len(inst.domains)}")
    for i, dom in enumerate(inst.domains):
        if len(dom) == 0:
            out.append(f"domains[{i}]: domain must be non-empty")
            continue
        if len(set(dom)) != len(dom):
            out.append(f"domains[{i}]: duplicate values")
        bad = [v for v in dom if not isinstance(v, int) or v < 1 or v > inst.d]
        if bad:
            out.append(f"domains[{i}]: values must be integers in [1, {inst.d}], got {bad}")

    if len(inst.unary) != inst.n:
        out.append(f"unary: expected {inst.n} tables, got {len(inst.unary)}")
    if inst.kind == "dcop":
        if any(table for table in inst.privacy):
            out.append("privacy: must be empty for kind=dcop")
    elif len(inst.privacy) != inst.n:
        out.append("privacy: privacy table required (one per agent) for "
                   f"kind={inst.kind}")
    for name, tables in (("unary", inst.unary), ("privacy", inst.privacy)):
        for i, table in enumerate(tables[: inst.n]):
            dom = set(inst.domains[i]) if i < len(inst.domains) else set()
            extra = [v for v in table if v not in dom]
            if extra:
                out.append(f"{name}[{i}]: keys must lie in the agent's domain, got {extra}")
            neg = {v: c for v, c in table.items() if not c >= 0}   # NaN too
            if neg:
                out.append(f"{name}[{i}]: costs ≥ 0 required, got {neg}")

    if not (inst.penalty > 0):
        out.append(f"global.penalty: penalty > 0 required, got {inst.penalty}")
    return out


def solution_cost(inst: Instance, assignment: Sequence[int]) -> float:
    """Total cost of a complete assignment: unary costs plus the all-equal
    penalty when the agents disagree. May be infinite."""
    if len(assignment) != inst.n:
        raise IncompleteAssignmentError(
            f"assignment has {len(assignment)} values, instance has {inst.n} agents")
    total = 0.0
    first = None
    equal = True
    for i, v in enumerate(assignment):
        if v is None:
            raise IncompleteAssignmentError(f"agent {i} has no assigned value")
        if v not in inst.domains[i]:
            raise ValueError(f"agent {i}: value {v} not in its domain")
        if first is None:
            first = v
        elif v != first:
            equal = False
        total += inst.unary_cost(i, v)
    if not equal:
        total += inst.penalty
    return total


# ---------------------------------------------------------------------------
# File format
#
# A single JSON document:
#   kind     "dcop" | "udcop" | "udcoppc"
#   n, d     integers
#   domains  array of n arrays of values
#   unary    array of n {value: cost} maps
#   privacy  array of n maps; keys are values (udcop) or "c<value>" ids
#            (udcoppc); omitted or empty for dcop
#   global   {"type": "all_equal", "penalty": number | "inf"}
#
# A key is spelled canonically: the value in plain decimal ("3"), after the
# prefix "c" for a udcoppc privacy key ("c3"). Parsing accepts only that
# spelling, so no two keys of a map can name the same value.
# ---------------------------------------------------------------------------


def _key_prefix(kind: str, name: str) -> str:
    return "c" if (kind, name) == ("udcoppc", "privacy") else ""


def instance_to_json(inst: Instance) -> str:
    """Canonical JSON text for an instance (stable bytes for equal inputs)."""
    def maps(name: str, tables) -> list:
        prefix = _key_prefix(inst.kind, name)
        return [{f"{prefix}{v}": float(t[v]) for v in sorted(t)} for t in tables]

    doc = {
        "kind": inst.kind,
        "n": inst.n,
        "d": inst.d,
        "domains": [list(dom) for dom in inst.domains],
        "unary": maps("unary", inst.unary),
        "privacy": maps("privacy", inst.privacy),
        "global": {
            "type": "all_equal",
            "penalty": "inf" if math.isinf(inst.penalty) else float(inst.penalty),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(instance_to_json(inst), encoding="utf-8")


def _is_int(x) -> bool:
    # JSON true/false parse to bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _unique_keys(pairs: list) -> dict:
    # json.loads alone keeps the last of two equal keys without a word
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"not valid JSON: {e.msg} (line {e.lineno})") from e
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level value must be an object")

    for name in ("kind", "n", "d", "domains", "unary", "global"):
        if name not in doc:
            raise InstanceFormatError(f"missing field '{name}'")

    kind = doc["kind"]
    if kind not in KINDS:
        raise InstanceFormatError(f"field 'kind': expected one of {'/'.join(KINDS)}, "
                                  f"got {kind!r}")
    n, d = doc["n"], doc["d"]
    if not _is_int(n) or not _is_int(d):
        raise InstanceFormatError("fields 'n' and 'd' must be integers")

    def parse_domains(raw) -> tuple:
        if not isinstance(raw, list):
            raise InstanceFormatError("field 'domains': expected an array")
        domains = []
        for i, dom in enumerate(raw):
            if not isinstance(dom, list) or not all(_is_int(v) for v in dom):
                raise InstanceFormatError(
                    f"field 'domains[{i}]': expected an array of integers")
            domains.append(tuple(dom))
        return tuple(domains)

    def parse_tables(raw, name: str) -> tuple:
        if not isinstance(raw, list):
            raise InstanceFormatError(f"field '{name}': expected an array of maps")
        prefix = _key_prefix(kind, name)
        tables = []
        for i, table in enumerate(raw):
            if not isinstance(table, dict):
                raise InstanceFormatError(f"field '{name}[{i}]': expected a map")
            parsed = {}
            for k, c in table.items():
                try:
                    key = int(k.removeprefix(prefix)) if k.startswith(prefix) else None
                except ValueError:
                    key = None
                if key is None or k != f"{prefix}{key}":
                    raise InstanceFormatError(f"field '{name}[{i}]': bad key {k!r}, "
                                              f"expected {prefix}<value>")
                if not _is_number(c):
                    raise InstanceFormatError(
                        f"field '{name}[{i}]': cost for {k!r} must be a number")
                parsed[key] = float(c)
            tables.append(parsed)
        return tuple(tables)

    gc_doc = doc["global"]
    if not isinstance(gc_doc, dict) or "type" not in gc_doc or "penalty" not in gc_doc:
        raise InstanceFormatError("field 'global': expected {type, penalty}")
    raw_penalty = gc_doc["penalty"]
    if raw_penalty == "inf":
        penalty = math.inf
    elif _is_number(raw_penalty):
        penalty = float(raw_penalty)
    else:
        raise InstanceFormatError("field 'global.penalty': expected a number or \"inf\"")
    if gc_doc["type"] != "all_equal":
        raise InstanceValidationError(
            [f"global.type: must be 'all_equal', got {gc_doc['type']!r}"])

    return Instance(
        kind=kind,
        n=n,
        d=d,
        domains=parse_domains(doc["domains"]),
        unary=parse_tables(doc["unary"], "unary"),
        privacy=parse_tables(doc.get("privacy", []), "privacy"),
        penalty=penalty,
    )


def load_instance(path) -> Instance:
    """Load and validate an instance file.

    Raises InstanceFormatError on parse problems (naming the field) and
    InstanceValidationError when the document parses but breaks invariants.
    """
    return instance_from_json(Path(path).read_text(encoding="utf-8"))
