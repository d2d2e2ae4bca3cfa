"""Bundled fixture: the three-student meeting instance.

Three students pick one of three meeting places (1=London, 2=Madrid,
3=Rome). Unary costs are the travel prices; privacy costs price the first
proposal of each value. Used by the ``trace-example`` CLI command and the
golden-trace tests, which run it on `MEETING_SEED`.
"""

from __future__ import annotations

from udcop.model import Instance

# The smallest run seed whose per-agent solver streams draw, on this
# instance, the start (1, 1, 3), then the candidates (2, 3, 1) in round 1,
# (2, 3, 2) in round 2 and (3, 3, 1) in round 3. With these draws the
# privacy-aware run (3 rounds) and the lexicographic baseline (2 rounds)
# reproduce their reference traces.
MEETING_SEED = 243706

_TRAVEL = ({1: 70.0, 2: 230.0, 3: 270.0},
           {1: 120.0, 2: 400.0, 3: 190.0},
           {1: 40.0, 2: 280.0, 3: 230.0})
_REVEAL = ({1: 80.0, 2: 20.0, 3: 40.0},
           {1: 100.0, 2: 30.0, 3: 10.0},
           {1: 80.0, 2: 30.0, 3: 10.0})


def three_student_meeting(kind: str = "udcop") -> Instance:
    """The bundled 3-agent meeting instance, in any of the three kinds."""
    return Instance(
        kind=kind,
        n=3,
        d=3,
        domains=((1, 2, 3),) * 3,
        unary=_TRAVEL,
        privacy=() if kind == "dcop" else _REVEAL,
    )
