"""Privacy-aware distributed constraint optimization toolkit.

Agents jointly pick a common value while every first proposal of a value
costs privacy. The package bundles the problem model, a seeded instance
generator, a deterministic round simulator with once-only reveal
accounting, five solvers, exact oracles and a sweep harness; import them
from their modules (``udcop.model``, ``udcop.engine``, ``udcop.solvers``,
``udcop.oracle``, ``udcop.experiments``).
"""

from udcop.engine import SolverParams, run
from udcop.generator import GenConfig, generate

__version__ = "0.1.0"
