"""Pop-stack sorting on finite lattices.

Carriers (permutations, signed permutations, Dyck paths), a generic
finite-lattice kernel with the pop operators and their q-census, image
characterizations with constructive preimages, closed-form counting
formulas, and an exact truncated-power-series lab for the generating
function identities.
"""

from .lattice import FiniteLattice, QPoly
from .words import (
    Word,
    binomial,
    descending_runs,
    parse_word,
    reduction,
    reverse_runs,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteLattice",
    "QPoly",
    "Word",
    "binomial",
    "descending_runs",
    "parse_word",
    "reduction",
    "reverse_runs",
    "__version__",
]
