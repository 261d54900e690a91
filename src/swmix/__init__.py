"""Small-world random graphs on the torus: sampling, mixing, expansion.

The model lives on the (2n+1) x (2n+1) torus grid: all grid edges are always
present, and each vertex pair at torus distance d >= 2 independently gains a
long-range edge with probability d^(-r) / Z.  The package samples such
graphs, measures lazy-random-walk mixing times and spectral gaps, analyses
edge and vertex expansion and conductance, and drives seeded, reproducible
parameter sweeps over (n, r) grids from a CLI.
"""

from . import bfs, errors, expansion, generate, harness, torus, walk
from ._version import __version__
from .errors import *  # noqa: F403
from .torus import *  # noqa: F403
from .generate import *  # noqa: F403
from .bfs import *  # noqa: F403
from .walk import *  # noqa: F403
from .expansion import *  # noqa: F403
from .harness import *  # noqa: F403

# The public names are each submodule's own __all__, so the two never drift.
__all__ = [
    "__version__",
    *errors.__all__,
    *torus.__all__,
    *generate.__all__,
    *bfs.__all__,
    *walk.__all__,
    *expansion.__all__,
    *harness.__all__,
]
