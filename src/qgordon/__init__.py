"""Exact q-series toolkit for Gordon-style partition identities.

Five layers; each imports only layers above it, the first two none:

* :mod:`qgordon.qseries` -- truncated power series in q with exact
  integer coefficients, Pochhammer symbols, and the triple product.
* :mod:`qgordon.partitions` -- exact counting oracles for the
  partition families the identities talk about.
* :mod:`qgordon.lattice_paths` -- weighted paths, peak moves, and the
  staged construction matching paths with sum-side data.
* :mod:`qgordon.identities` -- sum and product sides of each theorem
  tag plus windowed verification.
* :mod:`qgordon.bailey` -- Bailey pairs, the chain transformations,
  and the telescoped limit.

The ``qgordon`` command line fronts the same operations.
"""

from . import bailey, identities, lattice_paths, partitions, qseries
from .qseries import *  # noqa: F403
from .partitions import *  # noqa: F403
from .lattice_paths import *  # noqa: F403
from .bailey import *  # noqa: F403
from .identities import *  # noqa: F403

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache the package keeps between calls, each beside
    its one reader: the two counting oracles' tables, the product sides'
    table of eta quotients (at most four int lists, one per product
    shape, each as long as the largest order asked), and the Bailey
    check's and chain steps' table of quotient rows (per key of symbols,
    one int tuple per row to the largest n asked of that key, all as
    long as its longest window).  The count table keeps one int list per
    (family, k, a), at most twice as long as the largest n asked; the
    S-path table keeps, per (k, a), the step string of every path found
    by the largest search and the path count at each major index up to
    its bound.  Timings taken after this call are cold."""
    partitions._COUNT_TABLES.clear()
    lattice_paths._SPATH_CACHE.clear()
    identities._ETA_QUOTIENTS.clear()
    bailey._QUOTIENT_ROWS.clear()


# each module's __all__ is the one list of its public names
__all__ = [
    *qseries.__all__,
    *partitions.__all__,
    *lattice_paths.__all__,
    *bailey.__all__,
    *identities.__all__,
    "clear_caches",
    "__version__",
]
