"""Exact q-series toolkit for Gordon-style partition identities.

Five layers, each usable on its own:

* :mod:`qgordon.qseries` -- truncated power series in q with exact
  integer coefficients, Pochhammer symbols, and the triple product.
* :mod:`qgordon.partitions` -- brute-force counting oracles for the
  partition families the identities talk about.
* :mod:`qgordon.lattice_paths` -- weighted paths, peak moves, and the
  staged construction matching paths with sum-side data.
* :mod:`qgordon.bailey` -- Bailey pairs, the chain transformations,
  and the telescoped limit.
* :mod:`qgordon.identities` -- sum and product sides of each theorem
  tag plus windowed verification.

The ``qgordon`` command line fronts the same operations.
"""

from .qseries import (
    PochSpec,
    Series,
    add,
    invert_poch,
    mul,
    poch_finite,
    poch_infinite,
    rescale,
    theta_sum,
    triple_product,
)
from .partitions import (
    GordonParams,
    count_A,
    count_B,
    count_W,
    count_Wbar,
    is_gordon_admissible,
    partitions_of,
)
from .lattice_paths import (
    ConstructionData,
    LatticePath,
    count_S,
    enumerate_S_paths,
    forward_construct,
    is_S_admissible,
    major_index,
    path_from_compact,
    path_from_json_obj,
    path_to_compact,
    path_to_json_obj,
    path_to_svg,
    peaks,
    relative_heights,
    reverse_deconstruct,
    right_move,
    volcanic_uplift,
)
from .bailey import (
    BaileyPair,
    apply_D1,
    apply_P41,
    apply_S1,
    apply_S2,
    build_chain,
    check_pair,
    closed_form_alpha,
    limit_identity,
    unit_pair,
)
from .identities import (
    THEOREMS,
    IdentitySpec,
    VerificationReport,
    eval_multisum_AG,
    eval_multisum_main,
    eval_multisum_W,
    eval_multisum_Wbar,
    eval_product_side,
    ladder_multisum,
    verify,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache the package keeps between calls: the Pochhammer
    products, the partition lists and the S-path enumerations.  Timings
    taken after this call are cold."""
    from . import lattice_paths, partitions, qseries

    qseries._poch.cache_clear()
    partitions.partitions_of.cache_clear()
    lattice_paths._SPATH_CACHE.clear()

__all__ = [
    "PochSpec",
    "Series",
    "add",
    "invert_poch",
    "mul",
    "poch_finite",
    "poch_infinite",
    "rescale",
    "theta_sum",
    "triple_product",
    "GordonParams",
    "count_A",
    "count_B",
    "count_W",
    "count_Wbar",
    "is_gordon_admissible",
    "partitions_of",
    "ConstructionData",
    "LatticePath",
    "count_S",
    "enumerate_S_paths",
    "forward_construct",
    "is_S_admissible",
    "major_index",
    "path_from_compact",
    "path_from_json_obj",
    "path_to_compact",
    "path_to_json_obj",
    "path_to_svg",
    "peaks",
    "relative_heights",
    "reverse_deconstruct",
    "right_move",
    "volcanic_uplift",
    "BaileyPair",
    "apply_D1",
    "apply_P41",
    "apply_S1",
    "apply_S2",
    "build_chain",
    "check_pair",
    "closed_form_alpha",
    "limit_identity",
    "unit_pair",
    "THEOREMS",
    "IdentitySpec",
    "VerificationReport",
    "eval_multisum_AG",
    "eval_multisum_main",
    "eval_multisum_W",
    "eval_multisum_Wbar",
    "eval_product_side",
    "ladder_multisum",
    "verify",
    "clear_caches",
    "__version__",
]
