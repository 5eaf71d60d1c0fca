"""Testing intersecting and union-closed set systems.

Library layout:

* :mod:`setfam.boolfn`: points, oracles, bands, truncations, file formats
* :mod:`setfam.violations`: violation predicates, witnesses, matchings
* :mod:`setfam.distance`: exact distances, property checks, repairs
* :mod:`setfam.testers` : the four one-sided non-adaptive testers
* :mod:`setfam.hardness`: random DNFs and adversarial instance families
* :mod:`setfam.cli`   : reproducible experiment harness (``setfam`` command)
"""

__version__ = "0.1.0"

from .boolfn import (
    Band,
    BooleanFunction,
    EnumerationCapError,
    QueryCounter,
    ResourceCapError,
    TruthTable,
    enumerate_down_band,
    mid_band,
    truncate_int,
    truncate_uc,
)
from .distance import (
    DistanceResult,
    dist_int_exact,
    dist_uc_exact,
    disjoint_tuple_count_lb,
    end_distinct_tuple_count,
    is_intersecting,
    is_union_closed,
    repair_uc,
)
from .hardness import (
    BadEventParams,
    IntersectInstance,
    TalagrandDnf,
    UcInstance,
    build_int_instance,
    build_uc_instance,
    count_int_no_violations,
    count_uc_no_violations,
    estimate_bad_probability,
    sample_talagrand,
    unique_sat_probability,
)
from .rng import stream
from .testers import (
    TesterConfig,
    TesterReport,
    int_pair_tester,
    int_tester,
    uc_tester,
    uc_triple_tester,
)
from .violations import (
    IViolatingPair,
    TripleCertificate,
    UcViolatingTuple,
    augment_tuple,
    is_i_violation,
    is_monotone_violation,
    is_uc_violation,
    level_matching,
    locality,
    max_disjoint_i_pairs,
    min_violation_locality,
    witness_check_int,
    witness_check_uc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
