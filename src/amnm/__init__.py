"""Finite weighted semilattice convolution algebras: approximately
multiplicative maps, certified corrections to exactly multiplicative ones,
and certified counterexample families where no nearby correction exists.

Quick tour::

    from amnm import free_semilattice, correct_scalar, scalar_map, defect

    S = free_semilattice(3)
    psi = scalar_map([...])          # one value per element, defect < 1/5
    cert = correct_scalar(S, psi)    # nearby filter indicator + certificate

The library works with explicit multiplication tables (commutative,
idempotent, associative), weights that are strictly positive and
submultiplicative (checked exactly), and maps into the scalars, the
upper-triangular 2x2 algebra, or full 2x2 matrices.  :func:`validate` and
:func:`semilattice_from_json` check a table's axioms; ``Semilattice(...)``
checks nothing, and proves its character table the first time it is read.
"""

from .correction import (
    Certificate,
    correct_m2,
    correct_scalar,
    correct_t2,
    correct_weighted,
)
from .counterexamples import (
    CounterexampleReport,
    geometric_weight,
    orthogonal_free_sum,
    psi_n_family,
    spiked_weight,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    theta_m_t2,
)
from .defects import (
    AlgebraMap,
    DefectReport,
    DistanceReport,
    defect,
    default_norm,
    m2_map,
    map_from_json,
    map_to_json,
    round_to_binary,
    scalar_map,
    t2_map,
    weighted_sup_distance,
    weighted_sup_distance_report,
)
from .errors import (
    AmnmError,
    AxiomViolation,
    ClassificationFailure,
    DefectTooLarge,
    NoEligibleIndex,
    NonPositiveWeight,
    NotAssociative,
    NotClosed,
    NotCommutative,
    NotIdempotent,
    NotSubmultiplicative,
    ParseError,
    PreconditionGap,
    StructureMismatch,
)
from .filters import (
    Filter,
    GelfandReport,
    brute_force_filters,
    characters,
    enumerate_filters,
    filter_generated,
    filter_indicator,
    gelfand_nmin,
    is_filter,
    zero_map,
)
from .mat2 import (
    KeyEstimateReport,
    M2_ID,
    M2_ZERO,
    Mat2,
    ObstructionReport,
    T2Element,
    f_key,
    hs_norm,
    kappa,
    key_estimates,
    nearest_binary_idempotent,
    obstruction_check,
    op_norm,
    rho,
    scalar_project,
    t2_norm,
    unitary_triangularize,
)
from .oracle import (
    NearestReport,
    enumerate_mult_m2_with,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    m2_family_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
)
from .reporting import canonical_json, render_table, to_jsonable
from .sampling import (
    random_binary_weighted_instance,
    random_bounded_idempotent,
    random_m2_instance,
    random_multiplicative_scalar,
    random_near_idempotent,
    random_scalar_instance,
    random_t2_instance,
    sample_commuting_idempotents,
)
from .semilattice import (
    FreeSemilattice,
    OrthogonalSum,
    Semilattice,
    b_loc,
    breadth,
    free_semilattice,
    generated,
    height,
    max_antichain,
    min_chain_cover,
    nmin,
    orthogonal_direct_sum,
    poset_height,
    poset_width,
    random_poset,
    random_semilattice,
    semilattice_from_json,
    semilattice_to_json,
    validate,
    width,
)
from .weights import (
    FlightyReport,
    WeightedSemilattice,
    building_block_weight,
    check_submultiplicative,
    counterexample_weight,
    flighty_constant,
    flighty_report,
    random_submultiplicative_weight,
    sublevel_set,
    unit_weight,
    weighted,
)

__version__ = "0.1.0"
