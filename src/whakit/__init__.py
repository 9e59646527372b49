"""whakit: finite quantum groupoids (weak Hopf algebras) by structure constants."""

from .actions import (
    CrossedProduct,
    RegularityResult,
    WhaAction,
    arrow_action,
    crossed_product,
    dual_regular_action,
    galois_map,
    invariants,
    is_regular,
    m_r_subalgebra,
    smash_product,
    trivial_action,
    validate_action,
    verify_basic_construction,
)
from .algebra import (
    Block,
    BlockDecomposition,
    FinDimAlgebra,
    GnsRep,
    MarkovTrace,
    WedderburnAlgebra,
    WatataniIndex,
    block_decomposition,
    gns_rep,
    inclusion_matrix,
    induced_algebra,
    markov_trace,
    watatani_index,
)
from .config import DEFAULT_SEED, DEFAULT_TOL, Tolerance
from .errors import *  # noqa: F401,F403  (the exception taxonomy is the public surface)
from .fixtures import (
    Groupoid,
    cyclic_group,
    cyclic_wha,
    disjoint_union,
    function_wha,
    fusion_wha,
    groupoid_wha,
    m2_m3,
    pair_groupoid,
    pair_groupoid_wha,
    perturb,
    sweedler_h4,
    symmetric_group,
    symmetric_wha,
)
from .integrals import (
    CanonicalGrouplikes,
    canonical_grouplike,
    haar_criterion,
    haar_expectations,
    haar_functional,
    haar_integral,
    haar_state,
    integral_spaces,
    maschke_check,
    normalized_left_integral,
)
from .report import AxiomCheck, AxiomReport
from .reptheory import (
    Representation,
    Sector,
    SectorTable,
    StandardSolution,
    VacuumData,
    block_multiplicities,
    conjugate_rep,
    dimension_factorization,
    gns_counit_rep,
    intertwiner_space,
    irreducible_representations,
    markov_index,
    monoidal_product,
    regular_representation,
    sector_dimensions,
    standard_solutions,
    vacua,
)
from .wha import (
    CounitalSubalgebras,
    SweedlerArrows,
    WeakBialgebra,
    WeakHopfAlgebra,
    dual_wha,
    hypercentral_components,
    is_weak_kac,
    separability_structure,
    solve_antipode,
    sweedler_arrows,
    validate_star,
    validate_wba,
    validate_wha,
)
from .whafile import from_dict, load, loads, save, to_dict

__version__ = "0.1.0"
