"""absval: a numerical laboratory for absolute-value identities of matrices.

The absolute value of a complex matrix is |A| = sqrt(A* A).  This package
computes it, states every identity and inequality it satisfies under
normality/commutation hypotheses as a checkable claim, and verifies those
claims over seeded random ensembles plus a registry of fixed counterexamples.
"""

from .core import (
    ConvergenceError,
    DEFAULT_POLICY,
    DimensionMismatch,
    NotSelfAdjoint,
    NumericalError,
    TolerancePolicy,
    adjoint,
    approx_eq,
    as_matrix,
    frobenius,
    hermitian_eigen,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    rel_residual,
    symmetrize,
)
from .calculus import (
    LoewnerVerdict,
    MAX_CONDITION,
    NotPositiveSemidefinite,
    NumericallySingular,
    abs_value,
    condition_estimate,
    inverse,
    loewner_leq,
    psd_power,
    psd_sqrt,
    psd_sqrt_iterative,
)
from .predicates import (
    ClassReport,
    PredicateResult,
    class_report,
    commutes,
    is_anti_symmetric,
    is_hyponormal,
    is_normal,
    is_positive,
    is_self_adjoint,
)
from .generators import (
    EnsembleSpec,
    Seed,
    gen_anti_symmetric,
    gen_commuting_family_one_nonnormal,
    gen_commuting_normal_family,
    gen_commuting_positive_pair,
    gen_fuglede_pair,
    gen_general,
    gen_negative_cross_pair,
    gen_ordered_psd_pair,
    gen_sa_pair_normal_product,
    gen_sandwich_pair,
    gen_self_adjoint,
    gen_unitary,
    sample,
)
from .claims import (
    Claim,
    ClaimInstance,
    ClaimResult,
    ClaimStats,
    ProbeStats,
    RegistryInstance,
    RegistryResult,
    SuiteReport,
    catalog,
    check_claim,
    check_registry_instance,
    probe_conclusions,
    registry,
    run_suite,
)

__version__ = "0.1.0"
