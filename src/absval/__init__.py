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
    PredicateResult,
    TolerancePolicy,
    adjoint,
    as_matrix,
    frobenius,
    hermitian_eigen,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    symmetrize,
)
from .calculus import (
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
    gen_general,
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
