"""ntforge: exact right-LCM semigroup combinatorics, Wick calculus, and
truncated Fock engines for Nica-Toeplitz algebras."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    Element,
    FiniteGroup,
    FreeProduct,
    RightLcmSemigroup,
    SemigroupHom,
    UnitExtension,
    check_controlled_map,
    controlled_abelianization,
    cyclic_group,
    free_monoid,
    klein_group,
    symmetric_group_3,
)
from .segments import (
    Segment,
    check_partition,
    initial_segments,
    segment_of,
)
from .precategory import (
    Arrow,
    ColorIdeal,
    ColoredProductSystem,
    ZeroTensorBackend,
    check_essential,
    check_factorization,
    check_nondegenerate,
    check_well_aligned,
    full_ideal,
)
from .wick import (
    GradingMap,
    NTElement,
    abelianization_grading,
    core_norm,
    diagonal_expectation,
    nt_adjoint,
    nt_mul,
)
from .fock import (
    LanczosNoConvergence,
    Truncation,
    fock_norm,
    fock_rep,
    lift,
    projection_QT,
    transcendental_expectation,
)
from .analysis import (
    ConcreteRep,
    ProjectionFamily,
    aperiodicity_search,
    check_condition_C,
    check_condition_Cprime,
    check_graded,
    check_projection_equalities,
    check_projection_semilattice,
    check_toeplitz_covariance,
)
from .bundles import (
    BlockAction,
    BundleFiberFamily,
    CrossedProductBackend,
    bundle_from_precategory,
    precategory_from_bundle,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    trivial_action,
)
from .scenario import Scenario, make_group, make_semigroup, run_scenario

# every public name imported above; the submodules these imports bind are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
