"""Exact-arithmetic toolkit for finite-dimensional graded modules over
Lie superalgebras with abelian odd part."""

from .algebra import (
    BUILTIN_ALGEBRAS,
    LieAlgebraEven,
    OddPart,
    SuperAlgebra,
    builtin_algebra,
    grassmann,
    is_semisimple,
    killing_form,
    sl2,
    sl2_adjoint,
    sl2_natural_sum,
    sl2_trivial,
    validate,
)
from .cohomology import (
    ExtDescriptor,
    ExtEntry,
    cech_closed_form,
    cech_line_bundle,
    chevalley_eilenberg,
    ext_twisted,
    koszul_odd,
    nonfullness_ext,
    sym_power,
)
from .dsvariety import (
    DsResult,
    PolyIdeal,
    ds_at,
    in_variety,
    random_points,
    support_check,
    variety_ideal,
)
from .gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    direct_sum,
    dual,
    hom_graded,
    identity_map,
    induced_module,
    make_map,
    make_module,
    shift,
    submodule,
    tensor,
    trivial_module,
    zero_map,
)
from .linalg import LinearSystem, Matrix, Polynomial, kron
from .projstable import (
    Decomposition,
    HypothesisError,
    decompose,
    frobenius_check,
    is_projective,
    is_reduced,
    stable_equal,
    stable_equal_certificate,
    top_operator,
)
from .rigid import (
    CohomologyTable,
    FiberComplex,
    OddPoint,
    L_of,
    V_of,
    fiber,
    fiber_cohomology,
)

__version__ = "0.1.0"
