"""Einstein-product tensor algebra with Moore-Penrose inverses.

Dense complex tensors carry a row/column mode split; the Einstein product
contracts the facing mode blocks and is, through the row-major
matricization, exactly matrix multiplication.  On top of that sit the
tensor SVD, the Moore-Penrose inverse, an identity suite, and diagnostics
for the reverse-order law ``pinv(A @ B) == pinv(B) @ pinv(A)`` with every
known equivalent characterization cross-checked.

The SVD is a one-sided Jacobi whose rotation kernel is written in numpy;
``KERNEL_BACKEND`` names it and is always ``"python"``.
"""

from .core import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NumericPolicy,
    ShapeMismatchError,
    StructuralFlags,
    add_scale,
    approx_equal,
    as_tensor,
    classify,
    conj_transpose,
    diagonal_from,
    einstein_product,
    frobenius_norm,
    identity,
    inner_product,
    kronecker,
    rel_residual,
    trace,
    zeros,
)
from .mpinv import (
    IdentitySuiteReport,
    NotIdempotentError,
    OrthogonalityError,
    PenroseResiduals,
    SvdFactors,
    identity_suite,
    idempotent_factorization,
    min_norm_solve,
    penrose_residuals,
    pinv,
    pinv_sum,
    tsvd,
)
from .rol import (
    FUZZ_FAMILIES,
    FuzzSummary,
    ProjectorCommuteReport,
    RolReport,
    ZeroEquivalenceReport,
    fuzz_search,
    projector_commute_report,
    rol_report,
    sandwich_pinv,
    unitary_rol,
    zero_equivalence,
)
from .unfold import (
    KERNEL_BACKEND,
    SvdConvergenceError,
    dematricize,
    matricize,
    matrix_svd,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_POLICY",
    "DenseTensor",
    "ModeShape",
    "NumericPolicy",
    "ShapeMismatchError",
    "StructuralFlags",
    "add_scale",
    "approx_equal",
    "as_tensor",
    "classify",
    "conj_transpose",
    "diagonal_from",
    "einstein_product",
    "frobenius_norm",
    "identity",
    "inner_product",
    "kronecker",
    "rel_residual",
    "trace",
    "zeros",
    "IdentitySuiteReport",
    "NotIdempotentError",
    "OrthogonalityError",
    "PenroseResiduals",
    "SvdFactors",
    "identity_suite",
    "idempotent_factorization",
    "min_norm_solve",
    "penrose_residuals",
    "pinv",
    "pinv_sum",
    "tsvd",
    "FUZZ_FAMILIES",
    "FuzzSummary",
    "ProjectorCommuteReport",
    "RolReport",
    "ZeroEquivalenceReport",
    "fuzz_search",
    "projector_commute_report",
    "rol_report",
    "sandwich_pinv",
    "unitary_rol",
    "zero_equivalence",
    "KERNEL_BACKEND",
    "SvdConvergenceError",
    "dematricize",
    "matricize",
    "matrix_svd",
    "__version__",
]
