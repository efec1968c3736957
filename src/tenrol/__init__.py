"""Einstein-product tensor algebra with Moore-Penrose inverses.

Dense complex tensors carry a row/column mode split; the Einstein product
contracts the facing mode blocks and is, through the row-major
matricization, exactly matrix multiplication.  On top of that sit the
tensor SVD, the Moore-Penrose inverse, an identity suite, and diagnostics
for the reverse-order law ``pinv(A @ B) == pinv(B) @ pinv(A)`` with every
known equivalent characterization cross-checked.  The docstring of each
layer's entry point states its contract: :class:`tenrol.core.DenseTensor`
for tensors, :func:`tenrol.unfold.matrix_svd` for the SVD,
:func:`tenrol.mpinv.pinv` for the pseudoinverse,
:func:`tenrol.rol.rol_report` for the diagnostics and
:func:`tenrol.fuzz.fuzz_search` for the search.  ``KERNEL_BACKEND`` names
the SVD's rotation kernel, written in numpy, and is always ``"python"``.

``import tenrol`` loads the tensor layer, the SVD and the pseudoinverse.
The reverse-order-law diagnostics (:mod:`tenrol.rol`) and the randomized
search (:mod:`tenrol.fuzz`) load on the first access to one of their
names, through a module-level ``__getattr__`` (PEP 562), so a process
that never runs them never compiles them.  ``__all__`` and ``dir()`` list
those names all the same.
"""

import importlib

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

#: The names loaded on first access, each with the module that defines it.
_LAZY = dict.fromkeys(
    (
        "ProjectorCommuteReport",
        "RolReport",
        "ZeroEquivalenceReport",
        "projector_commute_report",
        "rol_report",
        "sandwich_pinv",
        "unitary_rol",
        "zero_equivalence",
    ),
    "rol",
) | dict.fromkeys(("FUZZ_FAMILIES", "FuzzSummary", "fuzz_search"), "fuzz")


def __getattr__(name: str):
    # not cached in this module's namespace: the benchmark's tracer rebinds
    # a traced function in its home module, and a lookup here then finds it
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
