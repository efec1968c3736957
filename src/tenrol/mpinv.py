"""Tensor SVD and the Moore-Penrose inverse under the Einstein product.

Every tensor A with split I x J factors as ``A = U @ D @ V.H`` with U, V
unitary and D diagonal nonnegative; the pseudoinverse is then
``pinv(A) = V @ pinv(D) @ U.H``, the unique X satisfying the four Penrose
equations A@X@A = A, X@A@X = X, (A@X).H = A@X and (X@A).H = X@A.  All of
it is computed through the matricization isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NumericPolicy,
    ShapeMismatchError,
    _chain,
    conj_transpose,
    einstein_product,
    frobenius_norm,
    rel_residual,
    zeros,
)
from .unfold import dematricize, matricize, matrix_svd

__all__ = [
    "SvdFactors",
    "PenroseResiduals",
    "IdentitySuiteReport",
    "OrthogonalityError",
    "NotIdempotentError",
    "tsvd",
    "pinv",
    "penrose_residuals",
    "identity_suite",
    "pinv_sum",
    "idempotent_factorization",
    "min_norm_solve",
]


class OrthogonalityError(ValueError):
    """Raised by :func:`pinv_sum` when two summands are not range-orthogonal."""

    def __init__(self, pair: tuple[int, int], residual: float):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"tensors {pair[0]} and {pair[1]} are not mutually orthogonal "
            f"(residual {residual:.3e})"
        )


class NotIdempotentError(ValueError):
    """Raised by :func:`idempotent_factorization` when C@C differs from C."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"tensor is not idempotent (residual {residual:.3e})")


@dataclass(frozen=True)
class SvdFactors:
    """Factors of a tensor SVD ``A = u @ d @ v.H``.

    ``u`` has split I x I, ``d`` is diagonal with split I x J and ``v``
    has split J x J.
    """

    u: DenseTensor
    d: DenseTensor
    v: DenseTensor

    @property
    def singular_values(self) -> np.ndarray:
        """Diagonal of ``d`` as a real 1-D array, nonincreasing."""
        mat = matricize(self.d)
        k = min(mat.shape)
        return np.real(mat[np.arange(k), np.arange(k)])


@dataclass(frozen=True)
class PenroseResiduals:
    """Relative residuals of the four Penrose equations for a pair (A, X)."""

    axa: float  # ||A@X@A - A||, scaled
    xax: float  # ||X@A@X - X||, scaled
    ax_herm: float  # hermitianness of A@X
    xa_herm: float  # hermitianness of X@A

    @property
    def max_residual(self) -> float:
        return max(self.axa, self.xax, self.ax_herm, self.xa_herm)

    def satisfied(self, tol: float) -> bool:
        """True when all four residuals are within ``tol``."""
        return self.max_residual <= tol

    def as_dict(self) -> dict[str, float]:
        return {
            "axa": self.axa,
            "xax": self.xax,
            "ax_herm": self.ax_herm,
            "xa_herm": self.xa_herm,
        }


def tsvd(a: DenseTensor) -> SvdFactors:
    """Tensor SVD of ``a`` via one-sided Jacobi on the matricization.

    Returns
    -------
    SvdFactors
        ``u @ d @ v.H`` reconstructs ``a``; ``u`` and ``v`` are unitary.

    Raises
    ------
    SvdConvergenceError
        If the underlying Jacobi iteration does not converge.
    """
    u, s, v = matrix_svd(matricize(a))
    rows, cols = a.shape.row_count, a.shape.col_count
    d = np.zeros((rows, cols), dtype=np.complex128)
    d[np.arange(s.size), np.arange(s.size)] = s
    return SvdFactors(
        u=dematricize(u, ModeShape(a.shape.row_dims, a.shape.row_dims)),
        d=dematricize(d, a.shape),
        v=dematricize(v, ModeShape(a.shape.col_dims, a.shape.col_dims)),
    )


def pinv(a: DenseTensor, policy: NumericPolicy | None = None) -> DenseTensor:
    """Moore-Penrose inverse of ``a``.

    Singular values below ``rank_tol * sigma_max`` are treated as zero;
    the threshold itself is kept (ties count toward the rank).

    Parameters
    ----------
    a : DenseTensor
        Tensor with split I x J.
    policy : NumericPolicy, optional
        Supplies ``rank_tol``.

    Returns
    -------
    DenseTensor
        Tensor with split J x I satisfying the four Penrose equations.
    """
    policy = policy or DEFAULT_POLICY
    u, s, v = matrix_svd(matricize(a))
    k = s.size
    sinv = np.zeros(k, dtype=np.complex128)
    if k and s[0] > 0.0:
        keep = s >= policy.rank_tol * s[0]
        sinv[keep] = 1.0 / s[keep]
    x = (v[:, :k] * sinv) @ u[:, :k].conj().T
    return dematricize(x, a.shape.transposed)


def penrose_residuals(a: DenseTensor, x: DenseTensor) -> PenroseResiduals:
    """Relative residuals of the four Penrose equations for the pair (a, x)."""
    ax = einstein_product(a, x)
    xa = einstein_product(x, a)
    return PenroseResiduals(
        axa=rel_residual(einstein_product(ax, a), a),
        xax=rel_residual(einstein_product(xa, x), x),
        ax_herm=rel_residual(ax, conj_transpose(ax)),
        xa_herm=rel_residual(xa, conj_transpose(xa)),
    )


@dataclass(frozen=True)
class IdentitySuiteReport:
    """Residuals of the pseudoinverse identities for a single tensor.

    ``residuals`` maps identity names to relative residuals; the
    identities hold for every tensor, so all values should sit at
    rounding level.  ``normal`` and ``ep`` describe the tensor itself and
    are only defined for a square mode split (their residuals are None
    otherwise and the flags are False).
    """

    residuals: dict[str, float]
    normal: bool
    ep: bool
    normal_residual: float | None
    ep_residual: float | None

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def identity_suite(a: DenseTensor, policy: NumericPolicy | None = None) -> IdentitySuiteReport:
    """Evaluate the standard pseudoinverse identities on ``a``.

    Covers recovery of the adjoint through the projectors, recovery of
    ``a`` through the adjoint's pseudoinverse, the Gram routes to the
    pseudoinverse, the splitting of Gram pseudoinverses, and the row
    projector identities; plus the ``normal`` and ``ep``
    (``A @ pinv(A) == pinv(A) @ A``) flags.

    ``pinv(a)`` is computed once and reused; the adjoint's pseudoinverse
    comes from the conjugation identity ``pinv(a.H) == pinv(a).H``.  The
    two Gram pseudoinverses are fresh computations, otherwise the Gram
    identities would compare an expression against itself.
    """
    policy = policy or DEFAULT_POLICY
    ah = conj_transpose(a)
    ap = pinv(a, policy)
    ahp = conj_transpose(ap)
    gram = einstein_product(ah, a)  # A* A, split J x J
    cogram = einstein_product(a, ah)  # A A*, split I x I
    gram_p = pinv(gram, policy)
    cogram_p = pinv(cogram, policy)
    ap_a = einstein_product(ap, a)
    residuals = {
        "star_via_pinv_left": rel_residual(_chain(ap, a, ah), ah),
        "star_via_pinv_right": rel_residual(_chain(ah, a, ap), ah),
        "recover_right": rel_residual(_chain(a, ah, ahp), a),
        "recover_left": rel_residual(_chain(ahp, ah, a), a),
        "pinv_via_gram": rel_residual(_chain(gram_p, ah), ap),
        "pinv_via_cogram": rel_residual(_chain(ah, cogram_p), ap),
        "gram_pinv_split": rel_residual(gram_p, _chain(ap, ahp)),
        "cogram_pinv_split": rel_residual(cogram_p, _chain(ahp, ap)),
        "gram_sandwich_left": rel_residual(gram_p, _chain(ap, cogram_p, a)),
        "gram_sandwich_right": rel_residual(gram_p, _chain(ah, cogram_p, ahp)),
        "row_projector_right": rel_residual(ap_a, _chain(gram, gram_p)),
        "row_projector_left": rel_residual(ap_a, _chain(gram_p, gram)),
    }
    if a.shape.is_square:
        normal_residual = rel_residual(cogram, gram)
        ep_residual = rel_residual(einstein_product(a, ap), ap_a)
        normal = normal_residual <= policy.eq_tol
        ep = ep_residual <= policy.eq_tol
    else:
        normal_residual = None
        ep_residual = None
        normal = False
        ep = False
    return IdentitySuiteReport(
        residuals=residuals,
        normal=normal,
        ep=ep,
        normal_residual=normal_residual,
        ep_residual=ep_residual,
    )


def pinv_sum(tensors: Sequence[DenseTensor], policy: NumericPolicy | None = None) -> DenseTensor:
    """Pseudoinverse of a sum of mutually orthogonal tensors.

    Requires ``Ai @ Aj.H == 0`` and ``Ai.H @ Aj == 0`` for every pair
    i != j; then ``pinv(sum Ai) == sum pinv(Ai)``, which is what is
    returned.

    Raises
    ------
    OrthogonalityError
        If some pair violates the orthogonality precondition at
        ``policy.eq_tol``; the error reports the offending pair and its
        residual.
    """
    policy = policy or DEFAULT_POLICY
    ts = list(tensors)
    if not ts:
        raise ValueError("pinv_sum needs at least one tensor")
    shape = ts[0].shape
    for i, t in enumerate(ts):
        if t.shape != shape:
            raise ShapeMismatchError(f"tensor {i} has shape {t.shape}, expected {shape}")
    zero_l = zeros(shape.row_dims, shape.row_dims)
    zero_r = zeros(shape.col_dims, shape.col_dims)
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            scale = max(1.0, frobenius_norm(ts[i]) * frobenius_norm(ts[j]))
            r = max(
                rel_residual(einstein_product(ts[i], conj_transpose(ts[j])), zero_l, scale=scale),
                rel_residual(einstein_product(conj_transpose(ts[i]), ts[j]), zero_r, scale=scale),
            )
            if r > policy.eq_tol:
                raise OrthogonalityError((i, j), r)
    out = pinv(ts[0], policy)
    for t in ts[1:]:
        out = out + pinv(t, policy)
    return out


def idempotent_factorization(
    c: DenseTensor, policy: NumericPolicy | None = None
) -> tuple[DenseTensor, DenseTensor]:
    """Split an idempotent ``c`` into hermitian idempotents ``(a, b)``.

    ``a = c @ pinv(c)`` and ``b = pinv(c) @ c`` are hermitian idempotent
    with ``pinv(b @ a) == c`` and ``a @ c @ b == c``.

    Raises
    ------
    NotIdempotentError
        If ``c @ c`` differs from ``c`` at ``policy.eq_tol``.
    ShapeMismatchError
        If ``c`` does not have a square mode split.
    """
    policy = policy or DEFAULT_POLICY
    if not c.shape.is_square:
        raise ShapeMismatchError(f"idempotent factorization needs a square split, got {c.shape}")
    r = rel_residual(einstein_product(c, c), c)
    if r > policy.eq_tol:
        raise NotIdempotentError(r)
    cp = pinv(c, policy)
    return einstein_product(c, cp), einstein_product(cp, c)


def min_norm_solve(a: DenseTensor, b: DenseTensor, policy: NumericPolicy | None = None) -> DenseTensor:
    """Minimum-norm least-squares solution of ``a @ x = b``.

    Returns ``pinv(a) @ b``, the X minimizing ``||a @ x - b||`` and, among
    the minimizers, ``||x||``.  The misfit ``a @ x - b`` is orthogonal to
    the range of ``a``.
    """
    if a.shape.row_dims != b.shape.row_dims:
        raise ShapeMismatchError(
            f"row dims of the system {a.shape} and the right-hand side {b.shape} differ"
        )
    return einstein_product(pinv(a, policy), b)
