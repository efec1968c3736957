"""Tensor SVD and the Moore-Penrose inverse under the Einstein product.

Every tensor A with split I x J factors as ``A = U @ D @ V.H`` with U, V
unitary and D diagonal nonnegative; the pseudoinverse is then
``pinv(A) = V @ pinv(D) @ U.H``, the unique X satisfying the four Penrose
equations A@X@A = A, X@A@X = X, (A@X).H = A@X and (X@A).H = X@A.  All of
it is computed through the matricization isomorphism.  ``pinv`` also takes
a sequence of tensors and decomposes those of one matricization shape by
one stacked SVD.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NumericPolicy,
    ShapeMismatchError,
    _chain,
    _refuse_non_finite,
    _Record,
    _ResidualReport,
    _zero_residual,
    conj_transpose,
    einstein_product,
    frobenius_norm,
    rel_residual,
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


class SvdFactors(_Record):
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


class PenroseResiduals(_ResidualReport):
    """Relative residuals of the four Penrose equations for a pair (A, X), at ``DEFAULT_POLICY.eq_tol``."""

    axa: float  # ||A@X@A - A||, scaled
    xax: float  # ||X@A@X - X||, scaled
    ax_herm: float  # hermitianness of A@X
    xa_herm: float  # hermitianness of X@A
    tol: float

    def satisfied(self, tol: float) -> bool:
        """True when all four residuals are within ``tol``."""
        return self.max_residual <= tol


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


def pinv(
    a: DenseTensor | Sequence[DenseTensor], policy: NumericPolicy | None = None
) -> DenseTensor | tuple[DenseTensor, ...]:
    """Moore-Penrose inverse of ``a``, or of each tensor in a sequence.

    Singular values below ``rank_tol * sigma_max`` are treated as zero;
    the threshold itself is kept (ties count toward the rank).  A kept
    value whose reciprocal overflows raises ``ValueError``; for a sequence
    the message names the lowest such tensor ("in tensor i").  Otherwise a
    result entry that overflows raises ``ValueError`` naming its flat
    index, and for a sequence the lowest such tensor.  Every shape group
    is decomposed before either is raised, so the tensor named is the
    lowest whatever group it sits in.

    Parameters
    ----------
    a : DenseTensor or sequence of DenseTensor
        Tensor with split I x J, or tensors of any splits.  The tensors of
        a sequence whose matricizations share a shape are decomposed by one
        stacked :func:`tenrol.unfold.matrix_svd` call; each result equals
        the one for that tensor alone.
    policy : NumericPolicy, optional
        Supplies ``rank_tol``.

    Returns
    -------
    DenseTensor or tuple of DenseTensor
        Tensor with split J x I satisfying the four Penrose equations; for
        a sequence, a tuple of them in the same order.
    """
    policy = policy or DEFAULT_POLICY
    single = isinstance(a, DenseTensor)
    ts = (a,) if single else tuple(a)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(ts):
        groups.setdefault((t.shape.row_count, t.shape.col_count), []).append(i)
    out: list[DenseTensor | None] = [None] * len(ts)
    # (kind, tensor, error) of each failed group, kind 0 for an overflowing
    # reciprocal and 1 for a non-finite result entry; the least one is raised
    errors: list[tuple[int, int, ValueError]] = []
    for idx in groups.values():
        mats = [matricize(ts[i]) for i in idx]
        try:
            if len(mats) == 1:  # a lone matrix takes the plain single call
                xs = _pinv_matrix(mats[0], policy.rank_tol)[None]
            else:
                xs = _pinv_matrix(np.stack(mats), policy.rank_tol)
        except _ReciprocalOverflow as e:
            i = idx[e.index]
            errors.append((0, i, _ReciprocalOverflow(e.value, i, "" if single else f"tensor {i}")))
            continue
        finite = np.isfinite(xs)
        if not finite.all():  # a product of finite factors overflowed; name the entry and its tensor
            row, entry = divmod(int(np.flatnonzero(~finite)[0]), xs[0].size)
            where = "" if single else f" in tensor {idx[row]}"
            errors.append((1, idx[row], ValueError(f"non-finite entry at flat index {entry}{where}")))
            continue
        # each row of the fresh stack is a C-contiguous matrix no caller holds
        for i, x in zip(idx, xs):
            out[i] = DenseTensor._from_owned(ts[i].shape.transposed, x)
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    return out[0] if single else tuple(out)


class _ReciprocalOverflow(ValueError):
    """A kept singular value of matrix ``index`` of a stack has no finite reciprocal."""

    def __init__(self, value: float, index: int, operand: str = ""):
        self.value = value
        self.index = index
        where = f" in {operand}" if operand else ""
        super().__init__(
            f"pinv overflows: smallest kept singular value {value:.3e} has no finite reciprocal{where}"
        )


def _named_pinv(ts: tuple, names: tuple, policy: NumericPolicy, pairs: int | None = None) -> tuple:
    """``pinv(ts)`` for the operands ``names``, one tensor each or, for a sequence, ``pairs`` each.

    An overflow names its operand, "in pinv(b)", and in a sequence its pair, "in pinv(b) of pair 2".
    """
    try:
        return pinv(ts, policy)
    except _ReciprocalOverflow as e:
        k, i = divmod(e.index, pairs or 1)
        where = f"pinv({names[k]})" + ("" if pairs is None else f" of pair {i}")
        raise _ReciprocalOverflow(e.value, e.index, where) from None


def _pinv_matrix(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Pseudoinverse of a matrix or of each matrix in a stack.

    Raises ``_ReciprocalOverflow`` with the stack index (0 for a matrix) of
    the first matrix whose smallest kept singular value has no finite
    reciprocal.
    """
    u, s, v = matrix_svd(mat)
    k = s.shape[-1]
    sinv = np.zeros(s.shape, dtype=np.complex128)
    if k:
        # s > 0: when rank_tol * sigma_max underflows to 0, exact zeros are not kept
        keep = (s >= rank_tol * s[..., :1]) & (s > 0.0)
        with np.errstate(over="ignore"):
            sinv[keep] = 1.0 / s[keep]
        if not np.isfinite(sinv).all():
            index = int(np.flatnonzero(~np.isfinite(sinv))[0]) // k
            raise _ReciprocalOverflow(float(s.reshape(-1, k)[index][keep.reshape(-1, k)[index]].min()), index)
    return (v[..., :k] * sinv[..., None, :]) @ u[..., :k].conj().swapaxes(-1, -2)


def penrose_residuals(a: DenseTensor, x: DenseTensor) -> PenroseResiduals:
    """Relative residuals of the four Penrose equations for the pair (a, x).

    Raises ``ValueError`` naming the first non-finite residual if an
    intermediate product overflowed.
    """
    ax = einstein_product(a, x)
    xa = einstein_product(x, a)
    return PenroseResiduals(
        axa=rel_residual(einstein_product(ax, a), a),
        xax=rel_residual(einstein_product(xa, x), x),
        ax_herm=rel_residual(ax, conj_transpose(ax)),
        xa_herm=rel_residual(xa, conj_transpose(xa)),
        tol=DEFAULT_POLICY.eq_tol,
    )._checked()


class IdentitySuiteReport(_ResidualReport):
    """Residuals of the pseudoinverse identities for a single tensor.

    The identities hold for every tensor, so all ``residuals`` should sit at
    rounding level.  ``normal`` and ``ep`` describe the tensor itself; their
    residuals follow ``tol``, so they are not among ``residuals``, and are
    None for a non-square mode split, where both flags are False.
    """

    star_via_pinv_left: float
    star_via_pinv_right: float
    recover_right: float
    recover_left: float
    pinv_via_gram: float
    pinv_via_cogram: float
    gram_pinv_split: float
    cogram_pinv_split: float
    gram_sandwich_left: float
    gram_sandwich_right: float
    row_projector_right: float
    row_projector_left: float
    tol: float
    normal_residual: float | None
    ep_residual: float | None

    @property
    def normal(self) -> bool:
        """True when ``A @ A.H == A.H @ A`` at ``tol``."""
        return self.normal_residual is not None and self.normal_residual <= self.tol

    @property
    def ep(self) -> bool:
        """True when ``A @ pinv(A) == pinv(A) @ A`` at ``tol``."""
        return self.ep_residual is not None and self.ep_residual <= self.tol

    def _checked(self, where: str = "") -> "IdentitySuiteReport":
        _refuse_non_finite({**self.residuals, "normal": self.normal_residual, "ep": self.ep_residual}, where)
        return self


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
    identities would compare an expression against itself; all three come
    from one :func:`pinv` call.

    Raises ``ValueError`` naming the first non-finite residual (``normal``
    and ``ep`` after the identities) if an intermediate product overflowed,
    and naming the pseudoinverse, such as "in pinv(A.H @ A)", if a kept
    singular value has no finite reciprocal.
    """
    policy = policy or DEFAULT_POLICY
    ah = conj_transpose(a)
    gram = einstein_product(ah, a)  # A* A, split J x J
    cogram = einstein_product(a, ah)  # A A*, split I x I
    ap, gram_p, cogram_p = _named_pinv((a, gram, cogram), ("a", "A.H @ A", "A @ A.H"), policy)
    ahp = conj_transpose(ap)
    ap_a = einstein_product(ap, a)
    return IdentitySuiteReport(
        star_via_pinv_left=rel_residual(_chain(ap, a, ah), ah),
        star_via_pinv_right=rel_residual(_chain(ah, a, ap), ah),
        recover_right=rel_residual(_chain(a, ah, ahp), a),
        recover_left=rel_residual(_chain(ahp, ah, a), a),
        pinv_via_gram=rel_residual(_chain(gram_p, ah), ap),
        pinv_via_cogram=rel_residual(_chain(ah, cogram_p), ap),
        gram_pinv_split=rel_residual(gram_p, _chain(ap, ahp)),
        cogram_pinv_split=rel_residual(cogram_p, _chain(ahp, ap)),
        gram_sandwich_left=rel_residual(gram_p, _chain(ap, cogram_p, a)),
        gram_sandwich_right=rel_residual(gram_p, _chain(ah, cogram_p, ahp)),
        row_projector_right=rel_residual(ap_a, _chain(gram, gram_p)),
        row_projector_left=rel_residual(ap_a, _chain(gram_p, gram)),
        tol=policy.eq_tol,
        normal_residual=rel_residual(cogram, gram) if a.shape.is_square else None,
        ep_residual=rel_residual(einstein_product(a, ap), ap_a) if a.shape.is_square else None,
    )._checked()


def pinv_sum(tensors: Sequence[DenseTensor], policy: NumericPolicy | None = None) -> DenseTensor:
    """Pseudoinverse of a sum of mutually orthogonal tensors.

    Requires ``Ai @ Aj.H == 0`` and ``Ai.H @ Aj == 0`` for every pair
    i != j; then ``pinv(sum Ai) == sum pinv(Ai)``, which is what is
    returned.  The summand pseudoinverses come from one :func:`pinv` call
    and are added left to right.

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
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            scale = frobenius_norm(ts[i]) * frobenius_norm(ts[j])
            r = max(
                _zero_residual(einstein_product(ts[i], conj_transpose(ts[j])), scale),
                _zero_residual(einstein_product(conj_transpose(ts[i]), ts[j]), scale),
            )
            if not r <= policy.eq_tol:  # a NaN from an overflow fails too
                raise OrthogonalityError((i, j), r)
    parts = pinv(ts, policy)
    out = parts[0]
    for part in parts[1:]:
        out = out + part
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
    if not r <= policy.eq_tol:  # a NaN from an overflow fails too
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
