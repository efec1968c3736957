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
    _adjoint,
    _compare,
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
        dematricize(u, ModeShape(a.shape.row_dims, a.shape.row_dims)),
        dematricize(d, a.shape),
        dematricize(v, ModeShape(a.shape.col_dims, a.shape.col_dims)),
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

    Privately, the tensors may all be stacks of T matrices (see the
    ``DenseTensor`` notes); each result is then a stack, and matrix r of
    tensor i counts as tensor ``i * T + r``.

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
    # the failure of each failed group; the least (kind, tensor) is raised
    errors: list[_PinvOverflow] = []
    for (rows, cols), idx in groups.items():
        mats = [matricize(ts[i]).reshape(-1, rows, cols) for i in idx]
        stack = mats[0] if len(mats) == 1 else np.concatenate(mats)
        count = len(stack) // len(idx)
        try:
            if len(stack) == 1:  # a lone matrix takes the plain single call
                xs = _pinv_matrix(stack[0], policy.rank_tol)[None]
            else:
                xs = _pinv_matrix(stack, policy.rank_tol)
            finite = np.isfinite(xs)
            if not finite.all():  # a product of finite factors overflowed; name the entry
                row, entry = divmod(int(np.flatnonzero(~finite)[0]), xs[0].size)
                raise _PinvOverflow(entry, row, kind=1)
        except _PinvOverflow as e:
            tensor = idx[e.index // count] * count + e.index % count
            errors.append(_PinvOverflow(e.value, tensor, "" if single else f"tensor {tensor}", e.kind))
            continue
        # each row of the fresh stack is a C-contiguous matrix no caller holds
        for i, x in zip(idx, xs.reshape(len(idx), *ts[idx[0]]._mat.shape[:-2], *xs.shape[1:])):
            out[i] = DenseTensor._from_owned(ts[i].shape.transposed, x)
    if errors:
        raise min(errors, key=lambda e: (e.kind, e.index))  # overflowing reciprocals first
    return out[0] if single else tuple(out)


class _PinvOverflow(ValueError):
    """The pseudoinverse of matrix ``index`` of a stack, named ``operand``, overflowed.

    Of ``kind`` 0, its kept singular value ``value`` has no finite reciprocal;
    of ``kind`` 1, its entry at flat index ``value`` is not finite.  Failures
    are raised in ``(kind, index)`` order.
    """

    def __init__(self, value, index, operand: str = "", kind: int = 0):
        self.value, self.index, self.kind = value, index, kind
        where = f" in {operand}" if operand else ""
        what = f"non-finite entry at flat index {value}" if kind else (
            f"pinv overflows: smallest kept singular value {value:.3e} has no finite reciprocal")
        super().__init__(what + where)


def _named_pinv(ts: tuple, names: tuple, policy: NumericPolicy, pairs: Sequence[int] | None = None) -> tuple:
    """``pinv(ts)`` for the operands ``names``; with ``pairs``, ``ts`` are stacks of those pairs.

    A failure names its operand, "in pinv(b)", and with ``pairs`` the pair
    of its matrix, "in pinv(b) of pair 2"; its index becomes the operand's
    position, and with ``pairs`` that position and the pair.
    """
    try:
        return pinv(ts, policy)
    except _PinvOverflow as e:
        if pairs is None:
            k, index, where = e.index, e.index, ""
        else:
            k, j = divmod(e.index, len(pairs))
            index, where = (k, pairs[j]), f" of pair {pairs[j]}"
        raise _PinvOverflow(e.value, index, f"pinv({names[k]}){where}", e.kind) from None


def _pinv_matrix(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Pseudoinverse of a matrix or of each matrix in a stack.

    The columns of V that belong to zero singular values meet zero
    reciprocals, so ``matrix_svd`` leaves them zero, with no QR to complete
    them; every entry keeps its value, and only the sign of an exact zero
    can differ from the completed product.

    Raises ``_PinvOverflow`` with the stack index (0 for a matrix) of the
    first matrix whose smallest kept singular value has no finite
    reciprocal.
    """
    u, s, v = matrix_svd(mat, complete=False)  # the null columns of v meet zero reciprocals
    k = s.shape[-1]
    sinv = np.zeros(s.shape, dtype=np.complex128)
    if k:
        # s > 0: when rank_tol * sigma_max underflows to 0, exact zeros are not kept
        keep = (s >= rank_tol * s[..., :1]) & (s > 0.0)
        with np.errstate(over="ignore"):
            sinv[keep] = 1.0 / s[keep]
        if not np.isfinite(sinv).all():
            index = int(np.flatnonzero(~np.isfinite(sinv))[0]) // k
            raise _PinvOverflow(float(s.reshape(-1, k)[index][keep.reshape(-1, k)[index]].min()), index)
    return (v[..., :k] * sinv[..., None, :]) @ u[..., :k].conj().swapaxes(-1, -2)


def penrose_residuals(a: DenseTensor, x: DenseTensor) -> PenroseResiduals:
    """Relative residuals of the four Penrose equations for the pair (a, x).

    Raises ``ShapeMismatchError`` unless ``x`` has the split of ``a.H``,
    and ``ValueError`` naming the first non-finite residual if an
    intermediate product overflowed.
    """
    if x.shape != a.shape.transposed:
        raise ShapeMismatchError(f"cannot pair {a.shape} with {x.shape}: pinv has split {a.shape.transposed}")
    a, x = a._mat, x._mat
    ax, xa = a @ x, x @ a
    residuals = _compare(((ax @ a, a), (xa @ x, x), (ax, _adjoint(ax)), (xa, _adjoint(xa))))
    return PenroseResiduals(*residuals.tolist(), DEFAULT_POLICY.eq_tol)._checked()


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

    def _checked(self) -> "IdentitySuiteReport":
        _refuse_non_finite({**self.residuals, "normal": self.normal_residual, "ep": self.ep_residual})
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
    inverses = _named_pinv((a, gram, cogram), ("a", "A.H @ A", "A @ A.H"), policy)
    square = a.shape.is_square
    a, ah, gram, cogram, ap, gram_p, cogram_p = (t._mat for t in (a, ah, gram, cogram, *inverses))
    ahp = _adjoint(ap)
    ap_a = ap @ a
    compared = [
        (ap @ a @ ah, ah),  # star_via_pinv_left
        (ah @ a @ ap, ah),  # star_via_pinv_right
        (a @ ah @ ahp, a),  # recover_right
        (ahp @ ah @ a, a),  # recover_left
        (gram_p @ ah, ap),  # pinv_via_gram
        (ah @ cogram_p, ap),  # pinv_via_cogram
        (gram_p, ap @ ahp),  # gram_pinv_split
        (cogram_p, ahp @ ap),  # cogram_pinv_split
        (gram_p, ap @ cogram_p @ a),  # gram_sandwich_left
        (gram_p, ah @ cogram_p @ ahp),  # gram_sandwich_right
        (ap_a, gram @ gram_p),  # row_projector_right
        (ap_a, gram_p @ gram),  # row_projector_left
    ]
    if square:  # normal and ep
        compared += [(cogram, gram), (a @ ap, ap_a)]
    residuals = _compare(compared).tolist()
    normal, ep = residuals[12:] if square else (None, None)
    return IdentitySuiteReport(*residuals[:12], policy.eq_tol, normal, ep)._checked()


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
            x, y = ts[i]._mat, ts[j]._mat
            scale = frobenius_norm(ts[i]) * frobenius_norm(ts[j])
            r = max(_zero_residual(x @ _adjoint(y), scale), _zero_residual(_adjoint(x) @ y, scale))
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
