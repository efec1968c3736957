"""Matricization and the singular value decomposition built on it.

``matricize`` maps a tensor to the matrix whose rows enumerate the row
index tuples and whose columns enumerate the column index tuples, both in
row-major order with the last index varying fastest.  The map is a ring
isomorphism: it sends the Einstein product to matrix multiplication and
the conjugate transpose to the matrix conjugate transpose.  A
``DenseTensor`` stores exactly this matrix, so ``matricize`` returns a
copy of it and ``dematricize`` wraps a validated copy of its input.
Everything spectral in this package (SVD, pseudoinverse, rank) is computed
through this matrix image and mapped back.

The SVD itself is a one-sided Jacobi: plane rotations orthogonalize a set
of columns, chosen for its simplicity, its reliable convergence at these
sizes, and its high relative accuracy.  The rotation loop is the hot
kernel of the package; it lives in ``tenrol._jacobi_py``, which visits the
pairs of a sweep in round-robin rounds of disjoint pairs so that each
numpy call rotates many pairs at once.  Before the kernel runs,
``matrix_svd`` scales the (tall) matrix ``m`` by an exact power of two so
that its largest real or imaginary part lies in [0.5, 1), sorts its rows
by decreasing largest part and factors it as ``P m = Q R`` with numpy's
Householder QR (the preconditioning of Drmac and Veselic, 2008).  From
``PRESORT_COLS`` columns on, the same gather also sorts the columns and
two more QR steps follow (Stewart's QLP step, 1999), which save sweeps;
the presort keeps them accurate under two-sided grading.  The kernel then
orthogonalizes the columns of the last ``R^H``, which come out with the
singular values as their norms; it treats one whose squared norm is at
most 1e-64 as null, so singular values at or below about
``1e-32 * max|entry|`` come out as exactly 0.  A matrix with a NaN or
infinite entry is rejected with ``ValueError`` before any factorization.

``matrix_svd`` also decomposes a ``(T, rows, cols)`` stack of matrices,
each with its own power-of-two scale, through stacked kernel calls of at
most ``KERNEL_BUDGET`` work entries each.  The kernel gives a matrix in a
stack the rotations it would get alone, then exact identity rotations
until every matrix of the call has converged, so stacking saves numpy call
overhead without changing results beyond the sign of zero entries.
"""

from __future__ import annotations

import numpy as np

from . import _jacobi_py as _kernel
from .core import DenseTensor, ModeShape

#: Name of the rotation kernel; the numpy kernel is the only one.
KERNEL_BACKEND: str = "python"

#: Sweep cap and pairwise orthogonality threshold of the Jacobi iteration.
MAX_SWEEPS: int = 30
JACOBI_EPS: float = 1e-14

#: Complex entries of the kernel's work array above which a stack is split
#: over several kernel calls; a matrix over it alone gets a call of its own.
#: 8 matrices at flat 32, 3 at flat 48 and 2 at flat 64 (16k entries or
#: fewer) ran at 0.43-0.53, 0.72-0.76 and 0.82-0.98 of separate calls
#: (quartiles, ``BENCH_23.json``).
KERNEL_BUDGET: int = 2**14

#: Columns from which ``matrix_svd`` presorts the columns and factors
#: ``QR_STEPS`` times (an odd count) before the kernel; below, it factors once.
PRESORT_COLS: int = 8
QR_STEPS: int = 3

__all__ = [
    "SvdConvergenceError",
    "KERNEL_BACKEND",
    "MAX_SWEEPS",
    "JACOBI_EPS",
    "matricize",
    "dematricize",
    "matrix_svd",
]


class SvdConvergenceError(RuntimeError):
    """Raised when the Jacobi iteration hits the sweep cap."""

    def __init__(self, sweeps: int):
        self.sweeps = sweeps
        super().__init__(f"one-sided Jacobi did not converge within {sweeps} sweeps")


def matricize(t: DenseTensor) -> np.ndarray:
    """Matrix image of ``t``: shape ``(row_count, col_count)``, writable copy."""
    return t._mat.copy()


def dematricize(mat: np.ndarray, shape: ModeShape) -> DenseTensor:
    """Inverse of :func:`matricize` for the given mode split.

    Raises
    ------
    ValueError
        If ``mat`` is not ``(row_count, col_count)`` for ``shape``, or has a
        non-finite entry.
    """
    arr = np.asarray(mat, dtype=np.complex128)
    expected = (shape.row_count, shape.col_count)
    if arr.shape != expected:
        raise ValueError(f"matrix shape {arr.shape} does not match mode split {shape} {expected}")
    return DenseTensor(shape, arr)


def matrix_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``m = u @ diag(s) @ v.conj().T`` by one-sided Jacobi after QR steps.

    With the rows of the prescaled matrix sorted, ``P m = Q R``, the
    rotations give ``R^H V = W S``; then ``u`` is ``P^T Q`` with its
    leading columns turned by ``V``, and ``v`` is ``W``.  From
    ``PRESORT_COLS`` columns on, the columns are sorted too, ``P m Π =
    Q R``, then ``R^H = Q_2 R_2`` and ``R_2^H = Q_3 R_3``, and the
    rotations give ``R_3^H V = W S``: ``u`` is ``P^T Q`` turned by
    ``Q_3 V`` and ``v`` is ``Π Q_2 W`` (for a wide ``m``, the factors of
    ``m^H`` swapped).  The extra steps cut the mean sweeps from 7.0 to 6.3
    at flat 16 and from 8.0 to 7.0 at flat 32, but cost more than they
    save below 8 columns: 1.02x the time at flat 6 and 1.23x on 64x4,
    against 0.94x at flat 8 (``BENCH_26.json``).  A null column of ``W``,
    one per zero singular value, is completed by the QR of ``W``.  The
    iteration thresholds are fixed (``JACOBI_EPS``, ``MAX_SWEEPS``) and no
    rank truncation happens here.  The QRs run on the prescaled matrix,
    so the result is exactly equivariant under scaling by powers of two
    (see the module notes).

    A stack of matrices of one shape is decomposed matrix by matrix, but
    through shared kernel calls; ``matrix_svd(stack)[k][i]`` equals
    ``matrix_svd(stack[i])[k]`` up to the sign of zero entries.

    Parameters
    ----------
    m : (rows, cols) or (T, rows, cols) array_like of complex
        Matrix, or stack of matrices, to decompose.

    Returns
    -------
    u : (..., rows, rows) ndarray
        Unitary left factor.
    s : (..., min(rows, cols)) ndarray
        Nonincreasing nonnegative singular values.
    v : (..., cols, cols) ndarray
        Unitary right factor.

    Raises
    ------
    ValueError
        If ``m`` is not a matrix or a stack of them, or has a NaN or
        infinite entry.
    SvdConvergenceError
        If the rotation sweeps do not converge within ``MAX_SWEEPS``.
    """
    mat = np.asarray(m, dtype=np.complex128)
    if mat.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim {mat.ndim}")
    rows, cols = mat.shape[-2:]
    if rows < cols:
        # orthogonalize the smaller column set and swap the factors back
        u, s, v = matrix_svd(mat.conj().swapaxes(-1, -2))
        return v, s, u

    # Scale each matrix by the power of two 2**-e that brings its largest
    # real or imaginary part into [0.5, 1).  The scaling is exact, keeps the
    # kernel's squared norms and their products far from overflow and
    # underflow, and makes the result exactly scale-equivariant under powers
    # of two.
    mat = np.ascontiguousarray(mat)
    parts = mat.view(np.float64)
    mags = np.abs(parts)
    big = mags.max(axis=-1, initial=0.0)  # largest part of each row
    top = big.max(axis=-1, keepdims=True, initial=0.0)[..., None]
    if not np.isfinite(top).all():
        raise ValueError("non-finite entry in the matrix to decompose")
    e = np.frexp(top)[1]
    # P m Π = Q R, where P sorts the rows by decreasing largest part: without
    # it, the QR loses the small singular values of a matrix whose rows
    # grow downwards.  From PRESORT_COLS columns on, Π sorts the columns
    # the same way, in the same gather; below, Π is the identity.
    order = np.argsort(-big, axis=-1, kind="stable")
    rowsort = gather = _rows(order)
    colsort, steps = None, 1
    if cols >= PRESORT_COLS:
        colsort = np.argsort(-mags.reshape(*big.shape, cols, 2).max(axis=(-3, -1)), axis=-1, kind="stable")
        stack = (np.arange(len(colsort))[:, None, None],) if colsort.ndim == 2 else ()
        gather, steps, turn = (*stack, order[..., None], colsort[..., None, :]), QR_STEPS, np.eye(cols)
    q, r = np.linalg.qr(np.ldexp(mat[gather].view(np.float64), -e).view(np.complex128), mode="complete")
    # Row k of ``colrows`` holds column k of R^H; each pair of steps goes on
    # with R_3, Q_3 joining the kernel's ``vrows`` and Q_2 the ``turn`` of W.
    colrows = np.conjugate(r[..., :cols, :])
    vrows = np.zeros(colrows.shape, dtype=np.complex128)
    vrows.reshape(*vrows.shape[:-2], cols * cols)[..., :: cols + 1] = 1.0  # identity per matrix
    for _ in range(steps // 2):
        q2, r2 = np.linalg.qr(colrows.swapaxes(-1, -2))
        q3, r3 = np.linalg.qr(r2.conj().swapaxes(-1, -2))
        colrows, vrows, turn = np.conjugate(r3), q3.swapaxes(-1, -2) @ vrows, turn @ q2
    if colrows.ndim == 2 or colrows.size == 0:  # an empty stack: one call, no rotation
        chunks = [(colrows, vrows)]
    else:
        # kernel calls of at most KERNEL_BUDGET work entries, 2 * ceil(cols / 2)
        # rows of 2 * cols per matrix; a lone matrix, also one left over at
        # the end of a stack, takes the plain single call
        step = max(1, KERNEL_BUDGET // ((cols + cols % 2) * 2 * cols))
        chunks = [(colrows[i : i + step], vrows[i : i + step]) for i in range(0, len(colrows), step)]
        chunks = [(c[0], v[0]) if len(c) == 1 else (c, v) for c, v in chunks]
    if min([_kernel.jacobi_sweeps(c, v, JACOBI_EPS, MAX_SWEEPS) for c, v in chunks]) < 0:
        raise SvdConvergenceError(MAX_SWEEPS)

    s = np.sqrt(np.vecdot(colrows, colrows).real)
    pick = _rows(np.argsort(-s, axis=-1, kind="stable"))
    s, colrows, vrows = s[pick], colrows[pick], vrows[pick]
    u = np.empty_like(q)
    u[rowsort] = q
    u[..., :cols] = u[..., :cols] @ vrows.swapaxes(-1, -2)

    # The kernel zeroes null columns, so exactly the zero singular values
    # leave a zero column of W; the QR of W extends its nonzero columns to
    # a unitary basis.  Only the matrices with a zero singular value pay
    # for it: run on every matrix, it made a 60x4x4 stack 10% slower.
    null = s == 0.0
    w = (colrows / np.where(null, 1.0, s)[..., None]).swapaxes(-1, -2)
    if null.any():
        # s is sorted, so a matrix with a zero singular value ends in one;
        # for a lone matrix ``some`` is 0-d and w[some] is a stack of one
        some = null[..., -1]
        part = w[some]
        basis, _ = np.linalg.qr(part)
        w[some] = np.where(null[some][..., None, :], basis, part)
    if colsort is not None:  # v = Π Q_2 W
        w = (turn @ w)[_rows(np.argsort(colsort, axis=-1))]
    return u, np.ldexp(s, e[..., 0]), w


def _rows(order: np.ndarray):
    """The index that picks the rows ``order`` of each matrix of a stack."""
    return order if order.ndim == 1 else (np.arange(len(order))[:, None], order)
