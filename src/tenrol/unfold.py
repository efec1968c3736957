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
``PRESORT_COLS`` columns on, the same gather also sorts the columns, and
the rotations start from the eigenvectors of the Gram matrix of ``R^H``;
from ``QLP_COLS`` columns on, two more QR steps come first (Stewart's QLP
step, 1999).  That mostly leaves the kernel nothing to rotate, and the
presort keeps the route accurate under two-sided grading.  The kernel
then orthogonalizes the columns of the last ``R^H``, which come out with
the singular values as their norms; it treats one whose squared norm is
at most 1e-64 as null, so singular values at or below about
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
#: A call turns every matrix, by identity rotations once converged, until
#: its slowest one converges, and its work array grows with the stack, so
#: bounded calls keep a large stack's sweeps short and its work in cache.
KERNEL_BUDGET: int = 2**14

#: Columns from which ``matrix_svd`` presorts the columns and turns by the
#: Gram eigenvectors: the count from which the kernel confirms its sweeps.
PRESORT_COLS: int = _kernel.CONFIRM_COLS

#: Columns from which two more QR steps precede the Gram start.  Below, the
#: Gram start alone already converges in one sweep, and the steps cost more
#: than they save on the stacks that ``tenrol fuzz`` decomposes.
QLP_COLS: int = 5

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


def matrix_svd(m: np.ndarray, complete: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``m = u @ diag(s) @ v.conj().T`` by one-sided Jacobi after QR steps.

    With the rows of the prescaled matrix sorted, ``P m = Q R``, the
    rotations give ``R^H V = W S``; then ``u`` is ``P^T Q`` with its
    leading columns turned by ``V``, and ``v`` is ``W``.  From
    ``PRESORT_COLS`` columns on, the columns are sorted too, ``P m Π =
    Q R``, and the rotations start from ``V_0``, the eigenvectors of the
    Gram matrix ``R R^H`` in descending order: ``R^H V_0 V = W S`` gives
    ``u`` as ``P^T Q`` turned by ``V_0 V`` and ``v`` as ``Π W``.  From
    ``QLP_COLS`` columns on, ``R^H = Q_2 R_2`` and ``R_2^H = Q_3 R_3``
    come first, and ``R_3`` takes the place of R: ``u`` is ``P^T Q``
    turned by ``Q_3 V_0 V`` and ``v`` is ``Π Q_2 W`` (for a wide ``m``,
    the factors of ``m^H`` swapped).  The kernel still decides convergence
    by its own pairwise test, so ``V_0`` only moves where the rotations
    start: the turn stays a product of unitary factors, the columns of
    ``W`` pass the same test, and a poor ``V_0`` costs sweeps, not
    accuracy.  A null column of ``W``, one per zero singular value, is
    completed by the QR of ``W`` unless ``complete`` is false; ``pinv``
    multiplies those columns by zero reciprocals, so it skips that QR.
    The iteration thresholds are fixed (``JACOBI_EPS``, ``MAX_SWEEPS``)
    and no rank truncation happens here.  The QRs run on the prescaled
    matrix, so the result is exactly equivariant under scaling by powers
    of two (see the module notes).

    A stack of matrices of one shape is decomposed matrix by matrix, but
    through shared kernel calls; ``matrix_svd(stack)[k][i]`` equals
    ``matrix_svd(stack[i])[k]`` up to the sign of zero entries.

    Parameters
    ----------
    m : (rows, cols) or (T, rows, cols) array_like of complex
        Matrix, or stack of matrices, to decompose.
    complete : bool, optional
        If false, the columns of ``v`` (for a wide ``m``, of ``u``) that
        belong to a zero singular value are left as zeros instead of
        completing a unitary factor.

    Returns
    -------
    u : (..., rows, rows) ndarray
        Unitary left factor.
    s : (..., min(rows, cols)) ndarray
        Nonincreasing nonnegative singular values.
    v : (..., cols, cols) ndarray
        Unitary right factor (see ``complete``).

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
        u, s, v = matrix_svd(mat.conj().swapaxes(-1, -2), complete)
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
    gram = cols >= PRESORT_COLS
    if gram:
        colsort = np.argsort(-mags.reshape(*big.shape, cols, 2).max(axis=(-3, -1)), axis=-1, kind="stable")
        stack = (np.arange(len(colsort))[:, None, None],) if colsort.ndim == 2 else ()
        gather = (*stack, order[..., None], colsort[..., None, :])
    q, r = np.linalg.qr(np.ldexp(mat[gather].view(np.float64), -e).view(np.complex128), mode="complete")
    # Row k of ``colrows`` holds column k of R^H
    colrows = np.conjugate(r[..., :cols, :])
    if not gram:
        vrows = np.zeros(colrows.shape, dtype=np.complex128)
        vrows.reshape(*vrows.shape[:-2], cols * cols)[..., :: cols + 1] = 1.0  # identity per matrix
    else:
        qlp = cols >= QLP_COLS
        if qlp:  # two more steps go on with R_3; Q_2 is the ``turn`` of W
            turn, r2 = np.linalg.qr(colrows.swapaxes(-1, -2))
            q3, r3 = np.linalg.qr(r2.conj().swapaxes(-1, -2))
            colrows = np.conjugate(r3)
        # V_0, the eigenvectors of the Gram matrix R R^H in descending order,
        # starts the kernel's ``vrows`` as V_0^T (after Q_3^T, when taken)
        v0t = np.linalg.eigh(np.conjugate(colrows) @ colrows.swapaxes(-1, -2))[1][..., ::-1].swapaxes(-1, -2)
        colrows, vrows = v0t @ colrows, v0t @ q3.swapaxes(-1, -2) if qlp else v0t
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
    if complete and null.any():
        # s is sorted, so a matrix with a zero singular value ends in one;
        # for a lone matrix ``some`` is 0-d and w[some] is a stack of one
        some = null[..., -1]
        part = w[some]
        basis, _ = np.linalg.qr(part)
        w[some] = np.where(null[some][..., None, :], basis, part)
    if gram:  # v = Π W, or Π Q_2 W
        w = (turn @ w if qlp else w)[_rows(np.argsort(colsort, axis=-1))]
    return u, np.ldexp(s, e[..., 0]), w


def _rows(order: np.ndarray):
    """The index that picks the rows ``order`` of each matrix of a stack."""
    return order if order.ndim == 1 else (np.arange(len(order))[:, None], order)
