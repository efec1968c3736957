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

The SVD itself is a one-sided Jacobi: plane rotations orthogonalize the
columns of the matrix, chosen for its simplicity, its reliable convergence
at these sizes, and its high relative accuracy.  The rotation loop is the
hot kernel of the package; it lives in ``tenrol._jacobi_py``, which visits
the pairs of a sweep in round-robin rounds of disjoint pairs so that each
numpy call rotates many pairs at once.  Before the kernel runs,
``matrix_svd`` scales the matrix by an exact power of two so that its
largest real or imaginary part lies in [0.5, 1); the kernel treats a
column whose squared norm is at most 1e-64 of that scaled matrix as null,
so singular values at or below about ``1e-32 * max|entry|`` come out as
exactly 0.  A matrix with a NaN or infinite entry is rejected with
``ValueError`` before any rotation.
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
    """Full SVD ``m = u @ diag(s) @ v.conj().T`` by one-sided Jacobi.

    The iteration thresholds are fixed (``JACOBI_EPS``, ``MAX_SWEEPS``)
    and no rank truncation happens here.  The result is exactly
    equivariant under scaling by powers of two (see the module notes).

    Parameters
    ----------
    m : (rows, cols) array_like of complex
        Matrix to decompose.

    Returns
    -------
    u : (rows, rows) ndarray
        Unitary left factor.
    s : (min(rows, cols),) ndarray
        Nonincreasing nonnegative singular values.
    v : (cols, cols) ndarray
        Unitary right factor.

    Raises
    ------
    ValueError
        If ``m`` is not a matrix or has a NaN or infinite entry.
    SvdConvergenceError
        If the rotation sweeps do not converge within ``MAX_SWEEPS``.
    """
    mat = np.asarray(m, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {mat.ndim}")
    rows, cols = mat.shape
    if rows < cols:
        # orthogonalize the smaller column set and swap the factors back
        u, s, v = matrix_svd(mat.conj().T)
        return v, s, u

    # Row k holds column k, scaled by the power of two 2**-e that brings the
    # largest real or imaginary part into [0.5, 1).  The scaling is exact,
    # keeps the kernel's squared norms and their products far from overflow
    # and underflow, and makes the result exactly scale-equivariant under
    # powers of two.  ldexp also makes a fresh array, so the caller's input
    # is never rotated in place.
    parts = np.ascontiguousarray(mat.T).view(np.float64)
    top = np.abs(parts).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("non-finite entry in the matrix to decompose")
    e = int(np.frexp(top)[1])
    colrows = np.ldexp(parts, -e).view(np.complex128)
    vrows = np.eye(cols, dtype=np.complex128)
    sweeps = _kernel.jacobi_sweeps(colrows, vrows, JACOBI_EPS, MAX_SWEEPS)
    if sweeps < 0:
        raise SvdConvergenceError(MAX_SWEEPS)

    s = np.linalg.norm(colrows, axis=1)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    colrows = colrows[order]
    vrows = vrows[order]

    u = np.zeros((rows, rows), dtype=np.complex128)
    have = 0
    for k in range(cols):
        if s[k] > 0.0:
            u[:, have] = colrows[k] / s[k]
            have += 1
    if have < cols:
        # exactly-zero columns contribute nothing; shift their sigmas to the tail
        s = np.concatenate([s[:have], np.zeros(cols - have)])
    # the complete QR of the first ``have`` columns extends them to a unitary basis
    q, _ = np.linalg.qr(u[:, :have], mode="complete")
    u[:, have:] = q[:, have:]
    return u, np.ldexp(s, e), vrows.T
