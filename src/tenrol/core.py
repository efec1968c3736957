"""Dense complex tensors with a fixed row/column mode split.

A tensor of order N+M is addressed by a row index tuple (i_1, ..., i_N)
and a column index tuple (j_1, ..., j_M).  The Einstein product contracts
the column modes of the left operand against the row modes of the right
operand; under the row-major flattening used throughout this package it is
the exact image of matrix multiplication, which is what makes the
pseudoinverse and reverse-order-law machinery in the sibling modules work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "ModeShape",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "DenseTensor",
    "StructuralFlags",
    "as_tensor",
    "zeros",
    "identity",
    "diagonal_from",
    "einstein_product",
    "conj_transpose",
    "add_scale",
    "trace",
    "kronecker",
    "frobenius_norm",
    "inner_product",
    "rel_residual",
    "approx_equal",
    "classify",
]


class ShapeMismatchError(ValueError):
    """Raised when operand mode shapes do not conform."""


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = []
    for d in dims:
        i = int(d)
        if i != d or i < 1:
            raise ValueError(f"mode sizes must be positive integers, got {d!r}")
        out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class ModeShape:
    """Row and column mode sizes of a dense tensor.

    Either tuple may be empty, in which case that side behaves like a
    scalar index (one flat position).
    """

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_dims", _as_dims(self.row_dims))
        object.__setattr__(self, "col_dims", _as_dims(self.col_dims))

    @classmethod
    def _of(cls, row_dims: tuple[int, ...], col_dims: tuple[int, ...]) -> "ModeShape":
        # Internal fast path: both tuples come from shapes that were
        # already validated, so they are not checked again.
        self = object.__new__(cls)
        object.__setattr__(self, "row_dims", row_dims)
        object.__setattr__(self, "col_dims", col_dims)
        return self

    @property
    def row_count(self) -> int:
        """Number of flat row positions."""
        return math.prod(self.row_dims)

    @property
    def col_count(self) -> int:
        """Number of flat column positions."""
        return math.prod(self.col_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        """Concatenated mode sizes, row modes first."""
        return self.row_dims + self.col_dims

    @property
    def transposed(self) -> "ModeShape":
        """Shape of the conjugate transpose."""
        return ModeShape._of(self.col_dims, self.row_dims)

    @property
    def is_square(self) -> bool:
        """True when row and column mode tuples match exactly."""
        return self.row_dims == self.col_dims

    def __str__(self) -> str:
        rows = "x".join(map(str, self.row_dims)) or "1"
        cols = "x".join(map(str, self.col_dims)) or "1"
        return f"{rows}:{cols}"


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances shared by every approximate comparison.

    Attributes
    ----------
    eq_tol : float
        Relative Frobenius tolerance for approximate equality.  Two
        tensors are considered equal when
        ``||X - Y|| <= eq_tol * max(1, ||X||, ||Y||)``.
    rank_tol : float
        Relative singular-value cutoff: sigma_k counts toward the rank
        iff ``sigma_k >= rank_tol * sigma_max``.
    """

    eq_tol: float = 1e-10
    rank_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.eq_tol < 1.0:
            raise ValueError(f"eq_tol must lie in (0, 1), got {self.eq_tol}")
        if not 0.0 < self.rank_tol < 1.0:
            raise ValueError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")


DEFAULT_POLICY = NumericPolicy()


class DenseTensor:
    """Immutable dense complex tensor over a fixed mode split.

    Parameters
    ----------
    shape : ModeShape
        Row and column mode sizes.
    entries : array_like of complex
        Entries in row-major order over the concatenated index tuple
        (row modes first, last index varying fastest).  Nested input of
        the matching total size is flattened in the same order.

    Notes
    -----
    The only stored array is the matricization: a C-contiguous
    ``(row_count, col_count)`` complex matrix whose rows enumerate the row
    index tuples and whose columns enumerate the column index tuples, both
    row-major.  Every operation works on that matrix directly, since the
    Einstein product is its matrix product and the conjugate transpose its
    matrix adjoint.  Instances are immutable: the matrix is copied on
    construction and marked read-only, so tensors are safe to share across
    threads.  ``A @ B`` is the Einstein product and ``A.H`` the conjugate
    transpose.
    """

    __slots__ = ("shape", "_mat")

    def __init__(self, shape: ModeShape, entries) -> None:
        if not isinstance(shape, ModeShape):
            raise TypeError(f"shape must be a ModeShape, got {type(shape).__name__}")
        arr = np.array(entries, dtype=np.complex128, copy=True).reshape(-1)
        expected = shape.row_count * shape.col_count
        if arr.size != expected:
            raise ValueError(
                f"entry count {arr.size} does not match shape {shape} (expected {expected})"
            )
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite entry at flat index {bad}")
        mat = arr.reshape(shape.row_count, shape.col_count)
        mat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_mat", mat)

    @classmethod
    def _from_owned(cls, shape: ModeShape, mat: np.ndarray) -> "DenseTensor":
        # Internal fast path: mat is a freshly computed complex128
        # (row_count, col_count) array that no caller retains.
        self = object.__new__(cls)
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        mat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_mat", mat)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the stored matrix, shaped ``row_dims + col_dims``."""
        return self._mat.reshape(self.shape.dims)

    @property
    def entries(self) -> np.ndarray:
        """Read-only flat view in canonical row-major order."""
        return self._mat.reshape(-1)

    @property
    def H(self) -> "DenseTensor":
        """Conjugate transpose."""
        return conj_transpose(self)

    @property
    def norm(self) -> float:
        """Frobenius norm."""
        return frobenius_norm(self)

    def __matmul__(self, other: "DenseTensor") -> "DenseTensor":
        return einstein_product(self, other)

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return add_scale(1.0, self, 1.0, other)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return add_scale(1.0, self, -1.0, other)

    def __mul__(self, alpha) -> "DenseTensor":
        return DenseTensor._from_owned(self.shape, self._mat * complex(alpha))

    __rmul__ = __mul__

    def __neg__(self) -> "DenseTensor":
        return self * -1.0

    def __repr__(self) -> str:
        return f"DenseTensor(row_dims={self.shape.row_dims}, col_dims={self.shape.col_dims})"


def as_tensor(array, row_dims: Sequence[int], col_dims: Sequence[int]) -> DenseTensor:
    """Build a tensor from any array_like with the given mode split."""
    return DenseTensor(ModeShape(tuple(row_dims), tuple(col_dims)), array)


def zeros(row_dims: Sequence[int], col_dims: Sequence[int]) -> DenseTensor:
    """All-zero tensor of the given mode split."""
    shape = ModeShape(tuple(row_dims), tuple(col_dims))
    return DenseTensor._from_owned(
        shape, np.zeros((shape.row_count, shape.col_count), dtype=np.complex128)
    )


def identity(dims: Sequence[int]) -> DenseTensor:
    """Square identity tensor: entry 1 where the row tuple equals the column tuple.

    It is the two-sided unit of the Einstein product contracting
    ``len(dims)`` modes.
    """
    shape = ModeShape(tuple(dims), tuple(dims))
    return DenseTensor._from_owned(shape, np.eye(shape.row_count, dtype=np.complex128))


def diagonal_from(
    row_dims: Sequence[int], col_dims: Sequence[int], values: Sequence[complex]
) -> DenseTensor:
    """Diagonal tensor carrying ``values`` on the matched flat positions.

    Parameters
    ----------
    row_dims, col_dims : sequence of int
        Mode split of the result.
    values : sequence of complex
        Diagonal entries; length must equal ``min(row_count, col_count)``.
    """
    shape = ModeShape(tuple(row_dims), tuple(col_dims))
    k = min(shape.row_count, shape.col_count)
    vals = np.asarray(values, dtype=np.complex128).reshape(-1)
    if vals.size != k:
        raise ValueError(f"expected {k} diagonal values for shape {shape}, got {vals.size}")
    mat = np.zeros((shape.row_count, shape.col_count), dtype=np.complex128)
    mat[np.arange(k), np.arange(k)] = vals
    return DenseTensor._from_owned(shape, mat)


def einstein_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Einstein product contracting the column modes of ``a`` with the row modes of ``b``.

    ``(a @ b)[i..., j...] = sum_k a[i..., k...] * b[k..., j...]`` where the
    sum runs over all ``len(a.shape.col_dims)`` contracted modes; on the
    stored matricizations this is the matrix product.

    Raises
    ------
    ShapeMismatchError
        If ``a.shape.col_dims != b.shape.row_dims``.
    """
    if a.shape.col_dims != b.shape.row_dims:
        raise ShapeMismatchError(
            f"cannot contract {a.shape} with {b.shape}: "
            f"column dims {a.shape.col_dims} != row dims {b.shape.row_dims}"
        )
    return DenseTensor._from_owned(ModeShape._of(a.shape.row_dims, b.shape.col_dims), a._mat @ b._mat)


def _chain(*ts: DenseTensor) -> DenseTensor:
    """Einstein product of ``ts`` taken left to right."""
    return functools.reduce(einstein_product, ts)


def conj_transpose(a: DenseTensor) -> DenseTensor:
    """Conjugate transpose: swaps the row and column mode blocks and conjugates.

    An involution, and an anti-homomorphism for the Einstein product:
    ``(A @ B).H == B.H @ A.H``.
    """
    return DenseTensor._from_owned(a.shape.transposed, a._mat.conj().T)


def add_scale(alpha: complex, a: DenseTensor, beta: complex, b: DenseTensor) -> DenseTensor:
    """Linear combination ``alpha * a + beta * b`` of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot combine shapes {a.shape} and {b.shape}")
    out = complex(alpha) * a._mat + complex(beta) * b._mat
    return DenseTensor._from_owned(a.shape, out)


def trace(a: DenseTensor) -> complex:
    """Trace of a square-split tensor: sum of entries with row tuple == column tuple.

    Equals the matrix trace of the matricization exactly, and is cyclic
    under the Einstein product.
    """
    if not a.shape.is_square:
        raise ShapeMismatchError(f"trace requires a square mode split, got {a.shape}")
    return complex(np.trace(a._mat))


def kronecker(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Kronecker (outer) product with concatenated mode lists.

    The result has row dims ``a.row_dims + b.row_dims`` and column dims
    ``a.col_dims + b.col_dims`` with entry
    ``c[(i, k), (j, l)] = a[i, j] * b[k, l]``.  Under the row-major
    flattening of the concatenated tuples this is the matrix Kronecker
    product of the two matricizations.
    """
    shape = ModeShape._of(a.shape.row_dims + b.shape.row_dims, a.shape.col_dims + b.shape.col_dims)
    return DenseTensor._from_owned(shape, np.kron(a._mat, b._mat))


def frobenius_norm(a: DenseTensor) -> float:
    """Frobenius norm, the root of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(a._mat))


def inner_product(a: DenseTensor, b: DenseTensor) -> complex:
    """Frobenius inner product ``trace(a.H @ b)`` of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"inner product requires equal shapes, got {a.shape} and {b.shape}")
    return complex(np.vdot(a._mat, b._mat))


def rel_residual(a: DenseTensor, b: DenseTensor, *, scale: float | None = None) -> float:
    """Relative distance ``||a - b|| / max(1, scale)``.

    When ``scale`` is omitted it defaults to ``max(||a||, ||b||)``.  This
    single rule backs every boolean produced by the package, so reports
    from different modules are comparable.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot compare shapes {a.shape} and {b.shape}")
    diff = float(np.linalg.norm(a._mat - b._mat))
    if scale is None:
        scale = max(frobenius_norm(a), frobenius_norm(b))
    return diff / max(1.0, scale)


def approx_equal(a: DenseTensor, b: DenseTensor, policy: NumericPolicy | None = None) -> bool:
    """True when ``rel_residual(a, b)`` is within ``policy.eq_tol``."""
    policy = policy or DEFAULT_POLICY
    return rel_residual(a, b) <= policy.eq_tol


@dataclass(frozen=True)
class StructuralFlags:
    """Structural classification of a tensor at a given tolerance.

    ``hermitian``, ``skew_hermitian``, ``unitary``, ``idempotent`` and
    ``normal`` are only meaningful for a square mode split; for other
    shapes they are False and ``note`` says why.  ``diagonal`` is defined
    for every shape through the matricization.
    """

    hermitian: bool
    skew_hermitian: bool
    unitary: bool
    idempotent: bool
    diagonal: bool
    normal: bool
    note: str | None = None


def classify(a: DenseTensor, policy: NumericPolicy | None = None) -> StructuralFlags:
    """Classify structural properties of ``a`` under the shared residual rule."""
    policy = policy or DEFAULT_POLICY
    tol = policy.eq_tol
    mat = a._mat
    mask = np.eye(a.shape.row_count, a.shape.col_count, dtype=bool)
    off = float(np.linalg.norm(mat[~mask])) if mat.size else 0.0
    diagonal = off / max(1.0, float(np.linalg.norm(mat))) <= tol
    if not a.shape.is_square:
        return StructuralFlags(
            hermitian=False,
            skew_hermitian=False,
            unitary=False,
            idempotent=False,
            diagonal=diagonal,
            normal=False,
            note="square-only flags unset: row and column dims differ",
        )
    ah = conj_transpose(a)
    gram = einstein_product(a, ah)
    cogram = einstein_product(ah, a)
    eye = identity(a.shape.row_dims)
    return StructuralFlags(
        hermitian=rel_residual(a, ah) <= tol,
        skew_hermitian=rel_residual(a, -ah) <= tol,
        unitary=max(rel_residual(gram, eye), rel_residual(cogram, eye)) <= tol,
        idempotent=rel_residual(einstein_product(a, a), a) <= tol,
        diagonal=diagonal,
        normal=rel_residual(gram, cogram) <= tol,
    )
