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
import inspect
import math
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Sequence, TypeVar

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


class _Record:
    """Base of the package's immutable value records.

    A subclass declares its fields as annotations in its class body, in
    order, and a default as the annotated value; they follow the fields of
    its bases.  ``__init_subclass__`` builds from them ``_signature``, an
    ``inspect.Signature`` (so a non-default field after a default raises
    ``ValueError``), and sets ``_fields`` and ``__match_args__`` to the
    names.  ``__init__`` takes one argument per field in field order as it
    stands and binds any other call by ``_signature.bind``, re-raising its
    ``TypeError`` prefixed ``Name.__init__()``; it then looks up and calls
    ``self.__post_init__()``, which the benchmark's tracer wraps on
    ``ModeShape`` to count shapes.  ``__eq__`` holds only between records
    of one class with equal fields, and ``__hash__`` is the hash of their
    tuple, ``_values``.  Assignment and deletion raise ``AttributeError``; the
    fields live in the instance ``__dict__``, where pickle and copy restore
    them.  These are the semantics of ``@dataclass(frozen=True)`` with no
    compiled source.  numpy already imports ``inspect``;
    ``test_tenrol_rol_loads_the_package_and_the_modules_of_what_it_uses``
    fails if that stops.
    """

    _fields: tuple[str, ...] = ()
    _signature = inspect.Signature()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        params = dict(cls._signature.parameters)
        for name in cls.__dict__.get("__annotations__", {}):
            default = cls.__dict__.get(name, inspect.Parameter.empty)
            params[name] = inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=default)
        cls._signature = inspect.Signature(params.values())
        cls._fields = cls.__match_args__ = fields = tuple(params)
        # a data descriptor: its lookup skips the instance dict, and attrgetter reads the fields in C
        values = attrgetter(*fields) if len(fields) > 1 else lambda rec: tuple(map(getattr, repeat(rec), fields))
        cls._values = property(values)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs and tuple(kwargs) == fields[len(args) :]:
            # keywords in field order after the positional arguments, as the
            # report builders pass them, are the field values as they stand
            args = (*args, *kwargs.values())
        elif kwargs or len(args) != len(fields):
            try:
                bound = self._signature.bind(*args, **kwargs)
            except TypeError as e:
                raise TypeError(f"{type(self).__qualname__}.__init__() {e}") from None
            bound.apply_defaults()
            args = bound.args
        # object.__setattr__ keeps the fields in the instance's inline values,
        # where attribute reads are fastest; any() only drives the map
        any(map(object.__setattr__, repeat(self), fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a record class with a condition on them overrides this."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values))})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ModeShape(_Record):
    """Row and column mode sizes of a dense tensor.

    Either tuple may be empty, in which case that side behaves like a
    scalar index (one flat position).  ``row_count`` and ``col_count``,
    the numbers of flat row and column positions, are computed once on
    construction; they are not fields, so they take no part in equality,
    hashing or the repr.
    """

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self._set_dims(_as_dims(self.row_dims), _as_dims(self.col_dims))

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def _of(cls, row_dims: tuple[int, ...], col_dims: tuple[int, ...]) -> "ModeShape":
        # Internal fast path: both tuples come from shapes that were
        # already validated, so they are not checked again.  Shapes are
        # immutable, so the derived shapes of products and transposes are
        # shared, and comparing two of them is mostly an identity check.
        self = object.__new__(cls)
        self._set_dims(row_dims, col_dims)
        return self

    def _set_dims(self, row_dims: tuple[int, ...], col_dims: tuple[int, ...]) -> None:
        object.__setattr__(self, "row_dims", row_dims)
        object.__setattr__(self, "col_dims", col_dims)
        object.__setattr__(self, "row_count", math.prod(row_dims))
        object.__setattr__(self, "col_count", math.prod(col_dims))

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


class NumericPolicy(_Record):
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

    Privately, :func:`_stack` builds a tensor whose matrix is a
    ``(T, row_count, col_count)`` stack of T tensors of one shape.
    ``einstein_product``, ``_chain`` and ``conj_transpose`` act on it
    matrix by matrix, and ``frobenius_norm`` and ``rel_residual`` return a
    ``(T,)`` float64 array, each entry equal bit for bit to the result for
    that matrix alone.  A stack is a batching device of
    :func:`tenrol.rol.rol_report` and never leaves it; the other methods
    and functions assume a single matrix.
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
        # Internal fast path: mat is a freshly computed C-contiguous
        # complex128 (row_count, col_count) array that no caller retains.
        self = object.__new__(cls)
        mat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_mat", mat)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    def __reduce__(self):
        # the default restore of __slots__ would go through __setattr__
        return DenseTensor, (self.shape, self._mat)

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


def _stack(tensors: Sequence[DenseTensor]) -> DenseTensor:
    """The tensors of one shape as a single stacked tensor (see the ``DenseTensor`` notes)."""
    return DenseTensor._from_owned(tensors[0].shape, np.stack([t._mat for t in tensors]))


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
    return DenseTensor._from_owned(a.shape.transposed, np.conjugate(a._mat.swapaxes(-1, -2), order="C"))


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


def _norm(m: np.ndarray) -> float | np.ndarray:
    """``np.linalg.norm(m)`` of a complex array, by the same fast path without its wrapper.

    A ``(T, r, c)`` stack gives the ``(T,)`` norms of its matrices: ``vecdot``
    on float rows sums as ``dot`` does, so each equals the norm of its matrix alone.
    """
    if m.ndim == 3:
        x = m.reshape(len(m), -1)
        re, im = x.real, x.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def frobenius_norm(a: DenseTensor) -> float:
    """Frobenius norm, the root of the sum of squared entry magnitudes."""
    return _norm(a._mat)


def inner_product(a: DenseTensor, b: DenseTensor) -> complex:
    """Frobenius inner product ``trace(a.H @ b)`` of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"inner product requires equal shapes, got {a.shape} and {b.shape}")
    return complex(np.vdot(a._mat, b._mat))


def rel_residual(a: DenseTensor, b: DenseTensor) -> float:
    """Relative distance ``||a - b|| / max(1, ||a||, ||b||)``.

    This single rule backs every boolean produced by the package, so reports
    from different modules are comparable.
    """
    if a.shape is not b.shape and a.shape != b.shape:
        raise ShapeMismatchError(f"cannot compare shapes {a.shape} and {b.shape}")
    if a._mat.ndim == 3:
        return _norm(a._mat - b._mat) / np.maximum(np.maximum(1.0, frobenius_norm(a)), frobenius_norm(b))
    return _norm(a._mat - b._mat) / max(1.0, frobenius_norm(a), frobenius_norm(b))


def _zero_residual(x: DenseTensor, scale: float) -> float:
    """``||x|| / max(1, scale)``: the residual of ``x == 0`` under the caller's scale."""
    return frobenius_norm(x) / max(1.0, scale)


def _unitary_residual(t: DenseTensor, grams: tuple[DenseTensor, DenseTensor] | None = None) -> float:
    """The larger residual of ``t @ t.H == I`` and ``t.H @ t == I``; inf unless ``t`` is square.

    A caller that holds them passes ``grams = (t @ t.H, t.H @ t)``.
    """
    if not t.shape.is_square:
        return math.inf
    if grams is None:
        th = conj_transpose(t)
        grams = (einstein_product(t, th), einstein_product(th, t))
    eye = identity(t.shape.row_dims)
    return max(rel_residual(grams[0], eye), rel_residual(grams[1], eye))


def _refuse_non_finite(residuals: dict[str, float | None], where: str = "") -> None:
    """Raise ``ValueError`` naming the first NaN or infinite residual, which would read as a failed check."""
    for name, r in residuals.items():
        if r is not None and not math.isfinite(r):  # None: a residual this input leaves undefined
            raise ValueError(f"non-finite residual in {name}{where}: an intermediate product overflowed")


_Report = TypeVar("_Report", bound="_ResidualReport")


class _ResidualReport(_Record):
    """Base of every residual report of the package.

    Every field of a report before ``tol`` is a residual under the shared
    relative rule of :func:`rel_residual`; ``residuals`` lists them in field
    order and ``booleans`` thresholds them at ``tol``.  Residual magnitudes
    legitimately differ across conditions, so equivalence is judged on
    booleans, never on residual values.  A NaN or infinite residual would
    read as a failed check, so every builder refuses one through
    ``_checked``, and ``max_residual`` never sees a NaN.  ``as_dict`` gives
    ``tol``, ``residuals`` and ``booleans``, then the properties a report
    class names in ``_derived``.
    """

    _residual_names = ()  # unannotated, so not a field; each report sets its own
    _derived = ()  # unannotated too: the properties as_dict appends, in order

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        cls._residual_names = fields[: fields.index("tol")] if "tol" in fields else ()

    @property
    def residuals(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._residual_names}

    @property
    def booleans(self) -> dict[str, bool]:
        return {name: r <= self.tol for name, r in self.residuals.items()}

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def as_dict(self) -> dict:
        derived = {name: getattr(self, name) for name in self._derived}
        return {"tol": self.tol, "residuals": self.residuals, "booleans": self.booleans, **derived}

    def _checked(self: _Report, where: str = "") -> _Report:
        """``self``, or ``ValueError`` naming the first non-finite residual."""
        _refuse_non_finite(self.residuals, where)
        return self


def approx_equal(a: DenseTensor, b: DenseTensor, policy: NumericPolicy | None = None) -> bool:
    """True when ``rel_residual(a, b)`` is within ``policy.eq_tol``."""
    policy = policy or DEFAULT_POLICY
    return rel_residual(a, b) <= policy.eq_tol


class StructuralFlags(_Record):
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
    """Classify structural properties of ``a`` under the shared residual rule.

    Raises ``ValueError`` naming the first non-finite residual if an
    intermediate product overflowed.
    """
    policy = policy or DEFAULT_POLICY
    tol = policy.eq_tol
    mask = np.eye(a.shape.row_count, a.shape.col_count, dtype=bool)
    diagonal = _norm(a._mat[~mask]) / max(1.0, _norm(a._mat))
    if not a.shape.is_square:
        _refuse_non_finite({"diagonal": diagonal})
        return StructuralFlags(
            hermitian=False,
            skew_hermitian=False,
            unitary=False,
            idempotent=False,
            diagonal=diagonal <= tol,
            normal=False,
            note="square-only flags unset: row and column dims differ",
        )
    ah = conj_transpose(a)
    gram = einstein_product(a, ah)
    cogram = einstein_product(ah, a)
    residuals = {
        "hermitian": rel_residual(a, ah),
        "skew_hermitian": rel_residual(a, -ah),
        "unitary": _unitary_residual(a, (gram, cogram)),
        "idempotent": rel_residual(einstein_product(a, a), a),
        "diagonal": diagonal,
        "normal": rel_residual(gram, cogram),
    }
    _refuse_non_finite(residuals)
    return StructuralFlags(**{name: r <= tol for name, r in residuals.items()})
