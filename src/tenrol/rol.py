"""Reverse-order-law diagnostics for the Einstein product.

The reverse-order law (ROL) asks when ``pinv(A @ B) == pinv(B) @ pinv(A)``.
It holds for invertible factors but not in general; this module evaluates
the direct residual together with every known equivalent characterization,
the unitary-factor shortcut formulas, the projector commutation identities,
and the three-way zero equivalence.  The seeded randomized search that
cross-validates them against each other is :mod:`tenrol.fuzz`.

Characterization groups evaluated by :func:`rol_report` (A is I x J, B is
J x K; ``P = pinv(A) @ A`` and ``Q = B @ pinv(B)`` are the projectors):

* ``direct``        : pinv(A@B) == pinv(B) @ pinv(A)
* ``absorb_left``   : P @ B @ B.H @ A.H == B @ B.H @ A.H
* ``absorb_right``  : Q @ A.H @ A @ B == A.H @ A @ B
* ``herm_left``     : P @ B @ B.H is hermitian
* ``herm_right``    : A.H @ A @ Q is hermitian
* ``paired_product``: (P @ B @ B.H) @ (A.H @ A @ Q) == B @ B.H @ A.H @ A
* ``factor_left``   : P @ B == B @ pinv(A@B) @ A @ B
* ``factor_right``  : Q @ A.H == A.H @ A @ B @ pinv(A@B)
* ``commute``       : P @ Q == Q @ P

``direct``, ``absorb_left AND absorb_right``, ``herm_left AND
herm_right``, ``paired_product`` and ``factor_left AND factor_right`` are
equivalent; ``commute`` is only implied by them, not conversely.
``RolReport._verdicts`` states these verdicts once, for one pair or T.

:func:`rol_report`'s docstring states how it evaluates a pair, a sequence
of pairs or two stacks of pairs.  Every report lists its compared pairs
for :func:`tenrol.core._compare`, and its ``x == 0`` checks go through
``_zero_residual``.

``fuzz_search``, ``FuzzSummary`` and ``FUZZ_FAMILIES`` are still
attributes of this module: a module-level ``__getattr__`` (PEP 562) loads
:mod:`tenrol.fuzz` on the first access to one of them, so a process that
runs only ``rol_report`` does not compile the search.
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
    _ResidualReport,
    _adjoint,
    _compare,
    _norm,
    _refuse_non_finite,
    _stack,
    _unitary_residual,
    _zero_residual,
    conj_transpose,
    einstein_product,
)
from .mpinv import _named_pinv, _PinvOverflow, pinv

__all__ = [
    "RolReport",
    "ZeroEquivalenceReport",
    "ProjectorCommuteReport",
    "rol_report",
    "unitary_rol",
    "sandwich_pinv",
    "zero_equivalence",
    "projector_commute_report",
]

#: Names of :mod:`tenrol.fuzz` that this module serves on first access.
_FUZZ_NAMES = ("fuzz_search", "FuzzSummary", "FUZZ_FAMILIES")


def __getattr__(name: str):
    if name in _FUZZ_NAMES:
        from . import fuzz  # compiled on this first use

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RolReport(_ResidualReport):
    """Residuals of every reverse-order-law characterization for one pair."""

    _derived = ("groups", "holds", "consistent", "implication_ok")

    direct: float
    absorb_left: float
    absorb_right: float
    herm_left: float
    herm_right: float
    paired_product: float
    factor_left: float
    factor_right: float
    commute: float
    tol: float

    @staticmethod
    def _verdicts(residuals, tol: float) -> tuple[dict, np.ndarray | bool, np.ndarray | bool]:
        """``(groups, consistent, implication_ok)`` of the nine residual rows in field order.

        The one statement of the verdicts.  Float rows (a report's fields or
        a ``(9,)`` array) give booleans, and the ``(T,)`` rows of a ``(9, T)``
        array bool arrays, one entry per pair.  A residual over ``tol`` fails, and so does NaN.
        """
        ok = [row <= tol for row in residuals]
        direct, paired = ok[0], ok[5]
        absorb, hermitian, factor = ok[1] & ok[2], ok[3] & ok[4], ok[6] & ok[7]
        groups = {"direct": direct, "absorb": absorb, "hermitian": hermitian, "paired": paired, "factor": factor}
        consistent = (absorb == direct) & (hermitian == direct) & (paired == direct) & (factor == direct)
        return groups, consistent, direct <= ok[8]  # on booleans, <= is "implies"

    @property
    def groups(self) -> dict[str, bool]:
        """The five equivalent characterization groups as booleans."""
        return {name: bool(ok) for name, ok in self._verdicts(self._values[:-1], self.tol)[0].items()}

    @property
    def holds(self) -> bool:
        """True when the reverse-order law holds for the pair."""
        return self.direct <= self.tol

    @property
    def consistent(self) -> bool:
        """True when all five characterization groups agree."""
        return bool(self._verdicts(self._values[:-1], self.tol)[1])

    @property
    def implication_ok(self) -> bool:
        """True unless the one-way implication direct => commute is violated."""
        return bool(self._verdicts(self._values[:-1], self.tol)[2])


def rol_report(
    a: DenseTensor | Sequence[DenseTensor],
    b: DenseTensor | Sequence[DenseTensor],
    policy: NumericPolicy = DEFAULT_POLICY,
) -> RolReport | tuple[RolReport, ...] | np.ndarray:
    """Evaluate every reverse-order-law characterization on the pair (a, b).

    Exactly three pseudoinverses are computed per pair: ``pinv(a)``,
    ``pinv(b)`` and ``pinv(a @ b)``; everything else is products.  ``a``
    and ``b`` may also be equal-length sequences, evaluated into a tuple of
    reports, one per pair, or privately two stacks of T pairs (see the
    ``DenseTensor`` notes in :mod:`tenrol.core`), evaluated into their
    ``(9, T)`` residuals, pair t's in field order in column t.  One loop
    takes every input as groups: a lone pair, a sequence's pairs stacked
    by their factor shapes, or the two stacks.  A group costs one
    ``a @ b`` and its finiteness check, one :func:`tenrol.mpinv.pinv` call
    on ``a``, ``b`` and ``a @ b``, and one residual pass (one
    :func:`tenrol.core.rel_residual` call per residual shape) into its
    pairs' columns of one ``(9, N)`` array, checked for finiteness after
    the loop; each residual equals the one for its pair alone, bit for bit.

    Raises
    ------
    ShapeMismatchError
        If ``a.col_dims != b.row_dims`` for some pair (of a sequence: the lowest, "of pair i").
    ValueError
        If the sequences differ in length, or else for the first failure
        in this order, naming the lowest pair of a sequence or stack ("of
        pair 2"): ``a @ b`` overflows to a non-finite entry; a kept
        singular value has no finite reciprocal, then a pseudoinverse
        entry is not finite, naming the operand ("in pinv(b)"), each
        ``pinv(a)`` before each ``pinv(b)`` and ``pinv(a @ b)``; a residual
        is non-finite because an intermediate product overflowed.
    TypeError
        If one of ``a`` and ``b`` is a tensor and the other a sequence.
    """
    single = isinstance(a, DenseTensor)
    if single != isinstance(b, DenseTensor):
        raise TypeError("rol_report takes two tensors or two sequences of tensors")
    lone = single and a._mat.ndim == 2
    if single:  # a pair, or privately two stacks of T pairs
        count = 1 if lone else len(a._mat)
        groups = [(a, b, None if lone else range(count))]
    else:
        as_, bs = tuple(a), tuple(b)
        if len(as_) != len(bs):
            raise ValueError(f"rol_report got {len(as_)} left factors and {len(bs)} right factors")
        by_shape: dict[tuple[ModeShape, ModeShape], list[int]] = {}
        for i, (x, y) in enumerate(zip(as_, bs)):
            if x.shape.col_dims != y.shape.row_dims:
                raise ShapeMismatchError(
                    f"cannot contract {x.shape} with {y.shape}: column dims {x.shape.col_dims}"
                    f" != row dims {y.shape.row_dims} of pair {i}"
                )
            by_shape.setdefault((x.shape, y.shape), []).append(i)
        groups = [(_stack([as_[i] for i in idx]), _stack([bs[i] for i in idx]), idx) for idx in by_shape.values()]
        count = len(as_)
    residuals = np.zeros((len(RolReport._residual_names), count))  # column i: pair i; a failed group's stay 0
    failures: list = []  # (stage, ..., pair) and the error; the least is raised
    for sa, sb, pairs in groups:
        sab = einstein_product(sa, sb)
        if not (finite := np.isfinite(sab._mat)).all():
            pair, where = _first_failing(finite, pairs)
            failures.append(((0, pair), ValueError(f"non-finite entry in a @ b{where}: the product overflowed")))
            continue
        try:
            inverses = _named_pinv((sa, sb, sab), _OPERANDS, policy, pairs)
        except _PinvOverflow as e:
            failures.append(((1, e.kind, e.index), e))
            continue
        residuals[:, 0 if pairs is None else pairs] = _residuals(sa, sb, *inverses)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    if not (finite := np.isfinite(residuals)).all():  # the lowest pair that a product overflowed in
        pair, where = _first_failing(finite.T, None if lone else range(count))
        _refuse_non_finite(dict(zip(RolReport._residual_names, residuals[:, pair].tolist())), where)
    if not single:
        return tuple(RolReport(*row, policy.eq_tol) for row in residuals.T.tolist())
    return RolReport(*residuals[:, 0].tolist(), policy.eq_tol) if lone else residuals


#: The operands whose pseudoinverses ``rol_report`` takes, in the order it passes them.
_OPERANDS = ("a", "b", "a @ b")


def _first_failing(finite: np.ndarray, pairs: Sequence[int] | None) -> tuple[int, str]:
    """The first pair with a False in its part of ``finite``, and the suffix naming it ("" for a lone pair, pair 0)."""
    j = int(np.argmin(finite.reshape(1 if pairs is None else len(pairs), -1).all(axis=1)))
    return (j, "") if pairs is None else (pairs[j], f" of pair {pairs[j]}")


def _residuals(
    a: DenseTensor, b: DenseTensor, ap: DenseTensor, bp: DenseTensor, abp: DenseTensor
) -> np.ndarray:
    """The nine ``RolReport`` residuals, in field order, from ``pinv(a)``, ``pinv(b)`` and ``pinv(a @ b)``.

    A ``(9,)`` array for one pair, ``(9, T)`` when the five operands are
    stacks of T pairs.  The products run on the stored matrices, and the
    nine compared pairs go to :func:`tenrol.core._compare`; each residual
    equals the one of its pair alone, bit for bit.
    """
    ah, bh = conj_transpose(a)._mat, conj_transpose(b)._mat
    a, b, ap, bp, abp = a._mat, b._mat, ap._mat, bp._mat, abp._mat
    p = ap @ a  # pinv(A) @ A
    q = b @ bp  # B @ pinv(B)
    bbh = b @ bh
    aha = ah @ a
    ahab = aha @ b
    t_left = p @ bbh
    t_right = aha @ q
    compared = (
        (abp, bp @ ap),  # direct
        (t_left @ ah, bbh @ ah),  # absorb_left
        (q @ aha @ b, ahab),  # absorb_right
        (t_left, _adjoint(t_left)),  # herm_left
        (t_right, _adjoint(t_right)),  # herm_right
        (t_left @ t_right, bbh @ aha),  # paired_product
        (p @ b, b @ abp @ a @ b),  # factor_left
        (q @ ah, ahab @ abp),  # factor_right
        (p @ q, q @ p),  # commute
    )
    return _compare(compared)


def unitary_rol(a: DenseTensor, b: DenseTensor, policy: NumericPolicy = DEFAULT_POLICY) -> DenseTensor:
    """Shortcut pseudoinverse of ``a @ b`` when one factor is unitary.

    With ``b`` unitary the result is ``b.H @ pinv(a)``; with ``a`` unitary
    it is ``pinv(b) @ a.H``.  Either equals ``pinv(a @ b)``.

    Raises
    ------
    ValueError
        If neither factor is unitary at ``policy.eq_tol``; a NaN unitary
        residual, from an overflowing product, fails the check.
    """
    if _unitary_residual(b) <= policy.eq_tol:
        return einstein_product(conj_transpose(b), pinv(a, policy))
    if _unitary_residual(a) <= policy.eq_tol:
        return einstein_product(pinv(b, policy), conj_transpose(a))
    raise ValueError("neither factor is unitary at the given tolerance")


def sandwich_pinv(
    b: DenseTensor, a: DenseTensor, c: DenseTensor, policy: NumericPolicy = DEFAULT_POLICY
) -> DenseTensor:
    """Pseudoinverse of the sandwich ``b @ a @ c`` with unitary outer factors.

    Returns ``c.H @ pinv(a) @ b.H``, which equals ``pinv(b @ a @ c)`` when
    ``b`` and ``c`` are unitary.

    Raises
    ------
    ValueError
        If an outer factor is not unitary at ``policy.eq_tol``; a NaN
        unitary residual, from an overflowing product, fails the check.
    """
    if not _unitary_residual(b) <= policy.eq_tol:  # a NaN from an overflow fails too
        raise ValueError("left factor is not unitary at the given tolerance")
    if not _unitary_residual(c) <= policy.eq_tol:
        raise ValueError("right factor is not unitary at the given tolerance")
    return conj_transpose(c) @ pinv(a, policy) @ conj_transpose(b)


class ZeroEquivalenceReport(_ResidualReport):
    """Residuals of the three equivalent zero conditions for a pair (B, A).

    The conditions ``B @ pinv(A) == 0``, ``B @ A.H == 0`` and
    ``B @ pinv(A) @ A == 0`` hold or fail together; ``consistent`` checks
    that their ``booleans`` agree.
    """

    _derived = ("consistent",)

    via_pinv: float
    via_star: float
    via_projector: float
    tol: float

    @property
    def consistent(self) -> bool:
        return len(set(self.booleans.values())) == 1


def zero_equivalence(
    b: DenseTensor, a: DenseTensor, policy: NumericPolicy = DEFAULT_POLICY
) -> ZeroEquivalenceReport:
    """Evaluate the three equivalent ways for ``b`` to annihilate ``a``.

    ``b`` must have column dims equal to ``a``'s column dims so that
    ``b @ pinv(a)`` and ``b @ a.H`` conform.

    Raises ``ShapeMismatchError`` if the column dims differ, and ``ValueError``
    naming the first non-finite residual if an intermediate product overflowed,
    or "in pinv(a)" if a kept singular value of ``a`` has no finite reciprocal.
    """
    if b.shape.col_dims != a.shape.col_dims:
        raise ShapeMismatchError(
            f"column dims of {b.shape} must match column dims of {a.shape}"
        )
    (ap,) = _named_pinv((a,), ("a",), policy)
    b, a, ap = b._mat, a._mat, ap._mat
    ah = _adjoint(a)
    proj = ap @ a
    bn = _norm(b)
    return ZeroEquivalenceReport(
        _zero_residual(b @ ap, bn * _norm(ap)),
        _zero_residual(b @ ah, bn * _norm(ah)),
        _zero_residual(b @ proj, bn * _norm(proj)),
        policy.eq_tol,
    )._checked()


class ProjectorCommuteReport(_ResidualReport):
    """Residuals of the projector commutation identities for a pair (A, B).

    ``absorb_proj_left`` is equivalent to ``commute`` (pinv(A) @ A against
    B @ pinv(B)) and ``absorb_proj_right`` to ``commute_mirror`` (pinv(B) @ B
    against A @ pinv(A)); the two commutations are independent of each other.
    ``absorb_gram_left`` is equivalent to ``cross_null_left`` and
    ``absorb_gram_right`` to ``cross_null_right``.
    """

    _derived = ("commute_consistent", "pairs_consistent", "consistent")

    absorb_proj_left: float
    absorb_proj_right: float
    commute: float
    commute_mirror: float
    absorb_gram_left: float
    cross_null_left: float
    absorb_gram_right: float
    cross_null_right: float
    tol: float

    @property
    def commute_consistent(self) -> bool:
        """Each absorb_proj condition agrees with its commutation partner."""
        ok = self.booleans
        return (
            ok["absorb_proj_left"] == ok["commute"]
            and ok["absorb_proj_right"] == ok["commute_mirror"]
        )

    @property
    def pairs_consistent(self) -> bool:
        """Each absorb_gram condition agrees with its cross_null partner."""
        ok = self.booleans
        return (
            ok["absorb_gram_left"] == ok["cross_null_left"]
            and ok["absorb_gram_right"] == ok["cross_null_right"]
        )

    @property
    def consistent(self) -> bool:
        return self.commute_consistent and self.pairs_consistent


def projector_commute_report(
    a: DenseTensor, b: DenseTensor, policy: NumericPolicy = DEFAULT_POLICY
) -> ProjectorCommuteReport:
    """Evaluate the projector commutation identities on the pair (a, b).

    ``a`` has split I x J and ``b`` split J x I.  Each absorption identity
    pairs with the condition it is equivalent to:

    * absorb_proj_left : ``P @ Q @ A.H == Q @ A.H``            <=> commute
    * absorb_proj_right: ``S @ R @ B.H == R @ B.H``            <=> commute_mirror
    * absorb_gram_left : ``P @ B @ B.H @ A.H == B @ B.H @ A.H`` <=> cross_null_left
    * absorb_gram_right: ``Q @ A.H @ A @ B == A.H @ A @ B``     <=> cross_null_right
    * cross_null_left  : ``(I - P) @ B @ B.H @ P == 0``
    * cross_null_right : ``(I - Q) @ A.H @ A @ Q == 0``

    with ``P = pinv(A) @ A``, ``Q = B @ pinv(B)`` (both J x J) and
    ``R = A @ pinv(A)``, ``S = pinv(B) @ B`` (both I x I).  ``commute``
    measures ``P @ Q - Q @ P`` and ``commute_mirror`` measures
    ``S @ R - R @ S``; one can hold without the other, so the two
    absorption conditions are not interchangeable.

    Raises ``ShapeMismatchError`` unless the splits are I x J and J x I, and
    ``ValueError`` naming the first non-finite residual if an intermediate
    product overflowed, or the pseudoinverse ("in pinv(a)" or "in pinv(b)")
    whose kept singular value has no finite reciprocal.
    """
    if a.shape.col_dims != b.shape.row_dims or b.shape.col_dims != a.shape.row_dims:
        raise ShapeMismatchError(
            f"projector identities need splits I x J and J x I, got {a.shape} and {b.shape}"
        )
    ap, bp = _named_pinv((a, b), ("a", "b"), policy)
    a, b, ap, bp = a._mat, b._mat, ap._mat, bp._mat
    ah, bh = _adjoint(a), _adjoint(b)
    p = ap @ a  # J x J
    q = b @ bp  # J x J
    r = a @ ap  # I x I
    pb = bp @ b  # I x I
    bbh = b @ bh
    aha = ah @ a
    eye_j = np.eye(len(p), dtype=np.complex128)
    residuals = _compare((  # in field order, less the two cross_null checks
        (p @ q @ ah, q @ ah),  # absorb_proj_left
        (pb @ r @ bh, r @ bh),  # absorb_proj_right
        (p @ q, q @ p),  # commute
        (pb @ r, r @ pb),  # commute_mirror
        (p @ bbh @ ah, bbh @ ah),  # absorb_gram_left
        (q @ aha @ b, aha @ b),  # absorb_gram_right
    )).tolist()
    cross_null_left = _zero_residual((eye_j - p) @ bbh @ p, _norm(bbh) * _norm(p))
    cross_null_right = _zero_residual((eye_j - q) @ aha @ q, _norm(aha) * _norm(q))
    return ProjectorCommuteReport(
        *residuals[:5], cross_null_left, residuals[5], cross_null_right, policy.eq_tol
    )._checked()
