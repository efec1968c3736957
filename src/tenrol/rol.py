"""Reverse-order-law diagnostics for the Einstein product.

The reverse-order law (ROL) asks when ``pinv(A @ B) == pinv(B) @ pinv(A)``.
It holds for invertible factors but not in general; this module evaluates
the direct residual together with every known equivalent characterization,
the unitary-factor shortcut formulas, the projector commutation identities,
the three-way zero equivalence, and a seeded randomized search that
cross-validates all of them against each other.

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

:func:`rol_report` also takes two sequences of factors and returns one
report per pair.  One loop evaluates every input as groups of pairs: a
lone pair, the pairs of a sequence that share their factor shapes as
stacked tensors (see the ``DenseTensor`` notes in :mod:`tenrol.core`), or
the two stacks of a block that :func:`fuzz_search` draws.  A group's
residual pass multiplies the stored matrices with ``@``, in the same
product order for a stack as for a lone pair, and hands the nine compared
pairs to :func:`tenrol.core.rel_residual` stacked by matrix shape: one
call at 2x2:2x2, three at 2:3.  Each report equals the one for its pair
alone bit for bit, and a lone pair's report is built from its nine floats.

:func:`fuzz_search` draws trial ``t`` from child ``t`` of
``SeedSequence(seed)``, the stream of ``np.random.default_rng(child)`` bit
for bit for ``t < 2**32`` (``TestBlockSeeding`` in ``tests/test_rol.py``
pins this), hashing a block's PCG64 states at once, and builds the block's
factors with one batched expression per kind of factor and shape.
"""

from __future__ import annotations  # evaluated, the np.random.Generator annotations would import numpy.random

import operator
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NumericPolicy,
    ShapeMismatchError,
    _chain,
    _Record,
    _ResidualReport,
    _adjoint,
    _stack,
    _unitary_residual,
    _zero_residual,
    conj_transpose,
    einstein_product,
    frobenius_norm,
    identity,
    rel_residual,
)
from .mpinv import _named_pinv, _PinvOverflow, pinv
from .unfold import dematricize

__all__ = [
    "RolReport",
    "ZeroEquivalenceReport",
    "ProjectorCommuteReport",
    "FuzzSummary",
    "rol_report",
    "unitary_rol",
    "sandwich_pinv",
    "zero_equivalence",
    "projector_commute_report",
    "fuzz_search",
    "FUZZ_FAMILIES",
]


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

    @property
    def groups(self) -> dict[str, bool]:
        """The five equivalent characterization groups as booleans."""
        ok = self.booleans
        return {
            "direct": ok["direct"],
            "absorb": ok["absorb_left"] and ok["absorb_right"],
            "hermitian": ok["herm_left"] and ok["herm_right"],
            "paired": ok["paired_product"],
            "factor": ok["factor_left"] and ok["factor_right"],
        }

    @property
    def holds(self) -> bool:
        """True when the reverse-order law holds for the pair."""
        return self.direct <= self.tol

    @property
    def consistent(self) -> bool:
        """True when all five characterization groups agree.

        Read on every ``fuzz_search`` trial, so it thresholds the fields
        directly instead of building ``groups``; it equals
        ``len(set(self.groups.values())) == 1``.
        """
        tol = self.tol
        direct = self.direct <= tol
        return bool(
            (self.absorb_left <= tol and self.absorb_right <= tol) == direct
            and (self.herm_left <= tol and self.herm_right <= tol) == direct
            and (self.paired_product <= tol) == direct
            and (self.factor_left <= tol and self.factor_right <= tol) == direct
        )

    @property
    def implication_ok(self) -> bool:
        """True unless the one-way implication direct => commute is violated."""
        return (not self.holds) or self.commute <= self.tol


def rol_report(
    a: DenseTensor | Sequence[DenseTensor],
    b: DenseTensor | Sequence[DenseTensor],
    policy: NumericPolicy | None = None,
) -> RolReport | tuple[RolReport, ...]:
    """Evaluate every reverse-order-law characterization on the pair (a, b).

    Exactly three pseudoinverses are computed per pair: ``pinv(a)``,
    ``pinv(b)`` and ``pinv(a @ b)``; everything else is products.  ``a``
    and ``b`` may also be equal-length sequences, evaluated into a tuple of
    reports, one per pair, or privately two stacks of T pairs (see the
    ``DenseTensor`` notes in :mod:`tenrol.core`), evaluated into T reports.
    One loop takes every input as groups: a lone pair, a sequence's pairs
    stacked by their factor shapes, or the two stacks.  A group costs one
    ``a @ b`` and its finiteness check, one :func:`tenrol.mpinv.pinv` call
    on ``a``, ``b`` and ``a @ b``, and one residual pass (one
    :func:`tenrol.core.rel_residual` call per residual shape), and each
    report equals the one for its pair alone, bit for bit.

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
    policy = policy or DEFAULT_POLICY
    single = isinstance(a, DenseTensor)
    if single != isinstance(b, DenseTensor):
        raise TypeError("rol_report takes two tensors or two sequences of tensors")
    if single:  # a pair, or privately two stacks of T pairs
        groups = [(a, b, None if a._mat.ndim == 2 else range(len(a._mat)))]
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
    rows: dict[int, list] = {}  # by pair
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
        residuals = _residuals(sa, sb, *inverses)
        if pairs is None:  # a lone pair, the only group: its report from its nine floats
            return RolReport(*residuals.tolist(), policy.eq_tol)._checked()
        group_rows = residuals.T
        rows.update(zip(pairs, group_rows.tolist()))
        if not (finite := np.isfinite(group_rows)).all():
            pair, where = _first_failing(finite, pairs)
            try:
                RolReport(*rows[pair], policy.eq_tol)._checked(where)
            except ValueError as e:
                failures.append(((2, pair), e))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return tuple(RolReport(*row, policy.eq_tol) for _, row in sorted(rows.items()))


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
    nine compared pairs go to :func:`tenrol.core.rel_residual` stacked by
    their matrix shape, one call per shape; each residual equals the one
    of its pair alone, bit for bit.
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
    by_shape: dict[tuple[int, int], list[int]] = {}
    for field, (x, _) in enumerate(compared):
        by_shape.setdefault(x.shape[-2:], []).append(field)
    out = np.empty((len(compared), *a.shape[:-2]))
    for (rows, cols), fields in by_shape.items():
        xy = np.stack([compared[f][side] for side in (0, 1) for f in fields]).reshape(2, -1, rows, cols)
        x, y = (DenseTensor._from_owned(ModeShape._of((rows,), (cols,)), half) for half in xy)
        out[fields] = rel_residual(x, y).reshape(len(fields), *a.shape[:-2])
    return out


def unitary_rol(a: DenseTensor, b: DenseTensor, policy: NumericPolicy | None = None) -> DenseTensor:
    """Shortcut pseudoinverse of ``a @ b`` when one factor is unitary.

    With ``b`` unitary the result is ``b.H @ pinv(a)``; with ``a`` unitary
    it is ``pinv(b) @ a.H``.  Either equals ``pinv(a @ b)``.

    Raises
    ------
    ValueError
        If neither factor is unitary at ``policy.eq_tol``.
    """
    policy = policy or DEFAULT_POLICY
    if _unitary_residual(b) <= policy.eq_tol:
        return einstein_product(conj_transpose(b), pinv(a, policy))
    if _unitary_residual(a) <= policy.eq_tol:
        return einstein_product(pinv(b, policy), conj_transpose(a))
    raise ValueError("neither factor is unitary at the given tolerance")


def sandwich_pinv(
    b: DenseTensor, a: DenseTensor, c: DenseTensor, policy: NumericPolicy | None = None
) -> DenseTensor:
    """Pseudoinverse of the sandwich ``b @ a @ c`` with unitary outer factors.

    Returns ``c.H @ pinv(a) @ b.H``, which equals ``pinv(b @ a @ c)`` when
    ``b`` and ``c`` are unitary.

    Raises
    ------
    ValueError
        If an outer factor is not unitary at ``policy.eq_tol``.
    """
    policy = policy or DEFAULT_POLICY
    if _unitary_residual(b) > policy.eq_tol:
        raise ValueError("left factor is not unitary at the given tolerance")
    if _unitary_residual(c) > policy.eq_tol:
        raise ValueError("right factor is not unitary at the given tolerance")
    return _chain(conj_transpose(c), pinv(a, policy), conj_transpose(b))


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
    b: DenseTensor, a: DenseTensor, policy: NumericPolicy | None = None
) -> ZeroEquivalenceReport:
    """Evaluate the three equivalent ways for ``b`` to annihilate ``a``.

    ``b`` must have column dims equal to ``a``'s column dims so that
    ``b @ pinv(a)`` and ``b @ a.H`` conform.

    Raises ``ShapeMismatchError`` if the column dims differ, and ``ValueError``
    naming the first non-finite residual if an intermediate product overflowed,
    or "in pinv(a)" if a kept singular value of ``a`` has no finite reciprocal.
    """
    policy = policy or DEFAULT_POLICY
    if b.shape.col_dims != a.shape.col_dims:
        raise ShapeMismatchError(
            f"column dims of {b.shape} must match column dims of {a.shape}"
        )
    (ap,) = _named_pinv((a,), ("a",), policy)
    ah = conj_transpose(a)
    proj = einstein_product(ap, a)
    bn = frobenius_norm(b)
    return ZeroEquivalenceReport(
        via_pinv=_zero_residual(einstein_product(b, ap), bn * frobenius_norm(ap)),
        via_star=_zero_residual(einstein_product(b, ah), bn * frobenius_norm(ah)),
        via_projector=_zero_residual(einstein_product(b, proj), bn * frobenius_norm(proj)),
        tol=policy.eq_tol,
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
    a: DenseTensor, b: DenseTensor, policy: NumericPolicy | None = None
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
    policy = policy or DEFAULT_POLICY
    if a.shape.col_dims != b.shape.row_dims or b.shape.col_dims != a.shape.row_dims:
        raise ShapeMismatchError(
            f"projector identities need splits I x J and J x I, got {a.shape} and {b.shape}"
        )
    ah = conj_transpose(a)
    bh = conj_transpose(b)
    ap, bp = _named_pinv((a, b), ("a", "b"), policy)
    p = einstein_product(ap, a)  # J x J
    q = einstein_product(b, bp)  # J x J
    r = einstein_product(a, ap)  # I x I
    pb = einstein_product(bp, b)  # I x I
    bbh = einstein_product(b, bh)
    aha = einstein_product(ah, a)
    eye_j = identity(p.shape.row_dims)
    return ProjectorCommuteReport(
        absorb_proj_left=rel_residual(_chain(p, q, ah), _chain(q, ah)),
        absorb_proj_right=rel_residual(_chain(pb, r, bh), _chain(r, bh)),
        commute=rel_residual(_chain(p, q), _chain(q, p)),
        commute_mirror=rel_residual(_chain(pb, r), _chain(r, pb)),
        absorb_gram_left=rel_residual(_chain(p, bbh, ah), _chain(bbh, ah)),
        cross_null_left=_zero_residual(
            _chain(eye_j - p, bbh, p), frobenius_norm(bbh) * frobenius_norm(p)
        ),
        absorb_gram_right=rel_residual(_chain(q, aha, b), _chain(aha, b)),
        cross_null_right=_zero_residual(
            _chain(eye_j - q, aha, q), frobenius_norm(aha) * frobenius_norm(q)
        ),
        tol=policy.eq_tol,
    )._checked()


# ---------------------------------------------------------------------------
# randomized counterexample search

FUZZ_FAMILIES: tuple[str, ...] = (
    "dense",
    "rank_deficient",
    "unitary_factor",
    "diagonal",
    "orthogonal_sum",
)


#: Trials evaluated by one ``rol_report`` call in ``fuzz_search``; it bounds
#: the memory a run holds at once.
_FUZZ_BLOCK = 64


class FuzzSummary(_Record):
    """Order-independent summary of a fuzz run.

    ``violations`` counts pairs whose characterization groups disagreed
    or whose direct => commute implication failed; the expectation is
    zero, and ``first_violation`` carries the full report of the first
    offender when there is one.
    """

    trials: int
    direct_true: int
    direct_false: int
    family_counts: dict[str, int]
    violations: int
    first_violation: dict | None


def _hash(value: np.ndarray, steps: range, init: int, mult: int) -> np.ndarray:
    """``SeedSequence`` hash steps ``steps``, one per row, on 32-bit words held in ``uint64``."""
    h = np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(steps.start, steps.stop + 1)], dtype=np.uint64)
    value = (value ^ h[:-1, None]) * h[1:, None] & 0xFFFFFFFF
    return value ^ value >> 16


def _streams(gen: np.random.Generator, root: np.random.SeedSequence, first: int, n: int):
    """``gen`` reset in turn to the start of ``np.random.default_rng(child)`` for ``root``'s children ``first`` on.

    A child's pool is ``root.pool`` (the seed's words, hashed and mixed)
    with its spawn key hashed in (numpy's INIT_A and MULT_A) and mixed in
    (MIX_MULT_L and MIX_MULT_R), and ``generate_state(4, uint64)`` hashes
    it out (INIT_B and MULT_B); both steps run for all ``n`` children at
    once.  PCG64 seeds ``(state, inc)`` from those words, high word first.
    """
    behind = 4 * max(4, (root.entropy.bit_length() + 31) // 32)  # hash steps the root pool took
    key = _hash(np.arange(first, first + n, dtype=np.uint64), range(behind, behind + 4), 0x43B0D7E5, 0x931E8875)
    pool = (0xCA01F9DD * root.pool.astype(np.uint64)[:, None] - 0x4973F715 * key) & 0xFFFFFFFF
    words = _hash(np.tile(pool ^ pool >> 16, (2, 1)), range(8), 0x8B51F9DD, 0x58F38DED)
    bits = gen.bit_generator
    for hi, lo, inc_hi, inc_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) % 2**128
        start = ((inc + (hi << 64 | lo)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
        bits.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        yield gen


# A block is drawn in two phases: every trial's random numbers, raw and in
# program order (no draw depends on a unitary), then one QR per unitary size
# and one batched build per factor key.
def _unitary(rng: np.random.Generator, n: int, gauss: dict[int, list[np.ndarray]]) -> int:
    """Draw the Gaussian parts of an order-``n`` unitary; its index among the block's unitaries of that order."""
    gauss.setdefault(n, []).append(rng.standard_normal((2, n, n)))
    return len(gauss[n]) - 1


def _orthonormalize(z: np.ndarray) -> np.ndarray:
    """Q of ``z = Q R`` for each matrix of a stack, with the phases of diag(R) moved into Q."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _low_rank(rng: np.random.Generator, shape: ModeShape, gauss: dict) -> tuple:
    # bounded singular values keep the pseudoinverses well conditioned,
    # so boolean decisions sit far from the tolerance
    r = int(rng.integers(1, min(shape.row_count, shape.col_count) + 1))
    u, v = _unitary(rng, shape.row_count, gauss), _unitary(rng, shape.col_count, gauss)
    return ("low_rank", shape, r), (u, v, rng.uniform(0.3, 3.0, r))


def _pair_draw(rng: np.random.Generator, shape: ModeShape, family: str, gauss: dict) -> tuple:
    """The first phase of a pair's draw: ``(build key, raw numbers)`` of each factor."""
    shape_b = shape.transposed
    rc, cc = shape.row_count, shape.col_count
    k = min(rc, cc)
    if family == "dense":
        return tuple((("dense", s), rng.standard_normal((2, s.row_count, s.col_count))) for s in (shape, shape_b))
    if family == "diagonal":  # magnitudes, phases, and the draws that zero a quarter of the entries
        return tuple((("diagonal", s), (rng.uniform(0.3, 3.0, k), rng.random(k), rng.random(k))) for s in (shape, shape_b))
    if family == "rank_deficient":
        return _low_rank(rng, shape, gauss), _low_rank(rng, shape_b, gauss)
    if family == "unitary_factor":
        return _low_rank(rng, shape, gauss), (("unitary", shape_b), _unitary(rng, cc, gauss))
    if family == "orthogonal_sum":
        # both factors are sums of aligned rank-one pieces with mutually
        # orthogonal ranges, sharing the middle unitary; the law holds
        u, v, w = (_unitary(rng, n, gauss) for n in (rc, cc, rc))
        sigmas = [(rng.uniform(0.3, 3.0, k), rng.random(k)) for _ in "ab"]
        # keep one mode alive in both factors: with disjoint supports the
        # product is rounding noise and a relative rank cutoff would turn
        # pinv(a @ b) into an inversion of that noise
        for vals, gaps in sigmas:
            if gaps[0] < 0.25:
                vals[0], gaps[0] = rng.uniform(0.3, 3.0), 1.0
        return (("sum", shape), (u, *sigmas[0], v)), (("sum", shape_b), (v, *sigmas[1], w))
    raise ValueError(f"unknown family {family!r}")


def _build(key: tuple, raw: list, unitaries: dict[int, np.ndarray]) -> np.ndarray:
    """The ``(G, rows, cols)`` stack of one build key's factors, from their raw numbers in one batched expression."""
    kind, shape = key[:2]
    rows, cols = shape.row_count, shape.col_count
    if kind == "unitary":  # perfbench's fuzz trace expects unfold.dematricize on this route
        return np.array([dematricize(unitaries[rows][i], shape)._mat for i in raw])
    parts = [np.array(p) for p in zip(*raw)]  # a dense draw splits into its re and im parts
    diag = np.arange(min(rows, cols))
    if kind == "dense":
        mats = parts[0] + 1j * parts[1]
    elif kind == "diagonal":
        mags, phases, gaps = parts
        vals = mags * np.exp(2j * np.pi * phases)
        vals[gaps < 0.25] = 0.0
        mats = np.zeros((len(raw), rows, cols), dtype=np.complex128)
        mats[:, diag, diag] = vals
    elif kind == "low_rank":
        (u, v, s), r = parts, key[2]
        mats = (unitaries[rows][u][..., :r] * s[:, None]) @ unitaries[cols][v][..., :r].conj().swapaxes(1, 2)
    else:  # "sum": u @ diag(vals with gaps) @ v.H
        u, vals, gaps, v = parts
        vals[gaps < 0.25] = 0.0
        sigma = np.zeros((len(raw), rows, cols))
        sigma[:, diag, diag] = vals
        mats = unitaries[rows][u] @ sigma @ unitaries[cols][v].conj().swapaxes(1, 2)
    return mats


def _draw_block(
    rngs: Iterable[np.random.Generator], shape: ModeShape, families: Sequence[str]
) -> tuple[DenseTensor, DenseTensor]:
    """The stacks of ``a`` and ``b``, a pair per generator and family; a trial draws all it needs before the next."""
    n = len(families)
    gauss: dict[int, list[np.ndarray]] = {}
    slots: dict[tuple, list[int]] = {}
    raw: list = [None] * (2 * n)  # factor side * n + t: a (side 0) or b (side 1) of trial t
    for t, (rng, family) in enumerate(zip(rngs, families)):
        for side, (key, numbers) in enumerate(_pair_draw(rng, shape, family, gauss)):
            slots.setdefault(key, []).append(side * n + t)
            raw[side * n + t] = numbers
    unitaries = {k: _orthonormalize((z := np.array(zs))[:, 0] + 1j * z[:, 1]) for k, zs in gauss.items()}
    # a and b have rows * cols entries each, so one buffer holds both stacks, and
    # one write puts every key's build in place (a key of a square split builds both sides)
    rows, cols = shape.row_count, shape.col_count
    both = np.empty((2 * n, rows * cols), np.complex128)
    both[[i for idx in slots.values() for i in idx]] = np.concatenate(
        [_build(key, [raw[i] for i in idx], unitaries).reshape(len(idx), -1) for key, idx in slots.items()]
    )
    return (
        DenseTensor._from_owned(shape, both[:n].reshape(n, rows, cols)),
        DenseTensor._from_owned(shape.transposed, both[n:].reshape(n, cols, rows)),
    )


def _integer(name: str, value) -> int:
    """``operator.index(value)``, or ``TypeError`` naming the argument ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def fuzz_search(
    shape: ModeShape,
    trials: int,
    seed: int,
    policy: NumericPolicy | None = None,
) -> FuzzSummary:
    """Randomized cross-validation of the characterization equivalences.

    Draws ``trials`` pairs (A with the given shape, B with the transposed
    shape), rotating through the structured families in
    ``FUZZ_FAMILIES``; the ``unitary_factor`` family is skipped when the
    flat counts differ, since no unitary B exists then.  Each trial uses
    an independently derived substream of ``seed``, so results do not
    depend on evaluation order.  Trials are evaluated in fixed-size
    blocks, and memory does not grow with ``trials``.  Trial ``t`` draws
    from child ``t`` of ``SeedSequence(seed)``, the stream of
    ``np.random.default_rng(child)`` bit for bit, through one generator
    reset to each child's PCG64 state; that holds for the first 2**32
    trials, since a spawn key is hashed as one 32-bit word, where numpy
    would give trial 2**32 and later a key of two words.  A block's raw
    numbers are drawn in program order, its factors are built into a stack
    of ``a`` and a stack of ``b``, and one :func:`rol_report` call
    evaluates the two stacks.

    Returns
    -------
    FuzzSummary
        Counts of direct-true and direct-false pairs, per-family trial
        counts, and the first equivalence violation if any was seen.

    Raises
    ------
    ValueError
        If ``trials < 1`` or ``seed < 0``.
    TypeError
        If ``trials`` or ``seed`` is not an integer (``operator.index`` refuses it).
    """
    if (trials := _integer("trials", trials)) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if (seed := _integer("seed", seed)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    policy = policy or DEFAULT_POLICY
    families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
    root = np.random.SeedSequence(seed)
    gen = np.random.default_rng(root)
    direct_true = violations = 0
    family_counts = {f: 0 for f in families}
    first_violation: dict | None = None
    for start in range(0, trials, _FUZZ_BLOCK):
        block = range(start, min(start + _FUZZ_BLOCK, trials))
        # trial t always draws from child t, whatever the block size
        sa, sb = _draw_block(_streams(gen, root, start, len(block)), shape, [families[t % len(families)] for t in block])
        reports = rol_report(sa, sb, policy)
        for t, report in zip(block, reports):
            family = families[t % len(families)]
            family_counts[family] += 1
            direct_true += report.holds
            if not (report.consistent and report.implication_ok):
                violations += 1
                if first_violation is None:
                    first_violation = {"trial": t, "family": family, "report": report.as_dict()}
    return FuzzSummary(trials, direct_true, trials - direct_true, family_counts, violations, first_violation)
