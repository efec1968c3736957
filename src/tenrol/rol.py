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
report per pair; all of their pseudoinverses come from one ``pinv`` call,
which is how :func:`fuzz_search` evaluates a block of trials at once.  The
pairs of a sequence that share their factor shapes are evaluated together:
``a @ b``, its finiteness check and the residual code run once on stacked
tensors (see the ``DenseTensor`` notes in :mod:`tenrol.core`), through the
same core primitives and in the same product order as for a single pair,
so each report equals the one for its pair alone bit for bit.
"""

from __future__ import annotations  # evaluated, the np.random.Generator annotations would import numpy.random

from typing import Callable, Sequence

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
    _stack,
    _unitary_residual,
    _zero_residual,
    conj_transpose,
    diagonal_from,
    einstein_product,
    frobenius_norm,
    identity,
    rel_residual,
)
from .mpinv import _named_pinv, pinv
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
    reports, one per pair.  Either way every pseudoinverse comes from one
    :func:`tenrol.mpinv.pinv` call.  The pairs of a sequence are grouped by
    their factor shapes; ``a @ b`` and the residuals of a group come from
    one evaluation on stacked tensors, so each product of a whole group
    costs one call, and each report equals the one for its pair alone, bit
    for bit.

    Raises
    ------
    ShapeMismatchError
        If ``a.col_dims != b.row_dims`` for some pair (of a sequence: the lowest, "of pair i").
    ValueError
        If ``a @ b`` overflows to a non-finite entry, or a residual is
        non-finite because an intermediate product overflowed (either
        message names the lowest such pair of a sequence), or the sequences
        differ in length.  A pseudoinverse whose kept singular value has
        no finite reciprocal raises naming its operand, such as "in
        pinv(b)", and in a sequence its pair ("in pinv(b) of pair 2"):
        the lowest pair of ``pinv(a)``, else of ``pinv(b)``, else of
        ``pinv(a @ b)``, whatever shape group the pairs sit in.
    TypeError
        If one of ``a`` and ``b`` is a tensor and the other a sequence.
    """
    policy = policy or DEFAULT_POLICY
    single = isinstance(a, DenseTensor)
    if single != isinstance(b, DenseTensor):
        raise TypeError("rol_report takes two tensors or two sequences of tensors")
    if single:
        ab = einstein_product(a, b)
        if not np.isfinite(ab._mat).all():
            raise ValueError("non-finite entry in a @ b: the product overflowed")
        return RolReport(*_residuals(a, b, *_named_pinv((a, b, ab), _OPERANDS, policy)), tol=policy.eq_tol)._checked()
    as_, bs = tuple(a), tuple(b)
    if len(as_) != len(bs):
        raise ValueError(f"rol_report got {len(as_)} left factors and {len(bs)} right factors")
    n = len(as_)
    groups: dict[tuple[ModeShape, ModeShape], list[int]] = {}
    for i, (x, y) in enumerate(zip(as_, bs)):
        if x.shape.col_dims != y.shape.row_dims:
            raise ShapeMismatchError(
                f"cannot contract {x.shape} with {y.shape}: column dims {x.shape.col_dims}"
                f" != row dims {y.shape.row_dims} of pair {i}"
            )
        groups.setdefault((x.shape, y.shape), []).append(i)
    # a @ b and its finiteness check once per group; the lowest failing pair is named
    stacks = [(_stack([as_[i] for i in idx]), _stack([bs[i] for i in idx])) for idx in groups.values()]
    abs_: list = [None] * n
    bad = n
    for idx, (sa, sb) in zip(groups.values(), stacks):
        sab = einstein_product(sa, sb)
        ok = np.isfinite(sab._mat).all(axis=(1, 2))
        bad = bad if ok.all() else min(bad, idx[int(np.argmin(ok))])
        for i, m in zip(idx, sab._mat):
            abs_[i] = DenseTensor._from_owned(sab.shape, m)
    if bad < n:
        raise ValueError(f"non-finite entry in a @ b of pair {bad}: the product overflowed")
    inv = _named_pinv(as_ + bs + tuple(abs_), _OPERANDS, policy, n)
    rows: list = [None] * n
    for idx, (sa, sb) in zip(groups.values(), stacks):
        pinvs = (_stack([inv[k * n + i] for i in idx]) for k in range(3))
        group_rows = np.array(_residuals(sa, sb, *pinvs)).T
        ok = np.isfinite(group_rows).all(axis=1)
        bad = bad if ok.all() else min(bad, idx[int(np.argmin(ok))])
        for i, row in zip(idx, group_rows.tolist()):
            rows[i] = row
    if bad < n:  # raises, naming the first non-finite residual of that pair
        RolReport(*rows[bad], tol=policy.eq_tol)._checked(f" of pair {bad}")
    return tuple(RolReport(*row, tol=policy.eq_tol) for row in rows)


#: The operands whose pseudoinverses ``rol_report`` takes, in the order it passes them.
_OPERANDS = ("a", "b", "a @ b")


def _residuals(
    a: DenseTensor, b: DenseTensor, ap: DenseTensor, bp: DenseTensor, abp: DenseTensor
) -> tuple:
    """The nine ``RolReport`` residuals, in field order, from ``pinv(a)``, ``pinv(b)`` and ``pinv(a @ b)``.

    Floats for one pair; ``(T,)`` arrays when the five operands are stacks
    of T pairs.
    """
    ah = conj_transpose(a)
    bh = conj_transpose(b)
    p = einstein_product(ap, a)  # pinv(A) @ A
    q = einstein_product(b, bp)  # B @ pinv(B)
    bbh = einstein_product(b, bh)
    aha = einstein_product(ah, a)
    t_left = einstein_product(p, bbh)
    t_right = einstein_product(aha, q)

    return (
        rel_residual(abp, einstein_product(bp, ap)),  # direct
        rel_residual(_chain(t_left, ah), _chain(bbh, ah)),  # absorb_left
        rel_residual(_chain(q, aha, b), _chain(aha, b)),  # absorb_right
        rel_residual(t_left, conj_transpose(t_left)),  # herm_left
        rel_residual(t_right, conj_transpose(t_right)),  # herm_right
        rel_residual(_chain(t_left, t_right), _chain(bbh, aha)),  # paired_product
        rel_residual(_chain(p, b), _chain(b, abp, a, b)),  # factor_left
        rel_residual(_chain(q, ah), _chain(aha, b, abp)),  # factor_right
        rel_residual(_chain(p, q), _chain(q, p)),  # commute
    )


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


# A pair is drawn in two phases, so that a block shares its QR calls.  The
# first draws all of the trial's random numbers, in program order (no draw
# depends on a unitary factor), and returns the Gaussian matrices whose QR
# factors the pair needs with the function that builds the pair from them.
def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n x n complex Gaussian matrix behind a Haar-random unitary."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _orthonormalize(z: np.ndarray) -> np.ndarray:
    """Q of ``z = Q R`` for each matrix of a stack, with the phases of diag(R) moved into Q."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _dense_tensor(rng: np.random.Generator, shape: ModeShape) -> DenseTensor:
    n = shape.row_count * shape.col_count
    return DenseTensor(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _low_rank_tensor(rng: np.random.Generator, shape: ModeShape) -> tuple[list[np.ndarray], Callable]:
    # bounded singular values keep the pseudoinverses well conditioned,
    # so boolean decisions sit far from the tolerance
    rc, cc = shape.row_count, shape.col_count
    r = int(rng.integers(1, min(rc, cc) + 1))
    zs = [_gaussian(rng, rc), _gaussian(rng, cc)]
    s = rng.uniform(0.3, 3.0, r)
    return zs, lambda u, v: dematricize((u[:, :r] * s) @ v[:, :r].conj().T, shape)


def _diagonal_tensor(rng: np.random.Generator, shape: ModeShape) -> DenseTensor:
    k = min(shape.row_count, shape.col_count)
    mags = rng.uniform(0.3, 3.0, k)
    phases = np.exp(2j * np.pi * rng.random(k))
    vals = mags * phases
    vals[rng.random(k) < 0.25] = 0.0
    return diagonal_from(shape.row_dims, shape.col_dims, vals)


def _sigma_with_gaps(rng: np.random.Generator, k: int) -> np.ndarray:
    s = rng.uniform(0.3, 3.0, k)
    s[rng.random(k) < 0.25] = 0.0
    return s


def _pair_of(draw_a: tuple[list[np.ndarray], Callable], draw_b: tuple[list[np.ndarray], Callable]) -> tuple:
    """The first phase of a pair's draw from those of its two factors."""
    (za, build_a), (zb, build_b) = draw_a, draw_b
    return za + zb, lambda *us: (build_a(*us[: len(za)]), build_b(*us[len(za) :]))


def _pair_draw(rng: np.random.Generator, shape: ModeShape, family: str) -> tuple[list[np.ndarray], Callable]:
    """The first phase of a pair's draw: its Gaussian matrices and the function that builds it."""
    shape_b = shape.transposed
    if family == "dense":
        pair = _dense_tensor(rng, shape), _dense_tensor(rng, shape_b)
        return [], lambda: pair
    if family == "rank_deficient":
        return _pair_of(_low_rank_tensor(rng, shape), _low_rank_tensor(rng, shape_b))
    if family == "unitary_factor":
        draw_a = _low_rank_tensor(rng, shape)
        return _pair_of(draw_a, ([_gaussian(rng, shape_b.row_count)], lambda u: dematricize(u, shape_b)))
    if family == "diagonal":
        pair = _diagonal_tensor(rng, shape), _diagonal_tensor(rng, shape_b)
        return [], lambda: pair
    if family == "orthogonal_sum":
        # both factors are sums of aligned rank-one pieces with mutually
        # orthogonal ranges, sharing the middle unitary; the law holds
        rc, cc = shape.row_count, shape.col_count
        zs = [_gaussian(rng, rc), _gaussian(rng, cc), _gaussian(rng, rc)]
        k = min(rc, cc)
        sa = np.zeros((rc, cc))
        sb = np.zeros((cc, rc))
        sa_vals = _sigma_with_gaps(rng, k)
        sb_vals = _sigma_with_gaps(rng, k)
        # keep one mode alive in both factors: with disjoint supports the
        # product is rounding noise and a relative rank cutoff would turn
        # pinv(a @ b) into an inversion of that noise
        for vals in (sa_vals, sb_vals):
            if vals[0] == 0.0:
                vals[0] = rng.uniform(0.3, 3.0)
        sa[np.arange(k), np.arange(k)] = sa_vals
        sb[np.arange(k), np.arange(k)] = sb_vals
        return zs, lambda u, v, w: (
            dematricize(u @ sa @ v.conj().T, shape),
            dematricize(v @ sb @ w.conj().T, shape_b),
        )
    raise ValueError(f"unknown family {family!r}")


def _draw_block(
    rngs: Sequence[np.random.Generator], shape: ModeShape, families: Sequence[str]
) -> list[tuple[DenseTensor, DenseTensor]]:
    """One pair per generator and family, with one stacked QR per unitary size."""
    draws = [_pair_draw(rng, shape, family) for rng, family in zip(rngs, families)]
    by_size: dict[int, list[np.ndarray]] = {}
    for pending, _ in draws:
        for z in pending:
            by_size.setdefault(len(z), []).append(z)
    # the builds take the unitaries of each size in the order they were drawn
    unitaries = {n: iter(_orthonormalize(np.stack(zs))) for n, zs in by_size.items()}
    return [build(*(next(unitaries[len(z)]) for z in pending)) for pending, build in draws]


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
    blocks, one :func:`rol_report` call per block, so that the
    pseudoinverses of a whole block come from one stacked SVD and memory
    does not grow with ``trials``.  The pairs of a block are drawn in two
    phases: every trial first draws its random numbers, then one stacked QR
    per unitary size serves the whole block, then each trial builds its pair.

    Returns
    -------
    FuzzSummary
        Counts of direct-true and direct-false pairs, per-family trial
        counts, and the first equivalence violation if any was seen.

    Raises
    ------
    ValueError
        If ``trials < 1``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    policy = policy or DEFAULT_POLICY
    families = [
        f
        for f in FUZZ_FAMILIES
        if f != "unitary_factor" or shape.row_count == shape.col_count
    ]
    root = np.random.SeedSequence(seed)
    direct_true = 0
    direct_false = 0
    family_counts = {f: 0 for f in families}
    violations = 0
    first_violation: dict | None = None
    for start in range(0, trials, _FUZZ_BLOCK):
        block = range(start, min(start + _FUZZ_BLOCK, trials))
        # successive spawns continue one child sequence: trial t always
        # draws from child t, whatever the block size
        pairs = _draw_block(
            [np.random.default_rng(child) for child in root.spawn(len(block))],
            shape,
            [families[t % len(families)] for t in block],
        )
        reports = rol_report([a for a, _ in pairs], [b for _, b in pairs], policy)
        for t, report in zip(block, reports):
            family = families[t % len(families)]
            family_counts[family] += 1
            if report.holds:
                direct_true += 1
            else:
                direct_false += 1
            if not (report.consistent and report.implication_ok):
                violations += 1
                if first_violation is None:
                    first_violation = {"trial": t, "family": family, "report": report.as_dict()}
    return FuzzSummary(
        trials=trials,
        direct_true=direct_true,
        direct_false=direct_false,
        family_counts=family_counts,
        violations=violations,
        first_violation=first_violation,
    )
