"""Seeded randomized search that cross-validates the reverse-order-law characterizations.

:func:`fuzz_search` draws pairs from the structured families in
``FUZZ_FAMILIES`` and checks, on every pair, that the five equivalent
characterization groups of :func:`tenrol.rol.rol_report` agree and that
``direct`` implies ``commute``.  Only ``tenrol fuzz`` and direct callers
run it, so it lives apart from :mod:`tenrol.rol`, and ``import tenrol``
compiles it on the first access to one of its names; ``tenrol.rol`` still
serves ``fuzz_search``, ``FuzzSummary`` and ``FUZZ_FAMILIES``.

The docstring of :func:`fuzz_search` states how trials are seeded, drawn
and evaluated; ``TestBlockSeeding`` in ``tests/test_rol.py`` pins each
block's streams against numpy's own.
"""

from __future__ import annotations  # evaluated, the np.random.Generator annotations would import numpy.random

import operator
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_POLICY, DenseTensor, ModeShape, NumericPolicy, _Record
from .rol import RolReport, rol_report
from .unfold import dematricize

__all__ = ["FuzzSummary", "fuzz_search", "FUZZ_FAMILIES"]


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
    policy: NumericPolicy = DEFAULT_POLICY,
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
    of ``a`` and a stack of ``b``, and one :func:`tenrol.rol.rol_report` call
    evaluates them into ``(9, T)`` residuals, whose verdicts
    ``RolReport._verdicts`` counts; only a first violation becomes a report.

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
    families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
    root = np.random.SeedSequence(seed)
    gen = np.random.default_rng(root)
    direct_true = violations = 0
    first_violation: dict | None = None
    for start in range(0, trials, _FUZZ_BLOCK):
        block = range(start, min(start + _FUZZ_BLOCK, trials))
        # trial t always draws from child t, whatever the block size
        sa, sb = _draw_block(_streams(gen, root, start, len(block)), shape, [families[t % len(families)] for t in block])
        residuals = rol_report(sa, sb, policy)
        groups, consistent, implication_ok = RolReport._verdicts(residuals, policy.eq_tol)
        direct_true += int(np.count_nonzero(groups["direct"]))
        failed = np.flatnonzero(~(consistent & implication_ok))
        violations += len(failed)
        if first_violation is None and len(failed):
            t = block[failed[0]]
            report = RolReport(*residuals[:, failed[0]].tolist(), policy.eq_tol)
            first_violation = {"trial": t, "family": families[t % len(families)], "report": report.as_dict()}
    family_counts = {f: len(range(k, trials, len(families))) for k, f in enumerate(families)}
    return FuzzSummary(trials, direct_true, trials - direct_true, family_counts, violations, first_violation)
