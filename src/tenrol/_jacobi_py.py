"""The one-sided Jacobi rotation kernel, in numpy.

``tenrol.unfold.matrix_svd`` calls :func:`jacobi_sweeps` on ``R^H``, R the
triangular factor of its QR, or on a stack of such ``R^H`` of one shape,
held slot-major.  A sweep visits the column pairs in the round-robin
order of Brent and Luk (1985), so that each numpy call rotates many
disjoint pairs at once, of every matrix in the stack.

Below ``CONFIRM_COLS`` (5) columns the kernel starts cold, with 4.6 mean
sweeps on Gaussian 4x4 inputs.  From 5 columns on, ``matrix_svd`` hands
it ``R^H`` already turned by the eigenvectors of its Gram matrix, and
most sweeps would rotate nothing: Gaussian inputs at flat 5, 6 and 7
take one sweep, where the cold start took 5.3, 5.9 and 6.1
(``BENCH_29.json``).
So before each sweep one all-pairs product confirms the columns
orthogonal by the kernel's own pairwise test, and the rounds run only
when some pair fails it: for 2 of the 64 calls on the benchmark's flat-32
pool, none at flat 16, and 14 of 16 Gaussian calls at flat 64, which
then take two sweeps (``BENCH_28.json``).  With two products by the
identity dropped from ``matrix_svd``, that took it to 0.66, 0.68 and
0.83 of its time at flat 16, 32 and 64.  The confirmation and the
rounds perform the same floating-point operations in the same order as
the plainer round they replaced, so the results are bit-identical to
it; ``tests/test_jacobi_reference.py`` keeps the plainer round as the
reference.
"""

from __future__ import annotations

import functools

import numpy as np

#: Squared column norm at or below which a column counts as null: pairs
#: with a null column are not rotated, and null columns are zeroed on exit.
NULL_NORM2: float = 1e-64

#: Columns from which every sweep is first confirmed in one all-pairs
#: product (see :func:`jacobi_sweeps`).  ``unfold.PRESORT_COLS`` is this
#: count: from it on, ``matrix_svd`` starts the kernel from the Gram
#: eigenvectors, and most sweeps rotate nothing.  At 4 columns that route
#: took 0.43-0.45 of the time on one matrix but 1.13-1.25x on the
#: 192-matrix stacks that ``tenrol fuzz`` decomposes (``BENCH_29.json``).
CONFIRM_COLS: int = 5


@functools.lru_cache(maxsize=None)
def round_robin(n: int) -> np.ndarray:
    """Row permutation that moves ``n`` columns from one round to the next.

    The columns sit in ``2h`` slots, ``h = ceil(n / 2)``, with an all-zero
    dummy in the last slot when ``n`` is odd.  A round pairs slot ``k``
    with slot ``h + k`` for every ``k < h``; then the slots are permuted by
    ``work = work[perm]``.  This is the circle method: slot 0 stays and
    the others rotate one place around the circle ``0, 1, ..., h - 1,
    2h - 1, ..., h``.  So the ``2h - 1`` rounds of a sweep pair every two
    columns exactly once, and after them every column is back in its own
    slot.
    """
    size = n + n % 2
    h = size // 2
    circle = list(range(h)) + list(range(size - 1, h - 1, -1))
    circle = circle[:1] + circle[-1:] + circle[1:-1]
    perm = np.array(circle[:h] + circle[: h - 1 : -1], dtype=np.intp)
    perm.setflags(write=False)  # cached and shared by every call
    return perm


@functools.lru_cache(maxsize=None)
def sweep_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(low, high)`` columns that the rounds of a sweep pair, in order.

    Round ``r`` pairs the column in slot ``k`` with the one in slot
    ``h + k`` (see :func:`round_robin`), and ``low`` and ``high`` list
    them round after round in that orientation.  The dummy column of an
    odd ``n`` is dropped, so every two of the ``n`` columns appear exactly
    once.
    """
    perm = round_robin(n)
    h = perm.size // 2
    slots, low, high = np.arange(perm.size), [], []
    for _ in range(2 * h - 1):
        low.append(slots[:h])
        high.append(slots[h:])
        slots = slots[perm]
    low, high = np.concatenate(low), np.concatenate(high)
    real = (low < n) & (high < n)
    low, high = low[real], high[real]
    low.setflags(write=False)  # cached and shared by every call
    high.setflags(write=False)
    return low, high


def _still(g, app, aqq, eps, null):
    """The pairs that a round leaves alone: orthogonal or null.

    Written so that NaN makes a pair rotate: it must never pass as orthogonal.
    """
    return (g <= eps * np.sqrt(app * aqq)) | (np.minimum(app, aqq) <= null)


def _calm(cw: np.ndarray, n: int, eps, null) -> bool:
    """Whether a sweep would rotate no pair of the slot-major columns ``cw``.

    Every pair gets the test of its round, from the same ``vecdot`` values,
    so this holds exactly when the sweep would be calm; the rounds of a
    calm sweep only permute the columns, and leave each in its own slot.
    """
    low, high = sweep_pairs(n)
    cw = cw[:n]
    norm2 = np.vecdot(cw, cw).real
    apq = np.vecdot(cw[:, None], cw[None, :])[low, high]
    still = _still(np.abs(apq), norm2[low], norm2[high], eps, null)
    return np.count_nonzero(still) == still.size


def jacobi_sweeps(
    cols: np.ndarray, vrows: np.ndarray, eps: float, max_sweeps: int
) -> int:
    """Orthogonalize the rows of ``cols`` in place by plane rotations.

    Each sweep is a sequence of rounds (see :func:`round_robin`).  A round
    takes the Gram entries of all of its pairs from one product, derives
    every rotation from them at once, and rotates the paired rows of one
    ``[cols | vrows]`` work array elementwise as ``c*x - s*(dc*y)`` and
    ``s*x + c*(dc*y)``.  A pair whose smaller squared norm is at most
    ``NULL_NORM2`` is left alone, and such columns are set to zero on
    exit, so null columns neither stall convergence nor underflow into
    NaN.  A non-finite pair never counts as orthogonal.

    A stack of T matrices is rotated by the same rounds, one numpy call
    each for the whole stack, on a slot-major ``(2h, T, m + n)`` work
    array: the rotated halves are contiguous blocks, and every per-pair
    value is a contiguous ``(h, T)`` array.  A single matrix takes the same
    path without the T axis.  A matrix none of whose pairs is active in a
    round gets the exact identity rotation (c = 1, s = 0), also once its
    own sweeps are rotation-free, until a sweep rotates no pair of any
    matrix; so each matrix comes out as it would from a call of its own,
    up to the sign of zero entries.  A stack of one costs 1.14x, 1.09x
    and 1.07x a 2-D call at n = 4, 16 and 32 (``BENCH_23.json``), so
    ``matrix_svd`` hands a lone matrix over as 2-D.

    From ``CONFIRM_COLS`` columns on, each sweep is first confirmed: one
    broadcast ``vecdot`` gives the Gram entries of all pairs, and each
    pair of :func:`sweep_pairs` gets the round's own test.  If every pair
    of every matrix passes, the sweep would rotate nothing and leave every
    column in its own slot, so the kernel counts it without running its
    rounds.  The first sweep is confirmed on ``cols``, before the work
    array is built, which took 0.95 and 0.96 of the time of confirming it
    on the work array at flat 8 and 16.  Below 5 columns the kernel
    starts cold, and confirming before every sweep there cost 1.02-1.20x
    of ``matrix_svd`` (``BENCH_28.json``), so it is not done.

    Parameters
    ----------
    cols : (n, m) or (T, n, m) complex128 ndarray
        Row k holds column k of the matrix being decomposed.
    vrows : (n, n) or (T, n, n) complex128 ndarray
        Row k holds column k of the accumulated right factor; receives
        the same rotations.
    eps : float
        Pairwise convergence threshold: the pair (p, q) is considered
        orthogonal when ``|cols[p]^H cols[q]| <= eps * |cols[p]| * |cols[q]|``.
    max_sweeps : int
        Cap on the number of full sweeps.

    Returns
    -------
    int
        Sweeps performed until every matrix had a rotation-free sweep, or
        -1 if some matrix reached the cap first.
    """
    n, m = cols.shape[-2:]
    if n < 2 or cols.size == 0:
        return 0
    perm = round_robin(n)
    h = perm.size // 2
    # 0-d operands and a dtype object, made once: numpy converts a Python
    # float or a dtype name again on every call that gets one
    f64 = np.dtype(np.float64)
    zero, one = np.array(0.0), np.array(1.0)
    eps, null = np.array(eps, dtype=f64), np.array(NULL_NORM2)
    confirm = n >= CONFIRM_COLS
    if confirm and max_sweeps > 0 and _calm(cols.swapaxes(0, -2), n, eps, null):
        # a calm first sweep, confirmed before ``work`` is even built
        cols[np.vecdot(cols, cols).real <= NULL_NORM2] = 0.0
        return 1
    # slot-major: work[k] holds slot k of every matrix, so the low and the
    # high slots, and each per-pair quantity, are contiguous blocks
    work = np.zeros((2 * h, *cols.shape[:-2], m + n), dtype=np.complex128)
    work[:n, ..., :m] = cols.swapaxes(0, -2)  # for a single matrix, swapaxes(0, 0)
    work[:n, ..., m:] = vrows.swapaxes(0, -2)
    for sweep in range(max_sweeps):
        if confirm and sweep > 0 and _calm(work[..., :m], n, eps, null):
            result = sweep + 1
            break
        calm = True  # no rotation in this sweep, in any matrix
        for _ in range(2 * h - 1):
            cw = work[..., :m]
            norm2 = np.vecdot(cw, cw).real
            app, aqq = norm2[:h], norm2[h:]
            apq = np.vecdot(cw[:h], cw[h:])
            g = np.abs(apq)
            still = _still(g, app, aqq, eps, null)
            if np.count_nonzero(still) != still.size:
                calm = False
                g[still] = one
                zeta = (aqq - app) / (g + g)
                t = np.copysign(one / (np.abs(zeta) + np.hypot(one, zeta)), zeta)
                t[still] = zero
                t = t[..., None]
                c = one / np.sqrt(one + t * t)
                s = c * t
                dc = np.conjugate(apq, out=apq)
                dc /= g
                dc[still] = one
                # the halves become c*x - s*(dc*y) and s*x + c*(dc*y)
                x = work[:h].view(f64)
                y = (dc[..., None] * work[h:]).view(f64)
                work = np.empty_like(work)
                rot = work.view(f64)
                top, bot = rot[:h], rot[h:]
                np.multiply(s, y, out=bot)
                np.multiply(c, x, out=top)
                top -= bot
                np.multiply(s, x, out=bot)
                y *= c
                bot += y
            work = work.take(perm, axis=0)
        if calm:
            result = sweep + 1
            break
    else:
        result = -1
    cols[...] = work[:n, ..., :m].swapaxes(0, -2)
    vrows[...] = work[:n, ..., m:].swapaxes(0, -2)
    cols[np.vecdot(cols, cols).real <= NULL_NORM2] = 0.0
    return result
