"""The one-sided Jacobi rotation kernel, in numpy.

``tenrol.unfold.matrix_svd`` calls :func:`jacobi_sweeps` on ``R^H``, R the
triangular factor of its QR, or on a stack of such ``R^H`` of one shape.
A sweep visits the column pairs in the round-robin order of Brent and Luk
(1985), so that each numpy call rotates many disjoint pairs at once, of
every matrix in the stack.  The docstring of :func:`jacobi_sweeps` states
the contract, the confirmation of calm sweeps included;
``tests/test_jacobi_reference.py`` keeps a reference round whose results
the kernel's equal bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

#: Squared column norm at or below which a column counts as null: pairs
#: with a null column are not rotated, and null columns are zeroed on exit.
NULL_NORM2: float = 1e-64

_F64 = np.dtype(np.float64)  # made once: numpy converts a dtype name again on every call

#: Columns from which every sweep is first confirmed in one all-pairs
#: product (see :func:`jacobi_sweeps`), and from which ``matrix_svd``
#: presorts the columns and starts the rotations from the Gram eigenvectors.
#: Two columns make one pair, so a sweep is one rotation, and the kernel
#: starts them cold.
CONFIRM_COLS: int = 3


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


def _calm(cw: np.ndarray, n: int, eps, null) -> np.ndarray:
    """Whether a sweep would rotate no pair of the slot-major columns ``cw``, matrix by matrix.

    Every pair gets the test of its round, from the same ``vecdot`` values,
    so a verdict holds exactly when the sweep would be calm on its matrix;
    the rounds of a calm sweep only permute the columns, and leave each in
    its own slot.  A 0-d verdict for one matrix, a ``(T,)`` array for a stack.
    """
    low, high = sweep_pairs(n)
    cw = cw[:n]
    norm2 = np.vecdot(cw, cw).real
    apq = np.vecdot(cw[:, None], cw[None, :])[low, high]
    still = _still(np.abs(apq), norm2[low], norm2[high], eps, null)
    return still.all(axis=0)


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
    up to the sign of zero entries.

    From ``CONFIRM_COLS`` columns on, each sweep is first confirmed: one
    broadcast ``vecdot`` gives the Gram entries of all pairs, and each
    pair of :func:`sweep_pairs` gets the round's own test.  A sweep that
    every pair of every matrix passes would rotate nothing and leave every
    column in its own slot, so the kernel counts it without running its
    rounds.  The first sweep is confirmed on ``cols``, matrix by matrix:
    the matrices it confirms are left as they are, and only the others go
    on to the rounds.

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
    n = cols.shape[-2]
    if n < 2 or cols.size == 0:
        return 0
    # 0-d operands, made once: numpy converts a Python float on every call
    eps, null = np.array(eps, dtype=_F64), np.array(NULL_NORM2)
    if n < CONFIRM_COLS or max_sweeps < 1:
        result = _rotate(cols, vrows, eps, null, max_sweeps)
    elif cols.ndim == 2:  # a calm first sweep is confirmed before any work array is built
        result = 1 if _calm(cols, n, eps, null) else _rotate(cols, vrows, eps, null, max_sweeps)
    else:  # on a stack, the rounds run on the matrices the check rejects alone, a lone one as 2-D
        busy = np.flatnonzero(~_calm(cols.swapaxes(0, 1), n, eps, null))
        result = 1
        if busy.size:
            pick = busy[0] if busy.size == 1 else busy
            c, v = cols[pick], vrows[pick]
            result = _rotate(c, v, eps, null, max_sweeps)
            cols[pick], vrows[pick] = c, v
    cols[np.vecdot(cols, cols).real <= NULL_NORM2] = 0.0
    return result


def _rotate(cols: np.ndarray, vrows: np.ndarray, eps, null, max_sweeps: int) -> int:
    """The sweeps of :func:`jacobi_sweeps`, the first one's rounds always run.

    From ``CONFIRM_COLS`` columns on, every later sweep is confirmed first.
    Writes the rotated ``cols`` and ``vrows`` back and returns the sweep
    count, or -1.
    """
    n, m = cols.shape[-2:]
    perm = round_robin(n)
    h = perm.size // 2
    zero, one = np.array(0.0), np.array(1.0)
    # slot-major: work[k] holds slot k of every matrix, so the low and the
    # high slots, and each per-pair quantity, are contiguous blocks
    work = np.zeros((2 * h, *cols.shape[:-2], m + n), dtype=np.complex128)
    work[:n, ..., :m] = cols.swapaxes(0, -2)  # for a single matrix, swapaxes(0, 0)
    work[:n, ..., m:] = vrows.swapaxes(0, -2)
    for sweep in range(max_sweeps):
        if sweep > 0 and n >= CONFIRM_COLS and _calm(work[..., :m], n, eps, null).all():
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
                x = work[:h].view(_F64)
                y = (dc[..., None] * work[h:]).view(_F64)
                work = np.empty_like(work)
                rot = work.view(_F64)
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
    return result
