"""The one-sided Jacobi rotation kernel, in numpy.

``tenrol.unfold.matrix_svd`` calls :func:`jacobi_sweeps` on ``R^H``, R the
last triangular factor of its QR steps, or on a stack of such ``R^H`` of
one shape, held slot-major.  A sweep visits the column pairs in the
round-robin order of Brent and Luk (1985), so that each numpy call
rotates many disjoint pairs at once, of every matrix in the stack.

A round costs numpy call overhead more than arithmetic: per round, 21 us
for one matrix at n = 4 and 39 us at n = 16 and 32; 46 and 37 us for
stacks of 3 at n = 2 and 16, 37 and 50 us for 20 and 60 at n = 4, where
the matrix-major stack took 49, 45, 44 and 65 us (one BLAS thread, a
shared 2-CPU Xeon, ``BENCH_21.json``).  The round performs the same
floating-point operations in the same order as the plainer round it
replaced, so its results are bit-identical to it;
``tests/test_jacobi_reference.py`` keeps the plainer round as the
reference.
"""

from __future__ import annotations

import functools

import numpy as np

#: Squared column norm at or below which a column counts as null: pairs
#: with a null column are not rotated, and null columns are zeroed on exit.
NULL_NORM2: float = 1e-64


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
    # slot-major: work[k] holds slot k of every matrix, so the low and the
    # high slots, and each per-pair quantity, are contiguous blocks
    work = np.zeros((2 * h, *cols.shape[:-2], m + n), dtype=np.complex128)
    work[:n, ..., :m] = cols.swapaxes(0, -2)  # for a single matrix, swapaxes(0, 0)
    work[:n, ..., m:] = vrows.swapaxes(0, -2)
    for sweep in range(max_sweeps):
        calm = True  # no rotation in this sweep, in any matrix
        for _ in range(2 * h - 1):
            cw = work[..., :m]
            norm2 = np.vecdot(cw, cw).real
            app, aqq = norm2[:h], norm2[h:]
            apq = np.vecdot(cw[:h], cw[h:])
            g = np.abs(apq)
            # a pair stays when orthogonal or null; written so that NaN
            # makes it rotate: it must never pass as orthogonal
            still = (g <= eps * np.sqrt(app * aqq)) | (np.minimum(app, aqq) <= null)
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
