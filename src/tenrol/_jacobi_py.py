"""Pure numpy lane of the one-sided Jacobi kernel.

Shares its contract with the compiled module ``tenrol._jacobi_cy``;
``tenrol.unfold`` picks whichever is importable, preferring the compiled
one.  The compiled lane visits the pairs of a sweep one at a time in row
order; this lane visits them in the round-robin order of Brent and Luk
(1985), so that each numpy call rotates many pairs at once.  The two
lanes agree to rounding, not bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

BACKEND = "python"

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

    Parameters
    ----------
    cols : (n, m) complex128 ndarray
        Row k holds column k of the matrix being decomposed.
    vrows : (n, n) complex128 ndarray
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
        Sweeps performed until a rotation-free sweep, or -1 if the cap
        was reached first.
    """
    n, m = cols.shape
    if n < 2:
        return 0
    perm = round_robin(n)
    h = perm.size // 2
    work = np.zeros((2 * h, m + n), dtype=np.complex128)
    work[:n, :m] = cols
    work[:n, m:] = vrows
    result = -1
    for sweep in range(max_sweeps):
        rotated = False
        for _ in range(2 * h - 1):
            cw = work[:, :m]
            norm2 = np.vecdot(cw, cw).real
            app, aqq = norm2[:h], norm2[h:]
            apq = np.vecdot(cw[:h], cw[h:])
            g = np.abs(apq)
            # written so that NaN makes a pair active: it must never pass as orthogonal
            active = ~((g <= eps * np.sqrt(app * aqq)) | (np.minimum(app, aqq) <= NULL_NORM2))
            if active.any():
                rotated = True
                g = np.where(active, g, 1.0)
                zeta = (aqq - app) / (2.0 * g)
                t = np.where(active, np.copysign(1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (c * t)[:, None]
                c = c[:, None]
                dc = np.where(active, apq.conj() / g, 1.0)
                x = work[:h].view(np.float64)
                y = (dc[:, None] * work[h:]).view(np.float64)
                work = np.concatenate((c * x - s * y, s * x + c * y)).view(np.complex128)
            work = work.take(perm, axis=0)
        if not rotated:
            result = sweep + 1
            break
    cols[...] = work[:n, :m]
    vrows[...] = work[:n, m:]
    cols[np.vecdot(cols, cols).real <= NULL_NORM2] = 0.0
    return result
