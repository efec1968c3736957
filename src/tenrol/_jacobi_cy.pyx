"""Compiled lane of the one-sided Jacobi kernel.

Contract documented in ``tenrol._jacobi_py``; this version carries the
hot pairwise-rotation loop in C and visits the pairs of a sweep one at a
time in row order.
"""

from libc.math cimport fabs, hypot, sqrt

BACKEND = "compiled"

# same null-column floor as tenrol._jacobi_py.NULL_NORM2
cdef double NULL_NORM2 = 1e-64


def jacobi_sweeps(
    double complex[:, ::1] cols,
    double complex[:, ::1] vrows,
    double eps,
    int max_sweeps,
):
    cdef Py_ssize_t n = cols.shape[0]
    cdef Py_ssize_t m = cols.shape[1]
    cdef Py_ssize_t nv = vrows.shape[1]
    cdef Py_ssize_t p, q, i
    cdef int sweep
    cdef double app, aqq, g, zeta, t, c, s
    cdef double complex apq, dc, tp, tq
    cdef bint rotated
    cdef int result = -1

    if n < 2:
        return 0
    for sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = 0.0
                aqq = 0.0
                apq = 0.0
                for i in range(m):
                    app += cols[p, i].real * cols[p, i].real + cols[p, i].imag * cols[p, i].imag
                    aqq += cols[q, i].real * cols[q, i].real + cols[q, i].imag * cols[q, i].imag
                    apq += cols[p, i].conjugate() * cols[q, i]
                g = sqrt(apq.real * apq.real + apq.imag * apq.imag)
                if g == 0.0 or g <= eps * sqrt(app * aqq) or app <= NULL_NORM2 or aqq <= NULL_NORM2:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * g)
                if zeta == 0.0:
                    t = 1.0
                else:
                    t = (1.0 if zeta > 0.0 else -1.0) / (fabs(zeta) + hypot(1.0, zeta))
                c = 1.0 / sqrt(1.0 + t * t)
                s = c * t
                dc = apq.conjugate() / g
                for i in range(m):
                    tp = cols[p, i]
                    tq = dc * cols[q, i]
                    cols[p, i] = c * tp - s * tq
                    cols[q, i] = s * tp + c * tq
                for i in range(nv):
                    tp = vrows[p, i]
                    tq = dc * vrows[q, i]
                    vrows[p, i] = c * tp - s * tq
                    vrows[q, i] = s * tp + c * tq
        if not rotated:
            result = sweep + 1
            break
    for p in range(n):
        app = 0.0
        for i in range(m):
            app += cols[p, i].real * cols[p, i].real + cols[p, i].imag * cols[p, i].imag
        if app <= NULL_NORM2:
            for i in range(m):
                cols[p, i] = 0.0
    return result
