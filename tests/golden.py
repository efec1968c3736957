"""Hand-checked golden tensors shared by the test suite.

Order-4 tensors over C^(2x2x2x2) are written down as four 2x2 slices,
one per column tuple (k, l), with i indexing the printed row and j the
printed column.  Every derived number used in assertions (determinant,
inverse, traces) was recomputed by hand from these slices.
"""

from __future__ import annotations

import numpy as np

from tenrol import FUZZ_FAMILIES, DenseTensor, ModeShape, RolReport, as_tensor, rol_report
from tenrol.fuzz import _draw_block

SQ22 = ModeShape((2, 2), (2, 2))


def tensor_from_slices(slices: dict[tuple[int, int], list[list[complex]]]) -> DenseTensor:
    """Build an order-4 tensor from 1-indexed (k, l) slices over (i, j)."""
    arr = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    for (k, l), mat in slices.items():
        for i in range(2):
            for j in range(2):
                arr[i, j, k - 1, l - 1] = mat[i][j]
    return as_tensor(arr, (2, 2), (2, 2))


# An invertible order-4 tensor that is EP but not normal: its 4x4
# matricization M has det(M) = -1, and M^-1 equals GOLDEN_PINV_SLICES
# under the same layout, so pinv must reproduce it entrywise.
GOLDEN_A_SLICES = {
    (1, 1): [[0, 0], [0, 1]],
    (2, 1): [[1, -1], [0, 0]],
    (1, 2): [[0, 1], [0, 0]],
    (2, 2): [[1, 0], [-1, 0]],
}

GOLDEN_PINV_SLICES = {
    (1, 1): [[0, 1], [1, 0]],
    (2, 1): [[0, 1], [1, -1]],
    (1, 2): [[0, 1], [0, 0]],
    (2, 2): [[1, 0], [0, 0]],
}

GOLDEN_ADJOINT_SLICES = {
    (1, 1): [[0, 0], [1, 1]],
    (2, 1): [[0, 0], [0, -1]],
    (1, 2): [[0, 1], [-1, 0]],
    (2, 2): [[1, 0], [0, 0]],
}

# Triple with tr(A@B@C) = 0 but tr(C@B@A) = tr(B@A@C) = 12: the trace is
# cyclic, not symmetric under arbitrary permutations.
TRACE_A_SLICES = {
    (1, 1): [[0, 0], [1, 2]],
    (2, 1): [[1, 2], [-1, 0]],
    (1, 2): [[1, 3], [2, 1]],
    (2, 2): [[0, 0], [0, 0]],
}

TRACE_B_SLICES = {
    (1, 1): [[0, 0], [0, -1]],
    (2, 1): [[0, 0], [0, 0]],
    (1, 2): [[0, 0], [0, 1]],
    (2, 2): [[0, 0], [0, 1]],
}

TRACE_C_SLICES = {
    (1, 1): [[1, -1], [2, 1]],
    (2, 1): [[1, 1], [1, 2]],
    (1, 2): [[0, 0], [0, 1]],
    (2, 2): [[1, 3], [1, 2]],
}

# Printed product slices for the two nonzero permutations, used to pin the
# layout convention (they follow the same slice reading as the inputs).
TRACE_CBA_SLICES = {
    (1, 1): [[2, 6], [2, 4]],
    (2, 1): [[1, 3], [1, 2]],
    (1, 2): [[3, 9], [3, 6]],
    (2, 2): [[0, 0], [0, 0]],
}

TRACE_BAC_SLICES = {
    (1, 1): [[0, 0], [0, 1]],
    (2, 1): [[0, 0], [0, 6]],
    (1, 2): [[0, 0], [0, 0]],
    (2, 2): [[0, 0], [0, 12]],
}


def golden_a() -> DenseTensor:
    return tensor_from_slices(GOLDEN_A_SLICES)


def golden_pinv() -> DenseTensor:
    return tensor_from_slices(GOLDEN_PINV_SLICES)


def golden_adjoint() -> DenseTensor:
    return tensor_from_slices(GOLDEN_ADJOINT_SLICES)


def trace_triple() -> tuple[DenseTensor, DenseTensor, DenseTensor]:
    return (
        tensor_from_slices(TRACE_A_SLICES),
        tensor_from_slices(TRACE_B_SLICES),
        tensor_from_slices(TRACE_C_SLICES),
    )


# Regression pair for the one-way implication: A is invertible, so
# pinv(A) @ A = I commutes with everything, yet the reverse-order law
# fails because B has rank one.  pinv(A@B) = [[0.5, 0.5], [0, 0]] while
# pinv(B) @ pinv(A) = [[0, 1], [0, 0]].
ROL_CE_A = [[1, 1], [1, 0]]
ROL_CE_B = [[1, 0], [0, 0]]


def rol_counterexample() -> tuple[DenseTensor, DenseTensor]:
    return (
        as_tensor(np.array(ROL_CE_A, dtype=np.complex128), (2,), (2,)),
        as_tensor(np.array(ROL_CE_B, dtype=np.complex128), (2,), (2,)),
    )


def random_tensor(rng: np.random.Generator, shape: ModeShape) -> DenseTensor:
    """Dense complex Gaussian tensor."""
    n = shape.row_count * shape.col_count
    return DenseTensor(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_low_rank(rng: np.random.Generator, shape: ModeShape, rank: int | None = None) -> DenseTensor:
    """Rank-deficient tensor with singular values in [0.3, 3]."""
    rc, cc = shape.row_count, shape.col_count
    k = min(rc, cc)
    r = int(rng.integers(1, k + 1)) if rank is None else rank
    u = random_unitary_matrix(rng, rc)[:, :r]
    v = random_unitary_matrix(rng, cc)[:, :r]
    s = rng.uniform(0.3, 3.0, r)
    mat = (u * s) @ v.conj().T
    return as_tensor(mat.reshape(shape.dims), shape.row_dims, shape.col_dims)


def random_unitary_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary_tensor(rng: np.random.Generator, dims: tuple[int, ...]) -> DenseTensor:
    n = int(np.prod(dims))
    mat = random_unitary_matrix(rng, n)
    return as_tensor(mat.reshape(dims + dims), dims, dims)


def fuzz_pair(rng: np.random.Generator, shape: ModeShape, family: str) -> tuple[DenseTensor, DenseTensor]:
    """One pair of the fuzz ``family`` as ``fuzz_search`` draws it: a block of one."""
    sa, sb = _draw_block([rng], shape, [family])
    return DenseTensor(sa.shape, sa._mat[0]), DenseTensor(sb.shape, sb._mat[0])


def fuzz_trial_reports(shape: ModeShape, trials: int, seed: int) -> list[tuple[str, RolReport]]:
    """``(family, report)`` of every trial of ``fuzz_search(shape, trials, seed)``, pair by pair."""
    families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
    out = []
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        family = families[t % len(families)]
        out.append((family, rol_report(*fuzz_pair(np.random.default_rng(child), shape, family))))
    return out


def force_violations(monkeypatch, reports: list[RolReport], trials) -> None:
    """Make ``RolReport.implication_ok`` False on the reports of ``trials`` and True elsewhere.

    A report is recognized by its ``direct`` and ``commute`` residuals, so
    a stacked evaluation of the same pair is recognized too.
    """
    keys = {(reports[t].direct, reports[t].commute) for t in trials}
    monkeypatch.setattr(RolReport, "implication_ok", property(lambda r: (r.direct, r.commute) not in keys))
