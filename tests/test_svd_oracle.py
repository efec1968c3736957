"""``matrix_svd``'s prescaled QR input and ``pinv``'s product equal their formulas, bit for bit.

The oracles below keep the formulas written out once, as two passes over
the magnitudes of the real and imaginary parts: one for the row maxima
(which give the power-of-two scale and the row order) and one for the
column maxima (which give the column order from ``CONFIRM_COLS`` columns
on).  A spy on ``np.linalg.qr`` catches the matrix that ``matrix_svd``
hands to its first QR, and the tests assert that it equals the oracle's
in every byte.  ``pinv`` is compared the same way with the product of
``matrix_svd``'s factors and the reciprocals of the kept singular values.
"""

from __future__ import annotations

import numpy as np
import pytest

import golden
from tenrol import ModeShape, as_tensor, pinv, zeros
from tenrol.core import DEFAULT_POLICY
from tenrol._jacobi_py import CONFIRM_COLS
from tenrol.unfold import matrix_svd


def prescaled_oracle(m: np.ndarray) -> np.ndarray:
    """The prescaled, row- and column-sorted matrix of ``m`` (of ``m^H`` for a wide ``m``)."""
    mat = np.asarray(m, dtype=np.complex128)
    if mat.shape[-2] < mat.shape[-1]:
        mat = mat.conj().swapaxes(-1, -2)
    mat = np.ascontiguousarray(mat)
    cols = mat.shape[-1]
    mags = np.abs(mat.view(np.float64))
    big = mags.max(axis=-1, initial=0.0)  # first pass: the largest part of each row
    top = big.max(axis=-1, keepdims=True, initial=0.0)[..., None]
    e = np.frexp(top)[1]
    order = np.argsort(-big, axis=-1, kind="stable")
    gather = order if order.ndim == 1 else (np.arange(len(order))[:, None], order)
    if cols >= CONFIRM_COLS:  # second pass: the largest part of each column
        colsort = np.argsort(-mags.reshape(*big.shape, cols, 2).max(axis=(-3, -1)), axis=-1, kind="stable")
        stack = (np.arange(len(colsort))[:, None, None],) if colsort.ndim == 2 else ()
        gather = (*stack, order[..., None], colsort[..., None, :])
    return np.ldexp(mat[gather].view(np.float64), -e).view(np.complex128)


def pinv_oracle(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """``V_k diag(1 / s_k) U_k^H`` over the kept singular values, reciprocals complex."""
    u, s, v = matrix_svd(mat, complete=False)
    k = s.shape[-1]
    sinv = np.zeros(s.shape, dtype=np.complex128)
    keep = (s >= rank_tol * s[..., :1]) & (s > 0.0)
    sinv[keep] = 1.0 / s[keep]
    return (v[..., :k] * sinv[..., None, :]) @ u[..., :k].conj().swapaxes(-1, -2)


def same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes()


def tied(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Parts drawn from {0, ±1/4, ±1/2, ±1}: equal |re| and |im| maxima in many rows and columns."""
    levels = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0])
    return rng.choice(levels, shape) + 1j * rng.choice(levels, shape)


def with_subnormals(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian entries, a third of their parts replaced by subnormals, some at the maximum."""
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    parts = m.view(np.float64)
    small = rng.random(parts.shape) < 1 / 3
    parts[small] = rng.integers(-5, 6, small.sum()) * 2.0**-1074
    return m


def inputs(shape: tuple[int, ...], seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = {
        "gauss": gauss,
        "tied": tied(rng, shape),
        "subnormal": with_subnormals(rng, shape),
        "all_subnormal": tied(rng, shape) * 2.0**-1060,
        "up500": gauss * 2.0**500,
        "down500": gauss * 2.0**-500,
        "real": rng.standard_normal(shape).astype(np.complex128),
        "graded": gauss * np.logspace(0, -12, shape[-1]) * np.logspace(-6, 0, shape[-2])[:, None],
    }
    zero_row = gauss.copy()
    zero_row[..., 1, :] = 0.0
    out["zero_row"] = zero_row
    return out


#: (rows, cols) of the matrices, tall and wide, 1 to 32 columns after the swap.
SHAPES = [(n + 1, n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 11, 16)] + [(n, n) for n in (3, 4, 9, 16, 32)]
SHAPES += [(n, n + 3) for n in (2, 3, 5, 8, 13)] + [(64, 4), (4, 64), (33, 32), (24, 31)]
#: (stack size or None for a lone matrix, rows, cols): every shape alone and in a
#: stack of 3, and the shapes of at most 16 columns in a stack of 60 (the fuzz stacks' size).
CASES = [(stack, *shape) for stack in (None, 3) for shape in SHAPES]
CASES += [(60, *shape) for shape in SHAPES if max(shape) <= 16]


def first_qr_argument(monkeypatch, m: np.ndarray) -> np.ndarray:
    seen = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        if not seen:
            seen.append(np.array(a, copy=True))
        return qr(a, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "qr", spy)
        matrix_svd(m)
    return seen[0]


class TestPrescaleAndPresorts:
    @pytest.mark.parametrize("stack, rows, cols", CASES, ids=[f"{s or 1}x{r}x{c}" for s, r, c in CASES])
    def test_first_qr_gets_the_two_pass_prescale_and_gather(self, monkeypatch, stack, rows, cols):
        full = (rows, cols) if stack is None else (stack, rows, cols)
        for name, m in inputs(full, seed=sum(full)).items():
            got = first_qr_argument(monkeypatch, m)
            assert got.tobytes() == prescaled_oracle(m).tobytes(), name

    def test_ties_across_rows_and_columns_keep_the_stable_orders(self, monkeypatch):
        # every row and column has both |re| and |im| maxima of 1, set in different entries
        m = np.full((6, 5), 0.5 + 0.5j)
        for i in range(6):
            m[i, i % 5] = 1.0 + 0.25j
            m[i, (i + 2) % 5] = -0.25 - 1.0j
        for scaled in (m, m * 2.0**-1070, m * 2.0**500, np.stack([m, m.conj(), -m])):
            same_bytes(first_qr_argument(monkeypatch, scaled), prescaled_oracle(scaled))


class TestPinvProduct:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (5, 3), (3, 5), (16, 16), (32, 32), (64, 4)])
    def test_pinv_is_the_product_with_complex_reciprocals(self, shape):
        rng = np.random.default_rng(sum(shape))
        split = ModeShape((shape[0],), (shape[1],))
        # all but the subnormal matrices, whose reciprocals overflow
        cases = [m for name, m in inputs(shape, seed=sum(shape)).items() if name != "all_subnormal"]
        cases += [golden.random_low_rank(rng, split, rank=1).array, zeros((shape[0],), (shape[1],)).array]
        for m in cases:
            got = pinv(as_tensor(m, split.row_dims, split.col_dims))
            same_bytes(got._mat, pinv_oracle(m, DEFAULT_POLICY.rank_tol))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 5), (6, 4)])
    def test_a_stacked_pinv_is_the_stacked_product(self, shape):
        rng = np.random.default_rng(7 + sum(shape))
        split = ModeShape((shape[0],), (shape[1],))
        mats = [golden.random_tensor(rng, split).array for _ in range(57)]
        mats += [golden.random_low_rank(rng, split, rank=1).array, np.zeros(shape), tied(rng, shape)]
        got = pinv([as_tensor(m, split.row_dims, split.col_dims) for m in mats])
        want = pinv_oracle(np.stack(mats).astype(np.complex128), DEFAULT_POLICY.rank_tol)
        same_bytes(np.stack([x._mat for x in got]), want)
