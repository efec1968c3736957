"""The Jacobi kernel against the plainer round it replaced, bit for bit.

``reference_jacobi_sweeps`` is the kernel as it was before its round was
rewritten to make fewer and cheaper numpy calls.  The rewrite performs the
same floating-point operations in the same order, so every output must be
equal, not just close: ``cols``, ``vrows`` and the returned sweep count,
for single matrices and for stacks, and everything computed from them.
"""

from __future__ import annotations

import numpy as np
import pytest

import golden
from tenrol import (
    ModeShape,
    as_tensor,
    fuzz_search,
    identity_suite,
    pinv,
    rol_report,
    tsvd,
)
from tenrol import _jacobi_py
from tenrol import unfold as unfold_mod
from tenrol._jacobi_py import CONFIRM_COLS, NULL_NORM2, jacobi_sweeps, round_robin, sweep_pairs
from tenrol.unfold import JACOBI_EPS, MAX_SWEEPS


def reference_jacobi_sweeps(
    cols: np.ndarray, vrows: np.ndarray, eps: float, max_sweeps: int
) -> int:
    """The kernel before the leaner round, kept verbatim as its reference."""
    n, m = cols.shape[-2:]
    if n < 2 or cols.size == 0:
        return 0
    stacked = cols.ndim == 3
    # stack index of each matrix still in ``work`` (a single matrix: all of it)
    live = np.arange(len(cols)) if stacked else ...
    perm = round_robin(n)
    h = perm.size // 2
    work = np.zeros((*cols.shape[:-2], 2 * h, m + n), dtype=np.complex128)
    work[..., :n, :m] = cols
    work[..., :n, m:] = vrows
    for sweep in range(max_sweeps):
        # per matrix and pair on a stack; a single matrix needs only a flag
        rotated = np.zeros((live.size, h), dtype=bool) if stacked else False
        for _ in range(2 * h - 1):
            cw = work[..., :m]
            norm2 = np.vecdot(cw, cw).real
            app, aqq = norm2[..., :h], norm2[..., h:]
            apq = np.vecdot(cw[..., :h, :], cw[..., h:, :])
            g = np.abs(apq)
            # written so that NaN makes a pair active: it must never pass as orthogonal
            active = ~((g <= eps * np.sqrt(app * aqq)) | (np.minimum(app, aqq) <= NULL_NORM2))
            if active.any():
                if stacked:
                    rotated |= active
                else:
                    rotated = True
                g = np.where(active, g, 1.0)
                zeta = (aqq - app) / (2.0 * g)
                t = np.where(active, np.copysign(1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (c * t)[..., None]
                c = c[..., None]
                dc = np.where(active, apq.conj() / g, 1.0)
                x = work[..., :h, :].view(np.float64)
                y = (dc[..., None] * work[..., h:, :]).view(np.float64)
                work = np.concatenate((c * x - s * y, s * x + c * y), axis=-2).view(np.complex128)
            work = work.take(perm, axis=-2)
        if not stacked:
            if rotated:
                continue
            result = sweep + 1
            break
        busy = rotated.any(axis=-1)
        if not busy.all():
            # retire the matrices whose sweep was rotation-free
            result = sweep + 1
            cols[live[~busy]] = work[~busy, :n, :m]
            vrows[live[~busy]] = work[~busy, :n, m:]
            work, live = work[busy], live[busy]
            if not live.size:
                break
    else:
        result = -1
    cols[live] = work[..., :n, :m]
    vrows[live] = work[..., :n, m:]
    cols[np.vecdot(cols, cols).real <= NULL_NORM2] = 0.0
    return result


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shape and values, NaN where NaN, and the same sign on every zero."""
    fx, fy = x.view(np.float64), y.view(np.float64)
    if not np.array_equal(fx, fy, equal_nan=True):
        return False
    finite = ~np.isnan(fx)
    return np.array_equal(np.signbit(fx[finite]), np.signbit(fy[finite]))


def both_kernels(cols: np.ndarray, vrows: np.ndarray | None = None, max_sweeps: int = MAX_SWEEPS) -> int:
    """Run both kernels on copies of one input, assert equal outputs, return the sweeps."""
    if vrows is None:
        n = cols.shape[-2]
        vrows = np.zeros(cols.shape[:-2] + (n, n), dtype=np.complex128)
        vrows[..., range(n), range(n)] = 1.0
    ref_cols, ref_vrows = cols.copy(), vrows.copy()
    new_cols, new_vrows = cols.copy(), vrows.copy()
    with np.errstate(all="ignore"):
        expected = reference_jacobi_sweeps(ref_cols, ref_vrows, JACOBI_EPS, max_sweeps)
        got = jacobi_sweeps(new_cols, new_vrows, JACOBI_EPS, max_sweeps)
    assert got == expected
    assert same_bits(new_cols, ref_cols)
    assert same_bits(new_vrows, ref_vrows)
    return got


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def low_rank(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Unitary factors around ``rank`` singular values in [0.3, 3]."""
    u, _ = np.linalg.qr(complex_normal(rng, n, n))
    v, _ = np.linalg.qr(complex_normal(rng, n, n))
    return (u[:, :rank] * rng.uniform(0.3, 3.0, rank)) @ v[:, :rank].conj().T


class TestSingleMatrices:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 17, 32, 33])
    def test_square_and_wide_and_narrow(self, rng, n):
        for m in sorted({n, n + 3, max(1, n - 1), max(1, n // 2)}):
            for _ in range(2):
                assert both_kernels(complex_normal(rng, n, m) / 4) > 0

    @pytest.mark.parametrize("n", [4, 5, 16, 17])
    def test_rank_deficient(self, rng, n):
        cols = complex_normal(rng, n, max(1, n // 3)) @ complex_normal(rng, max(1, n // 3), n)
        assert both_kernels(cols / 16) > 0

    def test_real_and_diagonal_inputs_keep_their_zeros(self):
        # exact zeros everywhere: the sign of every zero must match as well
        assert both_kernels(np.diag(np.arange(1.0, 7.0)).astype(np.complex128)) == 1
        real = np.array([[3, 1, 0, -2], [1, 4, 0, 0], [0, 0, 0, 0], [-2, 0, 0, 5]], dtype=np.complex128)
        assert both_kernels(real / 8) > 0


class TestStacks:
    @pytest.mark.parametrize("t", [1, 3, 60])
    def test_matrices_retire_in_different_sweeps(self, rng, t):
        n = 5
        stack = complex_normal(rng, t, n, n) / 4
        stack[1::4] = np.diag(np.arange(1.0, n + 1))  # rotation-free from the first sweep
        stack[2::4, :, 2:] = 0.0  # null columns
        stack[3::4] = low_rank(rng, n, 2)
        alone = []
        for matrix in stack:
            alone.append(both_kernels(matrix))
        if t > 1:
            assert len(set(alone)) > 1, alone
        assert both_kernels(stack) == max(alone)

    def test_fuzz_shape_stack(self, rng):
        stack = complex_normal(rng, 60, 4, 4) / 4
        stack[::7, :, 0] = 0.0
        assert both_kernels(stack) > 0

    @pytest.mark.parametrize("t, n", [(20, 4), (3, 16), (3, 2)], ids=["20x4x4", "3x16x16", "3x2x2"])
    def test_workload_stack_shapes(self, rng, t, n):
        # a fuzz block of one family per pinv operand, and the 3-matrix
        # stacks of identity_suite at flat 16 and of rol_report at 2:2
        for _ in range(3):
            stack = complex_normal(rng, t, n, n) / 4
            stack[1] = low_rank(rng, n, max(1, n // 2))
            stack[2, :, -1] = 0.0
            assert both_kernels(stack) > 0
            # the kernel's own input in matrix_svd: R^H of the QR of each matrix
            r = np.linalg.qr(stack, mode="r")
            assert both_kernels(np.ascontiguousarray(r.conj())) > 0


class TestEdgeCases:
    @pytest.mark.parametrize("factor", [0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, 4.0])
    def test_null_column_on_both_sides_of_the_floor(self, rng, factor):
        cols = complex_normal(rng, 6, 6) / 4
        cols[2] *= np.sqrt(factor * NULL_NORM2) / np.linalg.norm(cols[2])
        both_kernels(cols)

    def test_nan_column_reaches_the_cap(self, rng):
        cols = complex_normal(rng, 5, 5) / 4
        cols[1, 3] = np.nan
        assert both_kernels(cols) == -1
        stack = complex_normal(rng, 3, 5, 5) / 4
        stack[1, 2, 0] = np.nan
        assert both_kernels(stack) == -1

    @pytest.mark.parametrize("max_sweeps", [0, 1])
    def test_sweep_cap(self, rng, max_sweeps):
        assert both_kernels(complex_normal(rng, 8, 8) / 4, max_sweeps=max_sweeps) == -1
        assert both_kernels(complex_normal(rng, 4, 8, 8) / 4, max_sweeps=max_sweeps) == -1

    def test_nothing_to_rotate(self):
        assert both_kernels(np.ones((1, 3), dtype=np.complex128)) == 0
        assert both_kernels(np.zeros((4, 0), dtype=np.complex128)) == 0


class TestSlowLowRankInputs:
    def test_rank_deficient_32x32_takes_few_sweeps(self, monkeypatch):
        # the inputs of the ``pinv32_lowrank`` benchmark case: rank 16 of 32
        rng = np.random.default_rng([7, 2])
        seen, raw = [], []

        def spy(cols, vrows, eps, max_sweeps):
            sweeps = both_kernels(cols, vrows, max_sweeps)
            seen.append(sweeps)
            return jacobi_sweeps(cols, vrows, eps, max_sweeps)

        monkeypatch.setattr(unfold_mod._kernel, "jacobi_sweeps", spy)
        for _ in range(4):
            m = low_rank(rng, 32, 16)
            pinv(as_tensor(m, (4, 4, 2), (4, 4, 2)))
            # the kernel on the columns of the prescaled matrix itself, as
            # matrix_svd ran it before the QR step
            top = np.abs(m.view(np.float64)).max()
            raw.append(both_kernels(np.ascontiguousarray(m.T) * 2.0 ** -np.frexp(top)[1]))
        assert len(seen) == 4
        assert max(seen) <= 10, seen  # full-rank 32x32 inputs take about 8
        assert min(raw) >= 15, raw


def gram_started(monkeypatch, m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The kernel's inputs, ``cols`` and ``vrows``, in ``matrix_svd(m)``."""
    seen = []

    def spy(cols, vrows, eps, max_sweeps):
        seen.append((cols.copy(), vrows.copy()))
        return jacobi_sweeps(cols, vrows, eps, max_sweeps)

    with monkeypatch.context() as patch:
        patch.setattr(unfold_mod._kernel, "jacobi_sweeps", spy)
        unfold_mod.matrix_svd(m)
    return seen


def confirmations(monkeypatch) -> list[bool]:
    """Spy on the kernel's all-pairs confirmation: the list of its verdicts."""
    verdicts = []
    calm = _jacobi_py._calm

    def spy(*args):
        verdicts.append(calm(*args))
        return verdicts[-1]

    monkeypatch.setattr(_jacobi_py, "_calm", spy)
    return verdicts


class TestConfirmation:
    """From ``CONFIRM_COLS`` columns on, one all-pairs product confirms a calm sweep."""

    def test_threshold_is_the_presort_threshold(self):
        assert unfold_mod.PRESORT_COLS == CONFIRM_COLS == 3
        assert unfold_mod.QLP_COLS == 5

    @pytest.mark.parametrize("n", range(8, 34))
    def test_pairs_follow_the_rounds(self, n):
        # the rounds pair slot k with slot h + k, then move the slots by perm
        perm = round_robin(n)
        h = perm.size // 2
        slots, low, high = np.arange(2 * h), [], []
        for _ in range(2 * h - 1):
            low += [p for p, q in zip(slots[:h], slots[h:]) if max(p, q) < n]
            high += [q for p, q in zip(slots[:h], slots[h:]) if max(p, q) < n]
            slots = slots[perm]
        got_low, got_high = sweep_pairs(n)
        assert got_low.tolist() == low and got_high.tolist() == high
        pairs = {frozenset(pair) for pair in zip(low, high)}
        assert len(low) == len(pairs) == n * (n - 1) // 2

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    @pytest.mark.parametrize("part", [1, 1j], ids=["real", "imag"])
    def test_cosine_ulps_around_eps(self, monkeypatch, ulps, part):
        # columns 3 and 6 of an orthonormal set, with the cosine eps moved
        # by a few ulps: both squared norms round to 1, so the test is
        # exactly cosine <= eps
        cosine = JACOBI_EPS
        for _ in range(abs(ulps)):
            cosine = np.nextafter(cosine, np.sign(ulps) * np.inf)
        cols = np.eye(9, dtype=np.complex128)
        cols[6, 3] = part * cosine
        verdicts = confirmations(monkeypatch)
        assert both_kernels(cols) == (1 if ulps <= 0 else 2)
        assert verdicts == ([True] if ulps <= 0 else [False, True])

    def test_null_column_pairs(self, rng, monkeypatch):
        cols = np.diag(np.arange(1.0, 10.0)).astype(np.complex128)
        cols[2] = 0.0
        cols[5] = 1e-33 * (cols[7] + cols[4])  # null, and not orthogonal to 7 or 4
        verdicts = confirmations(monkeypatch)
        assert both_kernels(cols) == 1
        assert verdicts == [True]
        stack = np.stack([cols, complex_normal(rng, 9, 9) / 4])
        stack[1, 5] = 0.0
        assert both_kernels(stack) > 1

    @pytest.mark.parametrize("n", [9, 17])
    def test_odd_columns(self, rng, monkeypatch, n):
        for _ in range(3):
            (cols, vrows), = gram_started(monkeypatch, complex_normal(rng, n, n))
            assert both_kernels(cols, vrows) >= 1
            assert both_kernels(complex_normal(rng, n, n + 2) / 4) > 1

    def test_nan_is_never_confirmed(self):
        cols = np.eye(8, dtype=np.complex128)
        cols[4, 1] = np.nan
        assert both_kernels(cols) == -1
        stack = np.stack([np.eye(8, dtype=np.complex128), cols])
        assert both_kernels(stack) == -1

    def test_stack_with_one_matrix_not_calm(self, rng, monkeypatch):
        mats = [gram_started(monkeypatch, complex_normal(rng, 16, 16))[0] for _ in range(3)]
        assert [both_kernels(c, v) for c, v in mats] == [1, 1, 1]
        cols = np.stack([c for c, _ in mats])
        vrows = np.stack([v for _, v in mats])
        assert both_kernels(cols, vrows) == 1
        cols[1] = complex_normal(rng, 16, 16) / 4  # a cold start
        alone = both_kernels(cols[1], vrows[1])
        assert alone > 1
        assert both_kernels(cols, vrows) == alone

    @pytest.mark.parametrize("cold", [[5], [0, 3, 7]], ids=["one", "three"])
    def test_only_the_rejected_matrices_are_rotated(self, rng, monkeypatch, cold):
        # Gram-started 4x4 inputs are calm; cold starts are not.  The rounds
        # run on the rejected matrices alone (a lone one as 2-D), the calm
        # ones are not touched, and every matrix comes out as from a call of
        # its own, up to the sign of zero entries
        mats = [gram_started(monkeypatch, complex_normal(rng, 4, 4))[0] for _ in range(8)]
        for k in cold:
            mats[k] = (complex_normal(rng, 4, 4) / 4, np.eye(4, dtype=np.complex128))
        cols, vrows = np.stack([c for c, _ in mats]), np.stack([v for _, v in mats])
        alone = [(c.copy(), v.copy()) for c, v in mats]
        sweeps = [jacobi_sweeps(c, v, JACOBI_EPS, MAX_SWEEPS) for c, v in alone]
        assert [k for k, n in enumerate(sweeps) if n > 1] == cold
        rotated = []
        rotate = _jacobi_py._rotate
        monkeypatch.setattr(_jacobi_py, "_rotate", lambda c, *rest: rotated.append(c.shape) or rotate(c, *rest))
        assert jacobi_sweeps(cols, vrows, JACOBI_EPS, MAX_SWEEPS) == max(sweeps)
        assert rotated == [(4, 4) if len(cold) == 1 else (len(cold), 4, 4)]
        for k, (c, v) in enumerate(alone):
            assert np.array_equal(cols[k], c) and np.array_equal(vrows[k], v), k
            if k not in cold:
                assert same_bits(cols[k], c) and same_bits(vrows[k], v), k

    def test_flat64_confirms_the_second_sweep(self, monkeypatch):
        rng = np.random.default_rng([28, 64])
        inputs = [gram_started(monkeypatch, complex_normal(rng, 64, 64))[0] for _ in range(3)]
        verdicts = confirmations(monkeypatch)
        sweeps = [both_kernels(cols, vrows) for cols, vrows in inputs]
        assert 2 in sweeps, sweeps
        assert verdicts == [v for s in sweeps for v in [False] * (s - 1) + [True]]

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_gram_started_calls_are_confirmed(self, rng, monkeypatch, n):
        verdicts = confirmations(monkeypatch)
        for _ in range(4):
            unfold_mod.matrix_svd(complex_normal(rng, n, n))
        assert verdicts.count(True) == 4


class TestPipelineWithTheReference:
    """Every public result is the same with the reference kernel swapped in."""

    @staticmethod
    def outputs() -> tuple:
        rng = np.random.default_rng(11)
        sq = ModeShape((4, 4), (4, 4))
        square = [golden.random_tensor(rng, sq) for _ in range(2)]
        square.append(as_tensor(low_rank(rng, 16, 6), (4, 4), (4, 4)))
        tall = golden.random_tensor(rng, ModeShape((8, 8), (4,)))
        a = [golden.random_low_rank(rng, golden.SQ22) for _ in range(5)]
        b = [golden.random_tensor(rng, golden.SQ22) for _ in range(5)]
        factors = [tsvd(x) for x in (*square, tall)]
        return (
            [pinv(x) for x in (*square, tall)] + list(pinv(square)),
            [(f.u, f.d, f.v) for f in factors],
            [identity_suite(x) for x in square],
            [rol_report(x, y) for x, y in zip(a, b)] + list(rol_report(a, b)),
            fuzz_search(golden.SQ22, 200, 42),
        )

    def test_outputs_are_equal(self, monkeypatch):
        new = self.outputs()
        monkeypatch.setattr(unfold_mod._kernel, "jacobi_sweeps", reference_jacobi_sweeps)
        old = self.outputs()
        pinvs, factors, suites, reports, summary = new
        old_pinvs, old_factors, old_suites, old_reports, old_summary = old

        def same_tensor(x, y) -> bool:
            return x.shape == y.shape and x.entries.tobytes() == y.entries.tobytes()

        assert all(same_tensor(x, y) for x, y in zip(pinvs, old_pinvs, strict=True))
        for f, g in zip(factors, old_factors, strict=True):
            assert all(same_tensor(x, y) for x, y in zip(f, g, strict=True))
        assert suites == old_suites
        assert reports == old_reports
        assert summary == old_summary
