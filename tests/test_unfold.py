"""Matricization bridge and the one-sided Jacobi SVD."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import golden
from tenrol import (
    KERNEL_BACKEND,
    ModeShape,
    SvdConvergenceError,
    as_tensor,
    dematricize,
    identity,
    matricize,
    matrix_svd,
    pinv,
    zeros,
)
from tenrol import _jacobi_py
from tenrol import unfold as unfold_mod
from tenrol.rol import FUZZ_FAMILIES

# Rank-deficient integer matrices whose null column shrank by about 1e-16
# per sweep until it underflowed and turned the rotation into NaN: the
# first in row order, the second in round-robin order.
NULL_COLUMN_EXAMPLES = [
    np.array([[-4, 0, 4, -2], [-2, 0, 2, -1], [-2, 0, -1, -1], [2, 2, 1, -2]], dtype=np.complex128),
    np.array([[-3, 0, 0, 3], [-3, -4, -2, 2], [3, 4, 2, -2], [3, 4, 2, -2]], dtype=np.complex128),
]


def bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant, exact for integer matrices."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    det = sign * m[n - 1][n - 1]
    assert det.denominator == 1
    return int(det)


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, independent of BLAS."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            acc = 0.0 + 0.0j
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def sequential_sweeps(cols: np.ndarray, vrows: np.ndarray, eps: float, max_sweeps: int) -> int:
    """Reference Jacobi kernel: one pair at a time in row order."""
    n = cols.shape[0]
    for sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = np.vdot(cols[p], cols[p]).real
                aqq = np.vdot(cols[q], cols[q]).real
                apq = np.vdot(cols[p], cols[q])
                g = abs(apq)
                if g == 0.0 or g <= eps * np.sqrt(app * aqq):
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * g)
                t = 1.0 if zeta == 0.0 else np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                for rows in (cols, vrows):
                    qd = np.conj(apq) / g * rows[q]
                    rows[p], rows[q] = c * rows[p] - s * qd, s * rows[p] + c * qd
        if not rotated:
            return sweep + 1
    return -1


GRADED_FAMILIES = ("columns", "rows", "rows_growing", "two_sided")


def graded_inputs(family: str, n: int, count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``count`` Gaussian n x n matrices from seed 3, plain and graded as ``family`` says.

    Columns or rows shrink by ``logspace(0, -14, n)``, rows grow by
    ``logspace(-14, 0, n)``, or rows and columns are each scaled by a
    shuffled ``logspace(0, -7, n)``.
    """
    rng = np.random.default_rng(3)
    plain, graded = [], []
    for _ in range(count):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        plain.append(m)
        if family == "columns":
            m = m * np.logspace(0, -14, n)
        elif family == "rows":
            m = np.logspace(0, -14, n)[:, None] * m
        elif family == "rows_growing":
            m = np.logspace(-14, 0, n)[:, None] * m
        else:
            m = rng.permutation(np.logspace(0, -7, n))[:, None] * m * rng.permutation(np.logspace(0, -7, n))
        graded.append(m)
    return plain, graded


def graded_errors(graded: list[np.ndarray]) -> list[float]:
    """Largest relative error of ``matrix_svd``'s singular values, per matrix, against mpmath."""
    mpmath = pytest.importorskip("mpmath")
    errors = []
    with mpmath.workdps(50):
        for m in graded:
            exact = mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)
            want = np.sort([float(x) for x in exact])[::-1]
            _, s, _ = matrix_svd(m)
            errors.append(float(np.max(np.abs(s - want) / want)))
    return errors


class TestMatricize:
    def test_matrix_tensor_is_unchanged(self, rng):
        a = golden.random_tensor(rng, ModeShape((3,), (2,)))
        assert np.array_equal(matricize(a), a.array)

    def test_row_major_tuple_order(self):
        # Entry (i, j; k, l) lands at row 2(i-1)+(j-1), column 2(k-1)+(l-1).
        arr = np.zeros((2, 2, 2, 2))
        arr[1, 0, 0, 1] = 7.0
        m = matricize(as_tensor(arr, (2, 2), (2, 2)))
        assert m[2, 1] == 7.0
        assert np.count_nonzero(m) == 1

    def test_golden_matricization_is_the_expected_integer_matrix(self):
        m = matricize(golden.golden_a())
        want = np.array([
            [0, 0, 1, 1],
            [0, 1, -1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
        ], dtype=np.complex128)
        assert np.array_equal(m, want)

    def test_golden_matricization_is_invertible(self):
        m = matricize(golden.golden_a()).real.astype(int)
        assert bareiss_det(m.tolist()) == -1

    def test_identity_matricizes_to_eye(self):
        assert np.array_equal(matricize(identity((2, 2))), np.eye(4))
        assert np.array_equal(
            dematricize(np.eye(4, dtype=np.complex128), golden.SQ22).array,
            identity((2, 2)).array,
        )

    def test_roundtrip_is_bit_exact_on_golden(self):
        a = golden.golden_a()
        back = dematricize(matricize(a), a.shape)
        assert np.array_equal(back.array, a.array)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_is_bit_exact(self, seed):
        r = np.random.default_rng(seed)
        shape = ModeShape((2, 3), (2, 2))
        a = golden.random_tensor(r, shape)
        back = dematricize(matricize(a), shape)
        assert np.array_equal(back.array, a.array)

    def test_dematricize_validates_matrix_shape(self):
        with pytest.raises(ValueError, match="does not match mode split"):
            dematricize(np.zeros((3, 4), dtype=np.complex128), golden.SQ22)

    def test_adjoint_commutes_with_matricization(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
        assert np.array_equal(matricize(a.H), matricize(a).conj().T)

    def test_product_homomorphism_against_loop_oracle(self):
        a, b, c = golden.trace_triple()
        ma, mb, mc = matricize(a), matricize(b), matricize(c)
        assert_allclose(matricize(a @ b), loop_matmul(ma, mb), atol=1e-13)
        two_step = loop_matmul(loop_matmul(mc, mb), ma)
        assert_allclose(matricize(c @ b @ a), two_step, atol=1e-13)

    def test_product_homomorphism_random_pairs(self, rng):
        shapes = [
            (ModeShape((2,), (3,)), ModeShape((3,), (2,))),
            (ModeShape((2, 2), (2,)), ModeShape((2,), (3,))),
            (ModeShape((2, 2), (2, 2)), ModeShape((2, 2), (2,))),
        ]
        for sa, sb in shapes:
            for _ in range(10):
                a = golden.random_tensor(rng, sa)
                b = golden.random_tensor(rng, sb)
                lhs = matricize(a @ b)
                rhs = matricize(a) @ matricize(b)
                scale = max(1.0, a.norm * b.norm)
                assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


class TestMatrixSvd:
    def test_diagonal_two_by_two(self):
        u, s, v = matrix_svd(np.diag([3.0, 2.0]).astype(np.complex128))
        assert_allclose(s, [3.0, 2.0], atol=1e-14)
        assert_allclose((u * s) @ v.conj().T, np.diag([3.0, 2.0]), atol=1e-13)

    def test_zero_matrix(self):
        u, s, v = matrix_svd(np.zeros((3, 2), dtype=np.complex128))
        assert_allclose(s, 0.0, atol=0)
        assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-13)
        assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-13)

    def test_one_by_one(self):
        u, s, v = matrix_svd(np.array([[-2.0j]], dtype=np.complex128))
        assert_allclose(s, [2.0], atol=1e-15)
        assert_allclose((u * s) @ v.conj().T, [[-2.0j]], atol=1e-14)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (4, 4), (6, 2), (8, 8), (16, 16), (20, 17), (17, 33)])
    def test_factor_invariants_random(self, rng, shape):
        for _ in range(5):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, s, v = matrix_svd(m)
            assert u.shape == (shape[0], shape[0])
            assert v.shape == (shape[1], shape[1])
            assert s.shape == (min(shape),)
            assert np.all(np.diff(s) <= 1e-13)
            assert np.all(s >= 0.0)
            assert_allclose(u.conj().T @ u, np.eye(shape[0]), atol=1e-12)
            assert_allclose(v.conj().T @ v, np.eye(shape[1]), atol=1e-12)
            k = min(shape)
            recon = (u[:, :k] * s) @ v[:, :k].conj().T
            assert np.linalg.norm(recon - m) <= 1e-12 * max(1.0, np.linalg.norm(m))

    def test_rank_deficient_repeated_columns(self):
        col = np.array([1.0, 2.0, 2.0], dtype=np.complex128)
        m = np.stack([col, col, 3.0 * col], axis=1)
        u, s, v = matrix_svd(m)
        assert np.sum(s > 1e-12) == 1
        recon = (u[:, :3] * s) @ v[:, :3].conj().T
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)

    def test_singular_values_match_reference(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            _, s, _ = matrix_svd(m)
            assert_allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-11)

    def test_singular_values_invariant_under_unitary_factors(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = golden.random_unitary_matrix(rng, 4)
        w = golden.random_unitary_matrix(rng, 4)
        _, s0, _ = matrix_svd(m)
        _, s1, _ = matrix_svd(q @ m @ w)
        assert_allclose(s1, s0, atol=1e-10 * max(1.0, s0[0]))

    def test_tall_basis_completion_regression(self):
        # This input once exhausted a standard-basis completion of the 60
        # missing columns of u and raised instead of returning.
        rng = np.random.default_rng(119)
        m = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        u, s, v = matrix_svd(m)
        assert_allclose(u.conj().T @ u, np.eye(64), atol=1e-12)
        assert_allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-12)
        recon = (u[:, :4] * s) @ v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)

    def test_column_graded_singular_values_to_high_relative_accuracy(self):
        # Jacobi keeps every singular value of a column-graded matrix to a
        # few ulps of itself; on these inputs np.linalg.svd is off by 1e-14
        _, graded = graded_inputs("columns", 8, 6)
        assert max(graded_errors(graded)) <= 4e-15

    def test_row_graded_singular_values_to_high_relative_accuracy(self):
        # the row-graded companion of the test above: rows shrinking downwards
        _, graded = graded_inputs("rows", 8, 6)
        assert max(graded_errors(graded)) <= 4e-15

    def test_rows_growing_downwards_keep_relative_accuracy(self):
        # an unpivoted QR of these inputs loses the small singular values
        # (relative errors of 3e-4 to 4e-2); sorting the rows by size first
        # keeps them within about 40 ulps
        _, graded = graded_inputs("rows_growing", 8, 6)
        assert max(graded_errors(graded)) <= 1e-14

    @pytest.mark.parametrize("n, count", [(16, 3), (32, 2)], ids=["flat16", "flat32"])
    @pytest.mark.parametrize("family", GRADED_FAMILIES)
    def test_graded_families_within_twice_eps_times_cond(self, family, n, count):
        # a graded m = D1 B D2 keeps its singular values to a modest multiple
        # of eps * cond(B).  cond(B) runs from 16 to 341 on these inputs, so
        # the bound is relative: the presorted route stays below 1.2 on every
        # family, where a single QR of unsorted columns reaches 2.1 to 3.8 on
        # the two-sided inputs at flat 16 (``BENCH_26.json``)
        plain, graded = graded_inputs(family, n, count)
        errors = np.array(graded_errors(graded))
        assert np.all(errors <= 2 * np.finfo(float).eps * np.linalg.cond(np.array(plain)))

    def test_input_is_left_unchanged(self, rng):
        # a Fortran-ordered input once reached the kernel without a copy
        m = np.asfortranarray(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        before = m.copy()
        matrix_svd(m)
        assert np.array_equal(m, before)

    def test_negligible_singular_values_are_exact_zeros(self):
        # squared column norms at most 1e-64 of the prescaled matrix count as null
        _, s, _ = matrix_svd(np.diag([1.0, 1e-40]).astype(np.complex128))
        assert s[0] == 1.0
        assert s[1] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag_inf"])
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4)], ids=["tall", "wide"])
    def test_non_finite_entry_is_a_value_error(self, rng, bad, shape):
        # once reported as SvdConvergenceError after 30 sweeps of NaN rotations
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            matrix_svd(m)

    def test_convergence_error_carries_sweep_count(self):
        err = SvdConvergenceError(30)
        assert err.sweeps == 30
        assert "30" in str(err)


class TestScaleAndNullColumns:
    def test_pinv_is_exactly_scale_equivariant_under_powers_of_two(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = pinv(as_tensor(m, (2, 2), (2, 2))).array
        for k in range(-500, 501):
            scaled = pinv(as_tensor(m * 2.0**k, (2, 2), (2, 2))).array
            assert np.array_equal(scaled, base * 2.0**-k), f"k = {k}"

    @pytest.mark.parametrize(
        "shape", [(6, 5), (5, 6), (20, 16), (16, 20)], ids=["tall", "wide", "tall_presorted", "wide_presorted"]
    )
    def test_stack_is_exactly_scale_equivariant_under_powers_of_two(self, rng, shape):
        stack = rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))
        stack[1] = golden.random_low_rank(rng, ModeShape(shape[:1], shape[1:]), rank=2).array
        stack[2, :, -1] = 0.0
        u0, s0, v0 = matrix_svd(stack)
        for k in ([-500] * 4, [500] * 4, [-500, 1, 500, -3]):
            scale = 2.0 ** np.array(k)
            u, s, v = matrix_svd(stack * scale[:, None, None])
            assert np.array_equal(u, u0), k
            assert np.array_equal(s, s0 * scale[:, None]), k
            assert np.array_equal(v, v0), k

    @pytest.mark.parametrize("dims, rank", [((4, 4), 6), ((4, 4, 2), 16)], ids=["flat16", "flat32"])
    def test_rank_deficient_pinv_matches_numpy(self, dims, rank):
        rng = np.random.default_rng(rank)
        n = int(np.prod(dims))
        for _ in range(4):
            a = golden.random_low_rank(rng, ModeShape(dims, dims), rank=rank)
            x = pinv(a).array.reshape(n, n)
            want = np.linalg.pinv(matricize(a), rcond=1e-12)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", NULL_COLUMN_EXAMPLES, ids=["row_order", "round_robin"])
    def test_null_column_examples_terminate(self, m):
        u, s, v = matrix_svd(m)
        assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-13)
        assert_allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-13)
        x = pinv(as_tensor(m, (2, 2), (2, 2))).array.reshape(4, 4)
        want = np.linalg.pinv(m)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_rank_deficient_integer_inputs_match_numpy(self):
        rng = np.random.default_rng(4096)
        checked = 0
        while checked < 300:
            m = rng.integers(-4, 5, (4, 4)).astype(np.complex128)
            if np.linalg.matrix_rank(m) == 4:
                continue
            checked += 1
            x = pinv(as_tensor(m, (2, 2), (2, 2))).array.reshape(4, 4)
            want = np.linalg.pinv(m)
            assert np.linalg.norm(x - want) <= 1e-12 * max(1.0, np.linalg.norm(want)), m.real


class TestKernelParity:
    def test_backend_marker(self):
        assert KERNEL_BACKEND == "python"
        assert unfold_mod._kernel is _jacobi_py

    def test_pure_python_kernel_direct(self, rng):
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        cols = np.ascontiguousarray(m.T.copy())
        vrows = np.eye(3, dtype=np.complex128)
        sweeps = _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30)
        assert sweeps > 0
        s = np.linalg.norm(cols, axis=1)
        # Rotations preserve the factorization m = (cols^T stacked) with V.
        recon = cols.T @ vrows.conj()
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)
        assert_allclose(np.sort(s)[::-1], np.linalg.svd(m, compute_uv=False), atol=1e-11)

    @pytest.mark.parametrize("n", range(2, 34))
    def test_round_robin_schedule(self, n):
        perm = _jacobi_py.round_robin(n)
        slots = np.arange(perm.size)
        half = perm.size // 2
        seen = []
        for _ in range(perm.size - 1):
            pairs = [(int(p), int(q)) for p, q in zip(slots[:half], slots[half:])]
            assert len({i for pair in pairs for i in pair}) == perm.size  # disjoint within the round
            seen += [tuple(sorted(pair)) for pair in pairs if max(pair) < n]
            slots = slots[perm]
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert np.array_equal(slots, np.arange(perm.size))  # every column back in its slot

    @pytest.mark.parametrize("shape", [(4, 4), (7, 5), (16, 16), (33, 17), (64, 4)])
    def test_round_robin_matches_sequential_reference(self, rng, shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        runs = []
        for kernel in (_jacobi_py.jacobi_sweeps, sequential_sweeps):
            cols = np.ascontiguousarray(m.T)
            vrows = np.eye(shape[1], dtype=np.complex128)
            assert kernel(cols, vrows, 1e-14, 30) > 0
            assert np.linalg.norm(cols.T @ vrows.conj() - m) <= 1e-13 * np.linalg.norm(m)
            runs.append(np.sort(np.linalg.norm(cols, axis=1))[::-1])
        assert_allclose(runs[0], runs[1], rtol=1e-13)

    def test_non_finite_column_never_counts_as_converged(self, rng):
        cols = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        cols[1, 2] = np.nan
        vrows = np.eye(3, dtype=np.complex128)
        with np.errstate(invalid="ignore"):  # NaN comparisons inside the rotation step
            assert _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30) == -1

    def test_single_column_returns_immediately(self):
        cols = np.ones((1, 3), dtype=np.complex128)
        vrows = np.eye(1, dtype=np.complex128)
        assert _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30) == 0

    def test_orthogonal_input_needs_no_rotations(self):
        cols = np.ascontiguousarray(np.eye(3, dtype=np.complex128))
        vrows = np.eye(3, dtype=np.complex128)
        assert _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30) == 1
        assert np.array_equal(vrows, np.eye(3))


def family_pool(n: int) -> list[np.ndarray]:
    """Matrices a, b and a @ b of every fuzz family at n x n, and at (n + 2) x n."""
    rng = np.random.default_rng(n)
    pool = []
    for shape in (ModeShape((n,), (n,)), ModeShape((n + 2,), (n,))):
        for family in FUZZ_FAMILIES:
            if family == "unitary_factor" and not shape.is_square:
                continue
            a, b = golden.fuzz_pair(rng, shape, family)
            pool += [matricize(a), matricize(b), matricize(a @ b)]
    return pool


def stacked_and_single(mats: list[np.ndarray]):
    """Kernel results on the stack of ``mats``, and on each matrix alone."""
    cols = np.stack([np.ascontiguousarray(m.T) for m in mats])
    vrows = np.stack([np.eye(len(c), dtype=np.complex128) for c in cols])
    singles = [(c.copy(), v.copy()) for c, v in zip(cols, vrows)]
    sweeps = _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30)
    single_sweeps = [_jacobi_py.jacobi_sweeps(c, v, 1e-14, 30) for c, v in singles]
    return (cols, vrows, sweeps), (singles, single_sweeps)


class TestStackedKernel:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_stack_matches_single_calls(self, n):
        pool = family_pool(n)
        square = [m for m in pool if m.shape == (n, n)]
        tall = [m if m.shape == (n + 2, n) else m.conj().T for m in pool if sorted(m.shape) == [n, n + 2]]
        for mats in (square, tall):
            (cols, vrows, sweeps), (singles, single_sweeps) = stacked_and_single(mats)
            assert type(sweeps) is int
            assert sweeps == max(single_sweeps) > 0
            for i, (c, v) in enumerate(singles):
                assert np.array_equal(cols[i], c), i
                assert np.array_equal(vrows[i], v), i

    def test_stack_with_one_nan_matrix_returns_minus_one(self, rng):
        mats = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(5)]
        mats[2][1, 2] = np.nan
        with np.errstate(invalid="ignore"):  # NaN comparisons inside the rotation step
            (cols, _, sweeps), (singles, _) = stacked_and_single(mats)
        assert sweeps == -1
        for i in (0, 1, 3, 4):  # the finite matrices still converge as they would alone
            assert np.array_equal(cols[i], singles[i][0])

    def test_empty_stack(self):
        cols = np.zeros((0, 3, 4), dtype=np.complex128)
        vrows = np.zeros((0, 3, 3), dtype=np.complex128)
        assert _jacobi_py.jacobi_sweeps(cols, vrows, 1e-14, 30) == 0


class TestStackedSvd:
    @staticmethod
    def check(stack: np.ndarray) -> None:
        u, s, v = matrix_svd(stack)
        assert u.shape[0] == s.shape[0] == v.shape[0] == len(stack)
        for i, m in enumerate(stack):
            for got, want in zip((u[i], s[i], v[i]), matrix_svd(m)):
                assert np.array_equal(got, want), i

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6), (4, 4), (16, 16), (12, 6), (9, 8), (7, 7)])
    def test_stack_matches_single_calls(self, rng, shape):
        stack = rng.standard_normal((7, *shape)) + 1j * rng.standard_normal((7, *shape))
        stack[1, :, -1] = stack[1, :, 0]  # rank-deficient
        stack[2, 0] = stack[2, 1]  # rank-deficient the other way
        stack[6] = golden.random_low_rank(rng, ModeShape(shape[:1], shape[1:]), rank=2).array
        stack[3] = 0.0
        stack[4] *= 2.0**500
        stack[5] *= 2.0**-500
        self.check(stack)

    def test_rank_deficient_family_pool(self):
        for n in (3, 4, 5):
            self.check(np.stack([m for m in family_pool(n) if m.shape == (n, n)]))

    def test_stack_split_over_kernel_calls(self, rng, monkeypatch):
        # a budget of two matrices per call leaves a lone matrix at the end
        monkeypatch.setattr(unfold_mod, "KERNEL_BUDGET", 2 * 6 * 11)
        calls = []
        kernel = _jacobi_py.jacobi_sweeps
        monkeypatch.setattr(_jacobi_py, "jacobi_sweeps", lambda c, *rest: calls.append(c.ndim) or kernel(c, *rest))
        stack = rng.standard_normal((5, 6, 5)) + 1j * rng.standard_normal((5, 6, 5))
        self.check(stack)
        assert calls[:3] == [3, 3, 2]

    def test_stack_of_one_non_finite_matrix_is_a_value_error(self, rng):
        stack = rng.standard_normal((3, 4, 4)) + 0j
        stack[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            matrix_svd(stack)

    def test_rejects_higher_rank_arrays(self):
        with pytest.raises(ValueError, match="ndim 4"):
            matrix_svd(np.zeros((2, 2, 2, 2)))


class TestSweepCap:
    """The real non-convergence path, reached by lowering ``MAX_SWEEPS`` to one sweep."""

    @pytest.fixture(autouse=True)
    def one_sweep(self, monkeypatch):
        monkeypatch.setattr(unfold_mod, "MAX_SWEEPS", 1)

    @staticmethod
    def gaussian(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_matrix(self, rng):
        with pytest.raises(SvdConvergenceError, match="did not converge within 1 sweeps"):
            matrix_svd(self.gaussian(rng, 8, 8))

    def test_stack(self, rng):
        stack = self.gaussian(rng, 3, 8, 8)
        stack[1] = np.diag(self.gaussian(rng, 8))  # converges in one sweep on its own
        matrix_svd(stack[1])
        with pytest.raises(SvdConvergenceError, match="did not converge within 1 sweeps"):
            matrix_svd(stack)

    def test_pinv(self, rng):
        with pytest.raises(SvdConvergenceError, match="did not converge within 1 sweeps"):
            pinv(as_tensor(self.gaussian(rng, 8, 8), (2, 4), (4, 2)))


class TestEmptySvd:
    @pytest.mark.parametrize("shape", [(0, 4, 3), (0, 3, 4), (0, 9, 8), (2, 3, 0), (2, 0, 3), (3, 0), (0, 3)])
    def test_empty_factors_of_the_documented_shapes(self, shape):
        *stack, rows, cols = shape
        u, s, v = matrix_svd(np.zeros(shape))
        assert u.shape == (*stack, rows, rows)
        assert s.shape == (*stack, min(rows, cols))
        assert v.shape == (*stack, cols, cols)
        assert u.dtype == v.dtype == np.complex128 and s.dtype == np.float64
        # the unitary factors of a matrix with no entries are identities
        assert np.array_equal(u, np.broadcast_to(np.eye(rows), u.shape))
        assert np.array_equal(v, np.broadcast_to(np.eye(cols), v.shape))
        if stack:
            TestStackedSvd.check(np.zeros(shape))
