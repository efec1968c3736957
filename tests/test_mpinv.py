"""Tensor SVD, pseudoinverse, and the identity toolbox built on them."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from tenrol import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NotIdempotentError,
    NumericPolicy,
    OrthogonalityError,
    ShapeMismatchError,
    add_scale,
    as_tensor,
    conj_transpose,
    diagonal_from,
    dematricize,
    einstein_product,
    frobenius_norm,
    identity,
    identity_suite,
    idempotent_factorization,
    matricize,
    min_norm_solve,
    penrose_residuals,
    pinv,
    pinv_sum,
    rel_residual,
    trace,
    tsvd,
    zeros,
)
from tenrol import mpinv

SHAPES = [
    ModeShape((2,), (3,)),
    ModeShape((2, 2), (2,)),
    ModeShape((2, 2), (2, 2)),
    ModeShape((3, 2), (2, 2)),
]


class TestTsvd:
    def test_factors_survive_pickle_and_copies(self, rng):
        f = tsvd(golden.random_tensor(rng, ModeShape((2, 2), (3,))))
        for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            for name in ("u", "d", "v"):
                got, want = getattr(twin, name), getattr(f, name)
                assert got.shape == want.shape
                assert got._mat.tobytes() == want._mat.tobytes() and not got._mat.flags.writeable

    def test_diagonal_singular_values(self):
        a = diagonal_from((2,), (2,), [2.0, 1.0])
        f = tsvd(a)
        assert_allclose(f.singular_values, [2.0, 1.0], atol=1e-13)

    def test_zero_tensor(self):
        f = tsvd(zeros((2, 2), (2, 2)))
        assert_allclose(f.singular_values, 0.0, atol=0)
        assert f.d.norm == 0.0

    def test_factor_shapes(self):
        a = golden.random_tensor(np.random.default_rng(3), ModeShape((3, 2), (2, 2)))
        f = tsvd(a)
        assert f.u.shape == ModeShape((3, 2), (3, 2))
        assert f.d.shape == a.shape
        assert f.v.shape == ModeShape((2, 2), (2, 2))

    def test_reconstruction_and_unitarity(self, rng):
        for shape in SHAPES:
            a = golden.random_tensor(rng, shape)
            f = tsvd(a)
            recon = f.u @ f.d @ conj_transpose(f.v)
            assert rel_residual(recon, a) <= 1e-11
            eye_r = identity(shape.row_dims)
            eye_c = identity(shape.col_dims)
            assert rel_residual(conj_transpose(f.u) @ f.u, eye_r) <= 1e-11
            assert rel_residual(conj_transpose(f.v) @ f.v, eye_c) <= 1e-11

    def test_middle_factor_is_nonincreasing_diagonal(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
        f = tsvd(a)
        m = matricize(f.d)
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0)
        s = f.singular_values
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 1e-13)

    def test_golden_tensor_has_full_rank(self):
        s = tsvd(golden.golden_a()).singular_values
        assert s.shape == (4,)
        assert np.all(s > 0.1)
        # matricization has determinant -1, so the singular values multiply to 1
        assert_allclose(np.prod(s), 1.0, atol=1e-12)


class TestPinv:
    def test_golden_inverse_entrywise(self):
        x = pinv(golden.golden_a())
        assert_allclose(x.array, golden.golden_pinv().array, atol=1e-12)

    def test_golden_two_sided_inverse(self):
        a = golden.golden_a()
        x = pinv(a)
        e = identity((2, 2))
        assert_allclose((a @ x).array, e.array, atol=1e-10)
        assert_allclose((x @ a).array, e.array, atol=1e-10)

    def test_identity_and_zero(self):
        e = identity((2, 2))
        assert_allclose(pinv(e).array, e.array, atol=1e-13)
        z = zeros((2, 2), (3,))
        x = pinv(z)
        assert x.shape == ModeShape((3,), (2, 2))
        assert x.norm == 0.0

    def test_unitary_tensor_inverts_to_adjoint(self, rng):
        u = golden.random_unitary_tensor(rng, (2, 2))
        uh = conj_transpose(u)
        r = penrose_residuals(u, uh)
        assert r.max_residual <= 1e-12
        assert rel_residual(pinv(u), uh) <= 1e-12

    def test_diagonal_reciprocal_with_zeros(self):
        a = diagonal_from((2, 2), (2, 2), [2.0, 1.0, 0.0, 0.0])
        x = pinv(a)
        want = diagonal_from((2, 2), (2, 2), [0.5, 1.0, 0.0, 0.0])
        assert_allclose(x.array, want.array, atol=1e-13)

    def test_penrose_residuals_across_shapes(self, rng):
        for shape in SHAPES:
            for deficient in (False, True):
                a = (golden.random_low_rank(rng, shape)
                     if deficient else golden.random_tensor(rng, shape))
                r = penrose_residuals(a, pinv(a))
                assert r.max_residual <= 1e-10, (shape, deficient, r.as_dict())

    def test_involution_on_full_rank(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (2,)))
        assert rel_residual(pinv(pinv(a)), a) <= 1e-10

    def test_adjoint_commutes_with_pinv(self, rng):
        a = golden.random_low_rank(rng, golden.SQ22)
        lhs = pinv(conj_transpose(a))
        rhs = conj_transpose(pinv(a))
        assert rel_residual(lhs, rhs) <= 1e-10

    def test_matches_reference_pinv(self, rng):
        # Uniqueness: any tensor passing all four equations must coincide
        # with the reference answer computed by an independent solver.
        for shape in SHAPES:
            a = golden.random_low_rank(rng, shape)
            x = pinv(a)
            y = dematricize(np.linalg.pinv(matricize(a)), shape.transposed)
            rx = penrose_residuals(a, x)
            ry = penrose_residuals(a, y)
            assert rx.max_residual <= 1e-12
            assert ry.max_residual <= 1e-12
            scale = max(1.0, x.norm, y.norm)
            assert rel_residual(x, y) <= 1e-10 * scale

    def test_rank_tol_keeps_ties_inclusive(self):
        a = diagonal_from((2,), (2,), [1.0, 0.5])
        # Cutoff sits exactly on the small value: >= keeps it.
        x = pinv(a, policy=NumericPolicy(rank_tol=0.5))
        assert_allclose(x.array, np.diag([1.0, 2.0]), atol=1e-13)
        # Nudging the cutoff above 0.5 drops it.
        y = pinv(a, policy=NumericPolicy(rank_tol=0.6))
        assert_allclose(y.array, np.diag([1.0, 0.0]), atol=1e-13)

    def test_overflowing_reciprocal_is_named(self, rng):
        # the smallest singular value of 1e-310 * M is subnormal and its
        # reciprocal overflows; the error used to come from DenseTensor,
        # three calls down, as "non-finite entry at flat index 0"
        m = golden.random_tensor(rng, golden.SQ22)
        for tiny in (lambda: pinv(1e-310 * m), lambda: pinv([m, 1e-310 * m])):
            with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value \S+ has no finite"):
                tiny()
        # an underflowed cutoff keeps no exact zero: once 0 >= 0 kept it, and 1/0
        # raised a divide-by-zero warning and reported the value 0.000e+00
        with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value 1\.000e-320 has"):
            pinv(diagonal_from((2,), (2,), [1e-320, 0.0]))
        # reciprocals near 1e300 are still finite
        assert_allclose(pinv([m, 1e-300 * m])[1].entries * 1e-300, pinv(m).entries, rtol=1e-10)

    def test_rank_tol_filters_noise_modes(self, rng):
        u = golden.random_unitary_matrix(rng, 4)
        v = golden.random_unitary_matrix(rng, 4)
        s = np.array([2.0, 1.0, 1e-13, 1e-14])
        a = as_tensor((u * s) @ v.conj().T, (4,), (4,))
        x = pinv(a)
        # Tiny modes are treated as rank noise, keeping the norm near 1/1.
        assert x.norm < 10.0


class TestPenroseResiduals:
    def test_identity_pair_is_exact(self):
        e = identity((2, 2))
        r = penrose_residuals(e, e)
        assert r.max_residual == 0.0
        assert r.satisfied(1e-15)

    def test_scaled_candidate_fails_product_equations_only(self):
        e = identity((2,))
        r = penrose_residuals(e, 2.0 * e)
        assert r.axa > 0.1 and r.xax > 0.1
        assert r.ax_herm == 0.0 and r.xa_herm == 0.0
        assert not r.satisfied(1e-10)

    def test_dict_keys(self):
        e = identity((2,))
        d = penrose_residuals(e, e).as_dict()
        assert d == {
            "tol": DEFAULT_POLICY.eq_tol,
            "residuals": {"axa": 0.0, "xax": 0.0, "ax_herm": 0.0, "xa_herm": 0.0},
            "booleans": {"axa": True, "xax": True, "ax_herm": True, "xa_herm": True},
        }

    def test_overflowing_residual_is_refused_not_satisfied(self, rng):
        # X @ A @ X is finite, but the norms of X near 1e300 overflow when
        # squared and xax was inf / inf = NaN, which max() skipped: the
        # candidate 2 * pinv(A) was reported as satisfying all four equations
        a = 1e-300 * golden.random_tensor(rng, golden.SQ22)
        x = 2.0 * pinv(a)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            penrose_residuals(a, x)
        assert str(info.value) == "non-finite residual in xax: an intermediate product overflowed"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            penrose_residuals(zeros((2,), (3,)), zeros((2,), (3,)))


class TestIdentitySuite:
    def test_identity_tensor_all_zero(self):
        rep = identity_suite(identity((2, 2)))
        assert rep.max_residual == 0.0
        assert rep.normal and rep.ep

    def test_zero_tensor_all_zero(self):
        rep = identity_suite(zeros((2, 2), (2, 2)))
        assert rep.max_residual == 0.0

    def test_golden_tensor_is_ep_but_not_normal(self):
        rep = identity_suite(golden.golden_a())
        assert rep.max_residual <= 1e-10
        assert not rep.normal
        assert rep.normal_residual > 0.5
        assert rep.ep
        assert rep.ep_residual <= 1e-10

    def test_residuals_hold_for_random_tensors(self, rng):
        for shape in SHAPES:
            a = golden.random_low_rank(rng, shape)
            rep = identity_suite(a)
            assert rep.max_residual <= 1e-10, (shape, rep.residuals)
            if not shape.is_square:
                assert rep.normal is None or rep.normal is False
                assert rep.normal_residual is None
                assert rep.ep_residual is None

    def test_expected_residual_keys(self, rng):
        rep = identity_suite(golden.random_tensor(rng, ModeShape((2,), (3,))))
        assert set(rep.residuals) == {
            "star_via_pinv_left", "star_via_pinv_right",
            "recover_right", "recover_left",
            "pinv_via_gram", "pinv_via_cogram",
            "gram_pinv_split", "cogram_pinv_split",
            "gram_sandwich_left", "gram_sandwich_right",
            "row_projector_right", "row_projector_left",
        }

    def test_normal_tensor_is_ep(self, rng):
        # Normal: A = U diag(z) U* with complex diagonal entries.
        u = golden.random_unitary_matrix(rng, 4)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z[3] = 0.0  # keep a rank drop in the mix
        a = as_tensor(u @ np.diag(z) @ u.conj().T, (2, 2), (2, 2))
        rep = identity_suite(a)
        assert rep.normal
        assert rep.ep
        assert rep.ep_residual <= 1e-10

    def test_hermitian_tensor_is_normal_and_ep(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = as_tensor(m + m.conj().T, (2, 2), (2, 2))
        rep = identity_suite(a)
        assert rep.normal and rep.ep

    def test_overflow_is_refused_not_read_as_not_normal(self):
        # 1e120 * Q for a unitary Q is normal, but its Gram norms overflow and
        # the normal residual is NaN; the parent reported normal == False
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a = as_tensor(1e120 * q, (2, 2), (2, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            identity_suite(a)
        assert str(info.value) == "non-finite residual in normal: an intermediate product overflowed"
        assert identity_suite(1e-110 * a).normal

    def test_overflowing_gram_pinv_is_named(self, rng):
        # the Gram singular values of 1e-160 * M are near 1e-320
        a = 1e-160 * golden.random_tensor(rng, golden.SQ22)
        with pytest.raises(ValueError, match="^pinv overflows: smallest kept singular value") as info:
            identity_suite(a)
        assert str(info.value).endswith("has no finite reciprocal in pinv(A.H @ A)")

    def test_overflowing_pinv_of_the_tensor_itself_is_named(self, rng):
        # the Gram matrices of 1e-310 * M underflow to zero; A's own reciprocals overflow
        with pytest.raises(ValueError, match=r"^pinv overflows: .* has no finite reciprocal in pinv\(a\)$"):
            identity_suite(1e-310 * golden.random_tensor(rng, golden.SQ22))


class TestZeroConditions:
    def test_projected_factor_annihilates_all_three_forms(self, rng):
        a = golden.random_low_rank(rng, golden.SQ22)
        d0 = golden.random_tensor(rng, golden.SQ22)
        ap = pinv(a)
        e = identity((2, 2))
        d = d0 @ add_scale(1.0, e, -1.0, a @ ap)
        scale = max(1.0, d0.norm * max(a.norm, ap.norm))
        assert frobenius_norm(d @ ap) <= 1e-10 * scale
        assert frobenius_norm(d @ conj_transpose(a)) <= 1e-10 * scale
        assert frobenius_norm(d @ ap @ a) <= 1e-10 * scale

    def test_unprojected_factor_fails_all_three(self, rng):
        a = golden.random_low_rank(rng, golden.SQ22, rank=2)
        ap = pinv(a)
        d = identity((2, 2))
        assert frobenius_norm(d @ ap) > 1e-6
        assert frobenius_norm(d @ conj_transpose(a)) > 1e-6
        assert frobenius_norm(d @ ap @ a) > 1e-6

    def test_gram_cancellation(self, rng):
        # If D kills A @ A*, it already kills A.
        a = golden.random_low_rank(rng, golden.SQ22)
        gram = a @ conj_transpose(a)
        proj = gram @ pinv(gram)
        e = identity((2, 2))
        d = golden.random_tensor(rng, golden.SQ22) @ add_scale(1.0, e, -1.0, proj)
        scale = max(1.0, d.norm * max(1.0, gram.norm))
        assert frobenius_norm(d @ gram) <= 1e-10 * scale
        assert frobenius_norm(d @ a) <= 1e-10 * scale


class TestInvertibleFactorAbsorption:
    def test_invertible_left_and_right_factors_drop_out(self, rng):
        # B = I + 0.1 R stays invertible; reject draws that get too close
        # to singular so the bound is honest.
        for _ in range(10):
            a = golden.random_low_rank(rng, golden.SQ22)
            while True:
                r = golden.random_tensor(rng, golden.SQ22)
                b = add_scale(1.0, identity((2, 2)), 0.1, r)
                smin = np.linalg.svd(matricize(b), compute_uv=False)[-1]
                if smin >= 0.5:
                    break
            ba = b @ a
            lhs = pinv(ba) @ ba
            rhs = pinv(a) @ a
            assert rel_residual(lhs, rhs) <= 1e-9
            ab = a @ b
            lhs2 = ab @ pinv(ab)
            rhs2 = a @ pinv(a)
            assert rel_residual(lhs2, rhs2) <= 1e-9

    def test_trace_conjugation_preserves_trace(self, rng):
        a = golden.random_low_rank(rng, golden.SQ22)
        ap = pinv(a)
        b = golden.random_tensor(rng, golden.SQ22) @ a @ ap
        lhs = trace(ap @ b @ a)
        rhs = trace(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs), a.norm * ap.norm * b.norm)


class TestPinvSequence:
    def test_sequence_matches_single_calls_over_mixed_shapes(self, rng):
        shapes = [golden.SQ22, ModeShape((2,), (3,)), golden.SQ22, ModeShape((3,), (2,)),
                  ModeShape((2, 2), (2,)), golden.SQ22, ModeShape((2,), (3,))]
        ts = [golden.random_tensor(rng, s) for s in shapes]
        ts[2] = zeros((2, 2), (2, 2))
        ts[5] = einstein_product(ts[0], diagonal_from((2, 2), (2, 2), [1, 0, 1, 0]))  # rank 2
        got = pinv(ts)
        assert isinstance(got, tuple) and len(got) == len(ts)
        for t, x in zip(ts, got):
            want = pinv(t)
            assert x.shape == want.shape == t.shape.transposed
            assert np.array_equal(x.array, want.array)

    def test_empty_sequence(self):
        assert pinv([]) == ()

    def test_a_single_tensor_equals_a_sequence_of_one(self, rng):
        ts = [golden.random_tensor(rng, s) for s in SHAPES]
        ts += [zeros((2, 2), (3,)), golden.random_low_rank(rng, golden.SQ22, rank=2), identity((2,))]
        for t in ts:
            x, (y,) = pinv(t), pinv((t,))
            assert type(x) is DenseTensor and x.shape == y.shape == t.shape.transposed
            assert x._mat.tobytes() == y._mat.tobytes()
            assert x._mat.flags.c_contiguous and not x._mat.flags.writeable

    def test_a_single_tensor_overflow_names_no_tensor(self, rng):
        with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value \S+ has no finite"
                                             r" reciprocal$"):
            pinv(1e-310 * golden.random_tensor(rng, golden.SQ22))

    def test_a_single_tensor_overflowing_entry_names_no_tensor(self, rng, monkeypatch):
        real = mpinv._pinv_matrix

        def overflowing(mat, rank_tol):
            x = real(mat, rank_tol)
            x[..., 1, 2] = np.inf
            return x

        monkeypatch.setattr(mpinv, "_pinv_matrix", overflowing)
        with pytest.raises(ValueError, match="^non-finite entry at flat index 6$"):
            pinv(golden.random_tensor(rng, golden.SQ22))

    def test_results_are_read_only_c_contiguous_matrices(self, rng):
        ts = [golden.random_tensor(rng, s) for s in (golden.SQ22, ModeShape((2,), (3,)), golden.SQ22)]
        for t, x in zip(ts, pinv(ts)):
            assert x._mat.shape == (t.shape.col_count, t.shape.row_count)
            assert x._mat.flags.c_contiguous and not x._mat.flags.writeable

    def test_overflowing_reciprocal_names_the_tensor(self, rng):
        m = golden.random_tensor(rng, golden.SQ22)
        r = golden.random_tensor(rng, ModeShape((2,), (3,)))
        cases = {
            0: [1e-310 * m, m],
            1: [m, 1e-310 * m, 1e-310 * m],
            2: [m, r, 1e-310 * r],  # a stack of two 2x3 matrices
            3: [m, r, m, 1e-310 * r.H],  # a lone 3x2 matrix
        }
        for i, ts in cases.items():
            with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value \S+ has no finite"
                                                 rf" reciprocal in tensor {i}$"):
                pinv(ts)

    def test_an_overflowing_entry_is_named(self, rng, monkeypatch):
        # finite reciprocals whose products overflow are all but unreachable;
        # stand in for them with a stack that has one infinite entry
        real = mpinv._pinv_matrix

        def overflowing(mat, rank_tol):
            x = real(mat, rank_tol)
            if x.ndim == 3:
                x[1, 1, 2] = np.inf
            return x

        monkeypatch.setattr(mpinv, "_pinv_matrix", overflowing)
        ts = [golden.random_tensor(rng, golden.SQ22) for _ in range(3)]
        with pytest.raises(ValueError, match="^non-finite entry at flat index 6 in tensor 1$"):
            pinv(ts)

    def test_an_overflowing_entry_names_its_tensor_in_the_sequence(self, rng, monkeypatch):
        real = mpinv._pinv_matrix

        def overflowing(mat, rank_tol):
            x = real(mat, rank_tol)
            if x.shape == (3, 4, 4):
                x[1, 0, 3] = np.nan
            return x

        monkeypatch.setattr(mpinv, "_pinv_matrix", overflowing)
        # the 4x4 matricizations stack as tensors 1, 3 and 4; row 1 of that stack is tensor 3
        sq = [golden.random_tensor(rng, golden.SQ22) for _ in range(3)]
        rect = [golden.random_tensor(rng, ModeShape((2,), (3,))) for _ in range(2)]
        with pytest.raises(ValueError, match="^non-finite entry at flat index 3 in tensor 3$"):
            pinv([rect[0], sq[0], rect[1], sq[1], sq[2]])

    def test_the_lowest_failing_tensor_is_named_whatever_its_group(self, rng, monkeypatch):
        # the groups are the 4x4 matricizations (tensors 0 and 2) and the 2x3 one
        # (tensor 1); the 4x4 group is decomposed first but fails higher up
        m = golden.random_tensor(rng, golden.SQ22)
        r = golden.random_tensor(rng, ModeShape((2,), (3,)))
        with pytest.raises(ValueError, match=r"has no finite reciprocal in tensor 1$"):
            pinv([m, 1e-310 * r, 1e-310 * m])
        real = mpinv._pinv_matrix

        def overflowing(mat, rank_tol):
            x = real(mat, rank_tol)
            x.flat[-1] = np.inf  # the last entry of the last matrix
            return x

        monkeypatch.setattr(mpinv, "_pinv_matrix", overflowing)
        with pytest.raises(ValueError, match="^non-finite entry at flat index 5 in tensor 1$"):
            pinv([m, r, m])
        # an overflowing reciprocal outranks a lower non-finite entry
        with pytest.raises(ValueError, match=r"has no finite reciprocal in tensor 2$"):
            pinv([m, m, 1e-310 * r])

    def test_sum_equals_sum_of_single_calls(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        f = tsvd(a)
        s = f.singular_values
        parts = [f.u @ diagonal_from((2, 2), (2, 2), np.where(np.arange(4) == k, s, 0.0)) @ f.v.H
                 for k in range(4)]
        want = pinv(parts[0])
        for part in parts[1:]:
            want = want + pinv(part)
        assert np.array_equal(pinv_sum(parts).array, want.array)


class TestPinvSum:
    def test_single_part_reduces_to_pinv(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (2,)))
        assert rel_residual(pinv_sum([a]), pinv(a)) == 0.0

    def test_svd_split_parts(self, rng):
        for _ in range(5):
            a = golden.random_tensor(rng, golden.SQ22)
            f = tsvd(a)
            s = f.singular_values
            parts = []
            for keep in (s >= s[1], s < s[1]):
                d = diagonal_from((2, 2), (2, 2), np.where(keep, s, 0.0))
                parts.append(f.u @ d @ conj_transpose(f.v))
            total = add_scale(1.0, parts[0], 1.0, parts[1])
            assert rel_residual(total, a) <= 1e-12
            got = pinv_sum(parts)
            want = pinv(a)
            assert rel_residual(got, want) <= 1e-10 * max(1.0, want.norm)

    def test_rejects_non_orthogonal_parts(self):
        e = identity((2,))
        with pytest.raises(OrthogonalityError) as exc:
            pinv_sum([e, e])
        assert exc.value.pair == (0, 1)
        assert exc.value.residual > 0.1

    def test_rejects_overflowing_non_orthogonal_parts(self):
        # near 1e160 the cross products overflow and the residual is NaN,
        # which once passed the check, so a wrong sum came back
        rng = np.random.default_rng(3)
        a, b = (as_tensor(1e160 * rng.standard_normal((2, 2, 2, 2)), (2, 2), (2, 2)) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OrthogonalityError) as exc:
            pinv_sum([a, b])
        assert exc.value.pair == (0, 1)

    def test_rejects_shape_mismatch_and_empty(self):
        with pytest.raises(ShapeMismatchError):
            pinv_sum([identity((2,)), identity((3,))])
        with pytest.raises(ValueError):
            pinv_sum([])


class TestIdempotentFactorization:
    def test_rejects_overflowing_square(self):
        # c @ c overflows, and the NaN residual once passed as idempotent
        c = as_tensor(1e160 * np.random.default_rng(3).standard_normal((2, 2, 2, 2)), (2, 2), (2, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotIdempotentError):
            idempotent_factorization(c)

    def test_identity_splits_into_identities(self):
        e = identity((2, 2))
        a, b = idempotent_factorization(e)
        assert rel_residual(a, e) <= 1e-12
        assert rel_residual(b, e) <= 1e-12

    def test_projector_splits_into_hermitian_idempotents(self):
        c = as_tensor(np.array([[1.0, 1.0], [0.0, 0.0]]), (2,), (2,))
        a, b = idempotent_factorization(c)
        for t in (a, b):
            assert rel_residual(t, conj_transpose(t)) <= 1e-12
            assert rel_residual(t @ t, t) <= 1e-12
        assert rel_residual(a @ c @ b, c) <= 1e-12
        assert rel_residual(pinv(b @ a), c) <= 1e-10

    def test_rejects_non_idempotent(self):
        c = as_tensor(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,), (2,))
        with pytest.raises(NotIdempotentError) as exc:
            idempotent_factorization(c)
        assert exc.value.residual > 0.1

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            idempotent_factorization(zeros((2,), (3,)))


class TestMinNormSolve:
    def test_identity_system(self, rng):
        b = golden.random_tensor(rng, golden.SQ22)
        x = min_norm_solve(identity((2, 2)), b)
        assert rel_residual(x, b) <= 1e-12

    def test_zero_system(self):
        z = zeros((2, 2), (2, 2))
        assert min_norm_solve(z, z).norm == 0.0

    def test_tall_system_against_normal_equations(self, rng):
        # 4x2 full-column-rank system; solve the 2x2 normal equations by
        # Cramer's rule as an independent oracle.
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rhsm = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        a = as_tensor(m, (4,), (2,))
        b = as_tensor(rhsm, (4,), (1,))
        x = min_norm_solve(a, b)
        g = m.conj().T @ m
        h = m.conj().T @ rhsm
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        want = np.array([
            [(h[0, 0] * g[1, 1] - g[0, 1] * h[1, 0]) / det],
            [(g[0, 0] * h[1, 0] - h[0, 0] * g[0, 1].conjugate()) / det],
        ])
        assert_allclose(x.array, want, atol=1e-10 * max(1.0, np.linalg.norm(want)))

    def test_residual_is_orthogonal_to_range(self, rng):
        a = golden.random_low_rank(rng, ModeShape((2, 2), (2,)))
        b = golden.random_tensor(rng, ModeShape((2, 2), (1,)))
        x = min_norm_solve(a, b)
        resid = add_scale(1.0, a @ x, -1.0, b)
        assert frobenius_norm(conj_transpose(a) @ resid) <= 1e-10 * max(1.0, a.norm * b.norm)

    def test_solution_has_minimal_norm(self, rng):
        a = golden.random_low_rank(rng, golden.SQ22, rank=2)
        b = a @ golden.random_tensor(rng, ModeShape((2, 2), (2,)))
        x = min_norm_solve(a, b)
        e = identity((2, 2))
        null_proj = add_scale(1.0, e, -1.0, pinv(a) @ a)
        for _ in range(5):
            shift = null_proj @ golden.random_tensor(rng, ModeShape((2, 2), (2,)))
            other = add_scale(1.0, x, 1.0, shift)
            assert rel_residual(a @ other, b) <= 1e-9
            assert other.norm >= x.norm - 1e-9

    def test_row_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            min_norm_solve(zeros((2,), (2,)), zeros((3,), (1,)))
