"""Tensor container, contraction, trace, and structural helpers."""

from __future__ import annotations

import ast
import copy
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import golden
from tenrol import (
    DEFAULT_POLICY,
    DenseTensor,
    ModeShape,
    NumericPolicy,
    ShapeMismatchError,
    add_scale,
    approx_equal,
    as_tensor,
    classify,
    conj_transpose,
    diagonal_from,
    einstein_product,
    frobenius_norm,
    identity,
    inner_product,
    kronecker,
    rel_residual,
    trace,
    zeros,
)
from tenrol import core
from tenrol.core import _compare, _norm, _stack, _unitary_residual, _worst, _zero_residual


class TestModeShape:
    def test_counts(self):
        s = ModeShape((2, 3), (4,))
        assert s.row_count == 6
        assert s.col_count == 4
        assert s.dims == (2, 3, 4)
        assert not s.is_square

    def test_transposed_swaps_modes(self):
        s = ModeShape((2, 3), (4,))
        assert s.transposed == ModeShape((4,), (2, 3))

    def test_derived_shapes_equal_validated_ones(self, rng):
        # products, adjoints and Kronecker factors reuse already validated dims
        a = golden.random_tensor(rng, ModeShape((2, 3), (4,)))
        b = golden.random_tensor(rng, ModeShape((4,), (2,)))
        for got, want in [
            ((a @ b).shape, ModeShape((2, 3), (2,))),
            (a.H.shape, ModeShape((4,), (2, 3))),
            (kronecker(a, b).shape, ModeShape((2, 3, 4), (4, 2))),
        ]:
            assert got == want
            assert hash(got) == hash(want)
            assert str(got) == str(want)

    def test_square_requires_equal_dim_tuples(self):
        assert ModeShape((2, 2), (2, 2)).is_square
        # 4 = 4 entries but the mode tuples differ, so not square.
        assert not ModeShape((4,), (2, 2)).is_square

    def test_str(self):
        assert str(ModeShape((2, 2), (3,))) == "2x2:3"

    @pytest.mark.parametrize("bad", [(0,), (-1, 2), (2.5,)])
    def test_rejects_nonpositive_or_fractional_dims(self, bad):
        with pytest.raises((ValueError, TypeError)):
            ModeShape(bad, (2,))

    def test_empty_mode_tuple_acts_as_scalar_side(self):
        s = ModeShape((), (2,))
        assert s.row_count == 1
        assert s.col_count == 2

    def test_counts_are_stored_once_on_every_route(self, monkeypatch):
        # both constructors compute the counts; a read does not recompute them
        built = [ModeShape((2, 3), (4, 5)), ModeShape._of((2, 3), (4, 5)), ModeShape((2, 3), (4, 5)).transposed]
        monkeypatch.setattr(core.math, "prod", lambda dims: pytest.fail("count recomputed"))
        assert [(s.row_count, s.col_count) for s in built] == [(6, 20), (6, 20), (20, 6)]

    def test_counts_stay_out_of_equality_hash_and_repr(self):
        s = ModeShape((2, 3), (4,))
        assert repr(s) == "ModeShape(row_dims=(2, 3), col_dims=(4,))"
        assert s == ModeShape._of((2, 3), (4,))
        assert hash(s) == hash(((2, 3), (4,)))
        assert ModeShape.__match_args__ == ("row_dims", "col_dims")
        with pytest.raises(AttributeError):
            s.row_count = 7

    def test_post_init_is_the_class_s_own(self):
        # the benchmark's tracer counts constructions by wrapping it in the class dict
        assert "__post_init__" in vars(ModeShape)


class TestNumericPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.eq_tol == 1e-10
        assert DEFAULT_POLICY.rank_tol == 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"eq_tol": 0.0},
        {"eq_tol": 1.0},
        {"eq_tol": -1e-3},
        {"rank_tol": 0.0},
        {"rank_tol": 2.0},
    ])
    def test_tolerances_must_sit_inside_unit_interval(self, kwargs):
        with pytest.raises(ValueError):
            NumericPolicy(**kwargs)


class TestDenseTensor:
    def test_entry_count_must_match_shape(self):
        with pytest.raises(ValueError, match="16"):
            DenseTensor(golden.SQ22, np.zeros(15))

    def test_non_finite_entry_is_rejected_with_flat_index(self):
        vals = np.zeros(16, dtype=np.complex128)
        vals[7] = np.nan
        with pytest.raises(ValueError, match="7"):
            DenseTensor(golden.SQ22, vals)
        vals[7] = 1j * np.inf
        with pytest.raises(ValueError, match="7"):
            DenseTensor(golden.SQ22, vals)

    def test_entries_are_copied_and_read_only(self):
        src = np.ones(4, dtype=np.complex128)
        t = DenseTensor(ModeShape((2,), (2,)), src)
        src[0] = 99.0
        assert t.entries[0] == 1.0
        with pytest.raises(ValueError):
            t.entries[0] = 5.0
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0

    def test_attributes_are_frozen(self):
        t = zeros((2,), (2,))
        with pytest.raises(AttributeError):
            t.shape = ModeShape((3,), (3,))

    def test_pickle_and_copies_keep_the_shape_and_the_bits(self, rng):
        signed_zeros = as_tensor([-0.0, complex(0.0, -0.0), 1e-310, -2.5j], (2,), (2,))
        for t in (identity((2,)), golden.random_tensor(rng, golden.SQ22), signed_zeros):
            for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
                assert type(twin) is DenseTensor and twin.shape == t.shape
                assert twin._mat.dtype == np.complex128 and twin._mat.tobytes() == t._mat.tobytes()
                assert not twin._mat.flags.writeable and twin._mat.flags.c_contiguous
                with pytest.raises(AttributeError):
                    twin.shape = ModeShape((3,), (3,))

    def test_as_tensor_checks_array_shape(self):
        with pytest.raises(ValueError, match="entry count"):
            as_tensor(np.zeros((2, 3)), (2,), (2,))

    def test_operator_sugar_matches_functions(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, golden.SQ22)
        assert_allclose((a @ b).array, einstein_product(a, b).array)
        assert_allclose((a + b).array, add_scale(1.0, a, 1.0, b).array)
        assert_allclose((a - b).array, add_scale(1.0, a, -1.0, b).array)
        assert_allclose((2.5 * a).array, add_scale(2.5, a, 0.0, a).array)
        assert_allclose((-a).array, -a.array)
        assert_allclose(a.H.array, conj_transpose(a).array)
        assert a.norm == frobenius_norm(a)


class TestConstructors:
    def test_identity_matches_kronecker_deltas(self):
        e = identity((2, 2))
        arr = e.array
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        want = 1.0 if (i, j) == (k, l) else 0.0
                        assert arr[i, j, k, l] == want

    def test_identity_is_neutral_for_the_product(self):
        a = golden.golden_a()
        e = identity((2, 2))
        assert_allclose((e @ a).array, a.array, atol=0)
        assert_allclose((a @ e).array, a.array, atol=0)

    def test_diagonal_from_places_values_on_matched_tuples(self):
        d = diagonal_from((3,), (3,), [3.0, 2.0, 1.0])
        assert_allclose(d.array, np.diag([3.0, 2.0, 1.0]))

    def test_diagonal_rectangular(self):
        d = diagonal_from((2, 2), (2,), [5.0, 7.0])
        m = d.array.reshape(4, 2)
        assert_allclose(m, np.array([[5.0, 0.0], [0.0, 7.0], [0, 0], [0, 0]]))

    def test_diagonal_requires_min_count_values(self):
        with pytest.raises(ValueError):
            diagonal_from((2,), (2,), [1.0])

    def test_zeros(self):
        z = zeros((2, 3), (2,))
        assert z.norm == 0.0
        assert z.shape.dims == (2, 3, 2)


class TestEinsteinProduct:
    def test_matrix_case_agrees_with_matmul(self):
        a = as_tensor(np.array([[1.0, 1.0], [1.0, 0.0]]), (2,), (2,))
        b = as_tensor(np.array([[0.0, 1.0], [1.0, -1.0]]), (2,), (2,))
        assert_allclose((a @ b).array, np.eye(2), atol=0)

    def test_contraction_runs_over_inner_modes(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3, 2)))
        b = golden.random_tensor(rng, ModeShape((3, 2), (4,)))
        c = a @ b
        assert c.shape == ModeShape((2,), (4,))
        # Entry (i, m) sums a[i, k, l] * b[k, l, m] over k, l.
        want = np.einsum("ikl,klm->im", a.array, b.array)
        assert_allclose(c.array, want, atol=0)

    def test_shape_mismatch_reports_both_shapes(self):
        a = zeros((2,), (3,))
        b = zeros((2,), (2,))
        with pytest.raises(ShapeMismatchError, match=r"2:3.*2:2"):
            einstein_product(a, b)

    def test_permutation_triple_first_order_vanishes(self):
        a, b, c = golden.trace_triple()
        prod = a @ b @ c
        assert prod.norm == pytest.approx(0.0, abs=1e-12)

    def test_permutation_triple_products_match_printed_slices(self):
        a, b, c = golden.trace_triple()
        cba = golden.tensor_from_slices(golden.TRACE_CBA_SLICES)
        bac = golden.tensor_from_slices(golden.TRACE_BAC_SLICES)
        assert_allclose((c @ b @ a).array, cba.array, atol=1e-12)
        assert_allclose((b @ a @ c).array, bac.array, atol=1e-12)

    def test_associative_to_roundoff(self, rng):
        for _ in range(20):
            a = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
            b = golden.random_tensor(rng, ModeShape((3,), (2, 2)))
            c = golden.random_tensor(rng, ModeShape((2, 2), (2,)))
            left = (a @ b) @ c
            right = a @ (b @ c)
            scale = a.norm * b.norm * c.norm
            assert rel_residual(left, right) <= 1e-12 * max(1.0, scale)

    def test_bilinear(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, golden.SQ22)
        c = golden.random_tensor(rng, golden.SQ22)
        lhs = a @ (2.0 * b + c)
        rhs = 2.0 * (a @ b) + a @ c
        assert rel_residual(lhs, rhs) <= 1e-12 * max(1.0, a.norm * (b.norm + c.norm))


class TestConjTranspose:
    def test_golden_adjoint_slices(self):
        assert_allclose(conj_transpose(golden.golden_a()).array,
                        golden.golden_adjoint().array, atol=0)

    def test_real_tensor_reduces_to_transpose(self, rng):
        a = as_tensor(rng.standard_normal((2, 3)), (2,), (3,))
        assert_allclose(conj_transpose(a).array, a.array.T, atol=0)

    def test_product_reversal(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        b = golden.random_tensor(rng, ModeShape((3,), (2, 2)))
        lhs = conj_transpose(a @ b)
        rhs = conj_transpose(b) @ conj_transpose(a)
        assert rel_residual(lhs, rhs) <= 1e-13 * max(1.0, a.norm * b.norm)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution_is_bit_exact(self, seed):
        r = np.random.default_rng(seed)
        a = golden.random_tensor(r, ModeShape((2, 3), (2,)))
        back = conj_transpose(conj_transpose(a))
        assert np.array_equal(back.array, a.array)
        assert back.shape == a.shape


class TestTrace:
    def test_identity_trace_counts_dimension(self):
        assert trace(identity((2, 2))) == pytest.approx(4.0)
        assert trace(identity((3,))) == pytest.approx(3.0)

    def test_zero_tensor(self):
        assert trace(zeros((2, 2), (2, 2))) == 0.0

    def test_requires_square_shape(self):
        with pytest.raises(ShapeMismatchError):
            trace(zeros((2, 2), (4,)))

    def test_permutation_triple_traces(self):
        a, b, c = golden.trace_triple()
        assert trace(a @ b @ c) == pytest.approx(0.0, abs=1e-12)
        assert trace(c @ b @ a) == pytest.approx(12.0, abs=1e-12)
        assert trace(b @ a @ c) == pytest.approx(12.0, abs=1e-12)

    def test_cyclic_shift_invariance(self, rng):
        for _ in range(10):
            a = golden.random_tensor(rng, ModeShape((2,), (3,)))
            b = golden.random_tensor(rng, ModeShape((3,), (2, 2)))
            c = golden.random_tensor(rng, ModeShape((2, 2), (2,)))
            t1 = trace(a @ b @ c)
            t2 = trace(b @ c @ a)
            t3 = trace(c @ a @ b)
            scale = max(1.0, abs(t1))
            assert abs(t1 - t2) <= 1e-12 * scale
            assert abs(t1 - t3) <= 1e-12 * scale

    def test_pair_swap_rectangular(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
        b = golden.random_tensor(rng, ModeShape((3,), (2, 2)))
        assert trace(a @ b) == pytest.approx(trace(b @ a), abs=1e-12 * max(1.0, a.norm * b.norm))

    def test_adjoint_conjugates_the_trace(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        assert trace(conj_transpose(a)) == pytest.approx(np.conj(trace(a)), abs=1e-13)

    def test_transpose_pair_identity_for_real_tensors(self, rng):
        # For real A, B: tr(A @ B) = tr(A^T @ B^T) alongside both cyclic forms.
        a = as_tensor(rng.standard_normal((2, 2, 2, 2)), (2, 2), (2, 2))
        b = as_tensor(rng.standard_normal((2, 2, 2, 2)), (2, 2), (2, 2))
        at, bt = conj_transpose(a), conj_transpose(b)
        vals = [trace(a @ b), trace(b @ a), trace(at @ bt), trace(bt @ at)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], abs=1e-12 * max(1.0, abs(vals[0])))

    def test_linear(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, golden.SQ22)
        lhs = trace(add_scale(2.0, a, -3.0, b))
        rhs = 2.0 * trace(a) - 3.0 * trace(b)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_matches_matricized_trace(self):
        a, b, c = golden.trace_triple()
        from tenrol import matricize
        t = c @ b @ a
        assert trace(t) == pytest.approx(np.trace(matricize(t)), abs=0)


class TestKronecker:
    def test_identity_factors(self):
        e2 = identity((2,))
        k = kronecker(e2, e2)
        assert k.shape == ModeShape((2, 2), (2, 2))
        assert_allclose(k.array, identity((2, 2)).array, atol=0)

    def test_scalar_factor_scales(self, rng):
        c = as_tensor(np.array([[2.0 - 1.0j]]), (1,), (1,))
        b = golden.random_tensor(rng, ModeShape((2,), (3,)))
        k = kronecker(c, b)
        assert k.shape == ModeShape((1, 2), (1, 3))
        assert_allclose(k.array.reshape(2, 3), (2.0 - 1.0j) * b.array, atol=0)

    def test_trace_multiplicative_small_case(self):
        a = diagonal_from((2,), (2,), [1.0, 1.0])
        b = diagonal_from((2,), (2,), [2.0, 1.0])
        k = kronecker(a, b)
        # Direct diagonal sum: entries (i,j),(i,j) are a_ii * b_jj.
        total = sum(a.array[i, i] * b.array[j, j] for i in range(2) for j in range(2))
        assert total == pytest.approx(6.0)
        assert trace(k) == pytest.approx(6.0, abs=1e-12)

    def test_trace_multiplicative_random(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, ModeShape((2,), (2,)))
        lhs = trace(kronecker(a, b))
        rhs = trace(a) * trace(b)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_entries_of_rectangular_multimode_factors(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 3), (2,)))
        b = golden.random_tensor(rng, ModeShape((2,), (3, 2)))
        k = kronecker(a, b)
        assert k.shape == ModeShape((2, 3, 2), (2, 3, 2))
        # c[(i, k), (j, l)] = a[i, j] * b[k, l] with i, k, j, l multi-indices.
        want = np.einsum("pqj,klm->pqkjlm", a.array, b.array)
        assert_allclose(k.array, want, atol=0)

    def test_mixed_product_rule(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (2,)))
        b = golden.random_tensor(rng, ModeShape((2,), (2,)))
        c = golden.random_tensor(rng, ModeShape((2,), (2,)))
        d = golden.random_tensor(rng, ModeShape((2,), (2,)))
        lhs = kronecker(a, b) @ kronecker(c, d)
        rhs = kronecker(a @ c, b @ d)
        assert rel_residual(lhs, rhs) <= 1e-12 * max(1.0, lhs.norm)


class TestNormsAndInner:
    def test_identity_norm(self):
        assert frobenius_norm(identity((2,))) == pytest.approx(np.sqrt(2.0))

    def test_norm_squared_is_gram_trace(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
        gram_trace = trace(conj_transpose(a) @ a)
        assert gram_trace.imag == pytest.approx(0.0, abs=1e-12)
        assert frobenius_norm(a) ** 2 == pytest.approx(gram_trace.real, rel=1e-12)

    def test_inner_product_matches_adjoint_trace(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, golden.SQ22)
        assert inner_product(a, b) == pytest.approx(trace(conj_transpose(a) @ b), abs=1e-12)

    def test_inner_product_conjugate_symmetry(self, rng):
        a = golden.random_tensor(rng, golden.SQ22)
        b = golden.random_tensor(rng, golden.SQ22)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            a = golden.random_tensor(rng, ModeShape((2,), (3,)))
            b = golden.random_tensor(rng, ModeShape((2,), (3,)))
            lhs = abs(inner_product(a, b)) ** 2
            rhs = (a.norm ** 2) * (b.norm ** 2)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    def test_zero_gram_forces_zero_tensor(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        gram = conj_transpose(a) @ a
        assert gram.norm > 0.0
        z = zeros((2,), (3,))
        assert (conj_transpose(z) @ z).norm == 0.0


class TestResiduals:
    def test_unit_floor_keeps_small_scales_absolute(self):
        a = as_tensor(np.array([[1e-12]]), (1,), (1,))
        b = as_tensor(np.array([[0.0]]), (1,), (1,))
        # Denominator floors at 1, so the residual equals the difference norm.
        assert rel_residual(a, b) == pytest.approx(1e-12)

    def test_large_scale_divides(self):
        a = as_tensor(np.array([[2e6]]), (1,), (1,))
        b = as_tensor(np.array([[1e6]]), (1,), (1,))
        assert rel_residual(a, b) == pytest.approx(0.5)

    def test_approx_equal_uses_policy_tolerance(self):
        a = identity((2,))
        bumped = add_scale(1.0, a, 1.0, diagonal_from((2,), (2,), [1e-12, 0.0]))
        assert approx_equal(a, bumped)
        assert not approx_equal(a, 2.0 * a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rel_residual(zeros((2,), (2,)), zeros((3,), (3,)))


class TestClassify:
    def test_identity_flags(self):
        f = classify(identity((2, 2)))
        assert f.hermitian and f.unitary and f.idempotent and f.diagonal and f.normal
        assert not f.skew_hermitian

    def test_golden_tensor_is_not_normal(self):
        f = classify(golden.golden_a())
        assert not f.normal
        assert not f.hermitian
        assert not f.unitary

    def test_skew_example(self):
        a = as_tensor(np.array([[0.0, 1.0], [-1.0, 0.0]]), (2,), (2,))
        f = classify(a)
        assert f.skew_hermitian and f.normal and not f.hermitian

    def test_diagonal_rectangular_sets_flag_only(self):
        d = diagonal_from((3,), (2,), [1.0, 2.0])
        f = classify(d)
        assert f.diagonal
        assert not f.hermitian and not f.unitary and not f.normal
        assert "square" in (f.note or "")

    def test_idempotent_projector(self):
        p = as_tensor(np.array([[1.0, 1.0], [0.0, 0.0]]), (2,), (2,))
        f = classify(p)
        assert f.idempotent and not f.hermitian


class TestZeroResidual:
    @pytest.mark.parametrize("scale", [0.0, 0.25, 1.0, 3.5, 1e200])
    def test_equals_rel_residual_against_zeros(self, rng, scale):
        values = rng.standard_normal(12) * 10.0 ** rng.integers(-150, 150, 12) + 1j * rng.standard_normal(12)
        values[:4] = [complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.5, -0.0), 0.0]
        cases = [
            as_tensor(values, (2, 3), (2,)),
            as_tensor(np.full(6, complex(-0.0, -0.0)), (2,), (3,)),
            zeros((2,), (2,)),
        ]
        for x in cases:
            # the shared rule with the caller's scale in place of the operand norms
            diff = x - zeros(x.shape.row_dims, x.shape.col_dims)
            reference = float(np.linalg.norm(diff.entries)) / max(1.0, scale)
            assert _zero_residual(x._mat, scale) == reference


class TestUnitaryResidual:
    def test_classify_agrees_with_the_helper(self, rng):
        tol = DEFAULT_POLICY.eq_tol
        cases = {
            "unitary": golden.random_unitary_tensor(rng, (2, 2)),
            "identity": identity((3,)),
            "non-unitary": golden.random_tensor(rng, ModeShape((2, 2), (2, 2))),
            "scaled unitary": 2.0 * golden.random_unitary_tensor(rng, (2,)),
            "non-square, equal flat counts": golden.random_tensor(rng, ModeShape((2, 2), (4,))),
            "non-square": golden.random_tensor(rng, ModeShape((2,), (3,))),
        }
        verdicts = {name: classify(t).unitary for name, t in cases.items()}
        assert verdicts == {name: _unitary_residual(t) <= tol for name, t in cases.items()}
        assert verdicts == {name: name in ("unitary", "identity") for name in cases}

    def test_non_square_is_infinitely_far(self, rng):
        assert _unitary_residual(golden.random_tensor(rng, ModeShape((2, 2), (4,)))) == float("inf")


class TestWorst:
    """``_worst`` is the one worst of several residuals, and a NaN among them wins."""

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0, 2.0], [1.0, 2.0, math.nan], [math.nan]],
                             ids=["first", "last", "alone"])
    def test_nan_anywhere_is_the_worst(self, residuals):
        assert math.isnan(_worst(residuals))
        assert math.isnan(_worst(iter(residuals)))

    def test_finite_and_infinite_residuals(self):
        assert _worst([1e-17, 3.0, 0.5]) == 3.0
        assert _worst((0.0, math.inf)) == math.inf
        assert _worst([np.float64(2.0), 1.0]) == 2.0


def overflowing_unitary() -> DenseTensor:
    """``1e120 * Q`` for a random complex 4x4 unitary Q: normal, but its Gram norms overflow."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return as_tensor(1e120 * q, (2, 2), (2, 2))


class TestNonFiniteClassify:
    def test_overflow_is_refused_not_read_as_not_normal(self):
        # the parent reported normal == False here, with a NaN normal residual
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            classify(overflowing_unitary())
        assert str(info.value) == "non-finite residual in unitary: an intermediate product overflowed"

    def test_non_square_diagonal_residual_is_checked(self):
        t = as_tensor(np.full((2, 3), 1e200), (2,), (3,))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="in diagonal:"):
            classify(t)

    def test_a_modest_scale_still_classifies(self):
        f = classify(overflowing_unitary() * 1e-110)
        assert f.normal and not f.unitary and not f.hermitian


NORM_CASES = {
    "zeros": np.zeros(6, complex),
    "negative zeros": np.full(6, complex(-0.0, -0.0)),
    "subnormal": np.array([5e-324, complex(0.0, 2.5e-320), complex(-1e-310, 1e-315)]),
    "huge": np.array([1e300, complex(-1e300, 1e-300), 3e153]),
    "tiny": np.array([1e-300, complex(0.0, -1e-300)]),
    "overflow to inf": np.array([1e300, complex(1e300, 1e300)]),
    "sum overflows": np.array([1.3e154, complex(0.0, 1.3e154)]),
    "nan": np.array([1.0, complex(np.nan, 0.0)]),
    "inf": np.array([complex(0.0, np.inf), 1.0]),
    "random": np.random.default_rng(0).standard_normal(24) + 1j * np.random.default_rng(1).standard_normal(24),
}


class TestNorm:
    @pytest.mark.parametrize("name", list(NORM_CASES))
    def test_equals_numpy_norm(self, name):
        x = NORM_CASES[name]
        with np.errstate(over="ignore", invalid="ignore"):
            for m in (x, x.reshape(1, -1), x.reshape(-1, 1).T, np.repeat(x, 2)[::2]):
                want = float(np.linalg.norm(m))
                got = _norm(m)
                assert type(got) is float
                assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)

    def test_non_contiguous_order_is_numpys(self, rng):
        m = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 7)) + 1j * rng.standard_normal((5, 7))
        for view in (m.T, np.asfortranarray(m), m[::2, 1::3], m[:, ::-1]):
            assert _norm(view) == float(np.linalg.norm(view))

    def test_tensor_norms_use_it(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 3), (2,)))
        b = golden.random_tensor(rng, ModeShape((2, 3), (2,)))
        assert frobenius_norm(a) == float(np.linalg.norm(a.array))
        assert rel_residual(a, b) == float(np.linalg.norm(a.array - b.array)) / max(
            1.0, float(np.linalg.norm(a.array)), float(np.linalg.norm(b.array))
        )


class TestOwnedArrays:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conj_transpose_is_the_copied_adjoint(self, seed):
        r = np.random.default_rng(seed)
        a = golden.random_tensor(r, ModeShape((2, 3), (2,)))
        m = a._mat
        got = conj_transpose(a)._mat
        want = m.conj().T.copy()
        assert got.flags.c_contiguous and got.dtype == np.complex128
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_conj_transpose_keeps_signed_zeros(self):
        a = as_tensor([complex(0.0, 0.0), complex(-0.0, -0.0), complex(1.0, -0.0)], (1,), (3,))
        assert conj_transpose(a)._mat.tobytes() == a._mat.conj().T.copy().tobytes()

    def producers(self, rng) -> dict:
        a = golden.random_tensor(rng, ModeShape((2, 3), (4,)))
        b = golden.random_tensor(rng, ModeShape((4,), (2,)))
        c = golden.random_tensor(rng, ModeShape((2, 3), (4,)))
        return {
            "zeros": lambda: zeros((2, 3), (4,)),
            "identity": lambda: identity((2, 3)),
            "diagonal_from": lambda: diagonal_from((2, 3), (4,), [1.0, 2j, 3.0, 0.0]),
            "einstein_product": lambda: einstein_product(a, b),
            "einstein_product of adjoints": lambda: einstein_product(b.H, a.H),
            "conj_transpose": lambda: conj_transpose(a),
            "add_scale": lambda: add_scale(2.0, a, -1j, c),
            "kronecker": lambda: kronecker(a, b),
            "kronecker of adjoints": lambda: kronecker(a.H, b.H),
            "__mul__": lambda: a * 2.5,
            "__rmul__": lambda: 1j * a,
            "__neg__": lambda: -a,
            "__add__": lambda: a + c,
            "__sub__": lambda: a - c,
            "_stack": lambda: _stack([a, c, a]),
            "_compare": lambda: self.compared(a, c),
        }

    @staticmethod
    def compared(a: DenseTensor, c: DenseTensor) -> DenseTensor:
        """The left operand that ``_compare`` hands to ``rel_residual`` for the pair (a, c)."""
        seen = []
        original = core.rel_residual
        core.rel_residual = lambda x, y: seen.append(x) or original(x, y)
        try:
            _compare(((a._mat, c._mat),))
        finally:
            core.rel_residual = original
        return seen[0]

    def test_every_producer_passes_a_c_contiguous_complex_matrix(self, rng):
        for name, make in self.producers(rng).items():
            mat = make()._mat
            assert mat.flags.c_contiguous, name
            assert mat.dtype == np.complex128, name
            assert not mat.flags.writeable, name

    def test_the_producer_list_is_complete(self, rng):
        # every function of core that calls _from_owned is listed above
        calling = set()
        for node in ast.walk(ast.parse(inspect.getsource(core))):
            if isinstance(node, ast.FunctionDef) and node.name != "_from_owned":
                if any(isinstance(n, ast.Attribute) and n.attr == "_from_owned" for n in ast.walk(node)):
                    calling.add(node.name)
        listed = {name.split(" ")[0] for name in self.producers(rng)}
        assert calling <= listed, calling - listed


STACK_SPLITS = {
    "2x2:2x2": (ModeShape((2, 2), (2, 2)), ModeShape((2, 2), (2, 2))),
    "2:3": (ModeShape((2,), (3,)), ModeShape((3,), (2,))),
    "4:2x2": (ModeShape((4,), (2, 2)), ModeShape((2, 2), (4,))),
    "2x3:1": (ModeShape((2, 3), ()), ModeShape((), (5,))),
}


class TestStack:
    """The core primitives on a private stack equal the per-item results bit for bit."""

    def items(self, seed: int, split: str, count: int) -> tuple[list, list]:
        r = np.random.default_rng(seed)
        sa, sb = STACK_SPLITS[split]
        # magnitudes spread over many decades, so the norms' unit floor binds on some items only
        scales = 10.0 ** r.integers(-6, 7, (2, count))
        return (
            [golden.random_tensor(r, sa) * x for x in scales[0]],
            [golden.random_tensor(r, sb) * x for x in scales[1]],
        )

    @pytest.mark.parametrize("split", list(STACK_SPLITS))
    @pytest.mark.parametrize("seed", range(4))
    def test_primitives_equal_per_item_results(self, split, seed):
        as_, bs = self.items(seed, split, 1 + 17 * seed)
        sa, sb = _stack(as_), _stack(bs)
        products = [einstein_product(a, b) for a, b in zip(as_, bs)]
        stacked = einstein_product(sa, sb)
        assert stacked.shape == products[0].shape
        assert stacked._mat.tobytes() == np.stack([p._mat for p in products]).tobytes()
        adjoint = conj_transpose(sa)
        assert adjoint.shape == as_[0].H.shape
        assert adjoint._mat.tobytes() == np.stack([a.H._mat for a in as_]).tobytes()
        chained = sa.H @ sa @ sb
        assert chained._mat.tobytes() == np.stack([(a.H @ a @ b)._mat for a, b in zip(as_, bs)]).tobytes()
        norms = frobenius_norm(sa)
        assert norms.dtype == np.float64 and norms.shape == (len(as_),)
        assert norms.tolist() == [frobenius_norm(a) for a in as_]
        others = [golden.random_tensor(np.random.default_rng(seed), a.shape) for a in as_]
        residuals = rel_residual(sa, _stack(others))
        assert residuals.dtype == np.float64 and residuals.shape == (len(as_),)
        assert residuals.tolist() == [rel_residual(a, o) for a, o in zip(as_, others)]

    def test_stack_shape_is_the_items_shape(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        s = _stack([a, 2 * a])
        assert s.shape == a.shape and s._mat.shape == (2, 2, 3)
        with pytest.raises(ShapeMismatchError):
            rel_residual(s, _stack([a.H, a.H]))

    def test_non_finite_items_stay_in_their_rows(self):
        a = as_tensor(np.full((2, 2), 1e200), (2,), (2,))
        b = as_tensor(np.eye(2), (2,), (2,))
        with np.errstate(over="ignore", invalid="ignore"):
            got = rel_residual(_stack([b, a @ a, b]), _stack([b, a, 2 * b]))
            want = [rel_residual(b, b), rel_residual(a @ a, a), rel_residual(b, 2 * b)]
        assert got[0] == want[0] and got[2] == want[2]
        assert math.isnan(got[1]) and math.isnan(want[1])


class TestSharedShapes:
    def test_products_and_adjoints_share_one_shape(self, rng):
        a = golden.random_tensor(rng, ModeShape((2, 3), (4,)))
        b = golden.random_tensor(rng, ModeShape((4,), (2,)))
        c = golden.random_tensor(rng, ModeShape((4,), (2,)))
        assert (a @ b).shape is (a @ c).shape
        assert a.H.H.shape is a.H.H.H.H.shape
        assert a.shape.transposed is a.H.shape

    def test_equal_but_distinct_shapes_still_compare(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (2,)))
        b = golden.random_tensor(rng, ModeShape((2,), (2,)))
        assert a.shape is not b.shape
        assert rel_residual(a, b) == rel_residual(b, a)
        with pytest.raises(ShapeMismatchError):
            rel_residual(a, golden.random_tensor(rng, ModeShape((4,), (1,))))


class TestInputChecks:
    def test_dense_tensor_needs_a_mode_shape(self):
        with pytest.raises(TypeError, match="shape must be a ModeShape, got tuple"):
            DenseTensor((2, 2), np.zeros(4))

    def test_combining_different_shapes(self):
        a, b = zeros((2,), (2,)), zeros((2,), (3,))
        with pytest.raises(ShapeMismatchError, match="cannot combine shapes"):
            add_scale(1.0, a, 2.0, b)
        with pytest.raises(ShapeMismatchError, match="cannot combine shapes"):
            a + b
        with pytest.raises(ShapeMismatchError, match="cannot combine shapes"):
            a - b

    def test_inner_product_of_different_shapes(self):
        with pytest.raises(ShapeMismatchError, match="inner product requires equal shapes"):
            inner_product(zeros((2,), (2,)), zeros((4,), (1,)))
