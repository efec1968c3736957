"""Reverse-order-law characterizations, shortcuts, and the fuzz harness."""

from __future__ import annotations

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden
from tenrol import (
    FUZZ_FAMILIES,
    FuzzSummary,
    IdentitySuiteReport,
    ModeShape,
    NumericPolicy,
    PenroseResiduals,
    ProjectorCommuteReport,
    RolReport,
    ShapeMismatchError,
    ZeroEquivalenceReport,
    add_scale,
    as_tensor,
    conj_transpose,
    diagonal_from,
    einstein_product,
    fuzz_search,
    identity,
    identity_suite,
    penrose_residuals,
    pinv,
    projector_commute_report,
    rel_residual,
    rol_report,
    sandwich_pinv,
    unitary_rol,
    zero_equivalence,
    zeros,
)
from tenrol import core, fuzz, mpinv, rol
from tenrol.core import _ResidualReport, _stack
from tenrol.fuzz import _FUZZ_BLOCK, _draw_block
from tenrol.unfold import dematricize
from test_core import STACK_SPLITS

SQ22 = golden.SQ22

# FuzzSummary of 200 trials, as the per-pair evaluation gave it before
# trials were evaluated in blocks: (direct_true, direct_false) by shape and seed.
FUZZ_BASELINE = {
    ("2x2:2x2", 0): (163, 37), ("2x2:2x2", 1): (162, 38), ("2x2:2x2", 7): (161, 39),
    ("2:3", 0): (100, 100), ("2:3", 1): (100, 100), ("2:3", 7): (100, 100),
    ("4:2x2", 0): (163, 37), ("4:2x2", 1): (162, 38), ("4:2x2", 7): (161, 39),
}
FUZZ_SHAPES = {
    "2x2:2x2": ModeShape((2, 2), (2, 2)),
    "2:3": ModeShape((2,), (3,)),
    "4:2x2": ModeShape((4,), (2, 2)),
}


class TestRolReport:
    def test_identity_left_factor_holds_everywhere(self, rng):
        b = golden.random_tensor(rng, SQ22)
        rep = rol_report(identity((2, 2)), b)
        assert rep.holds
        assert rep.consistent
        assert rep.implication_ok
        assert all(rep.groups.values())

    def test_invertible_pair_holds(self, rng):
        a = add_scale(1.0, identity((2, 2)), 0.1, golden.random_tensor(rng, SQ22))
        b = add_scale(1.0, identity((2, 2)), 0.1, golden.random_tensor(rng, SQ22))
        rep = rol_report(a, b)
        assert rep.holds and rep.consistent

    def test_counterexample_fails_with_commuting_projectors(self):
        a, b = golden.rol_counterexample()
        rep = rol_report(a, b)
        assert not rep.holds
        assert rep.direct >= 0.1
        assert rep.commute <= 1e-10
        assert rep.booleans["commute"]
        assert rep.consistent  # every group is False together
        assert rep.implication_ok  # one-way implication is not violated
        assert not any(rep.groups.values())

    def test_counterexample_direct_residual_against_reference(self):
        # Independent check of the two sides being compared.
        a, b = golden.rol_counterexample()
        abp = np.linalg.pinv(a.array @ b.array)
        bpap = np.linalg.pinv(b.array) @ np.linalg.pinv(a.array)
        assert_allclose(abp, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
        assert_allclose(bpap, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert np.linalg.norm(abp - bpap) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rectangular_chain(self, rng):
        a = golden.random_low_rank(rng, ModeShape((2,), (3,)))
        b = golden.random_low_rank(rng, ModeShape((3,), (2, 2)))
        rep = rol_report(a, b)
        assert rep.consistent and rep.implication_ok

    def test_gram_pair_always_holds(self, rng):
        # (A.H, A) satisfies the law for every A.
        a = golden.random_low_rank(rng, ModeShape((3,), (2,)))
        rep = rol_report(conj_transpose(a), a)
        assert rep.holds and rep.consistent

    def test_projected_right_factor_satisfies_commute_condition(self, rng):
        # B = pinv(A) @ A @ B0 forces the row projector of A to absorb B,
        # so the two projectors commute even if the full law fails.
        a = golden.random_low_rank(rng, SQ22)
        p = pinv(a) @ a
        b = p @ golden.random_tensor(rng, SQ22)
        bbh = b @ conj_transpose(b)
        lhs = p @ bbh
        rhs = bbh @ p
        assert rel_residual(lhs, rhs) <= 10 * 1e-10
        assert rol_report(a, b).commute <= 10 * 1e-10

    def test_shape_mismatch(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        b = golden.random_tensor(rng, ModeShape((2,), (2,)))
        with pytest.raises(ShapeMismatchError):
            rol_report(a, b)

    def test_group_logic_on_synthetic_reports(self):
        base = dict.fromkeys(
            ["direct", "absorb_left", "absorb_right", "herm_left", "herm_right",
             "paired_product", "factor_left", "factor_right", "commute"], 0.0)
        rep = RolReport(**base, tol=1e-10)
        assert rep.consistent and rep.holds and rep.implication_ok
        # One half of a paired condition failing breaks group agreement.
        rep = RolReport(**{**base, "absorb_right": 1.0}, tol=1e-10)
        assert not rep.consistent
        assert rep.groups["absorb"] is False and rep.groups["direct"] is True
        # Direct true with commute false violates the one-way implication.
        rep = RolReport(**{**base, "commute": 1.0}, tol=1e-10)
        assert not rep.implication_ok
        # Direct false with commute true is allowed (no converse).
        rep = RolReport(**{**base, "direct": 1.0, "absorb_left": 1.0,
                           "absorb_right": 1.0, "herm_left": 1.0, "herm_right": 1.0,
                           "paired_product": 1.0, "factor_left": 1.0,
                           "factor_right": 1.0}, tol=1e-10)
        assert rep.implication_ok and rep.consistent and not rep.holds

    @pytest.mark.parametrize("passing, failing", [
        (0.0, 1.0),
        (1e-10, np.nextafter(1e-10, 1.0)),  # both sides of the tolerance itself
        (0.0, float("nan")),
    ])
    def test_consistent_is_group_agreement_on_every_pattern(self, passing, failing):
        names = list(RolReport._fields)[:-1]
        assert len(names) == 9
        for pattern in range(2 ** len(names)):
            values = {name: failing if pattern >> i & 1 else passing for i, name in enumerate(names)}
            rep = RolReport(**values, tol=1e-10)
            assert rep.consistent is (len(set(rep.groups.values())) == 1), values


class TestUnitaryShortcuts:
    def test_identity_right_factor_gives_plain_pinv(self, rng):
        a = golden.random_low_rank(rng, SQ22)
        got = unitary_rol(a, identity((2, 2)))
        assert rel_residual(got, pinv(a)) <= 1e-12

    def test_unitary_right_factor(self, rng):
        for _ in range(5):
            a = golden.random_low_rank(rng, SQ22)
            b = golden.random_unitary_tensor(rng, (2, 2))
            got = unitary_rol(a, b)
            want = pinv(a @ b)
            assert rel_residual(got, want) <= 1e-10 * max(1.0, want.norm)

    def test_unitary_left_factor(self, rng):
        a = golden.random_unitary_tensor(rng, (2, 2))
        b = golden.random_low_rank(rng, SQ22)
        got = unitary_rol(a, b)
        want = pinv(a @ b)
        assert rel_residual(got, want) <= 1e-10 * max(1.0, want.norm)

    def test_permutation_tensor_counts_as_unitary(self):
        perm = np.zeros((4, 4))
        perm[[0, 1, 2, 3], [2, 0, 3, 1]] = 1.0
        b = as_tensor(perm.reshape(2, 2, 2, 2), (2, 2), (2, 2))
        a = golden.golden_a()
        got = unitary_rol(a, b)
        want = pinv(a @ b)
        assert rel_residual(got, want) <= 1e-10

    def test_rejects_pair_without_unitary_factor(self, rng):
        a = golden.random_tensor(rng, SQ22)
        b = 2.0 * identity((2, 2))
        with pytest.raises(ValueError, match="unitary"):
            unitary_rol(a, b)

    def test_sandwich(self, rng):
        for _ in range(5):
            b = golden.random_unitary_tensor(rng, (2, 2))
            a = golden.random_low_rank(rng, SQ22)
            c = golden.random_unitary_tensor(rng, (2, 2))
            got = sandwich_pinv(b, a, c)
            want = pinv(b @ a @ c)
            assert rel_residual(got, want) <= 1e-10 * max(1.0, want.norm)

    def test_sandwich_rejects_non_unitary_outer_factors(self, rng):
        a = golden.random_tensor(rng, SQ22)
        u = golden.random_unitary_tensor(rng, (2, 2))
        bad = diagonal_from((2, 2), (2, 2), [2.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="left"):
            sandwich_pinv(bad, a, u)
        with pytest.raises(ValueError, match="right"):
            sandwich_pinv(u, a, bad)


class TestZeroEquivalence:
    def test_zero_annihilator(self, rng):
        a = golden.random_tensor(rng, SQ22)
        rep = zero_equivalence(zeros((2, 2), (2, 2)), a)
        assert all(rep.booleans.values())
        assert rep.consistent

    def test_identity_does_not_annihilate(self):
        e = identity((2, 2))
        rep = zero_equivalence(e, e)
        assert not any(rep.booleans.values())
        assert rep.consistent

    def test_constructed_annihilator_passes_all_three(self, rng):
        for _ in range(5):
            a = golden.random_low_rank(rng, SQ22, rank=2)
            r = golden.random_tensor(rng, SQ22)
            complement = add_scale(1.0, identity((2, 2)), -1.0, pinv(a) @ a)
            b = r @ complement
            rep = zero_equivalence(b, a)
            assert all(rep.booleans.values()), rep.as_dict()
            assert rep.consistent

    def test_random_pair_is_consistent_and_nonzero(self, rng):
        a = golden.random_low_rank(rng, SQ22, rank=2)
        b = golden.random_tensor(rng, SQ22)
        rep = zero_equivalence(b, a)
        assert rep.consistent
        assert not any(rep.booleans.values())

    def test_rectangular_shapes(self, rng):
        a = golden.random_low_rank(rng, ModeShape((3,), (2, 2)))
        b = golden.random_tensor(rng, ModeShape((2,), (2, 2)))
        rep = zero_equivalence(b, a)
        assert rep.consistent

    def test_requires_matching_column_dims(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        b = golden.random_tensor(rng, ModeShape((2,), (2,)))
        with pytest.raises(ShapeMismatchError):
            zero_equivalence(b, a)

    def test_report_dict(self, rng):
        rep = zero_equivalence(zeros((2,), (3,)), golden.random_tensor(rng, ModeShape((2,), (3,))))
        d = rep.as_dict()
        assert set(d) == {"tol", "residuals", "booleans", "consistent"}
        assert set(d["residuals"]) == {"via_pinv", "via_star", "via_projector"}


class TestProjectorCommute:
    def test_diagonal_pair_commutes(self):
        a = diagonal_from((2, 2), (2, 2), [1.0, 2.0, 0.0, 3.0])
        b = diagonal_from((2, 2), (2, 2), [0.0, 1.0, 2.0, 0.0])
        rep = projector_commute_report(a, b)
        assert all(rep.booleans.values())
        assert rep.consistent

    def test_hermitian_tensor_against_itself(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = as_tensor((m + m.conj().T).reshape(2, 2, 2, 2), (2, 2), (2, 2))
        rep = projector_commute_report(a, a)
        assert all(rep.booleans.values())

    def test_random_pairs_are_internally_consistent(self, rng):
        for _ in range(10):
            a = golden.random_low_rank(rng, ModeShape((2,), (2, 2)))
            b = golden.random_low_rank(rng, ModeShape((2, 2), (2,)))
            rep = projector_commute_report(a, b)
            assert rep.commute_consistent, rep.as_dict()
            assert rep.pairs_consistent, rep.as_dict()

    def test_typical_random_pair_fails_commute(self, rng):
        a = golden.random_tensor(rng, SQ22)
        b = golden.random_low_rank(rng, SQ22, rank=2)
        rep = projector_commute_report(a, b)
        # A dense A has pinv(A) @ A = I, so the triple holds trivially;
        # force a rank drop on A to get a genuine failure.
        a2 = golden.random_low_rank(rng, SQ22, rank=2)
        rep2 = projector_commute_report(a2, b)
        assert rep.consistent and rep2.consistent
        assert not all(rep2.booleans.values())

    def test_one_sided_commutation(self):
        # pinv(B) @ B commutes with A @ pinv(A) here while pinv(A) @ A and
        # B @ pinv(B) do not, so the two absorption conditions really are
        # independent statements.
        a = as_tensor(np.array([[1.0, 1.0], [0.0, 0.0]]), (2,), (2,))
        b = as_tensor(np.array([[1.0, 0.0], [0.0, 0.0]]), (2,), (2,))
        rep = projector_commute_report(a, b)
        ok = rep.booleans
        assert ok["absorb_proj_right"] and ok["commute_mirror"]
        assert not ok["absorb_proj_left"] and not ok["commute"]
        assert rep.commute_consistent and rep.pairs_consistent

    def test_requires_transposed_split(self, rng):
        a = golden.random_tensor(rng, ModeShape((2,), (3,)))
        b = golden.random_tensor(rng, ModeShape((3,), (3,)))
        with pytest.raises(ShapeMismatchError):
            projector_commute_report(a, b)


class TestFuzzSearch:
    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            fuzz_search(SQ22, 0, 42)

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError), ([1, 2], TypeError)]
    )
    def test_refuses_a_seed_that_is_not_a_nonnegative_integer(self, seed, error, monkeypatch):
        monkeypatch.setattr(fuzz, "_draw_block", lambda *args: pytest.fail("drew before checking the seed"))
        with pytest.raises(error, match="seed"):
            fuzz_search(SQ22, 5, seed)

    @pytest.mark.parametrize("trials", [2.5, 2.0, "3", None])
    def test_refuses_trials_that_are_not_integers(self, trials, monkeypatch):
        # refused before any draw, by a message that names the argument
        monkeypatch.setattr(fuzz, "_draw_block", lambda *args: pytest.fail("drew before checking trials"))
        with pytest.raises(TypeError, match=f"^trials must be an integer, got {type(trials).__name__}$"):
            fuzz_search(SQ22, trials, 1)

    def test_trials_are_stored_as_an_int(self):
        # operator.index takes True as 1, and the summary holds that int
        summary = fuzz_search(ModeShape((2,), (2,)), True, 1)
        assert type(summary.trials) is int and summary.trials == 1
        assert summary.direct_true + summary.direct_false == 1

    @pytest.mark.parametrize("seed", [0, 2**200])
    def test_zero_and_huge_seeds_draw_from_their_spawned_children(self, seed, monkeypatch):
        # two blocks, so the second block's streams start at child _FUZZ_BLOCK
        trials, seen, report = _FUZZ_BLOCK + 6, [], rol.rol_report

        def capture(a, b, policy=None):
            reports = report(a, b, policy)
            seen.extend(reports)
            return reports

        monkeypatch.setattr(fuzz, "rol_report", capture)
        fuzz_search(SQ22, trials, seed)
        want = golden.fuzz_trial_reports(SQ22, trials, seed)
        assert [r.as_dict() for r in seen] == [r.as_dict() for _, r in want]

    def test_deterministic_for_a_seed(self):
        s1 = fuzz_search(SQ22, 20, 123)
        s2 = fuzz_search(SQ22, 20, 123)
        assert s1 == s2

    def test_families_rotate_evenly(self):
        s = fuzz_search(SQ22, 25, 42)
        assert set(s.family_counts) == set(FUZZ_FAMILIES)
        assert all(v == 5 for v in s.family_counts.values())
        assert s.direct_true + s.direct_false == 25

    def test_rectangular_shape_skips_unitary_family(self):
        s = fuzz_search(ModeShape((2,), (3,)), 16, 42)
        assert "unitary_factor" not in s.family_counts
        assert sum(s.family_counts.values()) == 16
        assert s.violations == 0

    def test_reference_run_is_clean(self):
        s = fuzz_search(SQ22, 500, 42)
        assert s.violations == 0
        assert s.first_violation is None
        assert s.direct_true > 0
        assert s.direct_false > 0

    def test_unitary_factor_pairs_always_satisfy_the_law(self, rng):
        for _ in range(10):
            a = golden.random_low_rank(rng, SQ22)
            b = golden.random_unitary_tensor(rng, (2, 2))
            assert rol_report(a, b).holds

    def test_diagonal_pairs_always_satisfy_the_law(self, rng):
        for _ in range(10):
            vals_a = np.where(rng.random(4) < 0.25, 0.0, rng.uniform(0.3, 3.0, 4))
            vals_b = np.where(rng.random(4) < 0.25, 0.0, rng.uniform(0.3, 3.0, 4))
            a = diagonal_from((2, 2), (2, 2), vals_a)
            b = diagonal_from((2, 2), (2, 2), vals_b)
            assert rol_report(a, b).holds

    def test_rank_deficient_family_finds_failures(self):
        # The law should fail somewhere once ranks drop.
        s = fuzz_search(SQ22, 50, 42)
        assert s.direct_false >= 5


# SHA-256 of the float64 bytes of every factor ``_draw_block`` returns for a
# block of two trials per family, each trial on its own child of the seed,
# as the draws gave them before the block combined its Gaussian parts.
DRAW_DIGESTS = {
    ("2x2:2x2", 0): "170b0e542409b96193d2d06cbcc924749ef2c2d7e911f812e17bd95b2f82a72e",
    ("2x2:2x2", 1): "a5f2b622047027e856e3facab209f7212779123428b314b94e940598dd6a1715",
    ("2x2:2x2", 2): "569e501fef854a84c7defb19d15955c15a7ffb95696d53c1f106b1a55974dd63",
    ("2x2:2x2", 3): "ca4b502098cfb00c91def29c8ae09b6a064df91b2b2ff68b5d7fac3c1cb04658",
    ("2:3", 0): "3d02b488bf773530e3bacbce5902852f1aea885ac2e1215972417219e7efe9a6",
    ("2:3", 1): "06af428f42e867967db73cb67a263c91b933f4adc4248f98f4b75760e6137547",
    ("2:3", 2): "62860bb6e5f6e3b4b6cac508ed2393a7fac7f13b7b243345eda07ef43d0bba81",
    ("2:3", 3): "736cfdb10c163236aa49269792fd62c563c04ebff05c1b7119b62cca7447652d",
}

# The same for the shapes whose unitaries come in two orders, or whose
# factors have a one-mode and a two-mode side.
LOCKSTEP_DRAW_DIGESTS = {
    ("3:2x2", 0): "f37bbf33088ad49f74cce46ea95aafeb942a12b7ff6e70bdcf42122ca24eba0f",
    ("3:2x2", 1): "0e3fbb775b4ddd9da3003cd32f6188838ab7db9c890596f90caeb863f239cd7a",
    ("3:2x2", 2): "10481083bac05ce9057b831bf42ce5453114b883265dacfcfa0bdb1b3978bf53",
    ("3:2x2", 3): "bff846167be87d01a74211918d345308ac6e1fe837e9c4b43118a0c33eada6ac",
    ("4:2", 0): "54a25d0baaa4b4b93ba5943c3ad5796d5bf09a98d6b5aa7ae0ad10f4ac122ef0",
    ("4:2", 1): "1f254b9e9d0d9bcc12bea88afc5216e71f4c799924ff0594a4ffbcc01bf48e47",
    ("4:2", 2): "edb0edd90ac49f392fdaba1aa0f8b911b5d04a20c2504e92e1d390df4d9f87b7",
    ("4:2", 3): "8074a154294d2a8dd76be323f403f0fa0e55da1ee319ceb198f764a30cef7d94",
    ("5:3", 0): "e6b26462b6e1d14d595893532ae93cf60616fc4a06fb5f8326d5af586b191dd6",
    ("5:3", 1): "ebfed6fb08e713e416d4018ad15ba7bde5b8450a49e9b057d6c0c4baba56bc20",
    ("5:3", 2): "fd802366d379080822abb6ba0243fc9a14a70b940bac5ef0fef16cd4bbaa2b03",
    ("5:3", 3): "e0a41a5a796bc2f11311fd36fd26c7999ba50f0fad7cebcf58a136d825307e84",
}


class TestDrawBlock:
    @pytest.mark.parametrize("name, seed", list(DRAW_DIGESTS), ids=[f"{n}-{s}" for n, s in DRAW_DIGESTS])
    def test_draws_are_pinned_bit_for_bit(self, name, seed):
        shape = FUZZ_SHAPES[name]
        families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
        trials = 2 * len(families)
        rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(trials)]
        sa, sb = _draw_block(rngs, shape, [families[t % len(families)] for t in range(trials)])
        assert sa.shape == shape and sb.shape == shape.transposed
        assert len(sa._mat) == len(sb._mat) == trials
        for x in (sa, sb):
            assert x._mat.dtype == np.complex128 and x._mat.flags.c_contiguous
        digest = hashlib.sha256()
        for a, b in zip(sa._mat, sb._mat):
            digest.update(a.view(np.float64).tobytes())
            digest.update(b.view(np.float64).tobytes())
        assert digest.hexdigest() == DRAW_DIGESTS[name, seed]

    @pytest.mark.parametrize(
        "name, seed", list(LOCKSTEP_DRAW_DIGESTS), ids=[f"{n}-{s}" for n, s in LOCKSTEP_DRAW_DIGESTS]
    )
    def test_draws_with_unitaries_of_other_orders_are_pinned_bit_for_bit(self, name, seed):
        shape = DRAW_SHAPES[name]
        families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
        trials = 2 * len(families)
        rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(trials)]
        sa, sb = _draw_block(rngs, shape, [families[t % len(families)] for t in range(trials)])
        assert sa.shape == shape and sb.shape == shape.transposed
        assert len(sa._mat) == len(sb._mat) == trials
        for x in (sa, sb):
            assert x._mat.dtype == np.complex128 and x._mat.flags.c_contiguous
        digest = hashlib.sha256()
        for a, b in zip(sa._mat, sb._mat):
            digest.update(a.view(np.float64).tobytes())
            digest.update(b.view(np.float64).tobytes())
        assert digest.hexdigest() == LOCKSTEP_DRAW_DIGESTS[name, seed]


class TestBlockSeeding:
    """``fuzz_search``'s streams are those of ``np.random.default_rng`` on ``SeedSequence(seed).spawn`` children."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**200])
    def test_streams_equal_the_spawned_children_bit_for_bit(self, seed):
        root = np.random.SeedSequence(seed)
        gen = np.random.default_rng(99)
        first = 0
        for n in (_FUZZ_BLOCK, _FUZZ_BLOCK, 7):  # three blocks: successive spawns continue one child sequence
            for child, rng in zip(root.spawn(n), fuzz._streams(gen, root, first, n), strict=True):
                assert rng is gen
                ref = np.random.PCG64(child)
                assert rng.bit_generator.state == ref.state
                assert rng.standard_normal(5).tobytes() == np.random.Generator(ref).standard_normal(5).tobytes()
            first += n

    def test_a_stream_starts_afresh_after_a_half_used_word(self):
        # integers() on a small range draws 32 bits and buffers the other half
        gen = np.random.default_rng(0)
        for child, rng in zip(np.random.SeedSequence(4).spawn(3), fuzz._streams(gen, np.random.SeedSequence(4), 0, 3)):
            ref = np.random.default_rng(child)
            assert rng.integers(1, 5) == ref.integers(1, 5)
            assert rng.bit_generator.state == ref.bit_generator.state


class TestRolReportBatch:
    def pool(self, shape: ModeShape, count: int) -> tuple[list, list]:
        families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
        rng = np.random.default_rng(31)
        pairs = [golden.fuzz_pair(rng, shape, families[k % len(families)]) for k in range(count)]
        return [a for a, _ in pairs], [b for _, b in pairs]

    @pytest.mark.parametrize("shape", list(FUZZ_SHAPES.values()), ids=list(FUZZ_SHAPES))
    def test_batch_equals_per_pair_reports(self, shape):
        as_, bs = self.pool(shape, 25)
        reports = rol_report(as_, bs)
        assert isinstance(reports, tuple) and len(reports) == 25
        assert reports == tuple(rol_report(a, b) for a, b in zip(as_, bs))

    def test_empty_batch(self):
        assert rol_report([], []) == ()

    def test_length_mismatch_is_a_value_error(self, rng):
        as_, bs = self.pool(SQ22, 3)
        with pytest.raises(ValueError, match="3 left factors and 2 right factors"):
            rol_report(as_, bs[:2])

    def test_tensor_and_sequence_do_not_mix(self, rng):
        as_, bs = self.pool(SQ22, 2)
        with pytest.raises(TypeError):
            rol_report(as_[0], bs)
        with pytest.raises(TypeError):
            rol_report(as_, bs[0])

    def test_overflowing_product_is_named(self, rng):
        big = as_tensor(1e200 * rng.standard_normal((2, 2, 2, 2)), (2, 2), (2, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as single:
            rol_report(big, big)
        assert "non-finite entry" in str(single.value) and "a @ b" in str(single.value)
        as_, bs = self.pool(SQ22, 3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as batch:
            rol_report([as_[0], big, as_[2]], [bs[0], big, bs[2]])
        assert "non-finite entry" in str(batch.value) and "a @ b of pair 1" in str(batch.value)

    def test_overflowing_residual_is_named(self):
        # a @ b is finite, but Gram products near 1e480 overflow to inf, and
        # inf - inf once made six residuals NaN, each read as a failed check
        rng = np.random.default_rng(3)
        big_a, big_b = (
            as_tensor(1e120 * (rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))),
                      (2, 2), (2, 2))
            for _ in range(2)
        )
        assert np.isfinite((big_a @ big_b).entries).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as single:
            rol_report(big_a, big_b)
        assert str(single.value) == "non-finite residual in absorb_left: an intermediate product overflowed"
        as_, bs = self.pool(SQ22, 3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as batch:
            rol_report([as_[0], as_[1], big_a], [bs[0], bs[1], big_b])
        assert "non-finite residual in absorb_left of pair 2" in str(batch.value)

    @pytest.mark.parametrize(
        "operand, scale_a, scale_b",
        [("pinv(a)", 1e-310, 1.0), ("pinv(b)", 1.0, 1e-310), ("pinv(a @ b)", 1e-160, 1e-160)],
        ids=["a", "b", "ab"],
    )
    def test_overflowing_pinv_names_its_operand(self, operand, scale_a, scale_b):
        # the singular values of 1e-310 * M, and of 1e-160 * M times 1e-160 * M,
        # are subnormal, so their reciprocals overflow; the message once named
        # the operand's index in pinv's internal tuple ("in tensor 5")
        a, b = scaled_pair(1.0)
        x, y = scale_a * a, scale_b * b
        with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value") as single:
            rol_report(x, y)
        assert str(single.value).endswith(f"has no finite reciprocal in {operand}")
        as_, bs = self.pool(SQ22, 3)
        with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value") as batch:
            rol_report([as_[0], as_[1], x], [bs[0], bs[1], y])
        assert str(batch.value).endswith(f"has no finite reciprocal in {operand} of pair 2")
        with pytest.raises(ValueError, match=f"in {re.escape(operand)} of pair 0$"):
            rol_report([x], [y])

    def test_the_lowest_overflowing_pinv_is_named_whatever_its_group(self):
        # pinv groups the 4x4 matricizations (pairs 0 and 2) before the 2x3 one (pair 1)
        rng = np.random.default_rng(0)
        m = as_tensor(rng.standard_normal(16), (2, 2), (2, 2))
        r, r2 = as_tensor(rng.standard_normal(6), (2,), (3,)), as_tensor(rng.standard_normal(6), (3,), (2,))
        with pytest.raises(ValueError, match=r"has no finite reciprocal in pinv\(a\) of pair 1$"):
            rol_report([m, 1e-310 * r, 1e-310 * m], [m, r2, m])
        # every pinv(a) comes before every pinv(b)
        with pytest.raises(ValueError, match=r"has no finite reciprocal in pinv\(a\) of pair 2$"):
            rol_report([m, r, 1e-310 * m], [m, 1e-310 * r2, m])

    def test_interleaved_shapes_equal_per_pair_reports(self):
        # 2x2:2x2 and 4:2x2 factors share their 4x4 matricizations, so pinv
        # stacks them together, while the reports group them apart
        pools = [self.pool(FUZZ_SHAPES[name], 9) for name in ("2x2:2x2", "4:2x2", "2:3")]
        as_ = [pool[0][k] for k in range(9) for pool in pools]
        bs = [pool[1][k] for k in range(9) for pool in pools]
        reports = rol_report(as_, bs)
        assert reports == tuple(rol_report(a, b) for a, b in zip(as_, bs))

    def test_overflow_in_a_stacked_group_names_its_pair(self):
        big_a, big_b = scaled_pair(1e120)
        big_2x3 = as_tensor(1e120 * np.arange(1.0, 7.0).reshape(2, 3), (2,), (3,))
        sq, rect = self.pool(SQ22, 3), self.pool(FUZZ_SHAPES["2:3"], 2)
        # groups in order of first appearance: 2:3 (pairs 0, 3), 2x2:2x2 (pairs 1, 2, 4)
        as_ = [rect[0][0], sq[0][0], big_a, big_2x3, sq[0][2]]
        bs = [rect[1][0], sq[1][0], big_b, big_2x3.H, sq[1][2]]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            rol_report(as_, bs)
        assert str(info.value) == "non-finite residual in absorb_left of pair 2: an intermediate product overflowed"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            rol_report(as_[3:], bs[3:])
        assert "non-finite residual in" in str(info.value) and "of pair 0:" in str(info.value)
        huge = as_tensor(1e200 * np.ones((2, 2, 2, 2)), (2, 2), (2, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            rol_report(as_[:3] + [huge], bs[:3] + [huge])
        assert str(info.value) == "non-finite entry in a @ b of pair 3: the product overflowed"

    def test_two_interleaved_groups_equal_single_pair_reports_bit_for_bit(self):
        # each group hands its stacks of a, b and a @ b to one pinv call
        sq, rect = self.pool(SQ22, 7), self.pool(FUZZ_SHAPES["2:3"], 7)
        as_ = [x for k in range(7) for x in (sq[0][k], rect[0][k])]
        bs = [x for k in range(7) for x in (sq[1][k], rect[1][k])]
        batch = np.array([r._values for r in rol_report(as_, bs)])
        alone = np.array([rol_report(a, b)._values for a, b in zip(as_, bs)])
        assert batch.tobytes() == alone.tobytes()

    def test_overflow_in_the_second_group_names_its_pair(self):
        # groups in order of first appearance: 2x2:2x2 (even pairs), 2:3 (odd pairs)
        sq, rect = self.pool(SQ22, 3), self.pool(FUZZ_SHAPES["2:3"], 3)

        def pairs(planted: dict) -> tuple[list, list]:
            as_ = [x for k in range(3) for x in (sq[0][k], rect[0][k])]
            bs = [x for k in range(3) for x in (sq[1][k], rect[1][k])]
            for i, (scale_a, scale_b) in planted.items():
                as_[i], bs[i] = scale_a * as_[i], scale_b * bs[i]
            return as_, bs

        cases = [
            ({3: (1.0, 1e-310)}, "pinv(b) of pair 3"),
            ({5: (1.0, 1e-310), 3: (1.0, 1e-310)}, "pinv(b) of pair 3"),
            ({4: (1.0, 1e-310), 1: (1.0, 1e-310)}, "pinv(b) of pair 1"),
            ({2: (1.0, 1e-310), 5: (1.0, 1e-310)}, "pinv(b) of pair 2"),
            ({2: (1.0, 1e-310), 5: (1e-310, 1.0)}, "pinv(a) of pair 5"),
            ({0: (1e-160, 1e-160), 3: (1.0, 1e-310)}, "pinv(b) of pair 3"),
            ({1: (1e-160, 1e-160)}, "pinv(a @ b) of pair 1"),
        ]
        for planted, named in cases:
            with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value") as info:
                rol_report(*pairs(planted))
            assert str(info.value).endswith(f"has no finite reciprocal in {named}"), planted

    def test_an_overflowing_pinv_entry_names_its_operand_and_pair(self, monkeypatch):
        # stand in for finite reciprocals whose products overflow: entry 1 of
        # row 1 of the 2:3 group's stack of its three 3x2 factors b, pair 3
        real = mpinv._pinv_matrix

        def overflowing(mat, rank_tol):
            x = real(mat, rank_tol)
            if mat.shape == (3, 3, 2):
                x[1, 0, 1] = np.inf
            return x

        monkeypatch.setattr(mpinv, "_pinv_matrix", overflowing)
        sq, rect = self.pool(SQ22, 3), self.pool(FUZZ_SHAPES["2:3"], 3)
        as_ = [x for k in range(3) for x in (sq[0][k], rect[0][k])]
        bs = [x for k in range(3) for x in (sq[1][k], rect[1][k])]
        with pytest.raises(ValueError, match=r"^non-finite entry at flat index 1 in pinv\(b\) of pair 3$"):
            rol_report(as_, bs)

    def test_a_block_costs_one_evaluation_per_shape_group(self, monkeypatch):
        # the per-pair report made 24 products per pair; the stacked one makes
        # one a @ b and the 23 products of one evaluation per shape group
        count = [0]
        original = rol.einstein_product

        def counted(x, y):
            count[0] += 1
            return original(x, y)

        monkeypatch.setattr(rol, "einstein_product", counted)
        monkeypatch.setattr(core, "einstein_product", counted)  # the products of _chain
        as_, bs = self.pool(SQ22, 64)
        reports = rol_report(as_, bs)
        assert len(reports) == 64
        assert count[0] <= 1 + 23, count[0]

    def test_overflowing_products_in_two_groups_name_the_lower_pair(self):
        big_sq = as_tensor(1e200 * np.ones((2, 2, 2, 2)), (2, 2), (2, 2))
        big_2x3 = as_tensor(1e200 * np.arange(1.0, 7.0).reshape(2, 3), (2,), (3,))
        sq, rect = self.pool(SQ22, 3), self.pool(FUZZ_SHAPES["2:3"], 3)
        # groups in order of first appearance: 2:3 (pairs 0, 2, 4), 2x2:2x2 (pairs 1, 3, 5)
        for bad_rect, bad_sq in ((4, 1), (2, 5)):
            as_ = [x for k in range(3) for x in (rect[0][k], sq[0][k])]
            bs = [x for k in range(3) for x in (rect[1][k], sq[1][k])]
            as_[bad_rect], bs[bad_rect] = big_2x3, big_2x3.H
            as_[bad_sq], bs[bad_sq] = big_sq, big_sq
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
                rol_report(as_, bs)
            low = min(bad_rect, bad_sq)
            assert str(info.value) == f"non-finite entry in a @ b of pair {low}: the product overflowed"

    def test_a_residual_failure_yields_to_a_later_pair_failing_earlier(self):
        # pair 0's group reaches its residuals, which overflow; pair 1's group
        # fails at a @ b or at a pseudoinverse, and that earlier stage is named
        big_a, big_b = scaled_pair(1e120)
        rect = self.pool(FUZZ_SHAPES["2:3"], 1)
        big_2x3 = as_tensor(1e200 * np.arange(1.0, 7.0).reshape(2, 3), (2,), (3,))
        cases = [
            ((big_2x3, big_2x3.H), "non-finite entry in a @ b of pair 1: the product overflowed"),
            ((rect[0][0], 1e-310 * rect[1][0]), "in pinv(b) of pair 1"),
        ]
        for (x, y), named in cases:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
                rol_report([big_a, x], [big_b, y])
            assert str(info.value).endswith(named)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="absorb_left of pair 0"):
            rol_report([big_a, rect[0][0]], [big_b, rect[1][0]])

    def test_shape_mismatch_names_its_pair(self):
        (a0, a1), (b0, b1) = self.pool(SQ22, 2)
        rect_a, rect_b = self.pool(FUZZ_SHAPES["2:3"], 1)
        with pytest.raises(ShapeMismatchError, match="of pair 2$"):
            rol_report([a0, rect_a[0], a1], [b0, rect_b[0], rect_b[0]])
        with pytest.raises(ShapeMismatchError, match="^cannot contract 2:3 with 2:3: .* of pair 0$"):
            rol_report([rect_a[0], a0], [rect_a[0], b1])


# stage -> (scale of a, scale of b, the operand or residual its failure names);
# see TestRolReportBatch for why each scale fails at its stage
PLANTED = {
    "a @ b": (1e200, 1e200, "a @ b"),
    "pinv(a)": (1e-310, 1.0, "pinv(a)"),
    "pinv(b)": (1.0, 1e-310, "pinv(b)"),
    "pinv(a @ b)": (1e-160, 1e-160, "pinv(a @ b)"),
    "residual": (1e120, 1e120, None),
}


class TestStackedPair:
    """``rol_report`` on two stacks of T pairs gives the T reports of those pairs."""

    def pairs(self, split: str, count: int) -> tuple[list, list]:
        rng = np.random.default_rng(17)
        sa, sb = STACK_SPLITS[split]
        return [golden.random_tensor(rng, sa) for _ in range(count)], [golden.random_tensor(rng, sb) for _ in range(count)]

    @pytest.mark.parametrize("split", list(STACK_SPLITS))
    def test_stacked_pair_equals_per_pair_reports_bit_for_bit(self, split):
        as_, bs = self.pairs(split, 6)
        reports = rol_report(_stack(as_), _stack(bs))
        assert isinstance(reports, tuple) and len(reports) == 6
        stacked = np.array([r._values for r in reports])
        alone = np.array([rol_report(a, b)._values for a, b in zip(as_, bs)])
        assert stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("stage", list(PLANTED))
    @pytest.mark.parametrize("split", list(STACK_SPLITS))
    def test_a_failure_in_row_j_names_pair_j(self, split, stage):
        j, (scale_a, scale_b, name) = 2, PLANTED[stage]
        as_, bs = self.pairs(split, 4)
        as_[j], bs[j] = scale_a * as_[j], scale_b * bs[j]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as single:
                rol_report(as_[j], bs[j])
            with pytest.raises(ValueError) as stacked:
                rol_report(_stack(as_), _stack(bs))
        message = str(single.value)
        if name is None:  # the residual that overflowed first
            name = re.fullmatch(r"non-finite residual in (\w+): an intermediate product overflowed", message)[1]
        assert f"in {name}" in message and " of pair" not in message
        assert str(stacked.value) == message.replace(f"in {name}", f"in {name} of pair {j}", 1)


class TestGroupedResiduals:
    """The nine residuals, stacked by matrix shape, equal ``rel_residual`` of the tensor chains bit for bit."""

    @staticmethod
    def chain_residuals(a, b) -> np.ndarray:
        """The residuals of the characterization list, one ``rel_residual`` of two tensor chains each."""
        ap, bp, abp = pinv((a, b, a @ b))
        ah, bh = conj_transpose(a), conj_transpose(b)
        p, q = ap @ a, b @ bp
        bbh, aha = b @ bh, ah @ a
        t_left, t_right = p @ bbh, aha @ q
        return np.array([
            rel_residual(abp, bp @ ap),
            rel_residual(t_left @ ah, bbh @ ah),
            rel_residual(q @ aha @ b, aha @ b),
            rel_residual(t_left, conj_transpose(t_left)),
            rel_residual(t_right, conj_transpose(t_right)),
            rel_residual(t_left @ t_right, bbh @ aha),
            rel_residual(p @ b, b @ abp @ a @ b),
            rel_residual(q @ ah, aha @ b @ abp),
            rel_residual(p @ q, q @ p),
        ])

    @staticmethod
    def pairs(shape: ModeShape, count: int) -> tuple[list, list]:
        families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
        rng = np.random.default_rng(23)
        pairs = [golden.fuzz_pair(rng, shape, families[k % len(families)]) for k in range(count)]
        return [a for a, _ in pairs], [b for _, b in pairs]

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        monkeypatch.setattr(rol, "rel_residual", lambda x, y: calls.append(x._mat.shape) or rel_residual(x, y))
        return calls

    @pytest.mark.parametrize("name, groups", [("2:3", 3), ("4:2x2", 1), ("2x2:2x2", 1)])
    def test_lone_pairs(self, monkeypatch, name, groups):
        # at 2:3 the residuals are 2x2 (direct), 3x2 (four of them) and 3x3 (four)
        as_, bs = self.pairs(FUZZ_SHAPES[name], 8)
        calls = self.counted(monkeypatch)
        for a, b in zip(as_, bs):
            calls.clear()
            got = np.array(list(rol_report(a, b).residuals.values()))
            assert len(calls) == groups
            assert got.tobytes() == self.chain_residuals(a, b).tobytes()

    @pytest.mark.parametrize("name, groups", [("2:3", 3), ("4:2x2", 1), ("2x2:2x2", 1)])
    def test_a_stack_of_five(self, monkeypatch, name, groups):
        as_, bs = self.pairs(FUZZ_SHAPES[name], 5)
        sa, sb = _stack(as_), _stack(bs)
        calls = self.counted(monkeypatch)
        got = np.array([list(r.residuals.values()) for r in rol_report(sa, sb)])
        assert len(calls) == groups and all(len(shape) == 3 for shape in calls)
        want = self.chain_residuals(sa, sb).T
        assert got.tobytes() == want.tobytes()
        alone = np.array([self.chain_residuals(a, b) for a, b in zip(as_, bs)])
        assert got.tobytes() == alone.tobytes()


def scaled_pair(scale: float) -> tuple:
    """Two random complex 2x2:2x2 factors of magnitude about ``scale``."""
    rng = np.random.default_rng(3)
    return tuple(
        as_tensor(scale * (rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))),
                  (2, 2), (2, 2))
        for _ in range(2)
    )


def _cogram_pinv_overflows(monkeypatch, a):
    """``identity_suite(a)``, with a stand-in ``pinv`` kernel that overflows on ``a @ a.H`` alone.

    The Gram and co-Gram matrices share their nonzero singular values, and
    the Gram one comes first, so no input makes the co-Gram one overflow
    alone.
    """
    real = mpinv._pinv_matrix
    cogram = (a @ a.H)._mat

    def failing(mat, rank_tol):
        hits = [k for k, m in enumerate(mat.reshape(-1, *mat.shape[-2:])) if np.array_equal(m, cogram)]
        if hits:
            raise mpinv._PinvOverflow(1e-320, hits[0])
        return real(mat, rank_tol)

    monkeypatch.setattr(mpinv, "_pinv_matrix", failing)
    return identity_suite(a)


# name -> (the call on random 2x2:2x2 tensors m, n, the operand its overflow names);
# the singular values of 1e-310 * m are subnormal, those of (1e-160 * m).H @ (1e-160 * m) too
OVERFLOW_CASES = {
    "projector_commute_report-a": (lambda m, n, mp: projector_commute_report(1e-310 * m, n), "pinv(a)"),
    "projector_commute_report-b": (lambda m, n, mp: projector_commute_report(m, 1e-310 * n), "pinv(b)"),
    "zero_equivalence": (lambda m, n, mp: zero_equivalence(n, 1e-310 * m), "pinv(a)"),
    "identity_suite-a": (lambda m, n, mp: identity_suite(1e-310 * m), "pinv(a)"),
    "identity_suite-gram": (lambda m, n, mp: identity_suite(1e-160 * m), "pinv(A.H @ A)"),
    "identity_suite-cogram": (lambda m, n, mp: _cogram_pinv_overflows(mp, m), "pinv(A @ A.H)"),
    "rol_report-single": (lambda m, n, mp: rol_report(m, 1e-310 * n), "pinv(b)"),
    "rol_report-sequence": (lambda m, n, mp: rol_report([m, n, m], [n, 1e-310 * n, n]), "pinv(b) of pair 1"),
}


@pytest.mark.parametrize("case", list(OVERFLOW_CASES))
def test_every_builder_names_the_overflowing_pinv(case, monkeypatch):
    build, operand = OVERFLOW_CASES[case]
    m, n = scaled_pair(1.0)
    with pytest.raises(ValueError, match=r"^pinv overflows: smallest kept singular value \S+ has no finite") as info:
        build(m, n, monkeypatch)
    assert str(info.value).endswith(f" reciprocal in {operand}")


class TestNonFiniteResiduals:
    """Every report builder refuses a residual that an overflow made NaN or infinite."""

    def refused(self, build) -> str:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            build()
        return str(info.value)

    def test_projector_report_refuses_nan(self):
        # the Gram products overflow; the four residuals built on them were
        # NaN, and the report still called itself consistent
        a, b = scaled_pair(1e120)
        assert self.refused(lambda: projector_commute_report(a, b)) == (
            "non-finite residual in absorb_gram_left: an intermediate product overflowed"
        )

    def test_zero_equivalence_refuses_inf(self):
        a, b = scaled_pair(1e120)
        assert self.refused(lambda: zero_equivalence(b, a)) == (
            "non-finite residual in via_star: an intermediate product overflowed"
        )

    def test_zero_equivalence_refuses_nan(self):
        # via_star and via_projector were NaN, via_pinv 0.0: an inconsistent
        # report made of a numerical failure
        a, _ = scaled_pair(1e160)
        assert self.refused(lambda: zero_equivalence(a, a)) == (
            "non-finite residual in via_star: an intermediate product overflowed"
        )

    def test_synthetic_reports_stay_constructible(self):
        # the check runs in the builders, so a report can still hold NaN
        rep = ZeroEquivalenceReport(via_pinv=float("nan"), via_star=0.0, via_projector=0.0, tol=1e-10)
        assert rep.booleans == {"via_pinv": False, "via_star": True, "via_projector": True}


class TestReportBase:
    FIELDS = {
        RolReport: ["direct", "absorb_left", "absorb_right", "herm_left", "herm_right",
                    "paired_product", "factor_left", "factor_right", "commute", "tol"],
        ProjectorCommuteReport: ["absorb_proj_left", "absorb_proj_right", "commute", "commute_mirror",
                                 "absorb_gram_left", "cross_null_left", "absorb_gram_right",
                                 "cross_null_right", "tol"],
        ZeroEquivalenceReport: ["via_pinv", "via_star", "via_projector", "tol"],
        PenroseResiduals: ["axa", "xax", "ax_herm", "xa_herm", "tol"],
        IdentitySuiteReport: ["star_via_pinv_left", "star_via_pinv_right", "recover_right", "recover_left",
                              "pinv_via_gram", "pinv_via_cogram", "gram_pinv_split", "cogram_pinv_split",
                              "gram_sandwich_left", "gram_sandwich_right", "row_projector_right",
                              "row_projector_left", "tol", "normal_residual", "ep_residual"],
    }
    AS_DICT_KEYS = {
        RolReport: ["tol", "residuals", "booleans", "groups", "holds", "consistent", "implication_ok"],
        ProjectorCommuteReport: ["tol", "residuals", "booleans", "commute_consistent",
                                 "pairs_consistent", "consistent"],
        ZeroEquivalenceReport: ["tol", "residuals", "booleans", "consistent"],
        PenroseResiduals: ["tol", "residuals", "booleans"],
        IdentitySuiteReport: ["tol", "residuals", "booleans"],
    }

    def reports(self, rng) -> list:
        a = golden.random_low_rank(rng, SQ22)
        b = golden.random_tensor(rng, SQ22)
        return [
            rol_report(a, b),
            projector_commute_report(a, b),
            zero_equivalence(b, a),
            penrose_residuals(a, pinv(a)),
            identity_suite(a),
            identity_suite(golden.random_tensor(rng, ModeShape((2,), (3,)))),
        ]

    @staticmethod
    def residual_names(names: list[str]) -> list[str]:
        return names[: names.index("tol")]

    def test_every_report_is_on_the_base(self):
        assert all(issubclass(cls, _ResidualReport) for cls in self.FIELDS)

    def test_residuals_follow_the_fields(self, rng):
        for rep in self.reports(rng):
            names = self.FIELDS[type(rep)]
            residual_names = self.residual_names(names)
            assert list(rep._fields) == names
            assert list(rep.residuals) == residual_names
            assert rep.residuals == {name: getattr(rep, name) for name in residual_names}
            assert rep.booleans == {name: getattr(rep, name) <= rep.tol for name in residual_names}
            assert rep.max_residual == max(getattr(rep, name) for name in residual_names)

    def test_as_dict_is_the_base_one_and_appends_the_derived_properties(self):
        classes, pending = set(), [_ResidualReport]
        while pending:
            for cls in pending.pop().__subclasses__():
                classes.add(cls)
                pending.append(cls)
        assert classes == set(self.FIELDS)
        for cls in classes:
            assert "as_dict" not in cls.__dict__, cls
            assert "_derived" not in cls._fields
            assert all(isinstance(getattr(cls, name), property) for name in cls._derived), cls
            rep = cls(**{name: 0.5 for name in cls._fields})
            d = rep.as_dict()
            assert list(d) == ["tol", "residuals", "booleans", *cls._derived]
            assert all(d[name] == getattr(rep, name) for name in cls._derived)

    def test_as_dict_key_order(self, rng):
        for rep in self.reports(rng):
            d = rep.as_dict()
            assert list(d) == self.AS_DICT_KEYS[type(rep)]
            assert d["tol"] == rep.tol
            assert list(d["residuals"]) == list(d["booleans"]) == self.residual_names(self.FIELDS[type(rep)])


class TestFuzzBaseline:
    @pytest.mark.parametrize("key", list(FUZZ_BASELINE), ids=[f"{s}-seed{n}" for s, n in FUZZ_BASELINE])
    def test_summary_matches_per_pair_evaluation(self, key):
        shape = FUZZ_SHAPES[key[0]]
        families = [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]
        direct_true, direct_false = FUZZ_BASELINE[key]
        assert fuzz_search(shape, 200, key[1]) == FuzzSummary(
            trials=200,
            direct_true=direct_true,
            direct_false=direct_false,
            family_counts={f: 200 // len(families) for f in families},
            violations=0,
            first_violation=None,
        )

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (2 * _FUZZ_BLOCK, 8 * _FUZZ_BLOCK):
            tracemalloc.start()
            fuzz_search(SQ22, trials, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


# ---------------------------------------------------------------------------
# The one-at-a-time draws that the block draws replaced, kept as
# their reference: one QR call per unitary, in trial order.


def reference_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_low_rank(rng: np.random.Generator, shape: ModeShape):
    rc, cc = shape.row_count, shape.col_count
    r = int(rng.integers(1, min(rc, cc) + 1))
    u = reference_unitary(rng, rc)[:, :r]
    v = reference_unitary(rng, cc)[:, :r]
    s = rng.uniform(0.3, 3.0, r)
    return dematricize((u * s) @ v.conj().T, shape)


def reference_diagonal(rng: np.random.Generator, shape: ModeShape):
    k = min(shape.row_count, shape.col_count)
    mags = rng.uniform(0.3, 3.0, k)
    phases = np.exp(2j * np.pi * rng.random(k))
    vals = mags * phases
    vals[rng.random(k) < 0.25] = 0.0
    return diagonal_from(shape.row_dims, shape.col_dims, vals)


def reference_sigma(rng: np.random.Generator, k: int) -> np.ndarray:
    s = rng.uniform(0.3, 3.0, k)
    s[rng.random(k) < 0.25] = 0.0
    return s


def reference_draw_pair(rng: np.random.Generator, shape: ModeShape, family: str) -> tuple:
    shape_b = shape.transposed
    rc, cc = shape.row_count, shape.col_count
    if family == "dense":
        return tuple(
            as_tensor(rng.standard_normal(rc * cc) + 1j * rng.standard_normal(rc * cc), s.row_dims, s.col_dims)
            for s in (shape, shape_b)
        )
    if family == "rank_deficient":
        return reference_low_rank(rng, shape), reference_low_rank(rng, shape_b)
    if family == "unitary_factor":
        return reference_low_rank(rng, shape), dematricize(reference_unitary(rng, cc), shape_b)
    if family == "diagonal":
        return reference_diagonal(rng, shape), reference_diagonal(rng, shape_b)
    assert family == "orthogonal_sum"
    u = reference_unitary(rng, rc)
    v = reference_unitary(rng, cc)
    w = reference_unitary(rng, rc)
    k = min(rc, cc)
    sa = np.zeros((rc, cc))
    sb = np.zeros((cc, rc))
    sa_vals = reference_sigma(rng, k)
    sb_vals = reference_sigma(rng, k)
    for vals in (sa_vals, sb_vals):
        if vals[0] == 0.0:
            vals[0] = rng.uniform(0.3, 3.0)
    sa[np.arange(k), np.arange(k)] = sa_vals
    sb[np.arange(k), np.arange(k)] = sb_vals
    return dematricize(u @ sa @ v.conj().T, shape), dematricize(v @ sb @ w.conj().T, shape_b)


DRAW_SHAPES = {
    **FUZZ_SHAPES,
    "3:2x2": ModeShape((3,), (2, 2)),
    "4:2": ModeShape((4,), (2,)),  # (n+2):n, so one block holds unitaries of two sizes
    "5:3": ModeShape((5,), (3,)),
}


class TestLockstepDraws:
    def families(self, shape: ModeShape) -> list[str]:
        return [f for f in FUZZ_FAMILIES if f != "unitary_factor" or shape.row_count == shape.col_count]

    @pytest.mark.parametrize("shape", list(DRAW_SHAPES.values()), ids=list(DRAW_SHAPES))
    def test_block_equals_one_at_a_time_draws(self, shape):
        children = np.random.SeedSequence(11).spawn(3 * _FUZZ_BLOCK // 2)
        families = [self.families(shape)[t % len(self.families(shape))] for t in range(len(children))]
        sa, sb = _draw_block([np.random.default_rng(c) for c in children], shape, families)
        assert len(sa._mat) == len(sb._mat) == len(children)
        for child, family, a, b in zip(children, families, sa._mat, sb._mat):
            ref_a, ref_b = reference_draw_pair(np.random.default_rng(child), shape, family)
            assert sa.shape == ref_a.shape and sb.shape == ref_b.shape
            assert np.array_equal(a.reshape(-1), ref_a.entries), family
            assert np.array_equal(b.reshape(-1), ref_b.entries), family

    @pytest.mark.parametrize("family", FUZZ_FAMILIES)
    def test_draw_pair_is_a_block_of_one(self, family):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(4):  # successive draws keep consuming one generator
            pair = golden.fuzz_pair(rng, SQ22, family)
            ref = reference_draw_pair(ref_rng, SQ22, family)
            assert all(np.array_equal(x.entries, y.entries) for x, y in zip(pair, ref))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            golden.fuzz_pair(np.random.default_rng(0), SQ22, "bogus")

    def test_one_qr_call_per_unitary_size_and_step(self, monkeypatch):
        # 4:2 asks for unitaries of order 4 and 2; a block orthonormalizes all
        # unitaries of one order in one call
        calls = []
        original = fuzz._orthonormalize

        def counted(z):
            calls.append(z.shape)
            return original(z)

        monkeypatch.setattr(fuzz, "_orthonormalize", counted)
        shape = DRAW_SHAPES["4:2"]
        fuzz_search(shape, 40, 2)
        assert len(calls) == 2
        assert {s[1:] for s in calls} == {(4, 4), (2, 2)}
        assert sum(s[0] for s in calls) == 10 * 4 + 10 * 3  # rank_deficient and orthogonal_sum

    def test_fuzz_summary_equals_one_at_a_time_evaluation(self):
        shape = DRAW_SHAPES["4:2"]
        families = self.families(shape)
        trials = _FUZZ_BLOCK + 6
        pairs = [
            reference_draw_pair(np.random.default_rng(child), shape, families[t % len(families)])
            for t, child in enumerate(np.random.SeedSequence(9).spawn(trials))
        ]
        reports = [rol_report(a, b) for a, b in pairs]
        summary = fuzz_search(shape, trials, 9)
        assert summary.direct_true == sum(r.holds for r in reports)
        assert summary.direct_false == sum(not r.holds for r in reports)
        assert summary.violations == sum(not (r.consistent and r.implication_ok) for r in reports)


class TestFuzzViolations:
    """``fuzz_search``'s violation count and first violation, forced on known trials of two blocks."""

    TRIALS, SEED, CHOSEN = _FUZZ_BLOCK + 8, 3, [5, 17, _FUZZ_BLOCK + 2]

    def test_violations_and_the_first_one_equal_pair_by_pair_evaluation(self, monkeypatch):
        per_pair = golden.fuzz_trial_reports(SQ22, self.TRIALS, self.SEED)
        golden.force_violations(monkeypatch, [r for _, r in per_pair], self.CHOSEN)
        failing = [t for t, (_, r) in enumerate(per_pair) if not (r.consistent and r.implication_ok)]
        assert failing == self.CHOSEN
        summary = fuzz_search(SQ22, self.TRIALS, self.SEED)
        assert summary.violations == len(failing)
        family, report = per_pair[failing[0]]
        assert summary.first_violation == {"trial": failing[0], "family": family, "report": report.as_dict()}
        assert summary.first_violation["report"]["implication_ok"] is False
