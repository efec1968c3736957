"""Every report's residuals equal ``rel_residual`` of its tensor chains, bit for bit.

The oracles below keep each report's formulas as chains of Einstein
products of tensors, one ``rel_residual`` (or, for ``x == 0``, one scaled
norm) per residual, and the tests assert that the builders give the same
floats in every bit, like ``TestGroupedResiduals`` does for ``rol_report``.
"""

from __future__ import annotations

import numpy as np
import pytest

import golden
from tenrol import (
    ModeShape,
    OrthogonalityError,
    as_tensor,
    classify,
    conj_transpose,
    frobenius_norm,
    identity,
    identity_suite,
    penrose_residuals,
    pinv,
    pinv_sum,
    projector_commute_report,
    rel_residual,
    zero_equivalence,
)
from tenrol import core
from tenrol.core import _unitary_residual

SPLITS = {
    "2x2:2x2": ModeShape((2, 2), (2, 2)),
    "2:3": ModeShape((2,), (3,)),
    "4x4:4x4": ModeShape((4, 4), (4, 4)),
}


def tensors(shape: ModeShape, seed: int) -> list:
    """Dense and rank-deficient tensors over many decades, so the unit floor binds on some only."""
    rng = np.random.default_rng(seed)
    out = [golden.random_tensor(rng, shape), golden.random_low_rank(rng, shape)]
    out += [scale * golden.random_tensor(rng, shape) for scale in (1e-6, 1e-2, 1e3, 1e6)]
    if shape.is_square:
        out += [identity(shape.row_dims), golden.random_unitary_tensor(rng, shape.row_dims)]
    return out


def same_bits(got, want) -> None:
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes(), (got, want)


def zero_oracle(x, scale: float) -> float:
    """The residual of ``x == 0`` under the caller's scale."""
    return frobenius_norm(x) / max(1.0, scale)


def identity_oracle(a) -> tuple[list, float | None, float | None]:
    ah = conj_transpose(a)
    gram, cogram = ah @ a, a @ ah
    ap, gram_p, cogram_p = pinv((a, gram, cogram))
    ahp = conj_transpose(ap)
    ap_a = ap @ a
    residuals = [
        rel_residual(ap @ a @ ah, ah),
        rel_residual(ah @ a @ ap, ah),
        rel_residual(a @ ah @ ahp, a),
        rel_residual(ahp @ ah @ a, a),
        rel_residual(gram_p @ ah, ap),
        rel_residual(ah @ cogram_p, ap),
        rel_residual(gram_p, ap @ ahp),
        rel_residual(cogram_p, ahp @ ap),
        rel_residual(gram_p, ap @ cogram_p @ a),
        rel_residual(gram_p, ah @ cogram_p @ ahp),
        rel_residual(ap_a, gram @ gram_p),
        rel_residual(ap_a, gram_p @ gram),
    ]
    if not a.shape.is_square:
        return residuals, None, None
    return residuals, rel_residual(cogram, gram), rel_residual(a @ ap, ap_a)


def penrose_oracle(a, x) -> list:
    ax, xa = a @ x, x @ a
    return [
        rel_residual(ax @ a, a),
        rel_residual(xa @ x, x),
        rel_residual(ax, conj_transpose(ax)),
        rel_residual(xa, conj_transpose(xa)),
    ]


def projector_oracle(a, b) -> list:
    ah, bh = conj_transpose(a), conj_transpose(b)
    ap, bp = pinv((a, b))
    p, q, r, pb = ap @ a, b @ bp, a @ ap, bp @ b
    bbh, aha = b @ bh, ah @ a
    eye_j = identity(p.shape.row_dims)
    return [
        rel_residual(p @ q @ ah, q @ ah),
        rel_residual(pb @ r @ bh, r @ bh),
        rel_residual(p @ q, q @ p),
        rel_residual(pb @ r, r @ pb),
        rel_residual(p @ bbh @ ah, bbh @ ah),
        zero_oracle((eye_j - p) @ bbh @ p, frobenius_norm(bbh) * frobenius_norm(p)),
        rel_residual(q @ aha @ b, aha @ b),
        zero_oracle((eye_j - q) @ aha @ q, frobenius_norm(aha) * frobenius_norm(q)),
    ]


def zero_oracle_report(b, a) -> list:
    (ap,) = pinv((a,))
    ah = conj_transpose(a)
    proj = ap @ a
    bn = frobenius_norm(b)
    return [
        zero_oracle(b @ ap, bn * frobenius_norm(ap)),
        zero_oracle(b @ ah, bn * frobenius_norm(ah)),
        zero_oracle(b @ proj, bn * frobenius_norm(proj)),
    ]


def unitary_oracle(t) -> float:
    if not t.shape.is_square:
        return float("inf")
    th, eye = conj_transpose(t), identity(t.shape.row_dims)
    return max(rel_residual(t @ th, eye), rel_residual(th @ t, eye))


def classify_oracle(a) -> dict:
    mask = np.eye(a.shape.row_count, a.shape.col_count, dtype=bool)
    diagonal = float(np.linalg.norm(a._mat[~mask])) / max(1.0, frobenius_norm(a))
    if not a.shape.is_square:
        return {"diagonal": diagonal}
    ah = conj_transpose(a)
    return {
        "hermitian": rel_residual(a, ah),
        "skew_hermitian": rel_residual(a, -ah),
        "unitary": unitary_oracle(a),
        "idempotent": rel_residual(a @ a, a),
        "diagonal": diagonal,
        "normal": rel_residual(a @ ah, ah @ a),
    }


@pytest.mark.parametrize("split", list(SPLITS))
class TestOracles:
    def test_identity_suite(self, split):
        for a in tensors(SPLITS[split], 1):
            rep = identity_suite(a)
            residuals, normal, ep = identity_oracle(a)
            same_bits(list(rep.residuals.values()), residuals)
            if a.shape.is_square:
                same_bits([rep.normal_residual, rep.ep_residual], [normal, ep])
            else:
                assert rep.normal_residual is None and rep.ep_residual is None

    def test_penrose_residuals(self, split):
        rng = np.random.default_rng(2)
        for a in tensors(SPLITS[split], 2):
            x = pinv(a)
            for cand in (x, 2.0 * x, x + 1e-3 * golden.random_tensor(rng, x.shape)):
                same_bits(list(penrose_residuals(a, cand).residuals.values()), penrose_oracle(a, cand))

    def test_projector_commute_report(self, split):
        shape = SPLITS[split]
        for a, b in zip(tensors(shape, 3), tensors(shape.transposed, 4)):
            same_bits(list(projector_commute_report(a, b).residuals.values()), projector_oracle(a, b))

    def test_zero_equivalence(self, split):
        shape = SPLITS[split]
        other = ModeShape((5,), shape.col_dims)
        rng = np.random.default_rng(5)
        for a, b in zip(tensors(shape, 5), tensors(other, 6)):
            # b kills the row space of a: all three conditions hold at rounding level
            annihilator = b @ (identity(shape.col_dims) - pinv(a) @ a)
            for bb in (b, annihilator, annihilator + 1e-9 * golden.random_tensor(rng, other)):
                same_bits(list(zero_equivalence(bb, a).residuals.values()), zero_oracle_report(bb, a))

    def test_pinv_sum_precondition(self, split):
        shape = SPLITS[split]
        rows, cols = shape.row_count, shape.col_count
        first = np.zeros((rows, cols), complex)
        first[0, 0] = 2.0 - 1j
        second = np.zeros((rows, cols), complex)
        second[1:, 1:] = np.random.default_rng(7).standard_normal((rows - 1, cols - 1))
        orthogonal = [as_tensor(m, shape.row_dims, shape.col_dims) for m in (first, second)]
        assert pinv_sum(orthogonal).shape == shape.transposed
        for t in tensors(shape, 7):
            ts = [*orthogonal, t]
            with pytest.raises(OrthogonalityError) as info:
                pinv_sum(ts)
            i, j = info.value.pair
            scale = frobenius_norm(ts[i]) * frobenius_norm(ts[j])
            want = max(
                zero_oracle(ts[i] @ conj_transpose(ts[j]), scale),
                zero_oracle(conj_transpose(ts[i]) @ ts[j], scale),
            )
            same_bits([info.value.residual], [want])

    def test_classify(self, split, monkeypatch):
        seen = []
        monkeypatch.setattr(core, "_refuse_non_finite", lambda residuals, where="": seen.append(dict(residuals)))
        for a in tensors(SPLITS[split], 8):
            seen.clear()
            classify(a)
            want = classify_oracle(a)
            assert len(seen) == 1 and list(seen[0]) == list(want)
            same_bits(list(seen[0].values()), list(want.values()))

    def test_unitary_residual(self, split):
        shape = SPLITS[split]
        for t in tensors(shape, 9):
            same_bits([_unitary_residual(t)], [unitary_oracle(t)])
