"""The contract of the package's frozen records, class by class.

Eleven classes are immutable value records: the shape and the policy, the
residual reports and their base, the SVD factors, the structural flags and
the fuzz summary.  Each compares equal only to a record of its own class
with equal fields, hashes as the tuple of its fields, prints the same repr,
refuses assignment and deletion, binds its arguments like a function of its
fields, matches by position and survives pickle and copy.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from tenrol import (
    FuzzSummary,
    IdentitySuiteReport,
    ModeShape,
    NumericPolicy,
    PenroseResiduals,
    ProjectorCommuteReport,
    RolReport,
    StructuralFlags,
    SvdFactors,
    ZeroEquivalenceReport,
    identity,
)
from tenrol.core import _ResidualReport

_EYE = identity((2,))
_FLOATS = [0.5, 1e-16, 2.0, 0.25, 3e-12, 1.5, 0.125, 7.0, 4e-3, 0.75, 1e-10, 2.5, 6.0, 1e-10]

#: name -> (class, field names, field values, repr as @dataclass(frozen=True) printed it)
SAMPLES = {
    "ModeShape": (
        ModeShape, ("row_dims", "col_dims"), ((2, 3), (4,)),
        "ModeShape(row_dims=(2, 3), col_dims=(4,))",
    ),
    "NumericPolicy": (
        NumericPolicy, ("eq_tol", "rank_tol"), (1e-9, 1e-11),
        "NumericPolicy(eq_tol=1e-09, rank_tol=1e-11)",
    ),
    "_ResidualReport": (_ResidualReport, (), (), "_ResidualReport()"),
    "StructuralFlags": (
        StructuralFlags,
        ("hermitian", "skew_hermitian", "unitary", "idempotent", "diagonal", "normal", "note"),
        (True, False, True, False, True, False, "square"),
        "StructuralFlags(hermitian=True, skew_hermitian=False, unitary=True, idempotent=False, "
        "diagonal=True, normal=False, note='square')",
    ),
    "SvdFactors": (
        SvdFactors, ("u", "d", "v"), (_EYE, _EYE, _EYE),
        "SvdFactors(u=DenseTensor(row_dims=(2,), col_dims=(2,)), d=DenseTensor(row_dims=(2,), col_dims=(2,)), "
        "v=DenseTensor(row_dims=(2,), col_dims=(2,)))",
    ),
    "PenroseResiduals": (
        PenroseResiduals, ("axa", "xax", "ax_herm", "xa_herm", "tol"), (0.5, 1e-16, 2.0, 0.25, 1e-10),
        "PenroseResiduals(axa=0.5, xax=1e-16, ax_herm=2.0, xa_herm=0.25, tol=1e-10)",
    ),
    "IdentitySuiteReport": (
        IdentitySuiteReport,
        (
            "star_via_pinv_left", "star_via_pinv_right", "recover_right", "recover_left", "pinv_via_gram",
            "pinv_via_cogram", "gram_pinv_split", "cogram_pinv_split", "gram_sandwich_left",
            "gram_sandwich_right", "row_projector_right", "row_projector_left", "tol", "normal_residual",
            "ep_residual",
        ),
        (*_FLOATS[:12], 1e-10, 0.0, None),
        "IdentitySuiteReport(star_via_pinv_left=0.5, star_via_pinv_right=1e-16, recover_right=2.0, "
        "recover_left=0.25, pinv_via_gram=3e-12, pinv_via_cogram=1.5, gram_pinv_split=0.125, "
        "cogram_pinv_split=7.0, gram_sandwich_left=0.004, gram_sandwich_right=0.75, row_projector_right=1e-10, "
        "row_projector_left=2.5, tol=1e-10, normal_residual=0.0, ep_residual=None)",
    ),
    "RolReport": (
        RolReport,
        (
            "direct", "absorb_left", "absorb_right", "herm_left", "herm_right", "paired_product", "factor_left",
            "factor_right", "commute", "tol",
        ),
        (*_FLOATS[:9], 1e-10),
        "RolReport(direct=0.5, absorb_left=1e-16, absorb_right=2.0, herm_left=0.25, herm_right=3e-12, "
        "paired_product=1.5, factor_left=0.125, factor_right=7.0, commute=0.004, tol=1e-10)",
    ),
    "ZeroEquivalenceReport": (
        ZeroEquivalenceReport, ("via_pinv", "via_star", "via_projector", "tol"), (0.5, 1e-16, 2.0, 1e-10),
        "ZeroEquivalenceReport(via_pinv=0.5, via_star=1e-16, via_projector=2.0, tol=1e-10)",
    ),
    "ProjectorCommuteReport": (
        ProjectorCommuteReport,
        (
            "absorb_proj_left", "absorb_proj_right", "commute", "commute_mirror", "absorb_gram_left",
            "cross_null_left", "absorb_gram_right", "cross_null_right", "tol",
        ),
        (*_FLOATS[:8], 1e-10),
        "ProjectorCommuteReport(absorb_proj_left=0.5, absorb_proj_right=1e-16, commute=2.0, commute_mirror=0.25, "
        "absorb_gram_left=3e-12, cross_null_left=1.5, absorb_gram_right=0.125, cross_null_right=7.0, tol=1e-10)",
    ),
    "FuzzSummary": (
        FuzzSummary,
        ("trials", "direct_true", "direct_false", "family_counts", "violations", "first_violation"),
        (5, 3, 2, {"dense": 3, "diagonal": 2}, 0, None),
        "FuzzSummary(trials=5, direct_true=3, direct_false=2, family_counts={'dense': 3, 'diagonal': 2}, "
        "violations=0, first_violation=None)",
    ),
}
#: a valid last field value unlike the sample's, where a string would not be one
CHANGED_LAST = {"ModeShape": (5,), "NumericPolicy": 1e-3}
NAMES = sorted(SAMPLES)
HASHABLE = [name for name in NAMES if name != "FuzzSummary"]


def sample(name: str):
    cls, _, values, _ = SAMPLES[name]
    return cls(*values)


def test_every_record_class_is_sampled():
    assert len(SAMPLES) == 11


@pytest.mark.parametrize("name", NAMES)
class TestRecordContract:
    def test_repr(self, name):
        assert repr(sample(name)) == SAMPLES[name][3]

    def test_equality_is_by_fields_and_class_strict(self, name):
        cls, fields, values, _ = SAMPLES[name]
        rec = sample(name)
        assert rec == cls(*values) and not rec != cls(*values)
        assert rec != values and values != rec
        assert rec.__eq__(values) is NotImplemented
        subclass = type("Sub" + name, (cls,), {})
        assert rec != subclass(*values) and subclass(*values) != rec
        if fields:
            changed = cls(*values[:-1], CHANGED_LAST.get(name, "changed"))
            assert rec != changed and changed != rec

    def test_hash_is_the_hash_of_the_field_tuple(self, name):
        cls, _, values, _ = SAMPLES[name]
        if name in HASHABLE:
            assert hash(sample(name)) == hash(values)
            assert hash(sample(name)) == hash(cls(*values))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(sample(name))

    def test_assignment_and_deletion_raise_attribute_error(self, name):
        rec = sample(name)
        fields = SAMPLES[name][1]
        for attr in (*fields[:1], "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
                setattr(rec, attr, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
                delattr(rec, attr)
        assert rec == sample(name) and not hasattr(rec, "not_a_field")

    def test_positional_keyword_and_mixed_construction_agree(self, name):
        cls, fields, values, _ = SAMPLES[name]
        rec = sample(name)
        assert cls(**dict(zip(fields, values))) == rec
        half = len(values) // 2
        assert cls(*values[:half], **dict(zip(fields[half:], values[half:]))) == rec
        assert tuple(getattr(rec, f) for f in fields) == values

    def test_missing_unexpected_and_repeated_arguments_raise_type_error(self, name):
        cls, fields, values, _ = SAMPLES[name]
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="positional argument"):
            cls(*values, None)
        if fields:
            with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
                cls(*values, **{fields[0]: values[0]})
            if name != "NumericPolicy":  # every field of the policy has a default
                with pytest.raises(TypeError, match="missing"):
                    cls(*values[:1])

    def test_binding_errors_name_the_class_init(self, name):
        cls, fields, values, _ = SAMPLES[name]
        calls = {"surplus": lambda: cls(*values, None), "unexpected": lambda: cls(*values, bogus=1)}
        if fields:
            calls["repeated"] = lambda: cls(*values, **{fields[0]: values[0]})
            if name != "NumericPolicy":  # every field of the policy has a default
                calls["missing"] = lambda: cls(*values[:1])
        for kind, call in calls.items():
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value).startswith(f"{cls.__qualname__}.__init__() "), kind

    def test_match_args_are_the_fields(self, name):
        cls, fields, _, _ = SAMPLES[name]
        assert cls.__match_args__ == fields

    def test_pickle_and_copies_give_an_equal_record(self, name):
        cls, _, values, _ = SAMPLES[name]
        if cls is SvdFactors:
            # a DenseTensor compares by identity, so the round trip of the
            # factors carries stand-in values
            values = ("u", "d", "v")
        rec = cls(*values)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(twin) is cls and twin == rec and repr(twin) == repr(rec)


def test_defaults_fill_the_omitted_fields():
    assert NumericPolicy() == NumericPolicy(1e-10, 1e-12) == NumericPolicy(rank_tol=1e-12)
    flags = StructuralFlags(True, False, True, False, True, False)
    assert flags.note is None and flags == StructuralFlags(True, False, True, False, True, False, note=None)


def test_a_class_pattern_binds_the_fields_by_position():
    match RolReport(*_FLOATS[:9], 1e-10):
        case RolReport(direct, absorb_left, tol=tol):
            assert (direct, absorb_left, tol) == (0.5, 1e-16, 1e-10)
        case _:
            raise AssertionError("the class pattern did not match")
    match ModeShape((2,), (3, 4)):
        case ModeShape(rows, cols):
            assert (rows, cols) == ((2,), (3, 4))
        case _:
            raise AssertionError("the class pattern did not match")


def test_post_init_is_looked_up_on_each_construction(monkeypatch):
    # the benchmark counts shape constructions by wrapping the hook on the class
    seen = []
    real = ModeShape.__post_init__

    def counted(self):
        seen.append(self)
        real(self)

    monkeypatch.setattr(ModeShape, "__post_init__", counted)
    shape = ModeShape((2,), (3,))
    assert len(seen) == 1 and seen[0] is shape and shape.row_count == 2


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError, match="eq_tol"):
        NumericPolicy(eq_tol=2.0)
    with pytest.raises(ValueError, match="positive integers"):
        ModeShape((0,), (2,))
    shape = ModeShape([2, 3], (4,))
    assert shape.row_dims == (2, 3) and (shape.row_count, shape.col_count) == (6, 4)
