"""On-disk tensor format and the command-line front end."""

from __future__ import annotations

import contextlib
import decimal
import gc
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import golden
from tenrol import DenseTensor, ModeShape, as_tensor, diagonal_from, identity, zeros
from tenrol.cli import (
    TensorFormatError,
    _build_parser,
    _fmt17,
    _scalars_are_numbers,
    _tensor_of,
    format_tensor,
    main,
    parse_tensor_file,
    run_command,
    write_tensor_file,
)
from tenrol import unfold as unfold_mod
from tenrol.unfold import SvdConvergenceError


def reference_parse(text: str) -> DenseTensor:
    """The per-entry parser that the vectorized codec replaced, kept as its reference.

    Only the entry conversion is reproduced: callers pass documents whose
    dims and entry count are valid.
    """
    doc = json.loads(text)
    shape = ModeShape(tuple(doc["row_dims"]), tuple(doc["col_dims"]))
    values = np.empty(shape.row_count * shape.col_count, dtype=np.complex128)
    for i, pair in enumerate(doc["entries"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise TensorFormatError("bad-entry", i, f"entry must be a [re, im] number pair, got {pair!r}")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise TensorFormatError("non-finite", i, f"entry [{re!r}, {im!r}] is not finite")
        values[i] = complex(re, im)
    return DenseTensor(shape, values)


def reference_format(t: DenseTensor) -> str:
    """A document with 17-significant-digit numbers, as earlier versions wrote it."""
    body = ",".join(f"[{_fmt17(z.real)},{_fmt17(z.imag)}]" for z in t.entries)
    return (
        '{"row_dims":' + json.dumps(list(t.shape.row_dims))
        + ',"col_dims":' + json.dumps(list(t.shape.col_dims))
        + ',"entries":[' + body + "]}"
    )


def awkward_tensor(rng: np.random.Generator, shape: ModeShape) -> DenseTensor:
    """Entries with exponents from -300 to 300, signed zeros, integers and subnormals."""
    n = 2 * shape.row_count * shape.col_count
    parts = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-300, 301, n)
    kind = rng.integers(0, 6, n)
    integers = np.round(rng.uniform(-1, 1, n) * 10.0 ** rng.integers(0, 22, n))
    subnormals = rng.integers(-(2**52), 2**52, n) * 5e-324
    parts[kind == 0] = -0.0
    parts[kind == 1] = 0.0
    parts[kind == 2] = integers[kind == 2]
    parts[kind == 3] = subnormals[kind == 3]
    return DenseTensor(shape, parts.view(np.complex128))


def entries_doc(entries: str) -> str:
    """A 1x3 tensor document around three comma-separated entries."""
    return f'{{"row_dims": [1], "col_dims": [3], "entries": [{entries}]}}'


# Three-entry documents with one offending entry or more; dims and count are valid.
MALFORMED_ENTRIES = [
    "[1,0],[true,0],[0,0]",
    "[1,0],[0,false],[0,0]",
    '[1,0],["1.5",0],[0,0]',
    "[1,0],[null,0],[0,0]",
    "[1,0],[[1],0],[0,0]",
    "[1,0],[1],[0,0]",
    "[1,0],[1,2,3],[0,0]",
    "[1,0],[],[0,0]",
    '[1,0],{"re":1,"im":0},[0,0]',
    '[1,0],"ab",[0,0]',
    "[1,0],5,[0,0]",
    "[1,0],null,[0,0]",
    "[true,false],[true,false],[true,false]",
    "[NaN,0],[true,0],[0,0]",
    "[1,0],[true,0],[Infinity,0]",
    "[1,0],[0,-Infinity],[1]",
    "[1,0],[1],[0,NaN]",
    "[1,0],[0,0],[1e400,0]",
    "[1,0],[NaN,0],[0,0]",
    "[1,0],[0,0],[0,-Infinity]",
]

HUGE = "1" + "0" * 400  # beyond double range, so float() of it overflows
LONG = "1" * 5000  # past int()'s default limit of 4,300 digits


def check_written_numbers(t: DenseTensor) -> None:
    """Every number format_tensor writes reads back bit-exact through both parse routes, and is repr's decimal."""
    text = format_tensor(t)
    want = t.entries.tobytes()
    assert orjson_route(text).entries.tobytes() == want
    assert json_values(text).tobytes() == want
    assert parse_tensor_file(text).entries.tobytes() == want
    written = [x for pair in json.loads(text, parse_float=decimal.Decimal)["entries"] for x in pair]
    shortest = [decimal.Decimal(repr(x)) for x in t.entries.view(np.float64).tolist()]
    if written != shortest:
        differing = [(w, s) for w, s in zip(written, shortest) if w != s]
        pytest.fail(f"first differing numbers (written, repr): {differing[:5]}")


class TestCodecMatchesReference:
    @pytest.mark.parametrize("dims", [((1,), (1,)), ((2, 3), (4,)), ((16,), (16, 4))])
    def test_written_numbers_are_shortest_round_trip(self, rng, dims):
        for _ in range(20):
            check_written_numbers(awkward_tensor(rng, ModeShape(*dims)))

    def test_parsed_values_are_bit_equal(self, rng):
        for _ in range(20):
            text = reference_format(awkward_tensor(rng, ModeShape((4,), (8,))))
            assert parse_tensor_file(text).entries.tobytes() == reference_parse(text).entries.tobytes()

    def test_integers_convert_like_float(self):
        # 2**53 + 1 is not a double; both routes must round it to the same one
        text = entries_doc(f"[9007199254740993,-9007199254740993],[{2**70},0],[1e308,-0.0]")
        got = parse_tensor_file(text)
        assert got.entries.tobytes() == reference_parse(text).entries.tobytes()
        assert got.entries[0] == complex(float(9007199254740993), float(-9007199254740993))

    @pytest.mark.parametrize("entries", MALFORMED_ENTRIES)
    def test_errors_match_reference(self, entries):
        text = entries_doc(entries)
        with pytest.raises(TensorFormatError) as ref:
            reference_parse(text)
        with pytest.raises(TensorFormatError) as got:
            parse_tensor_file(text)
        assert (got.value.code, got.value.index, str(got.value)) == (
            ref.value.code, ref.value.index, str(ref.value),
        )


def tensor_of_parts(parts) -> DenseTensor:
    """A one-column tensor whose real and imaginary parts, in turn, are ``parts`` (0.0 pads an odd count)."""
    parts = np.asarray(parts, dtype=np.float64)
    if parts.size % 2:
        parts = np.append(parts, 0.0)
    return DenseTensor(ModeShape((parts.size // 2,), (1,)), parts.view(np.complex128))


def with_neighbours(values) -> np.ndarray:
    """``values``, their negatives, and the doubles one ulp either side of each."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


class TestWriterMatchesReference:
    """Each number format_tensor writes is the shortest decimal that reads back to its double, as repr gives it."""

    def check(self, parts) -> None:
        check_written_numbers(tensor_of_parts(parts))

    def test_random_bit_patterns(self, rng):
        parts = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
        # random subnormals besides the ~1 in 2,048 patterns that are subnormal
        subnormals = rng.integers(1, 2**52, 20_000, dtype=np.uint64) | (rng.integers(0, 2, 20_000, dtype=np.uint64) << 63)
        parts = np.concatenate([parts[np.isfinite(parts)], subnormals.view(np.float64)])
        assert parts.size > 1_000_000
        self.check(parts)

    def test_every_power_of_two(self):
        self.check(with_neighbours([2.0**k for k in range(-1074, 1024)]))

    def test_every_power_of_ten_and_its_neighbours(self):
        self.check(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_style_boundaries(self):
        # numbers from 1e-5 up to below 1e16 are written in fixed notation
        # (%g's bounds were 1e-4 and 1e17)
        self.check(with_neighbours([1e-5, 1e-4, 1e16, 1e17]))

    def test_integers_up_to_2_53(self, rng):
        integers = rng.integers(0, 2**53, 100_000, endpoint=True).astype(np.float64)
        exact = [0, 1, 9, 10, 99, 100, 10**15, 10**16 - 1, 10**16, 2**53 - 1, 2**53]
        self.check(np.concatenate([integers, -integers, exact, np.arange(10_000)]))

    def test_signed_zeros_and_extremes(self):
        parts = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        self.check(parts)
        assert (
            '"entries":[[0.0,-0.0],[5e-324,-5e-324],[1.7976931348623157e308,-1.7976931348623157e308]]'
            in format_tensor(tensor_of_parts(parts))
        )

    def test_exact_ties_round_half_to_even(self, rng):
        # k + 1/4 and k + 3/4 with 16 integer digits: two 17-digit decimals read
        # back to each, equally near it, and the even one is written
        whole = rng.integers(10**15, 2**50, 1_000).astype(np.float64)
        self.check(np.concatenate([whole + 0.25, whole + 0.75, -(whole + 0.25)]))
        assert '"entries":[[1000000000000000.2,1000000000000000.8]]' in format_tensor(
            tensor_of_parts([1e15 + 0.25, 1e15 + 0.75])
        )


class TestFormatRoundTrip:
    def test_random_tensor_round_trips_bit_exact(self, rng, tmp_path):
        t = golden.random_tensor(rng, ModeShape((2, 2), (3,)))
        path = tmp_path / "t.json"
        write_tensor_file(path, t)
        back = parse_tensor_file(path)
        assert back.shape == t.shape
        assert back.entries.tobytes() == t.entries.tobytes()

    def test_awkward_doubles_survive(self, tmp_path):
        vals = np.array(
            [0.1, 1.0 / 3.0, -1.5e16, np.pi, 1e-300, -0.0],
            dtype=np.complex128,
        ) * (1.0 + 1.0j)
        t = as_tensor(vals.reshape(2, 3), (2,), (3,))
        path = tmp_path / "t.json"
        write_tensor_file(path, t)
        back = parse_tensor_file(path)
        assert back.entries.tobytes() == t.entries.tobytes()

    def test_integers_serialize_compactly(self):
        text = format_tensor(identity((2,)))
        assert text == '{"row_dims":[2],"col_dims":[2],"entries":[[1.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]}'

    def test_parse_accepts_raw_json_text(self):
        doc = '{"row_dims": [2], "col_dims": [2], "entries": [[1,0],[0,0],[0,0],[1,0]]}'
        t = parse_tensor_file(doc)
        assert_allclose(t.array, np.eye(2), atol=0)

    def test_golden_fixture_file(self, data_dir):
        t = parse_tensor_file(data_dir / "nonnormal_invertible.json")
        assert np.array_equal(t.array, golden.golden_a().array)


class TestParseErrors:
    def check(self, text, code, index):
        with pytest.raises(TensorFormatError) as exc:
            parse_tensor_file(text)
        assert exc.value.code == code
        assert exc.value.index == index

    def test_malformed_json(self):
        self.check("{not json", "malformed-json", 1)

    def test_top_level_must_be_object(self):
        self.check("[1, 2]", "malformed-json", None)

    def test_missing_row_dims(self):
        self.check('{"col_dims": [2], "entries": []}', "bad-shape", None)

    def test_zero_dimension(self):
        self.check('{"row_dims": [0], "col_dims": [2], "entries": []}', "bad-shape", 0)

    def test_boolean_dimension(self):
        self.check('{"row_dims": [true, 2], "col_dims": [2], "entries": []}', "bad-shape", 0)

    def test_entries_must_be_list(self):
        self.check('{"row_dims": [2], "col_dims": [2], "entries": "xx"}', "bad-entry", None)

    def test_entry_count_mismatch(self):
        doc = '{"row_dims": [2], "col_dims": [2], "entries": [[1,0],[0,0],[0,0]]}'
        self.check(doc, "length-mismatch", 3)

    def test_entry_pair_shape(self):
        doc = '{"row_dims": [1], "col_dims": [2], "entries": [[1,0],[1]]}'
        self.check(doc, "bad-entry", 1)

    def test_entry_pair_type(self):
        doc = '{"row_dims": [1], "col_dims": [2], "entries": [[1,0],[true,0]]}'
        self.check(doc, "bad-entry", 1)

    def test_format_refuses_non_finite_entry(self):
        # tensors are built finite, but a product can overflow
        a = as_tensor(np.diag([1.0, 1e200]), (2,), (2,))
        with np.errstate(over="ignore", invalid="ignore"):
            t = a @ a
        with pytest.raises(TensorFormatError) as info:
            format_tensor(t)
        assert info.value.code == "non-finite"
        assert info.value.index == 3
        assert str(info.value) == "non-finite at index 3: entry [inf, nan] is not finite"

    def test_non_finite_entry(self):
        doc = '{"row_dims": [1], "col_dims": [3], "entries": [[1,0],[0,0],[Infinity,0]]}'
        self.check(doc, "non-finite", 2)

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("index", [0, 2])
    def test_integer_beyond_double_range_is_non_finite(self, sign, index, tmp_path, capsys):
        # float() of such an integer raises OverflowError, which once escaped as a traceback
        pairs = ["[1,0]", "[0,1]", "[0,0]"]
        pairs[index] = f"[0.5,{sign}{HUGE}]"
        text = entries_doc(",".join(pairs))
        self.check(text, "non-finite", index)
        src = tmp_path / "huge.json"
        src.write_text(text)
        assert run_command(["trace", "--in", str(src)]) == 1
        assert f"non-finite at index {index}" in capsys.readouterr().err


    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_int_digit_limit_is_non_finite(self, sign, tmp_path, capsys):
        # json.loads cannot convert it and once let a plain ValueError escape
        # with neither code nor index
        text = entries_doc(f"[1,0],[0,1],[0.5,{sign}{LONG}]")
        assert orjson_route(text) is None
        with pytest.raises(TensorFormatError) as info:
            parse_tensor_file(text)
        assert str(info.value) == f"non-finite at index 2: entry [0.5, {sign}inf] is not finite"
        src = tmp_path / "long.json"
        src.write_text(text)
        assert run_command(["trace", "--in", str(src)]) == 1
        assert "non-finite at index 2" in capsys.readouterr().err

    def test_dimension_past_int_digit_limit_is_bad_shape(self, tmp_path, capsys):
        text = '{"row_dims": [2, %s], "col_dims": [2], "entries": []}' % LONG
        self.check(text, "bad-shape", 1)
        src = tmp_path / "long.json"
        src.write_text(text)
        assert run_command(["trace", "--in", str(src)]) == 1
        assert "bad-shape at index 1" in capsys.readouterr().err

    def test_malformed_json_after_a_long_integer(self):
        text = '{"row_dims": [%s] "col_dims"' % LONG
        self.check(text, "malformed-json", text.index('"col_dims"'))


def orjson_route(text: str | bytes) -> DenseTensor | None:
    """The tensor of parse_tensor_file's orjson route; None where it falls back to json."""
    import orjson

    try:
        return _tensor_of(orjson.loads(text))
    except (orjson.JSONDecodeError, TensorFormatError, RecursionError):
        return None


def json_values(text: str) -> np.ndarray:
    """The entries of a valid document as plain ``json`` and ``float()`` read them."""
    pairs = json.loads(text)["entries"]
    return np.array([complex(float(re), float(im)) for re, im in pairs])


def midpoint_strings(x: float) -> list[str]:
    """The exact decimal midpoint between ``x`` and the next double up, and it +-1 in the 40th digit."""
    with decimal.localcontext(decimal.Context(prec=2000)):
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        unit = decimal.Decimal(1).scaleb(mid.adjusted() - 39)
        return [str(mid), str(mid + unit), str(mid - unit)]


def doc_of(values: list[str]) -> str:
    """A 1xN tensor document whose entries are the given JSON numbers, paired with their negations."""
    pairs = ",".join(f"[{v},-{v}]" for v in values)
    return f'{{"row_dims": [1], "col_dims": [{len(values)}], "entries": [{pairs}]}}'


DEEP = 100_000


class TestOrjsonRoute:
    """The orjson route accepts exactly what it should, with json's values; json decides the rest."""

    def check_values(self, text: str) -> None:
        fast = orjson_route(text)
        assert fast is not None, "the orjson route refused a valid document"
        want = json_values(text)
        assert fast.entries.tobytes() == want.tobytes()
        assert parse_tensor_file(text).entries.tobytes() == want.tobytes()
        assert reference_parse(text).entries.tobytes() == want.tobytes()

    def check_error(self, text: str, code: str, index: int | None, message: str) -> None:
        with pytest.raises(TensorFormatError) as info:
            parse_tensor_file(text)
        assert (info.value.code, info.value.index, str(info.value)) == (code, index, message)

    def test_midpoints_between_doubles_round_like_json(self, rng):
        # exact ties round to even; one unit in the 40th digit decides them
        parts = rng.uniform(1, 2, 300) * 2.0 ** rng.integers(-1074, 1024, 300)
        special = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 0.1, 2.0**53, 1e308]
        values = [s for x in [*special, *parts.tolist()] for s in midpoint_strings(x)]
        self.check_values(doc_of(values))

    def test_random_17_digit_and_repr_numbers_round_like_json(self, rng):
        # uniform over the bit patterns of positive finite doubles, subnormals included
        x = rng.integers(1, 0x7FF0000000000000, 2000, dtype=np.uint64).view(np.float64).tolist()
        self.check_values(doc_of([f"{v:.17g}" for v in x] + [repr(v) for v in x]))

    def test_integers_past_64_bits_round_like_json(self, rng):
        # orjson reads an integer past 64 bits as a double, json as an int
        values = []
        for e in range(64, 71):
            mantissa = int(rng.integers(2**52, 2**53))
            ulp = 2 ** (e - 52)
            tie = mantissa * ulp + ulp // 2
            values += [str(2**e), str(2**e - 1), str(2**e + 1), str(tie), str(tie - 1), str(tie + 1)]
        largest = 2**1024 - 2**970  # ties to 2**1024, beyond double range
        values += [str(largest - 1), str(2**1023 + 1)]
        self.check_values(doc_of(values))

    @pytest.mark.parametrize("value", [str(2**1024), str(2**1024 - 2**970)])
    def test_integer_beyond_double_range_is_json_s_error(self, value):
        assert orjson_route(entries_doc(f"[1,0],[0,{value}],[0,0]")) is None
        self.check_error(
            entries_doc(f"[1,0],[0,{value}],[0,0]"),
            "non-finite", 1, "non-finite at index 1: entry has an integer beyond double range",
        )

    def test_a_64_bit_overflowing_dimension_is_a_length_mismatch(self):
        text = '{"row_dims": [%d], "col_dims": [1], "entries": [[1,0]]}' % 2**64
        assert orjson_route(text) is None
        self.check_error(
            text, "length-mismatch", 1,
            f"length-mismatch at index 1: shape {2**64}:1 needs {2**64} entries, got 1",
        )

    @pytest.mark.parametrize("note", [r'"\ud800"', '"\ud800"'])
    def test_a_lone_surrogate_in_an_extra_key_is_accepted(self, note):
        # orjson refuses it (escaped or raw), json reads it, and no check looks at the key
        text = '{"row_dims": [1], "col_dims": [1], "entries": [[1.5,-2]], "note": %s}' % note
        assert orjson_route(text) is None
        assert parse_tensor_file(text).entries.tolist() == [1.5 - 2j]

    def test_a_utf8_bom_is_json_s_error(self, tmp_path):
        text = "﻿" + entries_doc("[1,0],[0,1],[0,0]")
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(text)
        message = f"malformed-json at index 0: {ref.value.msg}"
        self.check_error(text, "malformed-json", 0, message)
        path = tmp_path / "bom.json"
        path.write_bytes(text.encode("utf-8"))
        self.check_error(path, "malformed-json", 0, message)

    def test_duplicate_keys_keep_the_last_value(self):
        text = (
            '{"row_dims": [2], "col_dims": [1], "entries": [[9,9],[9,9]], '
            '"row_dims": [1], "entries": [[0.25,-0.5]], "col_dims": [1]}'
        )
        self.check_values(text)
        assert parse_tensor_file(text).shape == ModeShape((1,), (1,))

    def test_a_long_integer_in_an_extra_key_is_accepted(self):
        # json reads it through the int-or-float hook; orjson refuses it as infinite
        text = '{"row_dims": [1], "col_dims": [1], "entries": [[1,2]], "note": %s}' % LONG
        assert orjson_route(text) is None
        assert parse_tensor_file(text).entries.tolist() == [1 + 2j]

    def test_deep_nesting_is_malformed_json(self, tmp_path, capsys):
        # json's decoder once let a RecursionError escape as a traceback
        text = '{"row_dims":[1],"col_dims":[1],"entries":' + "[" * DEEP + "]" * DEEP + "}"
        self.check_error(text, "malformed-json", None, "malformed-json: document nests too deeply to read")
        src = tmp_path / "deep.json"
        src.write_text(text)
        assert run_command(["trace", "--in", str(src)]) == 1
        assert capsys.readouterr().err == "error: malformed-json: document nests too deeply to read\n"

    def test_deep_nesting_under_an_unread_key_is_accepted(self):
        # orjson has no depth limit, and no check reads the key
        text = '{"row_dims":[1],"col_dims":[1],"entries":[[3,4]],"note":' + "[" * DEEP + "]" * DEEP + "}"
        assert parse_tensor_file(text).entries.tolist() == [3 + 4j]

    def test_a_file_is_read_as_text_mode_would_read_it(self, tmp_path):
        # the json route sees translated newlines, so error positions match a text-mode read
        path = tmp_path / "crlf.json"
        path.write_bytes(b'{"row_dims": [1],\r\n"col_dims": [1],\r\r\n"entries": [[1,0]\r\n')
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(path.read_text(encoding="utf-8"))
        self.check_error(path, "malformed-json", ref.value.pos, f"malformed-json at index {ref.value.pos}: {ref.value.msg}")
        path.write_bytes(b'{"row_dims": [1],\r\n"col_dims": [1],\r\n"entries": [[1.25,0]]}\r\n')
        assert parse_tensor_file(path).entries.tolist() == [1.25]

    def test_undecodable_bytes_raise_like_a_text_mode_read(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"row_dims": [1], "col_dims": [1], "entries": [[1,0]], "note": "\xe9"}')
        with pytest.raises(UnicodeDecodeError) as ref:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as got:
            parse_tensor_file(path)
        assert str(got.value) == str(ref.value)
        assert run_command(["trace", "--in", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {ref.value}\n"

    def test_the_tensor_owns_a_read_only_c_contiguous_matrix(self, rng):
        t = parse_tensor_file(format_tensor(awkward_tensor(rng, ModeShape((2, 3), (4,)))))
        assert t._mat.shape == (6, 4) and t._mat.dtype == np.complex128
        assert t._mat.flags.c_contiguous and not t._mat.flags.writeable

    def test_importing_the_package_does_not_load_orjson(self):
        code = (
            "import json, sys, tenrol; before = set(sys.modules); import tenrol.cli; imported = set(sys.modules); "
            "tenrol.cli.format_tensor(tenrol.identity((2,))); formatted = set(sys.modules); "
            "tenrol.cli.parse_tensor_file('{\"row_dims\": [1], \"col_dims\": [1], \"entries\": [[1,0]]}'); "
            "print(json.dumps({'added': sorted(imported - before - set(sys.builtin_module_names)), "
            "'by_format': sorted(formatted - imported), 'orjson': ['orjson' in m for m in (imported, formatted, sys.modules)]}))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["orjson"] == [False, True, True]
        # import tenrol.cli adds argparse's and json's modules and no other: a
        # module compiled into the interpreter (gc) reads no file, so it does
        # not count.  The writer's first use loads orjson and nothing beyond
        # what `import orjson` loads on its own.
        assert set(got["added"]) <= {
            "_json", "argparse", "gettext", "json", "json.decoder", "json.encoder", "json.scanner", "tenrol.cli",
        }
        own = subprocess.run(
            [sys.executable, "-c", "import json, sys; before = set(sys.modules); import orjson; "
             "print(json.dumps(sorted(set(sys.modules) - before)))"],
            capture_output=True, text=True, timeout=120,
        )
        assert own.returncode == 0, own.stderr
        assert "orjson" in got["by_format"]
        assert set(got["by_format"]) <= set(json.loads(own.stdout))

    def test_importing_the_package_does_not_load_dataclasses(self):
        code = "import sys, tenrol; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_tenrol_rol_loads_the_package_and_the_modules_of_what_it_uses(self, data_dir):
        code, by_rol = imported_modules(
            "-m", "tenrol.cli", "rol",
            "--a", str(data_dir / "rol_counterexample_a.json"), "--b", str(data_dir / "rol_counterexample_b.json"),
        )
        assert code == 3  # the law fails on the counterexample
        # what `python -m` loads, numpy, and argparse (parsing), json and orjson in use
        code, baseline = imported_modules(
            "-c", "import runpy, numpy, json, orjson, argparse; argparse.ArgumentParser().parse_args([])"
        )
        assert code == 0
        package = {"tenrol", "tenrol._jacobi_py", "tenrol.core", "tenrol.mpinv", "tenrol.rol", "tenrol.unfold"}
        # __future__ is what the modules' `from __future__ import annotations` loads
        assert by_rol - baseline == package | {"__future__"}

    @pytest.mark.parametrize("command", ["import", "trace", "pinv"])
    def test_loading_the_cli_or_running_trace_or_pinv_loads_neither_rol_nor_fuzz(self, command, data_dir, tmp_path):
        tensor = str(data_dir / "nonnormal_invertible.json")
        argv = {
            "import": ["-c", "import tenrol.cli"],
            "trace": ["-m", "tenrol.cli", "trace", "--in", tensor],
            "pinv": ["-m", "tenrol.cli", "pinv", "--in", tensor, "--out", str(tmp_path / "pinv.json")],
        }[command]
        code, names = imported_modules(*argv)
        assert code == 0
        assert {"tenrol", "tenrol.core", "tenrol.mpinv", "tenrol.unfold"} <= names
        assert not names & {"tenrol.rol", "tenrol.fuzz"}

    def test_tenrol_fuzz_loads_rol_and_fuzz(self):
        code, names = imported_modules("-m", "tenrol.cli", "fuzz", "--shape", "2x2:2x2", "--trials", "5")
        assert code == 0
        assert {"tenrol.rol", "tenrol.fuzz"} <= names


def imported_modules(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``python -X importtime *argv`` and the modules it loaded from files."""
    # -X importtime names every module a process imports; one compiled
    # into the interpreter (gc) reads no file, so it does not count
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, names - {"imported package"} - set(sys.builtin_module_names)


def parse_outcome(source) -> tuple:
    """What parse_tensor_file gives for ``source``: the tensor's shape and bytes, or its error's code, index and message."""
    try:
        t = parse_tensor_file(source)
    except TensorFormatError as exc:
        return ("error", exc.code, exc.index, str(exc))
    return ("tensor", t.shape, t.entries.tobytes())


def full_pass_outcome(source) -> tuple:
    """parse_outcome(source) with the type pass never skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tenrol.cli._scalars_are_numbers", lambda data: False)
        return parse_outcome(source)


# Valid documents with exactly the keys' six quote marks and no u or f: the skip applies to each.
SKIP_SEEDS = [
    '{"row_dims": [1], "col_dims": [2], "entries": [[1.5,-2],[0,3e2]]}',
    '{"row_dims":[1],"col_dims":[3],"entries":[[1,0],[-0.0,2E-3],[7,8]]}',
]
EDIT_CHARS = '[]{},:" 0123456789.eE+-tfuln'
edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 200), st.sampled_from(EDIT_CHARS)),
    min_size=1,
    max_size=2,
)


def edited(text: str, changes) -> str:
    """``text`` after each (kind, position, character) edit in turn; positions wrap around the text."""
    for kind, pos, char in changes:
        pos %= len(text) + (kind == "insert")
        text = text[:pos] + ("" if kind == "delete" else char) + text[pos + (kind != "insert"):]
    return text


# Documents that must take the full type pass; each parses to the 1x2 tensor [1, 2j].
FULL_PASS_DOCS = {
    "extra key holding true": '{"row_dims": [1], "col_dims": [2], "entries": [[1,0],[0,2]], "note": true}',
    "extra key holding null": '{"row_dims": [1], "col_dims": [2], "entries": [[1,0],[0,2]], "note": null}',
    "extra key holding a string": '{"row_dims": [1], "col_dims": [2], "entries": [[1,0],[0,2]], "note": "x"}',
    "escaped key": '{"row_dims": [1], "col_dims": [2], "entr\\u0069es": [[1,0],[0,2]]}',
}


class TestTypePassSkip:
    """Skipping the type pass where the raw text rules out strings, bools and null decides as the pass did."""

    @pytest.mark.parametrize("middle", ["[[1,2],0]", "[{},0]", "[[],0]", "[1,[2]]"])
    def test_a_list_or_object_in_a_pair_is_refused_as_before(self, middle, tmp_path):
        # np.fromiter meets it unchecked and refuses it; json then names it
        text = entries_doc(f"[1,0],{middle},[0,0]")
        assert _scalars_are_numbers(text)
        with pytest.raises(TensorFormatError) as ref:
            reference_parse(text)
        path = tmp_path / "nested.json"
        path.write_text(text)
        for source in (text, path):
            assert parse_outcome(source) == ("error", ref.value.code, ref.value.index, str(ref.value))

    @pytest.mark.parametrize("name", FULL_PASS_DOCS)
    def test_documents_that_may_hold_non_numbers_take_the_full_pass(self, name, tmp_path):
        text = FULL_PASS_DOCS[name]
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert not _scalars_are_numbers(text) and not _scalars_are_numbers(path.read_bytes())
        for source in (text, path):
            assert parse_outcome(source) == ("tensor", ModeShape((1,), (2,)), np.array([1, 2j]).tobytes())

    @pytest.mark.parametrize(
        "entries", ["[1,0],[true,0],[0,0]", "[1,0],[0,false],[0,0]", "[1,0],[null,0],[0,0]", '[1,0],["1.5",0],[0,0]']
    )
    def test_a_bool_null_or_string_entry_keeps_the_type_pass(self, entries, monkeypatch):
        # test_errors_match_reference checks that these documents are refused as before
        text = entries_doc(entries)
        assert not _scalars_are_numbers(text) and not _scalars_are_numbers(text.encode())
        # the hazard the check guards: with the pass skipped, np.fromiter would read
        # true as 1.0 and "1.5" as 1.5 (null it refuses)
        monkeypatch.setattr("tenrol.cli._scalars_are_numbers", lambda data: True)
        assert parse_outcome(text)[0] == ("error" if "null" in entries else "tensor")

    def test_the_skip_applies_to_written_documents_and_the_fixtures(self, rng, data_dir):
        for dims in (((1,), (1,)), ((2, 3), (4,)), ((16,), (16, 4))):
            t = awkward_tensor(rng, ModeShape(*dims))
            doc = {"row_dims": list(dims[0]), "col_dims": list(dims[1]),
                   "entries": t.entries.view(np.float64).reshape(-1, 2).tolist()}
            for text in (format_tensor(t), json.dumps(doc), json.dumps(doc, indent=1)):
                assert _scalars_are_numbers(text) and _scalars_are_numbers(text.encode())
                assert parse_tensor_file(text).entries.tobytes() == t.entries.tobytes()
        fixtures = sorted(p for p in data_dir.glob("*.json") if not p.name.endswith(".report.json"))
        assert len(fixtures) == 4
        for path in fixtures:
            assert _scalars_are_numbers(path.read_bytes()), path.name

    @given(st.sampled_from(SKIP_SEEDS), edits)
    @settings(max_examples=400, deadline=None)
    def test_edited_documents_parse_as_with_the_full_pass(self, seed, changes):
        text = edited(seed, changes)
        assert parse_outcome(text) == full_pass_outcome(text)


class TestGcPause:
    """parse_tensor_file keeps the cyclic GC off while a document is alive, and leaves the caller's state."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_a_parse_leaves_the_state(self, gc_state, data_dir):
        parse_tensor_file(data_dir / "identity_2x2.json")
        assert gc.isenabled() is gc_state

    def test_a_format_error_leaves_the_state(self, gc_state):
        with pytest.raises(TensorFormatError):
            parse_tensor_file(entries_doc("[1,0],[true,0],[0,0]"))
        assert gc.isenabled() is gc_state

    def test_an_undecodable_file_leaves_the_state(self, gc_state, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b'{"row_dims": [1], "col_dims": [1], "entries": [[1, 0]], "x": "\xff"}')
        with pytest.raises(UnicodeDecodeError):
            parse_tensor_file(path)
        assert gc.isenabled() is gc_state

    def test_an_os_error_leaves_the_state(self, gc_state, tmp_path):
        with pytest.raises(OSError):
            parse_tensor_file(tmp_path / "missing.json")
        assert gc.isenabled() is gc_state

    def test_the_gc_is_off_while_either_reader_runs(self, gc_state, monkeypatch):
        import orjson

        seen = []

        def watched(loads):
            def call(*args, **kwargs):
                seen.append(gc.isenabled())
                return loads(*args, **kwargs)
            return call

        monkeypatch.setattr(orjson, "loads", watched(orjson.loads))
        monkeypatch.setattr(json, "loads", watched(json.loads))
        parse_tensor_file(entries_doc("[1,0],[0,0],[0,1]"))
        # orjson refuses a lone surrogate, so json reads this one
        parse_tensor_file('{"x": "\\ud800", "row_dims": [1], "col_dims": [1], "entries": [[1, 0]]}')
        assert seen == [False, False, False]
        assert gc.isenabled() is gc_state


class TestCommands:
    def test_trace_of_identity(self, data_dir, capsys):
        code = run_command(["trace", "--in", str(data_dir / "identity_2x2.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4 0"

    def test_product_with_identity_is_identity_map(self, data_dir, tmp_path, capsys):
        out = tmp_path / "prod.json"
        code = run_command([
            "product",
            "--a", str(data_dir / "nonnormal_invertible.json"),
            "--b", str(data_dir / "identity_2x2.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert np.array_equal(parse_tensor_file(out).array, golden.golden_a().array)

    def test_pinv_of_golden_tensor(self, data_dir, tmp_path):
        out = tmp_path / "x.json"
        code = run_command([
            "pinv", "--in", str(data_dir / "nonnormal_invertible.json"), "--out", str(out),
        ])
        assert code == 0
        x = parse_tensor_file(out)
        assert_allclose(x.array, golden.golden_pinv().array, atol=1e-12)
        prod = golden.golden_a() @ x
        assert_allclose(prod.array, identity((2, 2)).array, atol=1e-10)

    def test_pinv_rank_tol_flag(self, tmp_path):
        src = tmp_path / "d.json"
        out = tmp_path / "x.json"
        write_tensor_file(src, diagonal_from((2,), (2,), [1.0, 0.5]))
        code = run_command(["pinv", "--in", str(src), "--out", str(out), "--rank-tol", "0.6"])
        assert code == 0
        assert_allclose(parse_tensor_file(out).array, np.diag([1.0, 0.0]), atol=1e-13)

    def test_svd_factors_reconstruct(self, data_dir, tmp_path):
        paths = {k: tmp_path / f"{k}.json" for k in ("u", "d", "v")}
        code = run_command([
            "svd", "--in", str(data_dir / "nonnormal_invertible.json"),
            "--out-u", str(paths["u"]), "--out-d", str(paths["d"]), "--out-v", str(paths["v"]),
        ])
        assert code == 0
        u = parse_tensor_file(paths["u"])
        d = parse_tensor_file(paths["d"])
        v = parse_tensor_file(paths["v"])
        from tenrol import conj_transpose
        recon = u @ d @ conj_transpose(v)
        assert_allclose(recon.array, golden.golden_a().array, atol=1e-12)

    def test_solve_identity_system(self, data_dir, tmp_path, rng):
        b = golden.random_tensor(rng, golden.SQ22)
        bpath = tmp_path / "b.json"
        out = tmp_path / "x.json"
        write_tensor_file(bpath, b)
        code = run_command([
            "solve", "--a", str(data_dir / "identity_2x2.json"),
            "--b", str(bpath), "--out", str(out),
        ])
        assert code == 0
        assert_allclose(parse_tensor_file(out).array, b.array, atol=1e-12)

    def test_rol_identity_pair_holds(self, data_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_command([
            "rol", "--a", str(data_dir / "identity_2x2.json"),
            "--b", str(data_dir / "nonnormal_invertible.json"),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "reverse-order law holds" in out
        assert "direct" in out and "commute" in out
        doc = json.loads(report_path.read_text())
        assert set(doc) == {
            "tol", "residuals", "booleans", "groups",
            "holds", "consistent", "implication_ok",
        }
        assert doc["holds"] and doc["consistent"] and doc["implication_ok"]
        assert set(doc["groups"]) == {"direct", "absorb", "hermitian", "paired", "factor"}

    def test_rol_counterexample_exits_three(self, data_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_command([
            "rol", "--a", str(data_dir / "rol_counterexample_a.json"),
            "--b", str(data_dir / "rol_counterexample_b.json"),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 3
        assert "does not hold" in out
        doc = json.loads(report_path.read_text())
        assert not doc["holds"]
        assert doc["consistent"] and doc["implication_ok"]
        assert doc["booleans"]["commute"] is True
        assert doc["residuals"]["direct"] >= 0.1

    @pytest.mark.parametrize(
        "scale, ok, fail",
        [
            (2.0**100, "direct", "absorb, hermitian, paired, factor"),
            (2.0**-100, "absorb, hermitian, paired, factor", "direct"),
        ],
        ids=["2**100", "2**-100"],
    )
    def test_rol_inconsistent_report_gives_no_verdict(self, scale, ok, fail, data_dir, tmp_path, capsys):
        # the scaled counterexample's groups split at the default tol; it once
        # printed "reverse-order law holds" and exited 0 at 2**100
        paths = []
        for side in "ab":
            t = parse_tensor_file(data_dir / f"rol_counterexample_{side}.json")
            paths.append(tmp_path / f"{side}.json")
            write_tensor_file(paths[-1], DenseTensor(t.shape, scale * t.entries))
        report_path = tmp_path / "report.json"
        code = run_command(["rol", "--a", str(paths[0]), "--b", str(paths[1]), "--report", str(report_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 5
        assert len(lines) == 10  # nine residual lines, then no verdict
        assert lines[-1] == f"characterization groups disagree (tol 1e-10): {ok} ok; {fail} fail"
        assert json.loads(report_path.read_text())["consistent"] is False

    def test_rol_tol_flag_loosens_the_verdict(self, data_dir, capsys):
        code = run_command([
            "rol", "--a", str(data_dir / "rol_counterexample_a.json"),
            "--b", str(data_dir / "rol_counterexample_b.json"),
            "--tol", "0.9",
        ])
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_fuzz_clean_run(self, capsys):
        code = run_command(["fuzz", "--shape", "2x2:2x2", "--trials", "25", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials 25" in out
        assert "no equivalence violations" in out
        assert "dense=" in out

    def test_identities_square_input(self, data_dir, capsys):
        code = run_command(["identities", "--in", str(data_dir / "nonnormal_invertible.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "star_via_pinv_left" in out
        normal_line = next(l for l in out.splitlines() if l.startswith("normal"))
        ep_line = next(l for l in out.splitlines() if l.startswith("ep"))
        assert "False" in normal_line
        assert "True" in ep_line

    def test_identities_rectangular_has_no_flags(self, tmp_path, capsys):
        src = tmp_path / "r.json"
        write_tensor_file(src, diagonal_from((2,), (3,), [1.0, 2.0]))
        code = run_command(["identities", "--in", str(src)])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a" in out


class TestExitCodes:
    def test_usage_errors(self):
        assert run_command([]) == 2
        assert run_command(["nonsense"]) == 2
        assert run_command(["pinv"]) == 2
        assert run_command(["fuzz", "--shape", "junk", "--trials", "5"]) == 2
        assert run_command(["fuzz", "--shape", "2:2", "--trials", "0"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "x"], "argument --trials: must be an integer >= 1, got 'x'"),
            (["--trials", "0"], "argument --trials: must be an integer >= 1, got '0'"),
            (["--shape", "2xq:2"], "argument --shape: shape must look like ROWSxROWS:COLSxCOLS, got '2xq:2'"),
            (["--shape", "2x0:2"], "argument --shape: shape must look like ROWSxROWS:COLSxCOLS, got '2x0:2'"),
            (["--shape", "2x2"], "argument --shape: shape must look like ROWSxROWS:COLSxCOLS, got '2x2'"),
        ],
    )
    def test_fuzz_usage_error_prints_the_requirement(self, argv, message):
        # argparse once printed "invalid _positive_int value" and the like
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_command(["fuzz", "--shape", "2x2:2x2", "--trials", "5", *argv]) == 2
        assert err.getvalue().startswith("usage: tenrol fuzz")
        assert err.getvalue().endswith(f"tenrol fuzz: error: {message}\n")
        assert "_" not in err.getvalue().splitlines()[-1]

    @pytest.mark.parametrize("value", ["0", "nan", "2", "-0.5", "inf", "1", "abc"])
    def test_tolerance_outside_open_unit_interval_is_usage_error(self, data_dir, tmp_path, value):
        out = tmp_path / "out.json"
        commands = [
            ["rol", "--a", str(data_dir / "rol_counterexample_a.json"),
             "--b", str(data_dir / "rol_counterexample_b.json"), "--tol", value],
            ["pinv", "--in", str(data_dir / "identity_2x2.json"), "--out", str(out),
             "--rank-tol", value],
        ]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_command(argv) == 2
            assert err.getvalue().startswith(f"usage: tenrol {argv[0]}")
            assert err.getvalue().endswith(f"must lie in (0, 1), got {value!r}\n")
        assert not out.exists()

    def test_tolerance_inside_open_unit_interval_is_accepted(self, data_dir, tmp_path, capsys):
        pair = ["--a", str(data_dir / "rol_counterexample_a.json"),
                "--b", str(data_dir / "rol_counterexample_b.json")]
        assert run_command(["rol", *pair, "--tol", "1e-300"]) == 3
        assert "(tol 1e-300)" in capsys.readouterr().out
        out = tmp_path / "out.json"
        src = str(data_dir / "identity_2x2.json")
        assert run_command(["pinv", "--in", src, "--out", str(out), "--rank-tol", "0.999"]) == 0
        assert np.array_equal(parse_tensor_file(out).array, parse_tensor_file(src).array)

    def test_unreadable_input_is_io_error(self, tmp_path, capsys):
        # A directory path exists but cannot be read as a file.
        code = run_command(["trace", "--in", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        # a CLI path is never read as JSON text, so this is not malformed-json
        missing = tmp_path / "no_such_file.json"
        code = run_command(["trace", "--in", str(missing)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "no_such_file.json" in err
        assert "malformed-json" not in err

    def test_shape_mismatch_is_input_error(self, data_dir, tmp_path, capsys):
        src = tmp_path / "r.json"
        write_tensor_file(src, zeros((2,), (3,)))
        assert run_command(["trace", "--in", str(src)]) == 1
        code = run_command([
            "product", "--a", str(src), "--b", str(src), "--out", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_document_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text('{"row_dims": [2], "col_dims": [2], "entries": [[1,0]]}')
        assert run_command(["trace", "--in", str(src)]) == 1
        assert "length-mismatch" in capsys.readouterr().err

    def test_svd_non_convergence_maps_to_four(self, data_dir, monkeypatch, tmp_path, capsys):
        import tenrol.cli as cli_mod

        def explode(*args, **kwargs):
            raise SvdConvergenceError(30)

        monkeypatch.setattr(cli_mod, "pinv", explode)
        code = run_command([
            "pinv", "--in", str(data_dir / "identity_2x2.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_product_overflow_is_input_error_and_writes_nothing(self, tmp_path, capsys):
        # inf and nan are not JSON: the file once held [inf,nan] and exit was 0
        src = tmp_path / "big.json"
        write_tensor_file(src, as_tensor(np.full((2, 2), 1e200), (2,), (2,)))
        out = tmp_path / "o.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_command(["product", "--a", str(src), "--b", str(src), "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_rol_overflow_is_input_error_not_non_convergence(self, tmp_path, capsys):
        # a @ b overflows; the infinite product once ran to the sweep cap and exited 4
        rng = np.random.default_rng(5)
        src = tmp_path / "big.json"
        write_tensor_file(src, as_tensor(1e200 * rng.standard_normal((2, 2, 2, 2)), (2, 2), (2, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_command(["rol", "--a", str(src), "--b", str(src)])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite entry" in err
        assert "a @ b" in err
        assert "did not converge" not in err

    def test_rol_residual_overflow_is_input_error(self, tmp_path, capsys):
        # a @ b is finite; NaN residuals once printed "fail", exited 0 and wrote NaN to the report
        rng = np.random.default_rng(3)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            big = 1e120 * (rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4))
            write_tensor_file(path, as_tensor(big, (2, 2), (2, 2)))
        report_path = tmp_path / "report.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_command([
                "rol", "--a", str(paths[0]), "--b", str(paths[1]), "--report", str(report_path),
            ])
        assert code == 1
        captured = capsys.readouterr()
        assert "non-finite residual in absorb_left" in captured.err
        assert "holds" not in captured.out
        assert not report_path.exists()

    def test_main_is_run_command(self, data_dir, capsys):
        assert main(["trace", "--in", str(data_dir / "identity_2x2.json")]) == 0
        capsys.readouterr()


class TestParserReuse:
    """``run_command`` builds its argparse tree once per process."""

    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_consecutive_calls_are_independent(self, data_dir, capsys):
        pair = ["--a", str(data_dir / "rol_counterexample_a.json"),
                "--b", str(data_dir / "rol_counterexample_b.json")]
        assert run_command(["rol", *pair, "--tol", "0.9"]) == 0
        assert "(tol 0.9)" in capsys.readouterr().out
        # no --tol this time: the default, not the last call's value
        assert run_command(["rol", *pair]) == 3
        assert "(tol 1e-10)" in capsys.readouterr().out
        assert run_command(["trace", "--in", str(data_dir / "identity_2x2.json")]) == 0
        assert capsys.readouterr().out == "4 0\n"

    def test_usage_error_prints_to_the_current_stderr(self):
        for _ in range(2):  # the cached parser looks stderr up at each call
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_command(["pinv"]) == 2
            assert err.getvalue().startswith("usage: tenrol pinv")
            assert "--in" in err.getvalue()

    @pytest.mark.parametrize(
        "name, a, b",
        [
            ("rol_identity_pair", "identity_2x2.json", "nonnormal_invertible.json"),
            ("rol_counterexample", "rol_counterexample_a.json", "rol_counterexample_b.json"),
        ],
    )
    def test_rol_output_is_byte_identical(self, name, a, b, data_dir, tmp_path, capsys):
        # the .stdout and .report.json files were written by the code before
        # the parser was cached
        for call in range(2):
            report = tmp_path / f"{call}.json"
            run_command(["rol", "--a", str(data_dir / a), "--b", str(data_dir / b), "--report", str(report)])
            assert capsys.readouterr().out == (data_dir / f"{name}.stdout").read_text(encoding="utf-8")
            assert report.read_bytes() == (data_dir / f"{name}.report.json").read_bytes()

    def test_identities_overflow_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        src = tmp_path / "big.json"
        write_tensor_file(src, as_tensor(1e120 * q, (2, 2), (2, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_command(["identities", "--in", str(src)]) == 1
        captured = capsys.readouterr()
        assert "non-finite residual in normal" in captured.err
        assert captured.out == ""


class TestModuleEntry:
    def test_python_dash_m_invocation(self, data_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "tenrol", "trace", "--in", str(data_dir / "identity_2x2.json")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "4 0"


class TestExitPaths:
    """Exit codes reached by running the real code path, nothing raised by hand."""

    def test_pinv_at_the_sweep_cap_exits_four(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(4)
        src, out = tmp_path / "g.json", tmp_path / "x.json"
        write_tensor_file(src, as_tensor(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (2, 2), (2, 2)))
        monkeypatch.setattr(unfold_mod, "MAX_SWEEPS", 1)
        assert run_command(["pinv", "--in", str(src), "--out", str(out)]) == 4
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_fuzz_violations_exit_three_and_name_the_first_trial(self, monkeypatch, capsys):
        per_pair = golden.fuzz_trial_reports(golden.SQ22, 72, 3)
        golden.force_violations(monkeypatch, [r for _, r in per_pair], [9, 40, 70])
        code = run_command(["fuzz", "--shape", "2x2:2x2", "--trials", "72", "--seed", "3"])
        assert code == 3
        assert capsys.readouterr().out.splitlines()[-1] == "equivalence violations: 3 (first at trial 9)"

    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_seed_must_be_a_nonnegative_integer(self, value):
        # a negative seed once reached numpy and exited 1
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_command(["fuzz", "--shape", "2x2:2x2", "--trials", "5", "--seed", value]) == 2
        assert err.getvalue().endswith(f"tenrol fuzz: error: argument --seed: must be an integer >= 0, got {value!r}\n")

    def test_seed_zero_is_accepted(self, capsys):
        assert run_command(["fuzz", "--shape", "2x2:2x2", "--trials", "5", "--seed", "0"]) == 0
        assert "no equivalence violations" in capsys.readouterr().out
