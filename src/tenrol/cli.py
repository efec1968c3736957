"""Command-line front end and the on-disk tensor format.

Tensors travel as JSON documents::

    {"row_dims": [2, 2], "col_dims": [2], "entries": [[re, im], ...]}

with entries in the package-wide row-major order (row tuple before column
tuple, last index varying fastest) and numbers written with 17 significant
digits so a write-then-read round trip is value-exact.  A document that
fails to parse is reported at its first offending entry; an integer beyond
double range is ``non-finite``.

Documents are parsed with orjson.  One that orjson refuses, or that fails
a check, is parsed again with the standard ``json`` module, and that route
alone builds the error, so codes, indices and messages are ``json``'s.
orjson has no nesting limit: a document nested deeper than ``json`` can
read is accepted when the deep part sits under a key that is not read,
and is otherwise ``malformed-json``.  From the parse until the parsed
document is released the cyclic garbage collector is off, as the
document's lists hold no cycle for it to find; it comes back on only if
it was on, also when the parse fails.

Numbers are written as ``'%.17g' %`` writes them, byte for byte, except
that negative zero is ``-0.0``, but from numpy arrays instead of one
Python float per value.  A double-double product with a correctly
rounded ``2**e * 10**(16 - X)``, computed with Python ints and cached
per binary exponent e, gives each value's 17-digit integer and decimal
exponent X; digits, sign, point and exponent are laid out in a uint8
buffer, whose padding is then dropped.  A value within the product's
error bound of a tie in its 17th digit, such as ``2**-25``, is formatted
on its own with ``format(x, '.17g')``.  At 65,536 entries the writer
takes 0.31 of the time of the ``%`` route and the parse 0.67 of its
former time (``BENCH_15.json``); a 4-entry tensor takes about 0.2 ms to
write, against 0.02 ms before.

Exit codes: 0 success, 1 I/O or input error (including a missing input
file and a non-finite intermediate, such as a product or a ``rol``
residual that overflows), 2 usage error, 3 a checked law does not hold
(``rol``) or a fuzz run saw an equivalence violation, 4 SVD
non-convergence.  Command-line paths are always read as files; the
library's :func:`parse_tensor_file` also takes raw JSON text.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from .core import DEFAULT_POLICY, DenseTensor, ModeShape, NumericPolicy, trace
from .mpinv import identity_suite, min_norm_solve, pinv, tsvd
from .rol import fuzz_search, rol_report
from .unfold import SvdConvergenceError

__all__ = [
    "TensorFormatError",
    "parse_tensor_file",
    "format_tensor",
    "write_tensor_file",
    "run_command",
    "main",
]


class TensorFormatError(ValueError):
    """A tensor document failed to parse, or a tensor cannot be written as one.

    ``code`` is one of ``malformed-json``, ``bad-shape``, ``bad-entry``,
    ``length-mismatch`` or ``non-finite``; ``index`` locates the
    offending entry (or dimension) when one exists.
    """

    def __init__(self, code: str, index: int | None, message: str):
        self.code = code
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"{code}{where}: {message}")


def _fmt17(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    s = format(float(x), ".17g")
    # "-0" would come back through JSON as the integer 0, dropping the sign.
    return "-0.0" if s == "-0" else s


def _is_dim(d: Any) -> bool:
    # bool, a subclass of int, is excluded
    return isinstance(d, int) and not isinstance(d, bool) and d >= 1


def _dims_from(doc: dict, key: str) -> tuple[int, ...]:
    value = doc.get(key)
    if not isinstance(value, list):
        raise TensorFormatError("bad-shape", None, f"{key} must be a list of positive integers")
    for i, d in enumerate(value):
        if not _is_dim(d):
            raise TensorFormatError("bad-shape", i, f"{key}[{i}] must be a positive integer")
    return tuple(value)


# JSON numbers load as exactly these types; bool, a subclass of int, is excluded.
_NUMBER_TYPES = {int, float}
_scalars = itertools.chain.from_iterable


def _entry_error(entries: list) -> TensorFormatError:
    """The error naming the first entry that is not a finite [re, im] number pair."""
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2 or not set(map(type, pair)) <= _NUMBER_TYPES:
            return TensorFormatError("bad-entry", i, f"entry must be a [re, im] number pair, got {pair!r}")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            return TensorFormatError("non-finite", i, "entry has an integer beyond double range")
        if not (math.isfinite(re) and math.isfinite(im)):
            return TensorFormatError("non-finite", i, f"entry [{re!r}, {im!r}] is not finite")


def _tensor_of(doc: Any) -> DenseTensor | None:
    """The tensor that ``doc`` describes, or None if ``doc`` fails any check.

    One C-level pass per entry check; :func:`_refuse` names the failure.
    """
    if not isinstance(doc, dict):
        return None
    row_dims, col_dims, entries = doc.get("row_dims"), doc.get("col_dims"), doc.get("entries")
    if not all(isinstance(dims, list) and all(map(_is_dim, dims)) for dims in (row_dims, col_dims)):
        return None
    shape = ModeShape(tuple(row_dims), tuple(col_dims))
    if not isinstance(entries, list) or len(entries) != shape.row_count * shape.col_count:
        return None
    try:
        if set(map(len, entries)) != {2} or not set(map(type, _scalars(entries))) <= _NUMBER_TYPES:
            return None
        pairs = np.fromiter(_scalars(entries), np.float64, 2 * len(entries))
    except (TypeError, OverflowError):
        return None
    if not np.isfinite(pairs).all():
        return None
    # pairs is fresh and finite, so it is wrapped without DenseTensor's checked copy
    return DenseTensor._from_owned(shape, pairs.view(np.complex128).reshape(shape.row_count, shape.col_count))


def _refuse(doc: Any) -> NoReturn:
    """Raise the error naming the first check that ``doc``, refused by :func:`_tensor_of`, fails."""
    if not isinstance(doc, dict):
        raise TensorFormatError("malformed-json", None, "top level must be an object")
    shape = ModeShape(_dims_from(doc, "row_dims"), _dims_from(doc, "col_dims"))
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise TensorFormatError("bad-entry", None, "entries must be a list of [re, im] pairs")
    expected = shape.row_count * shape.col_count
    if len(entries) != expected:
        raise TensorFormatError(
            "length-mismatch",
            len(entries),
            f"shape {shape} needs {expected} entries, got {len(entries)}",
        )
    raise _entry_error(entries)


def _int_or_float(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        # past int()'s digit limit, so far beyond double range: +-inf
        return float(text)


def _json_document(text: str) -> Any:
    """``json.loads(text)``; a text it cannot read is ``malformed-json``."""
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # only int()'s digit limit raises a plain ValueError; the hook stays
            # off the first pass, where it would double the cost of integers
            return json.loads(text, parse_int=_int_or_float)
    except json.JSONDecodeError as exc:
        raise TensorFormatError("malformed-json", exc.pos, exc.msg) from exc
    except RecursionError:
        # the json decoder recurses once per nesting level
        raise TensorFormatError("malformed-json", None, "document nests too deeply to read") from None


def parse_tensor_file(source: str | os.PathLike) -> DenseTensor:
    """Parse a tensor document from a file path or raw JSON text.

    The document is parsed with orjson.  If orjson refuses it or it fails
    any check, it is parsed again with the standard ``json`` module, which
    decides the outcome and builds the error.

    Raises
    ------
    TensorFormatError
        With a distinct ``code`` and offending ``index`` for malformed
        JSON, bad shape fields, malformed entry pairs, an entry-count
        mismatch, or non-finite numbers (an integer beyond double range
        included); the index is that of the first offending entry.  An
        integer too long for ``int()`` is ``non-finite`` as an entry and
        ``bad-shape`` as a dimension.  A document nested too deeply for
        ``json`` is ``malformed-json`` with no index, unless orjson
        accepts it: orjson has no depth limit, so deep nesting under a
        key that is not read does not stop a document from parsing.
    OSError
        If ``source`` is a path that cannot be read.
    """
    if isinstance(source, os.PathLike) or os.path.exists(source):
        data = Path(source).read_bytes()
    else:
        data = str(source)
    # A parsed document holds one list per entry.  Cyclic-GC passes set off
    # by allocating them would scan them all and find no cycle, so the
    # collector stays off until the document is released, and comes back
    # on only if it was on.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_document(data)
    finally:
        if enabled:
            gc.enable()


def _read_document(data: bytes | str) -> DenseTensor:
    """The tensor that the document ``data`` describes, as :func:`parse_tensor_file` states."""
    # imported here: orjson's own import (uuid, zoneinfo) would add a few
    # milliseconds to every `import tenrol.cli`
    import orjson

    try:
        tensor = _tensor_of(orjson.loads(data))
    except orjson.JSONDecodeError:
        tensor = None
    if tensor is None:
        # json gets the file's text as a text-mode read gives it: newlines
        # translated, and undecodable bytes a UnicodeDecodeError
        text = data if isinstance(data, str) else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        doc = _json_document(text)
        tensor = _tensor_of(doc)
        if tensor is None:
            _refuse(doc)
    return tensor


# The 17-digit writer.  '%.17g' of a finite nonzero double x is the integer
# N = round(|x| * 10**(16 - X)), 10**16 <= N < 10**17, where X is the
# decimal exponent of x rounded to 17 digits, laid out by %g's rules:
# fixed notation for -4 <= X <= 16, else d.ddd...e+XX, with trailing zeros
# of the fraction stripped.  The writer computes N and X with float64
# arrays and lays out the text in a uint8 buffer; it makes no Python float.

_BINADE_MIN = -1073  # the np.frexp exponent of the smallest subnormal, 2**-1074
_BINADES = 1024 - _BINADE_MIN + 1
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# p + r below is |value| * 10**(16 - X) to within 2**-47 (see _entries_text)
_TIE_MARGIN = 2.0**-44
_CHUNK = 16384  # doubles (whole entries) per writer pass, which bounds its scratch memory


def _exact(e: int, k: int) -> tuple[int, int]:
    """``2**e * 10**k`` as a fraction of two ints."""
    num, den = 1, 1
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    if k >= 0:
        num *= 10**k
    else:
        den *= 10**-k
    return num, den


def _double_double(num: int, den: int) -> tuple[float, float, float, float]:
    """``num / den`` as hi + lo, each correctly rounded, preceded by hi's Veltkamp halves."""
    hi = num / den  # int true division rounds correctly
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    s = hi * _VELTKAMP
    h1 = s - (s - hi)
    return h1, hi - h1, hi, lo


def _binade(e: int) -> tuple[float, int, tuple, tuple]:
    """The writer's constants for the doubles in ``[2**(e-1), 2**e)``.

    Such a double has decimal exponent X = x0 = floor(log10(2**(e-1)))
    below the returned threshold and x0 + 1 from it on: the threshold is
    the least double above (10**17 - 1/2) * 10**(x0 - 16), from which the
    17 digits round up to 10**17 (the bound is never a double, so there
    is no tie at it), or inf if the binade ends first.  Then come
    ``2**e * 10**(16 - X)`` for both X, as :func:`_double_double` gives
    them.
    """
    # no power of two above 1 is a power of ten, so the digit count is exact
    x0 = len(str(1 << (e - 1))) - 1 if e >= 1 else -len(str(1 << (1 - e)))
    num, den = _exact(-1, x0 - 16)
    num *= 2 * 10**17 - 1
    top_num, top_den = _exact(e, 0)
    threshold = math.inf
    if num * top_den < den * top_num:
        threshold = num / den
        a, b = threshold.as_integer_ratio()
        if a * den < num * b:
            threshold = math.nextafter(threshold, math.inf)
    return threshold, x0, _double_double(*_exact(e, 16 - x0)), _double_double(*_exact(e, 15 - x0))


def _words(texts: Sequence[bytes]) -> np.ndarray:
    """Each text, NUL-padded to 8 bytes, as a little-endian uint64: byte k is text[k]."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), "<u8")


class _WriterTables:
    """The writer's lookup tables; a binade's row is computed on its first use.

    A number's text is laid out in four little-endian words, NUL where
    nothing is written:

    0. the separator before it, its sign, a "0.000" prefix (-4 <= X <= -1)
       and the first digit;
    1. and 2. the other 16 digits with the point inserted, which pushes
       one digit into
    3. whose next bytes hold the exponent ("e+17") and the separators
       after the number.
    """

    def __init__(self) -> None:
        self.known = np.zeros(_BINADES, bool)
        self.threshold = np.full(_BINADES, np.inf)
        # row 2 * binade + up is for X = x0 + up
        self.exponent = np.zeros(2 * _BINADES, np.int64)
        self.scale = np.zeros((2 * _BINADES, 4))
        digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
        self.quads = digits.astype(np.uint8).view("<u4").reshape(-1)  # "0000" to "9999"
        ones = [b"\xff" * j for j in range(9)]
        self.keep = _words(ones)  # the first j bytes
        # the point goes before tail digit p (p = 16: no point)
        self.below0 = _words([ones[min(p, 8)] for p in range(17)])
        self.below1 = _words([ones[min(max(p - 8, 0), 8)] if p < 16 else ones[8] for p in range(17)])
        self.point0 = _words([b"\0" * p + b"." if p < 8 else b"" for p in range(17)])
        self.point1 = _words([b"\0" * (p - 8) + b"." if 8 <= p < 16 else b"" for p in range(17)])
        self.prefix = _words([b"\0\0" + b"0.000"[:n] for n in range(6)])  # n = 1 is unused
        self.exponent_text = _words([b"" if -4 <= x <= 16 else b"\0e%+03d" % x for x in range(-324, 309)])
        self.before = _words([b"[", b""])  # real part, imaginary part
        self.after = _words([b"\0" * 6 + b",", b"\0" * 6 + b"],"])

    def fill(self, binades: np.ndarray) -> None:
        """Compute the rows of the binades in ``binades`` not yet known."""
        missing = np.zeros(_BINADES, bool)
        missing[binades] = True
        for b in np.flatnonzero(missing & ~self.known).tolist():
            threshold, x0, at_x0, at_x1 = _binade(b + _BINADE_MIN)
            self.threshold[b] = threshold
            self.exponent[2 * b : 2 * b + 2] = x0, x0 + 1
            self.scale[2 * b : 2 * b + 2] = at_x0, at_x1
            self.known[b] = True


@functools.cache
def _writer_tables() -> _WriterTables:
    return _WriterTables()


def _significant_bytes(z: np.ndarray) -> np.ndarray:
    """Bytes up to the last nonzero byte of each word ``z``, whose bytes are at most 9.

    A byte of at most 9 sets only its low four bits, so the float
    conversion, which can round z up to the next power of two, does not
    carry into the next byte.
    """
    return (np.frexp(z.astype(np.float64))[1] + 7) >> 3


def _entries_text(values: np.ndarray, tables: _WriterTables) -> bytes:
    """``[re,im],`` for each pair of finite ``values``, as '%.17g' writes the numbers."""
    a = np.abs(values)
    f, e = np.frexp(a)
    binade = e - _BINADE_MIN
    tables.fill(binade)
    row = 2 * binade + (a >= tables.threshold.take(binade))
    exp10 = tables.exponent.take(row)  # X
    h1, h2, hi, lo = tables.scale.take(row, axis=0).T
    # |value| * 10**(16 - X) = f * (hi + lo).  Dekker's product makes p + err
    # equal f * hi exactly; p >= 2**53 is an integer and |err| <= 8.  The
    # other errors: lo's own rounding, times f, at most 2**-49 (|lo| <= 16);
    # f * lo at most 2**-50; the sum r at most 2**-49 (|r| < 32).  So N is
    # p + rint(r) unless r is within 2**-47 of a tie.
    s = f * _VELTKAMP
    f1 = s - (s - f)
    f2 = f - f1
    p = f * hi
    r = (((f1 * h1 - p) + f1 * h2 + f2 * h1) + f2 * h2) + f * lo
    whole = np.rint(r)
    tie = np.abs(np.abs(r - whole) - 0.5) < _TIE_MARGIN
    n = p.astype(np.int64) + whole.astype(np.int64)
    neg = np.signbit(values)
    zero = a == 0
    if zero.any():
        n[zero] = 0
        exp10[zero] = 0
        tie[zero] = False
    # N's 17 digits: the first, then the other 16 as two words of 8 chars
    top = n // 10**8
    low = (n - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    first = top // 10**8
    top -= first * 10**8
    q = top // 10**4
    t0 = tables.quads.take(q).astype(np.uint64) | tables.quads.take(top - q * 10**4).astype(np.uint64) << 32
    q = low // 10**4
    t1 = tables.quads.take(q).astype(np.uint64) | tables.quads.take(low - q * 10**4).astype(np.uint64) << 32
    # digits of the 16 up to the last nonzero one ("0" is 0x30)
    sig1 = _significant_bytes(t1 ^ 0x3030303030303030)
    sig = np.where(sig1 > 0, sig1 + 8, _significant_bytes(t0 ^ 0x3030303030303030))
    if zero.any():
        sig[zero] = neg[zero]  # -0.0 keeps one fraction digit
    fixed = (exp10 >= -4) & (exp10 <= 16)
    small = fixed & (exp10 < 0)
    # digits of the 16 before the point: X in fixed notation, 0 with an
    # exponent, -1 after a "0.000" prefix, which holds the point
    whole_digits = np.where(fixed, exp10, 0)
    whole_digits[small] = -1
    kept = np.maximum(sig, whole_digits)
    t0 &= tables.keep.take(np.minimum(kept, 8))
    t1 &= tables.keep.take(np.maximum(kept - 8, 0))
    point = np.where((whole_digits >= 0) & (sig > whole_digits), whole_digits, 16)
    below0, below1 = tables.below0.take(point), tables.below1.take(point)
    moved0, moved1 = t0 & ~below0, t1 & ~below1
    words = np.empty((values.size, 4), "<u8")
    words[:, 0] = (
        tables.prefix.take(np.where(small, 1 - exp10, 0))
        | neg * np.uint64(ord("-") << 8)
        | (first + ord("0")).astype(np.uint64) << 56
    )
    words[:, 1] = (t0 & below0) | moved0 << 8 | tables.point0.take(point)
    words[:, 2] = (t1 & below1) | moved1 << 8 | moved0 >> 56 | tables.point1.take(point)
    words[:, 3] = moved1 >> 56 | tables.exponent_text.take(exp10 + 324)
    pairs = words.reshape(-1, 2, 4)
    pairs[:, :, 0] |= tables.before
    pairs[:, :, 3] |= tables.after
    if tie.any():
        text = words.view(np.uint8).reshape(values.size, 32)
        for i in np.flatnonzero(tie).tolist():
            digits = _fmt17(values[i]).encode("ascii")
            text[i, 1:30] = 0
            text[i, 1 : 1 + len(digits)] = np.frombuffer(digits, np.uint8)
    return words.tobytes().translate(None, b"\0")


def format_tensor(t: DenseTensor) -> str:
    """Serialize ``t`` as a tensor document with 17-significant-digit numbers.

    The text is byte for byte ``'%.17g' %`` of each part, except that
    ``-0.0`` is written for negative zero (``-0`` would read back as the
    integer 0).  The numbers are made from numpy arrays; a part whose
    17th digit is within a rounding error of a tie is formatted on its own.

    Raises
    ------
    TensorFormatError
        With code ``non-finite`` and the flat index of the first NaN or
        infinite entry, which JSON cannot represent.
    """
    finite = np.isfinite(t.entries)
    if not finite.all():
        i = int(np.argmin(finite))
        re, im = float(t.entries[i].real), float(t.entries[i].imag)
        raise TensorFormatError("non-finite", i, f"entry [{re!r}, {im!r}] is not finite")
    values = t.entries.view(np.float64)
    tables = _writer_tables()
    body = b"".join([_entries_text(values[i : i + _CHUNK], tables) for i in range(0, values.size, _CHUNK)])
    return (
        '{"row_dims":' + json.dumps(list(t.shape.row_dims))
        + ',"col_dims":' + json.dumps(list(t.shape.col_dims))
        + ',"entries":[' + body[:-1].decode("ascii") + "]}"
    )


def write_tensor_file(path: str | os.PathLike, t: DenseTensor) -> None:
    """Write ``t`` to ``path`` in the tensor document format.

    The document is formatted in full before the file is opened, so a
    tensor that cannot be written leaves no file behind.
    """
    # os.linesep: the line end a text-mode write gives
    Path(path).write_bytes((format_tensor(t) + os.linesep).encode("ascii"))


def _arg_type(convert: Callable[[str], Any], ok: Callable[[Any], bool], requirement: str) -> Callable:
    """An argparse ``type=``: ``convert(text)`` if that passes ``ok``, else a usage error.

    The error states ``requirement``; argparse would report a plain
    ValueError as "invalid <function name> value".
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is not None and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return parse


def _shape(text: str) -> ModeShape:
    # "2x2:3" -> row dims (2, 2), col dims (3,)
    rows, cols = text.split(":")
    return ModeShape(tuple(map(int, rows.split("x"))), tuple(map(int, cols.split("x"))))


_parse_shape = _arg_type(_shape, lambda shape: True, "shape must look like ROWSxROWS:COLSxCOLS")
_positive_int = _arg_type(int, lambda n: n >= 1, "must be an integer >= 1")
# a NumericPolicy tolerance: a float in (0, 1), so never NaN
_open_unit_fraction = _arg_type(float, lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")


def _cmd_product(args: argparse.Namespace) -> int:
    a = parse_tensor_file(args.a)
    b = parse_tensor_file(args.b)
    write_tensor_file(args.out, a @ b)
    return 0


def _cmd_pinv(args: argparse.Namespace) -> int:
    policy = DEFAULT_POLICY if args.rank_tol is None else NumericPolicy(rank_tol=args.rank_tol)
    write_tensor_file(args.out, pinv(parse_tensor_file(args.infile), policy))
    return 0


def _cmd_svd(args: argparse.Namespace) -> int:
    factors = tsvd(parse_tensor_file(args.infile))
    write_tensor_file(args.out_u, factors.u)
    write_tensor_file(args.out_d, factors.d)
    write_tensor_file(args.out_v, factors.v)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    value = trace(parse_tensor_file(args.infile))
    print(f"{_fmt17(value.real)} {_fmt17(value.imag)}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    a = parse_tensor_file(args.a)
    b = parse_tensor_file(args.b)
    write_tensor_file(args.out, min_norm_solve(a, b))
    return 0


def _cmd_rol(args: argparse.Namespace) -> int:
    policy = DEFAULT_POLICY if args.tol is None else NumericPolicy(eq_tol=args.tol)
    report = rol_report(parse_tensor_file(args.a), parse_tensor_file(args.b), policy)
    if args.report:
        text = json.dumps(report.as_dict(), indent=2, allow_nan=False)
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    booleans = report.booleans
    for name, residual in report.residuals.items():
        print(f"{name:<16} {residual:12.5e}  {'ok' if booleans[name] else 'fail'}")
    verdict = "holds" if report.holds else "does not hold"
    print(f"reverse-order law {verdict} (tol {policy.eq_tol:g})")
    return 0 if report.holds else 3


def _cmd_fuzz(args: argparse.Namespace) -> int:
    summary = fuzz_search(args.shape, args.trials, args.seed)
    print(
        f"trials {summary.trials}  direct-true {summary.direct_true}  "
        f"direct-false {summary.direct_false}"
    )
    print("families " + " ".join(f"{k}={v}" for k, v in summary.family_counts.items()))
    if summary.violations:
        first = summary.first_violation
        print(f"equivalence violations: {summary.violations} (first at trial {first['trial']})")
        return 3
    print("no equivalence violations")
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
    report = identity_suite(parse_tensor_file(args.infile))
    for name, residual in report.residuals.items():
        print(f"{name:<22} {residual:12.5e}")
    for flag, value, residual in (
        ("normal", report.normal, report.normal_residual),
        ("ep", report.ep, report.ep_residual),
    ):
        shown = "n/a" if residual is None else f"{residual:12.5e}"
        print(f"{flag:<22} {shown}  {value}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls and
    # looks up sys.stdout and sys.stderr only when it prints.
    parser = argparse.ArgumentParser(
        prog="tenrol",
        description="Einstein-product tensor algebra: pseudoinverses, SVD, "
        "and reverse-order-law diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="Einstein product of two tensor files")
    p.add_argument("--a", type=Path, required=True, help="left operand file")
    p.add_argument("--b", type=Path, required=True, help="right operand file")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse of a tensor file")
    p.add_argument("--in", dest="infile", type=Path, required=True, help="input file")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument(
        "--rank-tol",
        type=_open_unit_fraction,
        default=None,
        help=f"relative singular-value cutoff (default {DEFAULT_POLICY.rank_tol:g})",
    )
    p.set_defaults(func=_cmd_pinv)

    p = sub.add_parser("svd", help="tensor SVD factors U, D, V")
    p.add_argument("--in", dest="infile", type=Path, required=True, help="input file")
    p.add_argument("--out-u", required=True, help="output file for U")
    p.add_argument("--out-d", required=True, help="output file for D")
    p.add_argument("--out-v", required=True, help="output file for V")
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("trace", help="print the trace as 're im'")
    p.add_argument("--in", dest="infile", type=Path, required=True, help="input file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("solve", help="minimum-norm least-squares solve of A @ X = B")
    p.add_argument("--a", type=Path, required=True, help="system tensor file")
    p.add_argument("--b", type=Path, required=True, help="right-hand side file")
    p.add_argument("--out", required=True, help="output file for X")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("rol", help="reverse-order-law report for a pair")
    p.add_argument("--a", type=Path, required=True, help="left factor file")
    p.add_argument("--b", type=Path, required=True, help="right factor file")
    p.add_argument(
        "--tol",
        type=_open_unit_fraction,
        default=None,
        help=f"boolean threshold (default {DEFAULT_POLICY.eq_tol:g})",
    )
    p.add_argument("--report", default=None, help="also write the full report as JSON here")
    p.set_defaults(func=_cmd_rol)

    p = sub.add_parser("fuzz", help="randomized equivalence cross-validation")
    p.add_argument(
        "--shape",
        type=_parse_shape,
        required=True,
        help="mode split of the left factor, e.g. 2x2:2x2",
    )
    p.add_argument("--trials", type=_positive_int, default=500, help="number of pairs (default 500)")
    p.add_argument("--seed", type=int, default=42, help="stream seed (default 42)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("identities", help="pseudoinverse identity residuals for one tensor")
    p.add_argument("--in", dest="infile", type=Path, required=True, help="input file")
    p.set_defaults(func=_cmd_identities)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SvdConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (TensorFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
