"""Command-line front end and the on-disk tensor format.

Tensors travel as JSON documents::

    {"row_dims": [2, 2], "col_dims": [2], "entries": [[re, im], ...]}

with entries in the package-wide row-major order (row tuple before column
tuple, last index varying fastest).  Each number is written as the
shortest decimal that reads back to the same double (the digits of
Python's ``repr``: ``1.0``, ``1e16``, ``-0.0``), so a write-then-read
round trip is value-exact.  A document that fails to parse is reported
at its first offending entry; an integer beyond double range is
``non-finite``.

orjson reads and writes documents.  A document that orjson refuses, or
that fails a check, is parsed again with the standard ``json`` module,
and that route alone builds the error, so codes, indices and messages are
``json``'s.  The pass that turns away bools and strings among the entries
is skipped when the raw text shows there are none: at most six quote
marks (the three keys' own) and no ``u`` or ``f`` (no ``true``, ``false``
or ``null``).  That is sound because ``np.fromiter``, which reads the
numbers, refuses the only other non-numbers left, a list or ``{}``, and
the refusal sends the document to the same fallback.  orjson has no
nesting limit: a document nested deeper than ``json`` can read is
accepted when the deep part sits under a key that is not read, and is
otherwise ``malformed-json``.  From the parse until the parsed document
is released the cyclic garbage collector is off, as the document's lists
hold no cycle for it to find; it comes back on only if it was on, also
when the parse fails.

Exit codes: 0 success, 1 I/O or input error (including a missing input
file and a non-finite intermediate, such as a product or a ``rol``
residual that overflows), 2 usage error, 3 a checked law does not hold
(``rol``) or a fuzz run saw an equivalence violation, 4 SVD
non-convergence, 5 ``rol``'s characterization groups disagree, so no
verdict is given.  Command-line paths are always read as files; the
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
from typing import Any, Callable, Sequence

import numpy as np

from .core import DEFAULT_POLICY, DenseTensor, ModeShape, NumericPolicy, trace
from .mpinv import identity_suite, min_norm_solve, pinv, tsvd
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


def _scalars_are_numbers(data: bytes | str) -> bool:
    """True if every scalar in the JSON document ``data``, keys aside, must be a number.

    A document that a check accepts holds the three keys ``row_dims``,
    ``col_dims`` and ``entries``, two quote marks each, so with at most
    six quote marks there is no string besides them; with no ``u`` and no
    ``f`` there is no ``true``, ``false`` or ``null``.  The keys hold
    neither letter unless written with a ``\\u`` escape, and a JSON number
    holds no letter but ``e``/``E``.
    """
    quote, u, f = ('"', "u", "f") if isinstance(data, str) else (b'"', b"u", b"f")
    # Counted up to the last quote mark, which rfind finds at memory speed:
    # where the keys come before the entries, as tenrol writes them, this
    # scans a few dozen bytes where counting the whole text takes milliseconds.
    return data.count(quote, 0, data.rfind(quote) + 1) <= 6 and u not in data and f not in data


def _tensor_of(doc: Any, scalars_are_numbers: bool = False) -> DenseTensor:
    """The tensor that ``doc`` describes.

    Raises the :class:`TensorFormatError` naming the first check that
    ``doc`` fails.  The entries of a valid document are checked in one
    C-level pass per check; only a failing one is walked entry by entry.

    ``scalars_are_numbers`` (from :func:`_scalars_are_numbers` on the
    document's text) skips the pass over the type of every number, which
    exists only to turn away the bools and strings that ``np.fromiter``
    would read silently (``true`` as 1.0, ``"1.5"`` as 1.5).  The skip is
    sound: with no string, bool or null in the document, a pair that is
    not two numbers holds a list or ``{}``, which ``np.fromiter`` refuses
    with ``ValueError`` or ``TypeError``, so the document is walked entry
    by entry as before, and an accepted one is read by the same
    ``fromiter`` to the same bits.
    """
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
    try:
        if set(map(len, entries)) == {2} and (
            scalars_are_numbers or set(map(type, _scalars(entries))) <= _NUMBER_TYPES
        ):
            pairs = np.fromiter(_scalars(entries), np.float64, 2 * expected)
            if np.isfinite(pairs).all():
                # pairs is fresh and finite, so it is wrapped without DenseTensor's checked copy
                mat = pairs.view(np.complex128).reshape(shape.row_count, shape.col_count)
                return DenseTensor._from_owned(shape, mat)
    except (TypeError, ValueError, OverflowError):
        # ValueError: np.fromiter on a list nested in a pair that the type pass did not see
        pass
    raise _entry_error(entries)


def _int_or_float(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        # past int()'s digit limit, so far beyond double range: +-inf
        return float(text)


def _json_document(text: str) -> Any:
    """``json.loads(text)``, huge integers read as floats; a text it cannot read is ``malformed-json``."""
    try:
        return json.loads(text, parse_int=_int_or_float)
    except json.JSONDecodeError as exc:
        raise TensorFormatError("malformed-json", exc.pos, exc.msg) from exc
    except RecursionError:
        # the json decoder recurses once per nesting level
        raise TensorFormatError("malformed-json", None, "document nests too deeply to read") from None


def parse_tensor_file(source: str | os.PathLike) -> DenseTensor:
    """Parse a tensor document from a file path or raw JSON text.

    An ``os.PathLike`` is always read as a file.  A ``str`` is read as a
    file if it names an existing one, and as JSON text otherwise, so
    ``parse_tensor_file("missing.json")`` raises ``TensorFormatError``
    ``malformed-json at index 0``, not ``OSError``.  The document is
    parsed with orjson.  If orjson refuses it or it fails any check, it is
    parsed again with the standard ``json`` module, which decides the
    outcome and builds the error.

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
        If ``source`` is an ``os.PathLike`` that cannot be read, or a
        ``str`` naming an existing file that cannot be read.
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
        return _tensor_of(orjson.loads(data), _scalars_are_numbers(data))
    except (orjson.JSONDecodeError, TensorFormatError, RecursionError):
        # RecursionError: the error message's repr of an entry nested too deeply
        pass
    # json gets the file's text as a text-mode read gives it: newlines
    # translated, and undecodable bytes a UnicodeDecodeError
    text = data if isinstance(data, str) else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return _tensor_of(_json_document(text))


def format_tensor(t: DenseTensor) -> str:
    """Serialize ``t`` as a tensor document.

    Each real and imaginary part is written as the shortest decimal that
    reads back to the same double, as orjson writes a float64 array; keys
    come in the order ``row_dims``, ``col_dims``, ``entries``, with no
    spaces.

    Raises
    ------
    TensorFormatError
        With code ``non-finite`` and the flat index of the first NaN or
        infinite entry, which JSON cannot represent (orjson would write
        ``null``).
    """
    finite = np.isfinite(t.entries)
    if not finite.all():
        i = int(np.argmin(finite))
        re, im = float(t.entries[i].real), float(t.entries[i].imag)
        raise TensorFormatError("non-finite", i, f"entry [{re!r}, {im!r}] is not finite")
    import orjson  # on first use, as in _read_document

    doc = {
        "row_dims": list(t.shape.row_dims),
        "col_dims": list(t.shape.col_dims),
        "entries": t.entries.view(np.float64).reshape(-1, 2),
    }
    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY).decode()


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
_nonnegative_int = _arg_type(int, lambda n: n >= 0, "must be an integer >= 0")
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
    from .rol import rol_report  # compiled only by the commands that run it

    policy = DEFAULT_POLICY if args.tol is None else NumericPolicy(eq_tol=args.tol)
    report = rol_report(parse_tensor_file(args.a), parse_tensor_file(args.b), policy)
    if args.report:
        text = json.dumps(report.as_dict(), indent=2, allow_nan=False)
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    booleans = report.booleans
    for name, residual in report.residuals.items():
        print(f"{name:<16} {residual:12.5e}  {'ok' if booleans[name] else 'fail'}")
    if not report.consistent:
        # the five groups are equivalent, so a split is a numerical artefact, not a verdict
        groups = report.groups
        ok = ", ".join(g for g, held in groups.items() if held)
        fail = ", ".join(g for g, held in groups.items() if not held)
        print(f"characterization groups disagree (tol {policy.eq_tol:g}): {ok} ok; {fail} fail")
        return 5
    verdict = "holds" if report.holds else "does not hold"
    print(f"reverse-order law {verdict} (tol {policy.eq_tol:g})")
    return 0 if report.holds else 3


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import fuzz_search

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
    p.add_argument("--seed", type=_nonnegative_int, default=42, help="stream seed (default 42)")
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
