"""Layer wrappers for the traced run.

The wrappers are installed from outside: every name under which a traced
function is reachable in a loaded ``tenrol`` module (``from .core import
einstein_product`` in ``mpinv``, the re-exports in ``tenrol/__init__``,
``tenrol.unfold._kernel.jacobi_sweeps``) is rebound to one wrapper, and
restored on exit.  Each wrapper records a span; a span's self time is its
duration minus the time of the traced spans it caused.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import tenrol
import tenrol.cli
import tenrol.core
import tenrol.mpinv
import tenrol.rol
import tenrol.unfold

#: Traced functions by layer; the kernel is whichever lane ``unfold`` imported.
LAYERS = {
    "kernel": (tenrol.unfold._kernel, ("jacobi_sweeps",)),
    "unfold": (tenrol.unfold, ("matrix_svd", "matricize", "dematricize")),
    "mpinv": (tenrol.mpinv, ("pinv", "tsvd", "identity_suite", "penrose_residuals")),
    "core": (tenrol.core, ("einstein_product", "conj_transpose", "rel_residual", "frobenius_norm")),
    "rol": (tenrol.rol, ("rol_report", "fuzz_search", "projector_commute_report")),
    "cli": (tenrol.cli, ("parse_tensor_file", "format_tensor", "write_tensor_file", "run_command")),
}
SPANS = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)
COUNTS = (
    "kernel.sweeps", "kernel.pair_visits", "kernel.nonconverged",
    "core.modeshape.constructions", "core.densetensor.constructions",
    "cli.bytes_read", "cli.bytes_written",
)


def _file_size(source) -> int:
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) and os.path.isfile(source) else 0


class Tracer:
    """Counts and self times of the layer functions while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child = [0.0]  # traced time spent inside the open span, one entry per depth
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - self._child.pop()
                self._child[-1] += elapsed
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _kernel_done(self, args, sweeps: int) -> None:
        n = args[0].shape[0]
        if sweeps < 0:
            self.counts["kernel.nonconverged"] += 1
            sweeps = args[3]
        self.counts["kernel.sweeps"] += sweeps
        self.counts["kernel.pair_visits"] += sweeps * n * (n - 1) // 2

    def _read(self, args, _out) -> None:
        self.counts["cli.bytes_read"] += _file_size(args[0])

    def _written(self, args, _out) -> None:
        self.counts["cli.bytes_written"] += _file_size(args[0])

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        after = {
            "kernel.jacobi_sweeps": self._kernel_done,
            "cli.parse_tensor_file": self._read,
            "cli.write_tensor_file": self._written,
        }
        modules = [m for name, m in sys.modules.items() if name == "tenrol" or name.startswith("tenrol.")]
        for layer, (home, fns) in LAYERS.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._span(name, original, after.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        shape_cls, tensor_cls = tenrol.core.ModeShape, tenrol.core.DenseTensor
        self._set(shape_cls, "__post_init__",
                  self._counted("core.modeshape.constructions", shape_cls.__post_init__))
        self._set(tensor_cls, "__init__",
                  self._counted("core.densetensor.constructions", tensor_cls.__init__))
        from_owned = tensor_cls.__dict__["_from_owned"].__func__
        self._set(tensor_cls, "_from_owned",
                  classmethod(self._counted("core.densetensor.constructions", from_owned)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict[str, float]:
        """Exact counters of the pass: span calls plus the computed counts."""
        out = {f"{name}.calls": self.calls[name] for name in SPANS}
        out.update({key: self.counts[key] for key in COUNTS})
        return out
