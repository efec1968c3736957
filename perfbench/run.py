"""End-to-end and per-layer benchmark for tenrol.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {fuzz,spectral,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload's operations run untraced in a closed loop
(one caller, next call after the previous returns) for ``--seconds``, and
the end-to-end metrics are printed.  With ``--trace 1`` fixed passes of the
workload alternate untraced and traced for ``--seconds``, and the per-layer
metrics are printed.  Every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# one thread everywhere: set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Setup repetitions; setup_s is their median.
SETUPS = 5
#: Fewest timed rounds, so that a tail percentile with ten samples beyond it exists.
MIN_ROUNDS = 30
#: Fresh interpreters timed for cli.startup_s.
STARTUPS = 5

_REF_VEC = np.arange(16, dtype=np.complex128)
_REF_ROWS = np.exp(1j * np.arange(128.0)).reshape(8, 16)
_REF_DOC = json.dumps([[0.37 * k, -1.1 * k] for k in range(60)])


def _warm() -> None:
    # untimed: brings the interpreter and numpy's small-call paths back into cache
    for k in range(50):
        np.vdot(_REF_VEC, _REF_VEC)
        json.loads('{"e": [[0.5, -1.25]]}')
        format(k * 0.1, ".17g")


def _rotations() -> None:
    # plane rotations of short complex rows, the Jacobi kernel's kind of work
    m = _REF_ROWS.copy()
    for p in range(5):
        for q in range(p + 1, 8):
            np.vdot(m[p], m[q])
            m[p], m[q] = 0.8 * m[p] - 0.6 * m[q], 0.6 * m[p] + 0.8 * m[q]


def _json_text() -> None:
    # JSON parsing and 17-digit formatting, the CLI's kind of work
    pairs = json.loads(_REF_DOC)
    ",".join(f"[{format(a, '.17g')},{format(b, '.17g')}]" for a, b in pairs)


#: Reference work per workload, and its time at the host's fast speed.
REFERENCES = {"fuzz": (_rotations, 0.15e-3), "spectral": (_rotations, 0.15e-3), "cli": (_json_text, 0.1e-3)}


class Clock:
    """Times calls at a fixed reference speed.

    The host runs in speed phases, and a slow phase slows code by up to
    1.8x.  After every timed call the clock times a fixed piece of
    reference work, of the same kind as the workload's, in benchmark code
    that no change to tenrol can move.  An untimed warm-up before it keeps
    the cache state left by the timed call out of the reference.  A
    call's time is scaled by ``nominal / mean(reference just before, just
    after)``.
    """

    def __init__(self, workload: str):
        self.work, self.nominal_s = REFERENCES[workload]

    def reference(self) -> float:
        _warm()
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def scaled(self, secs: float, before: float, after: float) -> float:
        return secs * self.nominal_s / (0.5 * (before + after))

    def call(self, fn):
        """Call ``fn`` between two reference runs; its result and scaled seconds."""
        before = self.reference()
        start = time.perf_counter()
        out = fn()
        secs = time.perf_counter() - start
        return out, self.scaled(secs, before, self.reference())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(ordered)} samples leave no percentile with ten beyond it")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Run:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, op, i: int) -> float:
        """Run ``op`` once, check its output, and return the call's wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run(i)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            self.fail(f"{op.name} call {i} raised {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            op.check(i, out)
        except Exception as exc:
            self.fail(f"{op.name} call {i}: {exc}")
        return elapsed

    def guard(self, what: str, fn):
        """Run a set-up step that must not fail; a failure counts as a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.fail(f"{what}: {exc!r}")
            return None

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            print(f"FAIL {message}", file=sys.stderr)
        self.failures.append(message)


def environment(args, lane_note: str) -> dict:
    import tenrol

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": tenrol.KERNEL_BACKEND,
        "compiled_lane": lane_note,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "reference_ms": 1e3 * REFERENCES[args.workload][1],
    }


def set_up(args, run: Run, clock: Clock, workdir: Path):
    """Build the workload ``SETUPS`` times and return it with set-up seconds.

    Set-up time is the tenrol import plus the median build (inputs, file
    writes, warm-up), each scaled to the reference speed.
    """
    sys.path.insert(0, str(SRC))
    _, import_s = clock.call(lambda: importlib.import_module("tenrol.cli"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]

    def build():
        workload = cls(args.seed, ROOT, workdir) if cls is workloads.Cli else cls(args.seed)
        run.guard("warm-up", workload.warm_up)
        return workload

    builds = [clock.call(build) for _ in range(1 if args.trace else SETUPS)]
    return builds[-1][0], import_s + statistics.median(secs for _, secs in builds)


def measure(args, run: Run, clock: Clock, workload) -> dict:
    """Untraced closed loop over the workload's operations; end-to-end metrics."""
    ops = workload.ops()
    samples: list[tuple[str, float]] = []  # (op name, seconds) in call order
    refs = [clock.reference()]
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for op in ops:
            samples.append((op.name, run.call(op, rounds)))
            refs.append(clock.reference())
        rounds += 1

    scaled = [(name, clock.scaled(secs, refs[j], refs[j + 1])) for j, (name, secs) in enumerate(samples)]
    per_op = {op.name: [s for name, s in scaled if name == op.name] for op in ops}
    per_round = [sum(s for _, s in scaled[r * len(ops):(r + 1) * len(ops)]) for r in range(rounds)]
    units = sum(op.units for op in ops)

    detail = {}
    for name, secs in per_op.items():
        value, pct = tail(secs)
        detail[name] = {
            "p50_ms": 1e3 * statistics.median(secs),
            "tail_ms": 1e3 * value,
            "tail_pct": round(pct, 1),
            "samples": len(secs),
            "raw_p50_ms": 1e3 * statistics.median(s for n, s in samples if n == name),
        }
    print("ops " + json.dumps(detail))
    print(f"reference work p50 {1e3 * statistics.median(refs):.4f} ms over {len(refs)} runs")
    return {
        "op_p50_ms": (geomean(d["p50_ms"] for d in detail.values()), "ms"),
        "op_tail_ms": (geomean(d["tail_ms"] for d in detail.values()), "ms"),
        "work_per_s": (units / statistics.median(per_round), "1/s"),
    }


def traced(args, run: Run, workload) -> dict:
    """Alternate untraced and traced fixed passes; per-layer metrics."""
    import tracing

    ops = workload.ops()
    calls = workload.trace_calls
    units = calls * sum(op.units for op in ops)

    def one_pass() -> float:
        return sum(run.call(op, i) for i in range(calls) for op in ops)

    plain, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        plain.append(one_pass())
        with tracing.Tracer() as tracer:
            wall = one_pass()
        passes.append((wall, tracer))

    counts = passes[0][1].snapshot()
    for _, tracer in passes[1:]:
        if tracer.snapshot() != counts:
            run.fail("traced passes over the same inputs gave different counts")
            break
    for name in workload.stressed:
        if counts[f"{name}.calls"] == 0:
            run.fail(f"{name} recorded no calls on {args.workload}: a wrapper missed an alias")

    def med(fn) -> float:
        return statistics.median(fn(wall, tracer) for wall, tracer in passes)

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (med(lambda w, t, n=name: t.self_s[n]), "s")
    for key in tracing.COUNTS:
        metrics[key] = (counts[key], "bytes" if key.startswith("cli.bytes") else "count")
    metrics["kernel.wall_share"] = (med(lambda w, t: t.self_s["kernel.jacobi_sweeps"] / w), "ratio")
    metrics["core.products_per_trial"] = (counts["core.einstein_product.calls"] / units, "count/item")
    metrics["unfold.svds_per_trial"] = (counts["unfold.matrix_svd.calls"] / units, "count/item")
    metrics["core.modeshapes_per_trial"] = (counts["core.modeshape.constructions"] / units, "count/item")
    metrics["trace.overhead_frac"] = (
        statistics.median(w / p - 1.0 for (w, _), p in zip(passes, plain)), "ratio")
    metrics["cli.startup_s"] = (startup_seconds(), "s")
    metrics.update(floors())
    print(f"traced passes {len(passes)}, {units} items each")
    return metrics


def startup_seconds() -> float:
    """Median over fresh interpreters of the time to ``import tenrol.cli``."""
    code = "import time; t = time.perf_counter(); import tenrol.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUPS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def floors() -> dict[str, tuple[float, str]]:
    """numpy LAPACK on the spectral matricizations: reference only."""
    rng = np.random.default_rng(0)

    def median_ms(fn, m) -> float:
        times = []
        for _ in range(50):
            start = time.perf_counter()
            fn(m)
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    def mat(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    return {
        "floor.np_pinv16_ms": (median_ms(np.linalg.pinv, mat(16, 16)), "ms"),
        "floor.np_pinv32_ms": (median_ms(np.linalg.pinv, mat(32, 32)), "ms"),
        "floor.np_svd_tall_ms": (median_ms(np.linalg.svd, mat(64, 4)), "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="tenrol end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=("fuzz", "spectral", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tenrol" / "__init__.py").is_file():
        print(f"error: no tenrol sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    run = Run()
    clock = Clock(args.workload)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        workload, setup_s = set_up(args, run, clock, workdir)
        import tenrol

        if Path(tenrol.__file__).resolve().parent != SRC / "tenrol":
            print(f"error: imported tenrol from {tenrol.__file__}, not {SRC}", file=sys.stderr)
            return 2
        note = "not run on this workload"
        if args.workload == "spectral":
            note = run.guard("lane parity", workload.lane_parity) or "lanes disagree"
        print("env " + json.dumps(environment(args, note)))
        if args.trace:
            metrics = traced(args, run, workload)
        else:
            metrics = {"setup_s": (setup_s, "s"), **measure(args, run, clock, workload)}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    failed = len(run.failures)
    print(f"failed_frac {failed / run.attempted:.6f} ({failed} of {run.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
