"""The three workloads: inputs made from a seed, the timed operations, and
the checks that decide whether each operation's output is right.

Every operation calls tenrol through attribute lookups on the package at
call time (``tenrol.pinv``, ``tenrol.cli.run_command``), so the wrappers the
traced run installs see every call.  Checks are independent of the code
under test: they recompute the answer with numpy on the matricization and
compare by unfloored relative error.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tenrol
import tenrol.cli

#: Unfloored relative error allowed against the numpy reference.
TOL = 1e-9
#: Inputs per spectral case, cycled through by the timed loop.
POOL = 16


class CheckError(Exception):
    """An operation returned a wrong answer or an unexpected exit code."""


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run(i)`` performs the i-th call and returns its output; ``check(i,
    out)`` raises :class:`CheckError` when the output is wrong.  ``units``
    is the work one call does: fuzz trials, or 1 for a spectral operation
    or a CLI command.
    """

    name: str
    run: Callable[[int], Any]
    check: Callable[[int, Any], None]
    units: int = 1


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    """``||x - ref|| / ||ref||`` with no floor on the denominator."""
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _low_rank(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    u, _ = np.linalg.qr(_complex_normal(rng, (n, n)))
    v, _ = np.linalg.qr(_complex_normal(rng, (n, n)))
    s = rng.uniform(0.3, 3.0, rank)
    return (u[:, :rank] * s) @ v[:, :rank].conj().T


# ---------------------------------------------------------------------------
# fuzz


class Fuzz:
    """Chunks of ``fuzz_search`` at 2x2:2x2, each covering every family equally."""

    trace_calls = 8  # chunks per traced pass
    stressed = (
        "kernel.jacobi_sweeps", "unfold.matrix_svd", "unfold.matricize", "unfold.dematricize",
        "mpinv.pinv", "core.einstein_product", "core.conj_transpose", "core.rel_residual",
        "core.frobenius_norm", "rol.rol_report", "rol.fuzz_search",
    )

    def __init__(self, seed: int):
        self.shape = tenrol.ModeShape((2, 2), (2, 2))
        self.chunk = 4 * len(tenrol.FUZZ_FAMILIES)
        self.seed = seed

    def chunk_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def run(self, i: int):
        return tenrol.fuzz_search(self.shape, self.chunk, self.chunk_seed(i))

    def check(self, i: int, summary) -> None:
        per_family = self.chunk // len(tenrol.FUZZ_FAMILIES)
        require(summary.violations == 0, f"chunk {i}: {summary.violations} equivalence violations")
        require(summary.trials == self.chunk, f"chunk {i}: {summary.trials} trials reported")
        require(
            summary.direct_true + summary.direct_false == self.chunk,
            f"chunk {i}: direct counts {summary.direct_true}+{summary.direct_false} != {self.chunk}",
        )
        require(
            summary.family_counts == {f: per_family for f in tenrol.FUZZ_FAMILIES},
            f"chunk {i}: family counts {summary.family_counts} do not match the rotation",
        )

    def ops(self) -> list[Op]:
        return [Op("chunk", self.run, self.check, units=self.chunk)]

    def warm_up(self) -> None:
        # the documented order independence: one seed, one summary
        first, second = self.run(0), self.run(0)
        self.check(0, first)
        require(first == second, "two fuzz_search calls with one seed returned different summaries")


# ---------------------------------------------------------------------------
# spectral


class Spectral:
    """pinv, tsvd and identity_suite on dense complex tensors where the kernel dominates."""

    trace_calls = 4  # calls per case in a traced pass, on the first inputs
    stressed = (
        "kernel.jacobi_sweeps", "unfold.matrix_svd", "unfold.matricize", "unfold.dematricize",
        "mpinv.pinv", "mpinv.tsvd", "mpinv.identity_suite", "core.einstein_product",
        "core.conj_transpose", "core.rel_residual", "core.frobenius_norm",
    )

    SPLITS = {
        "pinv16": ((4, 4), (4, 4)),
        "pinv32": ((4, 4, 2), (4, 4, 2)),
        "pinv32_lowrank": ((4, 4, 2), (4, 4, 2)),
        "tsvd_tall": ((8, 8), (4,)),
        "identity_suite16": ((4, 4), (4, 4)),
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.mats: dict[str, list[np.ndarray]] = {}
        for name, (rows, cols) in self.SPLITS.items():
            r, c = math.prod(rows), math.prod(cols)
            if name == "pinv32_lowrank":
                self.mats[name] = [_low_rank(rng, r, r // 2) for _ in range(POOL)]
            else:
                self.mats[name] = [_complex_normal(rng, (r, c)) for _ in range(POOL)]
        self.tensors = {
            name: [tenrol.as_tensor(m, *self.SPLITS[name]) for m in mats] for name, mats in self.mats.items()
        }
        rank_tol = tenrol.DEFAULT_POLICY.rank_tol
        self.pinv_ref = {
            name: [np.linalg.pinv(m, rcond=rank_tol) for m in self.mats[name]]
            for name in ("pinv16", "pinv32", "pinv32_lowrank")
        }

    def _pinv_op(self, name: str) -> Op:
        def run(i: int):
            return tenrol.pinv(self.tensors[name][i % POOL])

        def check(i: int, x) -> None:
            ref = self.pinv_ref[name][i % POOL]
            require(x.shape == self.tensors[name][i % POOL].shape.transposed, f"{name}: wrong split")
            err = rel_err(x.array.reshape(ref.shape), ref)
            require(err <= TOL, f"{name} input {i % POOL}: relative error {err:.3e} against numpy pinv")

        return Op(name, run, check)

    def _tsvd_op(self) -> Op:
        name = "tsvd_tall"

        def run(i: int):
            return tenrol.tsvd(self.tensors[name][i % POOL])

        def check(i: int, f) -> None:
            m = self.mats[name][i % POOL]
            rows, cols = m.shape
            u = f.u.array.reshape(rows, rows)
            d = f.d.array.reshape(rows, cols)
            v = f.v.array.reshape(cols, cols)
            s_ref = np.linalg.svd(m, compute_uv=False)
            s = np.real(np.diagonal(d))
            require(rel_err(s, s_ref) <= TOL, f"{name}: singular values off numpy svd")
            require(rel_err(u @ d @ v.conj().T, m) <= TOL, f"{name}: u d v^H does not rebuild the input")
            require(not d[~np.eye(rows, cols, dtype=bool)].any(), f"{name}: d is not diagonal")
            for label, q in (("u", u), ("v", v)):
                gap = float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[0])) / math.sqrt(q.shape[0]))
                require(gap <= TOL, f"{name}: {label} is not unitary ({gap:.3e})")

        return Op(name, run, check)

    def _identity_op(self) -> Op:
        name = "identity_suite16"

        def run(i: int):
            return tenrol.identity_suite(self.tensors[name][i % POOL])

        def check(i: int, rep) -> None:
            m = self.mats[name][i % POOL]
            # the Gram identities lose accuracy as cond(A)**2, so their bound scales with it
            s = np.linalg.svd(m, compute_uv=False)
            bound = max(TOL, 1e3 * np.finfo(float).eps * (s[0] / s[-1]) ** 2)
            worst = max(rep.residuals.values())
            require(math.isfinite(worst) and worst <= bound,
                    f"{name} input {i % POOL}: identity residual {worst:.3e} above {bound:.3e}")
            mp = np.linalg.pinv(m)
            gram, cogram = m.conj().T @ m, m @ m.conj().T
            eq_tol = tenrol.DEFAULT_POLICY.eq_tol
            normal = rel_err(cogram, gram) <= eq_tol
            ep = rel_err(m @ mp, mp @ m) <= eq_tol
            require((rep.normal, rep.ep) == (normal, ep), f"{name}: normal/ep flags disagree with numpy")

        return Op(name, run, check)

    def ops(self) -> list[Op]:
        return [
            self._pinv_op("pinv16"),
            self._pinv_op("pinv32"),
            self._pinv_op("pinv32_lowrank"),
            self._tsvd_op(),
            self._identity_op(),
        ]

    def warm_up(self) -> None:
        for op in self.ops():
            op.check(0, op.run(0))

    def lane_parity(self) -> str:
        """Run both kernel lanes on every spectral input when the compiled one imports."""
        try:
            from tenrol import _jacobi_cy, _jacobi_py
        except ImportError:
            return "compiled lane not importable"
        from tenrol.unfold import JACOBI_EPS, MAX_SWEEPS

        count = 0
        for mats in self.mats.values():
            for m in mats:
                tall = m if m.shape[0] >= m.shape[1] else m.conj().T
                s = []
                for lane in (_jacobi_py, _jacobi_cy):
                    cols = np.ascontiguousarray(tall.T)
                    vrows = np.eye(tall.shape[1], dtype=np.complex128)
                    sweeps = lane.jacobi_sweeps(cols, vrows, JACOBI_EPS, MAX_SWEEPS)
                    require(sweeps >= 0, f"{lane.BACKEND} lane did not converge")
                    s.append(np.sort(np.linalg.norm(cols, axis=1)))
                err = rel_err(s[1], s[0])
                require(err <= TOL, f"kernel lanes disagree: singular values differ by {err:.3e}")
                count += 1
        return f"compiled and python lanes agree on {count} inputs"


# ---------------------------------------------------------------------------
# cli


def write_doc(path: Path, mat: np.ndarray, row_dims, col_dims) -> None:
    """Write a tensor document without going through tenrol."""
    pairs = np.stack([mat.real.reshape(-1), mat.imag.reshape(-1)], axis=1).tolist()
    doc = {"row_dims": list(row_dims), "col_dims": list(col_dims), "entries": pairs}
    path.write_text(json.dumps(doc), encoding="utf-8")


def read_doc(path: Path) -> tuple[np.ndarray, list, list]:
    """Parse a tensor document without going through tenrol."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    pairs = np.asarray(doc["entries"], dtype=np.float64)
    rows, cols = math.prod(doc["row_dims"]), math.prod(doc["col_dims"])
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(rows, cols), doc["row_dims"], doc["col_dims"]


class Cli:
    """In-process ``run_command`` on 16x16:16x16 files, where JSON parse and format dominate."""

    trace_calls = 1  # rounds per traced pass
    stressed = (
        "cli.parse_tensor_file", "cli.format_tensor", "cli.write_tensor_file", "cli.run_command",
        "rol.rol_report", "core.einstein_product", "kernel.jacobi_sweeps",
    )
    DIMS = (16, 16)

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        n = math.prod(self.DIMS)
        self.a_mat = _complex_normal(rng, (n, n))
        self.b_mat = _complex_normal(rng, (n, n))
        self.ab_ref = self.a_mat @ self.b_mat
        self.a_path, self.b_path = workdir / "a.json", workdir / "b.json"
        self.out_path = workdir / "ab.json"
        self.rol_paths = [root / "tests" / "data" / f"rol_counterexample_{s}.json" for s in "ab"]
        for p in self.rol_paths:
            require(p.is_file(), f"missing input {p}")
        write_doc(self.a_path, self.a_mat, self.DIMS, self.DIMS)
        write_doc(self.b_path, self.b_mat, self.DIMS, self.DIMS)

    @staticmethod
    def _command(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tenrol.cli.run_command(argv)
        return code, out.getvalue(), err.getvalue()

    def _product(self, i: int):
        return self._command(["product", "--a", str(self.a_path), "--b", str(self.b_path),
                              "--out", str(self.out_path)])

    def _check_product(self, i: int, res) -> None:
        code, _, err = res
        require(code == 0, f"product exited {code}: {err.strip()}")
        mat, rows, cols = read_doc(self.out_path)
        require(rows == list(self.DIMS) and cols == list(self.DIMS), "product: wrong mode split")
        e = rel_err(mat, self.ab_ref)
        require(e <= 1e-12, f"product: relative error {e:.3e} against numpy a @ b")
        self.out_path.unlink()

    def _trace(self, i: int):
        return self._command(["trace", "--in", str(self.a_path)])

    def _check_trace(self, i: int, res) -> None:
        code, out, err = res
        require(code == 0, f"trace exited {code}: {err.strip()}")
        re_s, im_s = out.split()
        diag = np.diagonal(self.a_mat)
        err_abs = abs(complex(float(re_s), float(im_s)) - diag.sum())
        require(err_abs <= 1e-12 * np.abs(diag).sum(), f"trace: off numpy trace by {err_abs:.3e}")

    def _rol(self, i: int):
        return self._command(["rol", "--a", str(self.rol_paths[0]), "--b", str(self.rol_paths[1])])

    def _check_rol(self, i: int, res) -> None:
        code, out, err = res
        require(code == 3, f"rol on the stored counterexample exited {code}, expected 3: {err.strip()}")
        require("does not hold" in out, "rol: verdict line missing")

    def ops(self) -> list[Op]:
        return [
            Op("product", self._product, self._check_product),
            Op("trace", self._trace, self._check_trace),
            Op("rol", self._rol, self._check_rol),
        ]

    def warm_up(self) -> None:
        for op in self.ops():
            op.check(0, op.run(0))


WORKLOADS = {"fuzz": Fuzz, "spectral": Spectral, "cli": Cli}
