"""The three closed-loop workloads: set-up, one solve, and its correctness gate.

Every workload runs one client in one process: each solve starts only after
the previous one has finished.  set_up() builds one problem instance from
the run's random generator and is what setup_s times; solve() runs one solve
on an instance and raises GateError when the result misses its accuracy
gate.  hexflow modules are looked up in sys.modules at call time, so the
tracer's rebound names are the ones called.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import meshgen

CHILD_TIMEOUT_S = 120


class GateError(Exception):
    """A solve finished but its result misses the workload's accuracy gate."""


def _mod(name: str):
    return sys.modules[f"hexflow.{name}"]


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _max_err(u, u_star) -> float:
    return float(np.max(np.abs(np.asarray(u, dtype=float) - u_star)))


@dataclass
class Problem:
    m: object          # hexflow.IdealTriangulation
    u_star: np.ndarray
    kbar: np.ndarray
    files: dict | None = None
    k0: np.ndarray | None = None


def _problem(text: str, rng: np.random.Generator, lo: float, hi: float) -> Problem:
    m = _mod("mesh").parse_mesh(text)
    u_star = meshgen.scaled_state(m, rng, lo, hi)
    kbar = _mod("curvature").curvature(m, _mod("mesh").validate_state(m, u_star))
    return Problem(m=m, u_star=u_star, kbar=kbar)


class Workload:
    work_in_children = False  # peak_rss_mb then reads the largest child

    def __init__(self, ctx):
        self.ctx = ctx


class NewtonGrid(Workload):
    """newton_solve from the default start on the 50x50 torus grid with
    random weights; the Python face loops and dense Cholesky dominate."""

    name = "newton-grid"
    n = 50

    def set_up(self, rng: np.random.Generator) -> Problem:
        phi = rng.uniform(0.5, 3.0, size=3 * self.n * self.n)
        return _problem(meshgen.torus_grid(self.n, phi), rng, 0.3, 0.9)

    def solve(self, p: Problem, tracer) -> None:
        r = _mod("solver").newton_solve(p.m, None, p.kbar, tol=1e-10)
        _gate(r.converged and r.residual_inf < 1e-10,
              f"newton: converged={r.converged} residual_inf={r.residual_inf!r}")
        err = _max_err(r.u_star.u, p.u_star)
        _gate(err < 1e-8, f"newton: max|u - u*| = {err!r}")


class FlowsSmall(Workload):
    """Ricci, Calabi and fractional (s = 0.5) flows on the 3x3 grid with
    phi = 2: thousands of rhs evaluations on 9x9 matrices."""

    name = "flows-small"
    n = 3

    def set_up(self, rng: np.random.Generator) -> Problem:
        # u* ~ U(-0.6, -0.3): with phi = 2 the scale min(1, phi_min / 2) is 1
        return _problem(meshgen.torus_grid(self.n, 2.0), rng, 0.3, 0.6)

    def solve(self, p: Problem, tracer) -> None:
        flows = _mod("flows")
        for kind in (flows.FlowKind.ricci(), flows.FlowKind.calabi(),
                     flows.FlowKind.fractional(0.5)):
            cfg = flows.FlowConfig(kind=kind, kbar=p.kbar, tol=1e-8)
            s0 = _mod("solver").default_start(p.m)
            final, _trace, status = flows.integrate(p.m, s0, cfg)
            _gate(status is flows.Status.CONVERGED, f"{kind.name}: status {status}")
            err = _max_err(final.u, p.u_star)
            _gate(err < 1e-7, f"{kind.name}: max|u - u*| = {err!r}")


class CliSmall(Workload):
    """Four fresh-interpreter CLI runs on N = 9 files: interpreter start,
    import and JSON parsing dominate, the numerics are small."""

    name = "cli-small"
    n = 3
    work_in_children = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self._count = 0

    def set_up(self, rng: np.random.Generator) -> Problem:
        text = meshgen.torus_grid(self.n, 2.0)
        p = _problem(text, rng, 0.3, 0.6)
        s0 = _mod("solver").default_start(p.m)
        p.k0 = _mod("curvature").curvature(p.m, s0)
        d = Path(self.ctx.workdir) / f"cli-{self._count}"
        self._count += 1
        d.mkdir()
        p.files = {key: str(d / f"{key}.json") for key in
                   ("mesh", "state", "target", "solved", "flowed")}
        p.files["trace"] = str(d / "trace.csv")
        Path(p.files["mesh"]).write_text(text, encoding="utf-8")
        Path(p.files["state"]).write_text(json.dumps({"u": s0.u.tolist()}), encoding="utf-8")
        Path(p.files["target"]).write_text(json.dumps({"kbar": p.kbar.tolist()}),
                                           encoding="utf-8")
        return p

    def _run(self, cmd: str, args: list[str], tracer) -> str:
        if tracer.enabled:
            spans = Path(self.ctx.workdir) / "child-spans.json"
            spans.unlink(missing_ok=True)  # never merge a previous child's spans
            argv = [sys.executable, str(self.ctx.bench_dir / "traced_cli.py"),
                    str(spans), cmd, *args]
        else:
            argv = [sys.executable, "-m", "hexflow.cli", cmd, *args]
        with tracer.span(f"cli.{cmd}"):
            proc = subprocess.run(argv, env=self.ctx.child_env, cwd=self.ctx.root,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if tracer.enabled:
                tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        _gate(proc.returncode == 0,
              f"cli {cmd}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def solve(self, p: Problem, tracer) -> None:
        f = p.files
        self._run("check", [f["mesh"]], tracer)
        out = self._run("curvature", [f["mesh"], "--state", f["state"]], tracer)
        k = np.array(json.loads(out)["K"], dtype=float)
        _gate(k.shape == p.k0.shape and float(np.max(np.abs(k - p.k0))) < 1e-12,
              "cli curvature: K differs from the in-process K")
        self._run("solve", [f["mesh"], "--target", f["target"], "--out", f["solved"]],
                  tracer)
        err = _max_err(json.loads(Path(f["solved"]).read_text())["u"], p.u_star)
        _gate(err < 1e-8, f"cli solve: max|u - u*| = {err!r}")
        self._run("flow", [f["mesh"], "--state", f["state"], "--target", f["target"],
                           "--kind", "ricci", "--tol", "1e-8", "--trace", f["trace"],
                           "--out", f["flowed"]], tracer)
        err = _max_err(json.loads(Path(f["flowed"]).read_text())["u"], p.u_star)
        _gate(err < 1e-7, f"cli flow: max|u - u*| = {err!r}")


WORKLOADS = {w.name: w for w in (NewtonGrid, FlowsSmall, CliSmall)}
