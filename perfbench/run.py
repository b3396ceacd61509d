"""hexflow benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload newton-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the hexflow measured is the one in that
tree's src directory, never an installed copy.  The run draws problem
instances from --seed and sets up and solves them one after another for
--seconds seconds, checks every solve against its accuracy gate and prints,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, taken from a traced half of
the run and compared with an untraced half for trace_overhead_s.  The exit
code is 0 only when every solve passed its gate.  A JSON record of the run
(machine, samples, notes) and, when tracing, the spans with their self
times are written under .perfbench_out/ in the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Run BLAS single-threaded, in this process and the children, which
    inherit the setting.  One client in one process is the baseline: on a
    small shared machine a multi-threaded BLAS pool made cho_factor times
    swing twofold between runs.  Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}


def fresh_interpreter_s(code: str, env: dict) -> float:
    """Wall time of `python -c code` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Sample:
    setup_s: float
    solve_s: float
    ok: bool
    lo: int      # spans [lo, hi) of the tracer belong to the solve
    hi: int
    faces: int
    probe_s: float | None


def solve_loop(wl, rng, seconds: float, tracer, log: list, probe=None) -> list[Sample]:
    """Closed loop until `seconds` have passed (at least one solve): set up a
    fresh instance from `rng`, solve it, then call `probe()`, which returns
    the seconds it measured, if given; probes do not count against `seconds`.  Set-ups and probes are
    spread over the run because a shared machine's speed can change from one
    second to the next, and a burst of them would sample a single moment."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            p = wl.set_up(rng)
        t1 = time.perf_counter()
        lo = len(tracer)
        try:
            with tracer.span("solve"):
                wl.solve(p, tracer)
            ok = True
        except Exception:  # every failure is counted and the loop goes on
            ok = False
            log.append(traceback.format_exc(limit=3))
        t2 = time.perf_counter()
        probe_s = probe() if probe is not None else None
        deadline += time.perf_counter() - t2
        samples.append(Sample(t1 - t0, t2 - t1, ok, lo, len(tracer), len(p.m.faces),
                              probe_s))
    return samples


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hexflow" / "__init__.py").is_file():
        print(f"no hexflow source tree at {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import hexflow
    if Path(hexflow.__file__).resolve().parent != (SRC / "hexflow").resolve():
        print(f"imported hexflow from {hexflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    from tracer import LAYERS, NullTracer, Tracer, install, segment_metrics, write_doc
    from workloads import WORKLOADS

    machine = machine_record(nproc)
    print(json.dumps({"machine": machine}))
    OUT_DIR.mkdir(exist_ok=True)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    notes: list[str] = []
    self_times: dict = {}

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        ctx = SimpleNamespace(root=ROOT, bench_dir=BENCH_DIR, workdir=workdir,
                              child_env=child_env)
        wl = WORKLOADS[args.workload](ctx)
        rng = np.random.default_rng(args.seed)

        if args.trace == 0:
            samples = solve_loop(wl, rng, args.seconds, NullTracer(), failures,
                                 probe=lambda: fresh_interpreter_s("import hexflow",
                                                                   child_env))
            rusage = resource.RUSAGE_CHILDREN if wl.work_in_children else resource.RUSAGE_SELF
            values = {
                "solve_s": statistics.median(s.solve_s for s in samples),
                "setup_s": statistics.median(s.setup_s for s in samples),
                "import_s": statistics.median(s.probe_s for s in samples),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
        else:
            plain = solve_loop(wl, rng, args.seconds / 2, NullTracer(), failures)
            tracer = Tracer()
            restore = install(tracer, LAYERS)
            try:
                samples = solve_loop(wl, rng, args.seconds / 2, tracer, failures)
            finally:
                restore()
            per_solve = [segment_metrics(tracer, s.lo, s.hi, s.faces) for s in samples]
            values = {key: statistics.median(m[key] for m in per_solve)
                      for key in per_solve[0]}
            parses = tracer.durations("mesh.parse_mesh")
            if parses.size:
                values["mesh.parse_mesh.s"] = float(np.median(parses))
            values["cli.python_startup_s"] = statistics.median(
                fresh_interpreter_s("pass", child_env) for _ in range(5))
            values["trace_overhead_s"] = (statistics.median(s.solve_s for s in samples)
                                          - statistics.median(s.solve_s for s in plain))
            samples = plain + samples
            notes.extend(tracer.notes)
            self_times = tracer.self_times()
            write_doc(OUT_DIR / f"spans-{tag}.json",
                      {"machine": machine, "self_times": self_times, **tracer.to_doc()})
            wanted = spec["per_layer"]

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            notes.append(f"{metric['name']}: not taken on this workload, reads 0")
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0),
                                   "unit": metric["unit"]}
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "solves": attempted, "fail_rate": failed / attempted,
        "solve_times_s": [s.solve_s for s in samples],
        "setup_times_s": [s.setup_s for s in samples],
        "import_times_s": [s.probe_s for s in samples if s.probe_s is not None],
        "metrics": metrics, "notes": notes, "failures": failures,
    }
    write_doc(OUT_DIR / f"result-{tag}.json", summary)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} set-ups "
          f"and solves")
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_rate':<52} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    by_self = sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"])
    for name, t in by_self[:12]:
        print(f"self time {name:<42} {t['self_s']:>10.4f} s in {t['calls']} calls")
    for text in notes:
        print(f"note: {text}")
    for text in failures:
        print(f"failure: {text}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
