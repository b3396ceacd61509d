"""In-memory spans around hexflow's public functions, installed from outside.

Nothing inside src/hexflow is traced.  install() rebinds a function at the
names its consuming modules imported it under (flows.curvature,
solver.cho_factor, curvature.corner_jacobian, ...), so a call goes through
exactly one wrapper.  A name that does not exist is skipped with a note and
never fails the run, so the benchmark keeps working when a refactor moves or
removes the code it wraps.

Spans are kept in flat arrays (name id, start, end, parent) and written out
when the run ends.  Counters (Newton iterations, accepted flow steps) are
stored with the span count at the time they were recorded, so spans and
counters can both be cut into per-solve segments by span index.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NullTracer:
    """Stand-in used while measuring end-to-end metrics: records nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def __len__(self) -> int:
        return 0


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: list[tuple[int, str, float]] = []
        self.notes: list[str] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float) -> None:
        self.counters.append((len(self.start), name, float(value)))

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def to_doc(self) -> dict:
        return {
            "names": self.names,
            "spans": [[n, s, e, p] for n, s, e, p in
                      zip(self.name_id, self.start, self.end, self.parent)],
            "counters": [list(c) for c in self.counters],
            "notes": self.notes,
        }

    def merge(self, doc: dict) -> None:
        """Append spans recorded by a child process under the open span.

        time.perf_counter is CLOCK_MONOTONIC on Linux, shared by processes,
        so child start and end times need no shift.
        """
        offset = len(self.start)
        ids = [self._id(name) for name in doc["names"]]
        for n, s, e, p in doc["spans"]:
            self.name_id.append(ids[n])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + offset if p >= 0 else self._stack[-1])
        self.counters.extend((pos + offset, name, value)
                             for pos, name, value in doc["counters"])
        for text in doc["notes"]:
            self.note(text)

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every span called `name`."""
        if name not in self._ids:
            return np.empty(0)
        sel = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[sel]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (duration
        minus the part covered by child spans)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out


@dataclass(frozen=True)
class Layer:
    """A function traced as span `name` at each "module.attr" in `targets`.

    `label(args, kwargs)` may append a suffix to the span name, and
    `record(tracer, result)` may turn the return value into counters.
    """

    name: str
    targets: tuple[str, ...]
    label: Callable | None = None
    record: Callable | None = None


def _wrap(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    def span_name(args, kwargs) -> str:
        if layer.label is None:
            return layer.name
        try:
            return f"{layer.name}.{layer.label(args, kwargs)}"
        except Exception as exc:  # a changed signature must not fail the run
            tracer.note(f"{layer.name}: cannot label span ({exc!r})")
            return layer.name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(span_name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if layer.record is not None:
            try:
                layer.record(tracer, result)
            except Exception as exc:  # a changed result type must not fail the run
                tracer.note(f"{layer.name}: cannot read result ({exc!r})")
        return result

    return wrapper


def install(tracer: Tracer, layers) -> Callable[[], None]:
    """Rebind every existing target to a tracing wrapper; returns an undo.

    Targets in modules that are not loaded are skipped without a note."""
    undo = []
    for layer in layers:
        wrappers: dict[int, Callable] = {}
        found = False
        for target in layer.targets:
            modname, _, attr = target.rpartition(".")
            mod = sys.modules.get(modname)
            if mod is None:  # e.g. hexflow.cli outside a CLI process
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                tracer.note(f"{layer.name}: {target} does not exist, not traced there")
                continue
            found = True
            if id(fn) not in wrappers:
                wrappers[id(fn)] = _wrap(tracer, layer, fn)
            setattr(mod, attr, wrappers[id(fn)])
            undo.append((mod, attr, fn))
        if not found:
            tracer.note(f"{layer.name}: traced nowhere, its metrics read 0")

    def restore() -> None:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)

    return restore


def _iterations(tracer: Tracer, result) -> None:
    tracer.count("solver.iterations", result.iterations)


def _steps(tracer: Tracer, result) -> None:
    _state, trace, _status = result
    tracer.count("flows.steps", trace.rows[-1].step)


def _flow_kind(args, kwargs) -> str:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.kind.name


LAYERS = (
    Layer("hexgeom.corner_jacobian", ("hexflow.curvature.corner_jacobian",)),
    Layer("hexgeom.hexagon_geometry", ("hexflow.curvature.hexagon_geometry",)),
    Layer("hexgeom.edge_length", ("hexflow.curvature.edge_length",)),
    Layer("mesh.parse_mesh", ("hexflow.mesh.parse_mesh",)),
    Layer("mesh.validate_state", tuple(f"hexflow.{m}.validate_state" for m in
                                       ("mesh", "curvature", "flows", "solver", "cli"))),
    Layer("curvature.curvature", tuple(f"hexflow.{m}.curvature" for m in
                                       ("curvature", "flows", "solver", "cli"))),
    Layer("curvature.laplacian", ("hexflow.flows.laplacian", "hexflow.solver.laplacian")),
    Layer("curvature.ricci_potential", ("hexflow.flows.ricci_potential",)),
    Layer("flows.integrate", ("hexflow.flows.integrate", "hexflow.cli.integrate"),
          label=_flow_kind, record=_steps),
    Layer("flows.rhs", ("hexflow.flows.rhs",)),
    Layer("flows.fractional_power", ("hexflow.flows.fractional_power",)),
    Layer("solver.newton_solve", ("hexflow.solver.newton_solve", "hexflow.cli.newton_solve"),
          record=_iterations),
    Layer("solver.cho_factor", ("hexflow.solver.cho_factor",)),
    Layer("solver.cho_solve", ("hexflow.solver.cho_solve",)),
)


def segment_metrics(tracer: Tracer, lo: int, hi: int, faces: int) -> dict[str, float]:
    """Per-layer metrics of one solve: the spans with index in [lo, hi)."""
    all_names = np.frombuffer(tracer.name_id, dtype=np.int32)
    names = all_names[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi]
    dur = (np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[lo:hi]
    parent_name = np.where(parent >= 0, all_names[np.maximum(parent, 0)], -1)
    ids = tracer._ids

    def sel(name: str, under: str | None = None) -> np.ndarray:
        mask = names == ids.get(name, -2)
        if under is not None:
            mask &= parent_name == ids.get(under, -2)
        return mask

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer in ("hexgeom.corner_jacobian", "hexgeom.hexagon_geometry",
                  "hexgeom.edge_length", "mesh.validate_state",
                  "curvature.curvature", "curvature.laplacian",
                  "curvature.ricci_potential", "flows.rhs", "flows.fractional_power",
                  "solver.cho_factor", "solver.cho_solve"):
        mask = sel(layer)
        out[f"{layer}.calls"] = float(mask.sum())
        out[f"{layer}.s"] = float(dur[mask].sum())
    for layer in ("curvature.curvature", "curvature.laplacian"):
        out[f"{layer}.faces_per_s"] = ratio(out[f"{layer}.calls"] * faces, out[f"{layer}.s"])
    out["curvature.ricci_potential.curvature_calls_per_call"] = ratio(
        float(sel("curvature.curvature", "curvature.ricci_potential").sum()),
        out["curvature.ricci_potential.calls"])
    for kind in ("ricci", "calabi", "fractional"):
        out[f"flows.integrate.{kind}.s"] = float(dur[sel(f"flows.integrate.{kind}")].sum())
    for cmd in ("check", "curvature", "solve", "flow"):
        out[f"cli.{cmd}.s"] = float(dur[sel(f"cli.{cmd}")].sum())

    counters: dict[str, float] = {}
    for pos, name, value in tracer.counters:
        # a counter recorded after span k was opened has pos = k + 1
        if lo < pos <= hi:
            counters[name] = counters.get(name, 0.0) + value
    out["flows.steps"] = counters.get("flows.steps", 0.0)
    out["flows.rhs_per_step"] = ratio(out["flows.rhs.calls"], out["flows.steps"])
    iterations = counters.get("solver.iterations", 0.0)
    newton_calls = float(sel("solver.newton_solve").sum())
    solver_curvature = float(sel("curvature.curvature", "solver.newton_solve").sum())
    out["solver.iterations"] = iterations
    # K is evaluated once per Newton call and once per accepted step; every
    # further evaluation is a trial step the sufficient-decrease test rejected
    out["solver.backtracks"] = solver_curvature - iterations - newton_calls
    return out


def write_doc(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
