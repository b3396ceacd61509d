"""Curvature-flow right-hand sides and adaptive RK4 time integration.

Three flows on the conformal factors u:

    ricci:       du/dt = K - Kbar
    calabi:      du/dt = -Delta (K - Kbar)
    fractional:  du/dt = -Delta^s (K - Kbar),   Delta^s = -(-Delta)^s

s = 0 reduces the fractional flow to the Ricci flow and s = 1 to the Calabi
flow; both reductions are exact special cases in fractional_power.

The integrator is classical RK4 with step doubling.  A proposed step is
rejected (and dt halved) when the doubling error exceeds the per-step
tolerance, the trial state leaves the admissible space, or the Calabi
energy increases (Ricci/Calabi kinds); the continuous flows provably stay
interior and decrease the energy, so persistent rejection signals a bug
and raises StepCollapseError after 60 halvings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DefinitenessError, DomainError, InadmissiblePairError,
                     StateError, StepCollapseError)
from .curvature import calabi_energy, curvature, edge_lengths, laplacian, ricci_potential
from .mesh import ConformalState, IdealTriangulation, validate_state

STEP_ERROR_TOL = 1e-9       # per-component step-doubling tolerance
ENERGY_SLACK = 1e-12        # allowed Calabi-energy increase on a step
MAX_HALVINGS = 60
DT_GROWTH = 1.5


@dataclass(frozen=True)
class FlowKind:
    name: str                 # "ricci" | "calabi" | "fractional"
    s: float | None = None    # order parameter, fractional only

    def __post_init__(self):
        if self.name not in ("ricci", "calabi", "fractional"):
            raise ValueError(f"unknown flow kind {self.name!r}")
        if self.name == "fractional":
            if self.s is None or not 0.0 <= self.s <= 1.0:
                raise ValueError(f"fractional flow needs an order s in [0, 1], "
                                 f"got {self.s!r}")
        elif self.s is not None:
            raise ValueError(f"{self.name} flow takes no order parameter")

    @classmethod
    def ricci(cls) -> "FlowKind":
        return cls("ricci")

    @classmethod
    def calabi(cls) -> "FlowKind":
        return cls("calabi")

    @classmethod
    def fractional(cls, s: float) -> "FlowKind":
        return cls("fractional", float(s))


@dataclass
class FlowConfig:
    kind: FlowKind
    kbar: np.ndarray
    dt0: float = 0.01
    tol: float = 1e-10
    max_steps: int = 200_000
    trace_every: int = 10

    def __post_init__(self):
        self.kbar = np.asarray(self.kbar, dtype=float)
        if not np.all(self.kbar > 0):
            raise ValueError("every target curvature entry must be positive")
        if not self.dt0 > 0:
            raise ValueError("dt0 must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


class Status(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"


class TraceRow(NamedTuple):
    step: int
    t: float
    dt: float
    residual_inf: float
    calabi_energy: float
    ricci_potential_delta: float
    min_edge_length: float
    max_u: float


CSV_HEADER = "step,t,dt,residual_inf,calabi_energy,ricci_potential_delta,min_edge_length,max_u"


@dataclass
class FlowTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def write_csv(self, fh) -> None:
        fh.write(CSV_HEADER + "\n")
        for row in self.rows:
            fh.write(f"{row.step},{row.t!r},{row.dt!r},{row.residual_inf!r},"
                     f"{row.calabi_energy!r},{row.ricci_potential_delta!r},"
                     f"{row.min_edge_length!r},{row.max_u!r}\n")


def fractional_power(a: np.ndarray, s: float) -> np.ndarray:
    """-(-a)^s for a symmetric negative definite a, by eigendecomposition.

    s = 1 returns a itself and s = 0 returns -I exactly.
    """
    a = np.asarray(a, dtype=float)
    if s == 1.0:
        return a.copy()
    if s == 0.0:
        return -np.eye(a.shape[0])
    w, v = np.linalg.eigh(-a)
    if w[0] <= 0.0:
        raise DefinitenessError(f"matrix is not negative definite: "
                                f"-a has eigenvalue {w[0]!r}")
    return -(v * w ** s) @ v.T


def rhs(m: IdealTriangulation, s: ConformalState, cfg: FlowConfig) -> np.ndarray:
    """Right-hand side du/dt of the configured flow at the state s."""
    resid = curvature(m, s) - cfg.kbar
    kind = cfg.kind
    if kind.name == "ricci":
        return resid
    lap = laplacian(m, s)
    if kind.name == "calabi":
        return -lap @ resid
    return -fractional_power(lap, kind.s) @ resid


def _rk4_step(m: IdealTriangulation, u: np.ndarray, dt: float,
              cfg: FlowConfig) -> np.ndarray:
    def f(x: np.ndarray) -> np.ndarray:
        return rhs(m, validate_state(m, x), cfg)

    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(m: IdealTriangulation, s0: ConformalState,
              cfg: FlowConfig) -> tuple[ConformalState, FlowTrace, Status]:
    """Run the flow from s0 until max|K - Kbar| < cfg.tol or the step budget
    is exhausted.  Returns the final state, the sampled trace and the status."""
    monotone = cfg.kind.name in ("ricci", "calabi")
    trace = FlowTrace()
    state = s0
    k = curvature(m, state)
    resid_inf = float(np.max(np.abs(k - cfg.kbar)))
    energy = calabi_energy(k, cfg.kbar)
    t = 0.0
    dt = cfg.dt0
    step = 0

    def record(dt_used: float) -> None:
        trace.rows.append(TraceRow(
            step=step, t=t, dt=dt_used, residual_inf=resid_inf,
            calabi_energy=energy,
            ricci_potential_delta=ricci_potential(m, state, s0, cfg.kbar),
            min_edge_length=float(np.min(edge_lengths(m, state))),
            max_u=float(np.max(state.u)),
        ))

    record(dt)
    if resid_inf < cfg.tol:
        return state, trace, Status.CONVERGED

    while step < cfg.max_steps:
        accepted = None
        for _ in range(MAX_HALVINGS):
            try:
                y_full = _rk4_step(m, state.u, dt, cfg)
                y_half = _rk4_step(m, state.u, 0.5 * dt, cfg)
                y_half = _rk4_step(m, y_half, 0.5 * dt, cfg)
                new_state = validate_state(m, y_half)
            except (StateError, DomainError, InadmissiblePairError):
                dt *= 0.5
                continue
            if float(np.max(np.abs(y_full - y_half))) > STEP_ERROR_TOL:
                dt *= 0.5
                continue
            new_k = curvature(m, new_state)
            new_energy = calabi_energy(new_k, cfg.kbar)
            if monotone and new_energy > energy + ENERGY_SLACK:
                dt *= 0.5
                continue
            accepted = (new_state, new_k, new_energy)
            break
        if accepted is None:
            raise StepCollapseError(
                f"no acceptable step after {MAX_HALVINGS} halvings at t={t!r} "
                f"(dt collapsed to {dt!r}); the continuous flow stays interior, "
                f"so this indicates a defect")
        state, k, energy = accepted
        resid_inf = float(np.max(np.abs(k - cfg.kbar)))
        t += dt
        step += 1
        dt_used = dt
        dt = min(dt * DT_GROWTH, 10.0 * cfg.dt0)
        converged = resid_inf < cfg.tol
        if converged or step % cfg.trace_every == 0:
            record(dt_used)
        if converged:
            return state, trace, Status.CONVERGED

    if trace.rows[-1].step != step:
        record(dt)
    return state, trace, Status.BUDGET_EXHAUSTED
