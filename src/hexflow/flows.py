"""Curvature-flow right-hand sides and adaptive Dormand-Prince time integration.

Three flows on the conformal factors u:

    ricci:       du/dt = K - Kbar
    calabi:      du/dt = -Delta (K - Kbar)
    fractional:  du/dt = -Delta^s (K - Kbar),   Delta^s = -(-Delta)^s

s = 0 reduces the fractional flow to the Ricci flow and s = 1 to the Calabi
flow; both reductions are exact special cases in fractional_power.  For the
Calabi and fractional flows K and Delta come from one call of the face
kernel.

The integrator is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980), advancing the 5th-order solution.  It is
FSAL ("first same as last"): the 7th stage is evaluated at the new state,
where it also gives the K of the energy check, and is the next step's first
stage, so an attempt costs 6 rhs evaluations.  A step is accepted when
max|dt sum_j e_j k_j|, the difference of the two solutions, is at most the
absolute STEP_ERROR_TOL (Hairer, Norsett & Wanner, Solving ODEs I, sections
II.4-II.5).  A PI controller (Hairer & Wanner, Solving ODEs II, section
IV.2) sets the next dt from this attempt's error and the last accepted
one's, capped at 10 dt0.  An attempt is rejected and dt halved when
the face kernel raises StateError at a stage or at the new state (it left
the admissible space, or its radii overflow the kernel), or when the Calabi
energy increases (Ricci/Calabi kinds); the kernel's own check is the only
admissibility test of a stage.  The continuous flows provably stay
interior and decrease the energy, so persistent rejection signals a bug and
raises StepCollapseError after 60 consecutive rejections.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DefinitenessError, StateError, StepCollapseError
from .curvature import (calabi_energy, curvature, curvature_laplacian, edge_lengths,
                        ricci_potential)
from .mesh import ConformalState, IdealTriangulation

logger = logging.getLogger(__name__)

STEP_ERROR_TOL = 1e-9       # per-component absolute tolerance on the error estimate
ENERGY_SLACK = 1e-12        # allowed Calabi-energy increase on a step
MAX_HALVINGS = 60           # consecutive rejections before StepCollapseError

# Dormand-Prince 5(4): row i of _A gives stage i + 1 from stages 0..i, and
# its last row, the 5th-order weights, gives the new state and so the FSAL
# stage; _E is the 5th- minus the 4th-order weights over all 7 stages
_A = tuple(np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
))
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

# PI step-size controller: dt *= SAFETY * err^-PI_ALPHA * err_prev^PI_BETA
# with errors in units of STEP_ERROR_TOL, clipped to [FACTOR_MIN,
# FACTOR_MAX].  As in Hairer's DOPRI5 code, err_prev starts at, and is
# floored to, ERR_PREV_MIN, and a step accepted after a rejection does not
# grow dt.
SAFETY = 0.9
PI_ALPHA = 0.7 / 5
PI_BETA = 0.4 / 5
FACTOR_MIN = 0.2
FACTOR_MAX = 5.0
ERR_PREV_MIN = 1e-4


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
        if not np.all((self.kbar > 0) & np.isfinite(self.kbar)):
            raise ValueError("every target curvature entry must be positive and finite")
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
    """Sampled rows and the integrator's counters: rhs evaluations, and
    rejected attempts by cause (error estimate, a stage or the new state
    inadmissible, Calabi energy increase)."""

    rows: list[TraceRow] = field(default_factory=list)
    rhs_evals: int = 0
    rejected_error: int = 0
    rejected_inadmissible: int = 0
    rejected_energy: int = 0

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


def _evaluate(m: IdealTriangulation, s: ConformalState,
              cfg: FlowConfig) -> tuple[np.ndarray, np.ndarray]:
    """du/dt of the configured flow at the state s, and K at s, from one
    kernel call."""
    kind = cfg.kind
    if kind.name == "ricci":
        k = curvature(m, s)
        return k - cfg.kbar, k
    k, lap = curvature_laplacian(m, s)
    resid = k - cfg.kbar
    if kind.name == "calabi":
        return -lap @ resid, k
    return -fractional_power(lap, kind.s) @ resid, k


def rhs(m: IdealTriangulation, s: ConformalState, cfg: FlowConfig) -> np.ndarray:
    """Right-hand side du/dt of the configured flow at the state s."""
    return _evaluate(m, s, cfg)[0]


def _step_factor(err: float, err_prev: float) -> float:
    """PI factor for dt from the error estimate of this attempt and the
    last accepted one, both in units of STEP_ERROR_TOL."""
    if err == 0.0:
        return FACTOR_MAX
    factor = SAFETY * err ** -PI_ALPHA * err_prev ** PI_BETA
    return min(FACTOR_MAX, max(FACTOR_MIN, factor))


def integrate(m: IdealTriangulation, s0: ConformalState,
              cfg: FlowConfig) -> tuple[ConformalState, FlowTrace, Status]:
    """Run the flow from s0 until max|K - Kbar| < cfg.tol or the step budget
    is exhausted.  Returns the final state, the sampled trace and the status.

    Each rejected attempt is logged at DEBUG on the hexflow.flows logger and
    counted in the trace by cause."""
    monotone = cfg.kind.name in ("ricci", "calabi")
    trace = FlowTrace()
    state = s0
    ks = np.empty((len(_E), m.n_boundary))   # the stages of one attempt
    ks[0], k = _evaluate(m, state, cfg)
    trace.rhs_evals = 1
    resid_inf = float(np.max(np.abs(k - cfg.kbar)))
    energy = calabi_energy(k, cfg.kbar)
    t = 0.0
    dt = cfg.dt0
    dt_max = 10.0 * cfg.dt0
    err_prev = ERR_PREV_MIN
    step = 0

    def record(dt_used: float) -> None:
        trace.rows.append(TraceRow(
            step=step, t=t, dt=dt_used, residual_inf=resid_inf,
            calabi_energy=energy,
            ricci_potential_delta=ricci_potential(m, state, s0, cfg.kbar),
            min_edge_length=float(np.min(edge_lengths(m, state))),
            max_u=float(np.max(state.u)),
        ))

    def reject(cause: str, detail: str, factor: float = 0.5) -> None:
        nonlocal dt, after_rejection
        logger.debug("step %d rejected (%s) at t=%r with dt=%r: %s",
                     step + 1, cause, t, dt, detail)
        dt *= factor
        after_rejection = True

    record(dt)
    if resid_inf < cfg.tol:
        return state, trace, Status.CONVERGED

    while step < cfg.max_steps:
        accepted = None
        after_rejection = False
        for _ in range(MAX_HALVINGS):
            try:
                for i, a in enumerate(_A[:-1]):
                    stage = ConformalState(u=state.u + dt * (a @ ks[:i + 1]))
                    ks[i + 1], _ = _evaluate(m, stage, cfg)
                    trace.rhs_evals += 1
                new_state = ConformalState(u=state.u + dt * (_A[-1] @ ks[:-1]))
                ks[-1], new_k = _evaluate(m, new_state, cfg)
                trace.rhs_evals += 1
            except StateError as exc:
                trace.rejected_inadmissible += 1
                reject("inadmissible", str(exc))
                continue
            err = dt * float(np.max(np.abs(_E @ ks))) / STEP_ERROR_TOL
            if err > 1.0:
                trace.rejected_error += 1
                reject("error", f"error estimate {err!r} x STEP_ERROR_TOL",
                       _step_factor(err, err_prev))
                continue
            new_energy = calabi_energy(new_k, cfg.kbar)
            if monotone and new_energy > energy + ENERGY_SLACK:
                trace.rejected_energy += 1
                reject("energy", f"Calabi energy {energy!r} -> {new_energy!r}")
                continue
            accepted = (new_state, new_k, new_energy)
            break
        if accepted is None:
            raise StepCollapseError(
                f"no acceptable step after {MAX_HALVINGS} consecutive rejections "
                f"at t={t!r} (dt collapsed to {dt!r}); the continuous flow stays "
                f"interior, so this indicates a defect")
        state, k, energy = accepted
        ks[0] = ks[-1]
        resid_inf = float(np.max(np.abs(k - cfg.kbar)))
        t += dt
        step += 1
        dt_used = dt
        factor = _step_factor(err, err_prev)
        if after_rejection:
            factor = min(factor, 1.0)
        dt = min(dt * factor, dt_max)
        err_prev = max(err, ERR_PREV_MIN)
        converged = resid_inf < cfg.tol
        if converged or step % cfg.trace_every == 0:
            record(dt_used)
        if converged:
            return state, trace, Status.CONVERGED

    if trace.rows[-1].step != step:
        record(dt)
    return state, trace, Status.BUDGET_EXHAUSTED
