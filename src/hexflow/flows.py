"""Curvature-flow right-hand sides and adaptive Dormand-Prince time integration.

Three flows on the conformal factors u:

    ricci:       du/dt = K - Kbar
    calabi:      du/dt = -Delta (K - Kbar)
    fractional:  du/dt = -Delta^s (K - Kbar),   Delta^s = -(-Delta)^s

The three are one flow of order s (FlowKind.order): the Ricci flow is order
0, the Calabi flow order 1, and the order alone picks the evaluation.  Order
0 evaluates K alone; order 1 gets K and Delta from one kernel call and
multiplies by Delta with one scatter over its stored entries
(curvature._apply); any other order builds the dense Delta for the
eigendecomposition.  So fractional(0) and (1) run the Ricci and Calabi flows.

The integrator is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
section II.10), Prince and Dormand's explicit 8th-order Runge-Kutta method
with embedded 5th- and 3rd-order error estimators, advancing the 8th-order
solution with 12 stages.  It is FSAL ("first same as last"): the
evaluation at the new state gives the K of the energy check and g for
the stability cap, and is the next step's first stage, so an attempt costs
12 rhs evaluations.  The error estimate blends the differences from the
embedded 5th- and 3rd-order solutions as Hairer's DOP853 code does, in the
per-component absolute max norm, and a step is accepted when it is at most
STEP_ERROR_TOL.  The next dt is dt * 0.9 err^(-1/8), clipped to [1/3, 6]
(at most 1 right after a rejection, below), and then capped so that the flow
linearized at the new state stays inside the tableau's real stability
interval [-STABILITY_BOUND, 0]: dt <= 0.9 STABILITY_BOUND / g^p, with g the
largest absolute row sum of Delta, a Gershgorin bound on the eigenvalues of
-Delta, and p = 1 + s for the flow of order s.  Without the
cap, dt would settle where the stiffest mode of u - u* neither decays nor
grows, and the residual would stall at a size set by STEP_ERROR_TOL.  The
first trial step is DT0, uncapped.

An attempt is rejected and dt halved when the face kernel raises StateError
at a stage or at the new state (it left the admissible space, or its radii
overflow the kernel), or when the Calabi energy E = |K - Kbar|^2 / 2
increases; the kernel's own check is the only admissibility test of a
stage.  Every kind decreases E: with r = K - Kbar, dE/dt = r . Delta du/dt
= -r . (-Delta)^(1+s) r < 0, for s = 0 (Ricci), s = 1 (Calabi) and every
fractional order between.  The integrator keeps one count of consecutive
rejected attempts, whatever the cause (error estimate, inadmissible state,
energy increase), reset when an attempt is accepted.  A step accepted with the count above 0 does not grow dt, and the
count reaching 60 raises StepCollapseError: the continuous flows provably
stay interior, so persistent rejection signals a bug.

The Ricci potential Phi, whose gradient is -(K - Kbar), is carried as one
more component of the ODE: dPhi/dt = -(K - Kbar) . du/dt at every stage,
from the K that the stage's kernel call already returns, advanced with the
same weights as u and kept out of the error estimate.  Phi is
path-independent, so the carried value is Phi(u) - Phi(u0) up to the step
error.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DefinitenessError, StateError, StepCollapseError
from .curvature import (_apply, _check_target, _dense_laplacian, _hexagons,
                        calabi_energy, curvature, edge_lengths)
from .mesh import ConformalState, IdealTriangulation, _frozen

logger = logging.getLogger(__name__)

DT0 = 0.01                  # first trial step; the stability cap applies from step 2
STEP_ERROR_TOL = 1e-10      # per-component absolute tolerance on the error estimate
ENERGY_SLACK = 1e-12        # allowed Calabi-energy increase on a step
MAX_HALVINGS = 60           # consecutive rejections before StepCollapseError

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, section II.10; Prince &
# Dormand, J. Comput. Appl. Math. 7, 1981), with the coefficients of
# Hairer's DOP853 code.  Row i of _A gives stage i + 1 from stages 0..i,
# and its last row, the 8th-order weights, gives the new state and so the
# FSAL stage.  _E5 and _E3 are the 8th-order weights minus those of the
# embedded 5th- and 3rd-order solutions, over the 12 stages.  _C holds the
# nodes; the flows are autonomous, so only the tableau's tests read it.
_A = tuple(np.array(row) for row in (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
))
_E5 = np.array(
    [0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
     -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
     0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
     0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
     -0.2235530786388629525884427845e-1])
_E3 = _A[-1] - np.array(
    [0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
     0.733846688281611857341361741547, 0.0, 0.0,
     0.220588235294117647058823529412e-1])
_C = np.array(
    [0.0, 0.526001519587677318785587544488e-01,
     0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
     0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
     0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
     0.857142857142857142857142857142, 1.0])

# Step-size controller: dt *= SAFETY * err^(-1/8), with err in units of
# STEP_ERROR_TOL, clipped to [FACTOR_MIN, FACTOR_MAX]; as in Hairer's
# DOP853 code, a step accepted after a rejection does not grow dt.
SAFETY = 0.9
FACTOR_MIN = 1 / 3
FACTOR_MAX = 6.0

# |R(-STABILITY_BOUND)| = 1 for the stability function R of the tableau,
# and |R(x)| < 1 on (-STABILITY_BOUND, 0): the real-axis stability interval
STABILITY_BOUND = 6.3936515


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

    @property
    def order(self) -> float:
        return self.s if self.name == "fractional" else float(self.name == "calabi")

    @classmethod
    def ricci(cls) -> "FlowKind":
        return cls("ricci")

    @classmethod
    def calabi(cls) -> "FlowKind":
        return cls("calabi")

    @classmethod
    def fractional(cls, s: float) -> "FlowKind":
        return cls("fractional", float(s))


@dataclass(frozen=True)
class FlowConfig:
    kind: FlowKind
    kbar: np.ndarray          # a read-only copy of the caller's target
    tol: float = 1e-10
    max_steps: int = 200_000
    trace_every: int = 10

    def __post_init__(self):
        object.__setattr__(self, "kbar", _frozen(np.array(self.kbar, dtype=float)))
        if not np.all((self.kbar > 0) & np.isfinite(self.kbar)):
            raise ValueError("every target curvature entry must be positive and finite")
        if (isinstance(self.tol, (bool, np.bool_))
                or not (self.tol > 0 and math.isfinite(self.tol))):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        for name in ("max_steps", "trace_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


class Status(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"


class TraceRow(NamedTuple):
    """One sampled step.  ricci_potential_delta is Phi(u) - Phi(u0) as the
    integrator carries it along the flow, accurate to its step error;
    curvature.ricci_potential gives the same value by quadrature."""

    step: int
    t: float
    dt: float
    residual_inf: float
    calabi_energy: float
    ricci_potential_delta: float
    min_edge_length: float
    max_u: float


CSV_HEADER = ",".join(TraceRow._fields)


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
            fh.write(",".join(map(repr, row)) + "\n")


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


def _evaluate(m: IdealTriangulation, s: ConformalState, cfg: FlowConfig,
              with_bound: bool = False):
    """du/dt of the configured flow at the state s, K at s and, when
    with_bound is set, g at s (else None), from one kernel call.

    g is the largest absolute row sum of Delta, a Gershgorin bound on the
    eigenvalues of -Delta, summed over the stored entries of Delta.  Order 1
    applies Delta by one scatter over those entries; only the orders
    strictly between 0 and 1 build the dense Delta, which eigh needs."""
    order = cfg.kind.order
    if order == 0.0 and not with_bound:
        k = curvature(m, s)
        return k - cfg.kbar, k, None
    k, data, _jac = _hexagons(m, s.u, jacobian=True)
    resid = k - cfg.kbar
    g = None
    if with_bound:
        p = m.laplacian_pattern
        g = float(np.bincount(p.indices, weights=np.abs(data),
                              minlength=m.n_boundary).max())
    if order == 0.0:
        return resid, k, g
    if order == 1.0:
        return -_apply(m, data, resid), k, g
    return -fractional_power(_dense_laplacian(m, data), order) @ resid, k, g


def rhs(m: IdealTriangulation, s: ConformalState, cfg: FlowConfig) -> np.ndarray:
    """Right-hand side du/dt of the configured flow at the state s."""
    return _evaluate(m, s, cfg)[0]


def _step_error(dt: float, ks: np.ndarray) -> float:
    """The error estimate of a step, in units of STEP_ERROR_TOL, from its
    12 stages ks: DOP853's blend of the 5th- and 3rd-order differences,
    each in the per-component absolute max norm."""
    e5 = float(np.max(np.abs(_E5 @ ks)))
    e3 = float(np.max(np.abs(_E3 @ ks)))
    if e5 == 0.0:
        return 0.0
    return dt * e5 * e5 / (math.sqrt(e5 * e5 + 0.01 * e3 * e3) * STEP_ERROR_TOL)


def _step_factor(err: float) -> float:
    """Factor for dt from the error estimate err of an attempt, in units of
    STEP_ERROR_TOL."""
    if err == 0.0:
        return FACTOR_MAX
    return min(FACTOR_MAX, max(FACTOR_MIN, SAFETY * err ** (-1 / 8)))


def integrate(m: IdealTriangulation, s0: ConformalState,
              cfg: FlowConfig) -> tuple[ConformalState, FlowTrace, Status]:
    """Run the flow from s0 until max|K - Kbar| < cfg.tol or the step budget
    is exhausted.  Returns the final state, the sampled trace and the status.

    Each rejected attempt is logged at DEBUG on the hexflow.flows logger and
    counted in the trace by cause.  Raises ValueError unless cfg.kbar has
    one entry per boundary component of m."""
    _check_target(m, cfg.kbar)
    # the flow linearized at u* is du/dt = -(-Delta)^power (u - u*)
    power = 1.0 + cfg.kind.order
    trace = FlowTrace()
    state = s0
    ks = np.empty((len(_A) + 1, m.n_boundary))   # the stages of one attempt
    gs = np.empty(len(_A) + 1)                   # dPhi/dt at each stage
    ks[0], k, _ = _evaluate(m, state, cfg)
    gs[0] = -(k - cfg.kbar) @ ks[0]
    trace.rhs_evals = 1
    potential = 0.0
    resid_inf = float(np.max(np.abs(k - cfg.kbar)))
    energy = calabi_energy(k, cfg.kbar)
    t = 0.0
    dt = dt_used = DT0
    step = 0
    rejections = 0      # consecutive rejected attempts

    def record() -> None:
        trace.rows.append(TraceRow(
            step=step, t=t, dt=dt_used, residual_inf=resid_inf,
            calabi_energy=energy,
            ricci_potential_delta=potential,
            min_edge_length=float(np.min(edge_lengths(m, state))),
            max_u=float(np.max(state.u)),
        ))

    record()
    while resid_inf >= cfg.tol and step < cfg.max_steps:
        cause = None
        try:
            for i, a in enumerate(_A):      # the last pass is the FSAL stage
                new_state = ConformalState(u=state.u + dt * (a @ ks[:i + 1]))
                ks[i + 1], new_k, new_g = _evaluate(
                    m, new_state, cfg, with_bound=i == len(_A) - 1)
                gs[i + 1] = -(new_k - cfg.kbar) @ ks[i + 1]
                trace.rhs_evals += 1
        except StateError as exc:
            trace.rejected_inadmissible += 1
            cause, detail, factor = "inadmissible", str(exc), 0.5
        else:
            err = _step_error(dt, ks[:-1])
            if err > 1.0:
                trace.rejected_error += 1
                cause, factor = "error", _step_factor(err)
                detail = f"error estimate {err!r} x STEP_ERROR_TOL"
            elif (new_energy := calabi_energy(new_k, cfg.kbar)) > energy + ENERGY_SLACK:
                trace.rejected_energy += 1
                cause, factor = "energy", 0.5
                detail = f"Calabi energy {energy!r} -> {new_energy!r}"
        if cause:
            logger.debug("step %d rejected (%s) at t=%r with dt=%r: %s",
                         step + 1, cause, t, dt, detail)
            dt *= factor
            rejections += 1
            if rejections == MAX_HALVINGS:
                raise StepCollapseError(
                    f"no acceptable step after {MAX_HALVINGS} consecutive "
                    f"rejections at t={t!r} (dt collapsed to {dt!r}); the continuous "
                    f"flow stays interior, so this indicates a defect")
            continue
        state, energy = new_state, new_energy
        potential += dt * float(_A[-1] @ gs[:-1])
        ks[0], gs[0] = ks[-1], gs[-1]
        resid_inf = float(np.max(np.abs(new_k - cfg.kbar)))
        t += dt
        step += 1
        dt_used = dt
        factor = _step_factor(err)
        if rejections:
            factor = min(factor, 1.0)
        rejections = 0
        # keep dt inside the stability interval of the flow linearized at
        # the new state: the Gershgorin bound g of -Delta bounds its
        # eigenvalues, so those of the linearization are at most g^power in size
        dt = min(dt * factor, SAFETY * STABILITY_BOUND / new_g ** power)
        if step % cfg.trace_every == 0:
            record()

    if trace.rows[-1].step != step:
        record()
    status = Status.CONVERGED if resid_inf < cfg.tol else Status.BUDGET_EXHAUSTED
    return state, trace, status
