"""Newton solve of the prescribed-boundary-length problem K(u) = Kbar.

The curvature map has the symmetric negative definite Jacobian Delta, so
each iteration solves -Delta d = K - Kbar and backtracks the step u + t d
until the trial state is admissible and the residual satisfies a
sufficient-decrease condition.  Existence and uniqueness of the solution for
any positive target is guaranteed, so a converged result is the solution.

-Delta is the sum over faces of the 3x3 blocks B_f = -d theta / d u of the
face kernel, scattered onto the face's corners, and each block is positive
definite (Guo & Luo).  Every iteration checks that face by face with
Sylvester's criterion, all three leading minors positive, and raises
DefinitenessError naming the first face that fails.  The check implies that
-Delta is positive definite: with P_f the map from u to the three corner
values of face f, x^T (-Delta) x = sum_f (P_f x)^T B_f (P_f x), and every
component sits at some face corner, so the sum is positive for x != 0.

The system is then solved without a factorization, by the conjugate-gradient
method (Hestenes & Stiefel, J. Res. Nat. Bur. Standards 49, 1952)
preconditioned with the diagonal of -Delta, whose matrix-vector product is
one np.bincount over the stored entries of the face kernel (curvature._apply,
which the Calabi flow shares).  CG stops once its residual is CG_RTOL times
the right-hand side, or after CG_MAX_ITER iterations.  An inexact Newton
step whose relative residual is bounded by a forcing term that tends to
zero converges superlinearly, and quadratically when the forcing term is
O(|K - Kbar|) (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982);
CG_RTOL is near rounding, so the step is Newton's to working accuracy, and
the sufficient-decrease test still judges it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, NoDescentError, StateError
from .curvature import _apply, _check_target, _hexagons, curvature
from .mesh import ConformalState, IdealTriangulation, validate_state

logger = logging.getLogger(__name__)

MAX_BACKTRACKS = 60
CG_RTOL = 1e-13     # CG stops at |r| <= CG_RTOL |b| (2-norm) ...
CG_MAX_ITER = 500   # ... or after this many iterations


@dataclass(frozen=True)
class SolveResult:
    u_star: ConformalState
    iterations: int
    residual_inf: float
    converged: bool


def _check_face_blocks(jac: np.ndarray) -> None:
    """Raise DefinitenessError unless every block -jac[f] of the corner
    Jacobians jac (F, 3, 3) is positive definite: its three leading minors
    are positive (Sylvester's criterion).  A NaN minor fails too."""
    b = -jac
    b00, b01, b02 = b[:, 0, 0], b[:, 0, 1], b[:, 0, 2]
    b10, b11, b12 = b[:, 1, 0], b[:, 1, 1], b[:, 1, 2]
    b20, b21, b22 = b[:, 2, 0], b[:, 2, 1], b[:, 2, 2]
    minor2 = b00 * b11 - b01 * b10
    minor3 = (b00 * (b11 * b22 - b12 * b21) - b01 * (b10 * b22 - b12 * b20)
              + b02 * (b10 * b21 - b11 * b20))
    ok = (b00 > 0.0) & (minor2 > 0.0) & (minor3 > 0.0)
    if not ok.all():
        f = int(np.argmin(ok))
        raise DefinitenessError(
            f"the block of -Delta at face {f} is not positive definite: leading "
            f"minors {float(b00[f])!r}, {float(minor2[f])!r}, {float(minor3[f])!r}")


def _pcg(m: IdealTriangulation, a: np.ndarray,
         b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Solve A x = b for the symmetric positive definite A whose stored
    entries are a, in the order the face kernel (curvature._hexagons)
    returns them, by CG preconditioned with the diagonal of A.  Returns x,
    the iteration count and the final relative residual |r| / |b| of the CG
    recurrence."""
    p = m.laplacian_pattern
    inv_diag = 1.0 / a[p.indices == p.col]   # one diagonal entry per column
    x = np.zeros(m.n_boundary)
    r = b.copy()
    z = inv_diag * r
    d = z
    rz = r @ z
    b_norm = float(np.linalg.norm(b))
    r_norm = b_norm
    it = 0
    while r_norm > CG_RTOL * b_norm and it < CG_MAX_ITER:
        q = _apply(m, a, d)
        alpha = rz / (d @ q)
        x += alpha * d
        r -= alpha * q
        z = inv_diag * r
        rz_next = r @ z
        d = z + (rz_next / rz) * d
        rz = rz_next
        r_norm = float(np.linalg.norm(r))
        it += 1
    return x, it, r_norm / b_norm


def _newton_direction(m: IdealTriangulation, u: np.ndarray,
                      resid: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The solution d of -Delta(u) d = resid, with the CG iteration count
    and relative residual, from one face-kernel call at u.  Raises
    DefinitenessError when a face block of -Delta is not positive definite."""
    _k, data, jac = _hexagons(m, u, jacobian=True)
    _check_face_blocks(jac)
    return _pcg(m, -data, resid)


def default_start(m: IdealTriangulation) -> ConformalState:
    """Uniform interior point u = -min(1, min(phi)/4); every edge slack is
    then phi - 2 min(1, phi/4) > 0."""
    c = -min(1.0, float(m.phi.min()) / 4.0)
    return validate_state(m, np.full(m.n_boundary, c))


def newton_solve(m: IdealTriangulation, s0: ConformalState | None, kbar,
                 tol: float = 1e-12, max_iter: int = 50) -> SolveResult:
    """Globalized Newton iteration for K(u) = kbar.

    Raises NoDescentError when backtracking cannot find an admissible step
    with residual decrease; a Ricci-flow warm start is the usual remedy.
    Raises DefinitenessError when a face block of -Delta is not positive
    definite.  The exact blocks are positive definite on the whole
    admissible space, so that signals rounding, at radii where the kernel
    has lost its accuracy.
    """
    kbar = np.asarray(kbar, dtype=float)
    _check_target(m, kbar)
    if not np.all((kbar > 0) & np.isfinite(kbar)):
        raise ValueError("every target entry must be positive and finite")
    if isinstance(tol, (bool, np.bool_)) or not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")

    state = s0 if s0 is not None else default_start(m)
    resid = curvature(m, state) - kbar
    resid_inf = float(np.max(np.abs(resid)))

    for it in range(max_iter):
        if resid_inf < tol:
            return SolveResult(u_star=state, iterations=it,
                               residual_inf=resid_inf, converged=True)
        # Newton direction: u <- u + (-Delta)^{-1} resid
        d, cg_iterations, cg_residual = _newton_direction(m, state.u, resid)
        t = 1.0
        for backtracks in range(MAX_BACKTRACKS):
            # the kernel checks the trial; an inadmissible one, or one whose
            # radii overflow the kernel, halves the step
            trial = ConformalState(u=state.u + t * d)
            try:
                trial_resid = curvature(m, trial) - kbar
            except StateError:
                t *= 0.5
                continue
            trial_inf = float(np.max(np.abs(trial_resid)))
            if trial_inf <= (1.0 - t / 4.0) * resid_inf:
                state, resid, resid_inf = trial, trial_resid, trial_inf
                logger.debug("newton iteration %d: residual_inf=%.3e t=%g "
                             "backtracks=%d cg_iterations=%d cg_residual=%.3e",
                             it + 1, resid_inf, t, backtracks, cg_iterations,
                             cg_residual)
                break
            t *= 0.5
        else:
            raise NoDescentError(
                f"backtracking exhausted at iteration {it} "
                f"(residual {resid_inf!r})")

    return SolveResult(u_star=state, iterations=max_iter,
                       residual_inf=resid_inf, converged=resid_inf < tol)
