"""Newton solve of the prescribed-boundary-length problem K(u) = Kbar.

The curvature map has the symmetric negative definite Jacobian Delta, so
each iteration solves -Delta d = -(K - Kbar) and backtracks the step until
the trial state is admissible and the residual satisfies a
sufficient-decrease condition.  Existence and uniqueness of the solution for
any positive target is guaranteed, so a converged result is the solution.

-Delta is sparse, with one stored entry per pair of boundary components
sharing a face, and is factored as a symmetric-pivoted LDL^T: SuperLU with a
minimum-degree ordering of A^T + A and diagonal pivots only (Davis, Direct
Methods for Sparse Linear Systems, SIAM 2006).  The pivots are the entries
of D, so by Sylvester's law of inertia they are all positive exactly when
the matrix is positive definite; the factorization checks that and raises
DefinitenessError otherwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DefinitenessError, NoDescentError, StateError
from .curvature import curvature, sparse_laplacian
from .mesh import ConformalState, IdealTriangulation, validate_state

if TYPE_CHECKING:
    from scipy.sparse.linalg import SuperLU

logger = logging.getLogger(__name__)

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolveResult:
    u_star: ConformalState
    iterations: int
    residual_inf: float
    converged: bool


def factor_spd(a) -> SuperLU:
    """Sparse LDL^T factorization of a symmetric positive definite CSC matrix.

    Raises DefinitenessError when the matrix is singular or not positive
    definite: a zero or negative pivot, or a pivot taken off the diagonal.
    """
    from scipy.sparse.linalg import splu  # scipy loads on first use only

    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise DefinitenessError(f"matrix is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise DefinitenessError("matrix is not positive definite: "
                                "a pivot was taken off the diagonal")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0.0):
        raise DefinitenessError(f"matrix is not positive definite: pivot "
                                f"{float(pivots[np.argmin(pivots > 0.0)])!r}")
    return lu


def default_start(m: IdealTriangulation) -> ConformalState:
    """Uniform interior point u = -min(1, min(phi)/4); every edge slack is
    then phi - 2 min(1, phi/4) > 0."""
    c = -min(1.0, float(m.tables.phi.min()) / 4.0)
    return validate_state(m, np.full(m.n_boundary, c))


def newton_solve(m: IdealTriangulation, s0: ConformalState | None, kbar,
                 tol: float = 1e-12, max_iter: int = 50) -> SolveResult:
    """Globalized Newton iteration for K(u) = kbar.

    Raises NoDescentError when backtracking cannot find an admissible step
    with residual decrease; a Ricci-flow warm start is the usual remedy.
    Raises DefinitenessError when -Delta fails to factor as positive
    definite.  The exact -Delta is positive definite on the whole admissible
    space, so that signals rounding, at radii where the kernel has lost its
    accuracy.
    """
    kbar = np.asarray(kbar, dtype=float)
    if kbar.shape != (m.n_boundary,):
        raise ValueError(f"target has {kbar.size} entries, mesh has {m.n_boundary}")
    if not np.all((kbar > 0) & np.isfinite(kbar)):
        raise ValueError("every target entry must be positive and finite")
    if not tol > 0:
        raise ValueError("tol must be positive")

    state = s0 if s0 is not None else default_start(m)
    resid = curvature(m, state) - kbar
    resid_inf = float(np.max(np.abs(resid)))

    for it in range(max_iter):
        if resid_inf < tol:
            return SolveResult(u_star=state, iterations=it,
                               residual_inf=resid_inf, converged=True)
        # Newton direction: u <- u - Delta^{-1} resid, via LDL^T of -Delta
        d = -factor_spd(-sparse_laplacian(m, state)).solve(resid)
        t = 1.0
        for backtracks in range(MAX_BACKTRACKS):
            # the kernel checks the trial; an inadmissible one, or one whose
            # radii overflow the kernel, halves the step
            trial = ConformalState(u=state.u - t * d)
            try:
                trial_resid = curvature(m, trial) - kbar
            except StateError:
                t *= 0.5
                continue
            trial_inf = float(np.max(np.abs(trial_resid)))
            if trial_inf <= (1.0 - t / 4.0) * resid_inf:
                state, resid, resid_inf = trial, trial_resid, trial_inf
                logger.debug("newton iteration %d: residual_inf=%.3e t=%g "
                             "backtracks=%d", it + 1, resid_inf, t, backtracks)
                break
            t *= 0.5
        else:
            raise NoDescentError(
                f"backtracking exhausted at iteration {it} "
                f"(residual {resid_inf!r})")

    return SolveResult(u_star=state, iterations=max_iter,
                       residual_inf=resid_inf, converged=resid_inf < tol)
