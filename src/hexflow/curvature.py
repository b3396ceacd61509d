"""Curvature vector, discrete Laplacian and energies over a whole mesh.

K_i is the total boundary length at component i: the sum of the hexagon
arc lengths at every face corner incident to i.  The discrete Laplacian
Delta[i][j] = dK_i/du_j is symmetric and negative definite on the admissible
space; `laplacian` returns it as a dense array and `sparse_laplacian` as a
scipy CSC array with one stored entry per pair of components sharing a face,
and `curvature_laplacian` returns K and the dense Delta from one kernel call.

All are views of one batched face kernel: it gathers the radii through the
mesh's face tables, computes every edge length, arc and (3, 3) corner
Jacobian d theta / d u with numpy, and sums them with np.bincount.  The sums
run in a fixed order (face index ascending, corner slot ascending), so
identical inputs give bitwise-identical outputs, and Delta is exactly
symmetric.  The scalar functions in hexgeom are the reference it is tested
against.

Where it reads its input the kernel runs mesh.check_admissible, the one
admissibility test, so a state built directly as ConformalState(u=...) is
checked too.  Its only other guard is that its result is finite, since
admissible radii can still overflow it.  Both raise StateError.

The Ricci potential is a line integral of K along a segment of states, by
16-point Gauss-Legendre quadrature checked against 32-point, bisecting the
segment where the two disagree.  The 48 nodes of a segment are evaluated by
one call of the same kernel over the mesh's tables tiled 48 times, one
disjoint copy per node state.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import StateError
from .hexgeom import radii
from .mesh import ConformalState, FaceTables, IdealTriangulation, check_admissible

if TYPE_CHECKING:
    from scipy.sparse import csc_array

# Documented contract for the line-integral energy is 1e-9 absolute; the
# quadrature itself is run tighter so finite differences of the energy
# remain accurate.  A segment is accepted when GL16 and GL32 agree within
# _GL_TOL per unit of segment length, relative to the integrand's size
# where that exceeds 1, so that rounding in a large integrand cannot keep a
# piece from being accepted.
POTENTIAL_ABS_TOL = 1e-9
_GL_TOL = 1e-12

# _OTHER[a, e] = 3 - a - e, the slot that is neither a nor e (its diagonal
# is a placeholder)
_OTHER = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_DIAG = np.arange(3)


def _sinh_acosh(x: np.ndarray) -> np.ndarray:
    # sqrt(x-1) sqrt(x+1) keeps full accuracy near x = 1
    return np.sqrt(x - 1.0) * np.sqrt(x + 1.0)


def _read_state(m: IdealTriangulation, u: np.ndarray) -> tuple[FaceTables, np.ndarray]:
    """The face tables and the radii of the kernel's input u: one state of
    shape (N,) over m.tables, or a batch of shape (S, N), one state per row,
    over m.tiled_tables(S) with the radii flattened to match.

    Raises StateError unless every state is admissible, before the radii
    are computed, so radii never sees a u >= 0.
    """
    check_admissible(m, u.T)
    t = m.tables if u.ndim == 1 else m.tiled_tables(len(u))
    return t, radii(u).ravel()


def _edge_cosh(t: FaceTables, r: np.ndarray) -> np.ndarray:
    """cosh of every edge length of the tables t at the radii r, in edge order.

    Greater than 1 at admissible radii, which _read_state has checked; an
    overflow gives inf or NaN, so callers run it under np.errstate and test
    their result with _require_finite.
    """
    sh, ch = np.sinh(r), np.cosh(r)
    i, j = t.ends[:, 0], t.ends[:, 1]
    # grouped as in hexgeom.admissibility, so exactly symmetric in (r_i, r_j)
    return t.cosh_phi * (sh[i] * sh[j]) - ch[i] * ch[j]


def _require_finite(total: float, r: np.ndarray) -> None:
    """The kernel's one numeric guard: total, the sum of its output, is
    finite unless some radius overflowed the arithmetic."""
    if not math.isfinite(total):
        raise StateError(f"radii up to {float(r.max())!r} overflow the face kernel")


def _hexagons(m: IdealTriangulation, u: np.ndarray, jacobian: bool):
    """The face kernel at the state or batch u (see _read_state): arcs theta
    (F, 3), and with `jacobian` also the corner Jacobians d theta_a / d u_b
    (F, 3, 3), symmetrized.

    theta[f, k] is the arc at corner k of face f, opposite side k.
    """
    t, r = _read_state(m, u)
    # products of cosh l and cosh r overflow once the radii of a face reach
    # about 120, far past the radius (about 40) where the arcs underflow;
    # _require_finite turns the resulting inf and NaN into a StateError
    with np.errstate(all="ignore"):
        x = _edge_cosh(t, r)
        cl, cl_next, cl_prev = x[t.sides]               # cosh l, each (F, 3)
        sl, sl_next, sl_prev = _sinh_acosh(x)[t.sides]  # sinh l
        # q = sinh l_{k+1} sinh l_{k+2} sinh theta_k is the same at every
        # corner and equals sqrt(sum cosh^2 l + 2 prod cosh l - 1), a sum of
        # positive terms; sinh theta = sqrt(cosh^2 theta - 1) would lose
        # digits for small arcs.  theta = log(cosh theta + sinh theta) is then
        # accurate to a few ulps absolute however small the arc.
        q = np.sqrt((cl * cl).sum(axis=1) + 2.0 * cl.prod(axis=1) - 1.0)
        s_adj = sl_next * sl_prev
        theta = np.log((cl + cl_next * cl_prev + q[:, None]) / s_adj)
        total = theta.sum()
        if jacobian:
            # chain rule d theta/d l . d l/d r . d r/d u, with d r_b/d u_b =
            # sinh r_b folded into d l/d r
            ct = (cl + cl_next * cl_prev) / s_adj       # cosh theta
            dtheta_dl = -ct[:, _OTHER]
            dtheta_dl[:, _DIAG, _DIAG] = 1.0
            dtheta_dl *= (sl / q[:, None])[:, :, None]
            cr = np.cosh(r)[t.vertex]                   # cosh r at each corner
            dl_du = (cr[:, _OTHER] + cr[:, None, :] * cl[:, :, None]) / sl[:, :, None]
            dl_du[:, _DIAG, _DIAG] = 0.0                # side k misses corner k
            jac = dtheta_dl @ dl_du
            jac = 0.5 * (jac + jac.transpose(0, 2, 1))
            total += jac.sum()
    _require_finite(total, r)
    return (theta, jac) if jacobian else theta


def edge_lengths(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Length of every edge at the state s, in m.edges order."""
    t, r = _read_state(m, s.u)
    with np.errstate(all="ignore"):
        x = _edge_cosh(t, r)
        lengths = np.log(x + _sinh_acosh(x))
    _require_finite(lengths.sum(), r)
    return lengths


def _arc_sums(t: FaceTables, theta: np.ndarray, n: int) -> np.ndarray:
    """K: the arcs theta of the tables t summed at each of the n components."""
    return np.bincount(t.vertex.ravel(), weights=theta.ravel(), minlength=n)


def curvature(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Generalized curvature K (boundary lengths), one entry per component."""
    return _arc_sums(m.tables, _hexagons(m, s.u, jacobian=False), m.n_boundary)


def _laplacian_data(m: IdealTriangulation, jac: np.ndarray) -> np.ndarray:
    """Stored entries of Delta in the CSC order of m.laplacian_pattern, from
    the corner Jacobians jac of the face kernel."""
    p = m.laplacian_pattern
    return np.bincount(p.slot, weights=jac.ravel(), minlength=p.indices.size)


def _dense_laplacian(m: IdealTriangulation, jac: np.ndarray) -> np.ndarray:
    """Dense Delta from the corner Jacobians jac of the face kernel."""
    p = m.laplacian_pattern
    n = m.n_boundary
    a = np.zeros((n, n))
    a[p.indices, p.col] = _laplacian_data(m, jac)
    return a


def sparse_laplacian(m: IdealTriangulation, s: ConformalState) -> csc_array:
    """Delta = dK/du as a scipy CSC array; same entries as `laplacian`."""
    from scipy.sparse import csc_array  # scipy loads on first use only

    p = m.laplacian_pattern
    n = m.n_boundary
    _theta, jac = _hexagons(m, s.u, jacobian=True)
    return csc_array((_laplacian_data(m, jac), p.indices, p.indptr), shape=(n, n))


def laplacian(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Dense matrix dK_i/du_j, assembled from the per-face corner Jacobians."""
    _theta, jac = _hexagons(m, s.u, jacobian=True)
    return _dense_laplacian(m, jac)


def curvature_laplacian(m: IdealTriangulation,
                        s: ConformalState) -> tuple[np.ndarray, np.ndarray]:
    """K and the dense Delta at s from one kernel call, bitwise equal to
    curvature(m, s) and laplacian(m, s)."""
    theta, jac = _hexagons(m, s.u, jacobian=True)
    return _arc_sums(m.tables, theta, m.n_boundary), _dense_laplacian(m, jac)


def calabi_energy(k, kbar) -> float:
    """Half the squared curvature-prescription residual."""
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    if k.shape != kbar.shape:
        raise ValueError(f"length mismatch: {k.shape} vs {kbar.shape}")
    d = k - kbar
    return 0.5 * float(d @ d)


def _curvatures(m: IdealTriangulation, u: np.ndarray) -> np.ndarray:
    """K at every row of u, shape (S, N), by one kernel call.

    Row k is bitwise equal to curvature(m, validate_state(m, u[k])), and the
    kernel raises StateError unless every row is admissible.
    """
    theta = _hexagons(m, u, jacobian=False)
    return _arc_sums(m.tiled_tables(len(u)), theta, u.size).reshape(u.shape)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 nodes of GL16 then the 32 of GL32 on [0, 1], and the weights
    of each rule (Golub & Welsch, Math. Comp. 23, 1969)."""
    from numpy.polynomial.legendre import leggauss

    x16, w16 = leggauss(16)
    x32, w32 = leggauss(32)
    return 0.5 * (np.concatenate([x16, x32]) + 1.0), 0.5 * w16, 0.5 * w32


def ricci_potential(m: IdealTriangulation, s: ConformalState, s0: ConformalState,
                    kbar) -> float:
    """Line integral -int (K - kbar) . du from s0.u to s.u.

    Path-independent because the Laplacian is symmetric; evaluated along the
    straight segment, which stays inside the convex admissible space.  Each
    piece of the segment is integrated by GL16 and GL32 at once, with K at
    all 48 nodes from one batched kernel call; a piece where the two rules
    differ by more than _GL_TOL per unit length (times the integrand's size
    where that exceeds 1) is bisected, and the GL32 values of the accepted
    pieces are summed.  The result is within POTENTIAL_ABS_TOL of the exact
    integral.
    """
    kbar = np.asarray(kbar, dtype=float)
    d = s.u - s0.u
    if not d.any():
        return 0.0
    nodes, w16, w32 = _gauss_legendre()
    total = 0.0
    pieces = [(0.0, 1.0)]
    while pieces:
        a, b = pieces.pop()
        resid = _curvatures(m, s0.u + (a + (b - a) * nodes)[:, None] * d) - kbar
        g = resid @ d
        i16 = -(b - a) * float(w16 @ g[:16])
        i32 = -(b - a) * float(w32 @ g[16:])
        size = max(1.0, float((np.abs(resid) @ np.abs(d)).max()))
        if abs(i16 - i32) > _GL_TOL * size * (b - a):
            mid = 0.5 * (a + b)
            pieces += [(mid, b), (a, mid)]
        else:  # also when NaN, so that a NaN kbar gives NaN, not endless bisection
            total += i32
    return total
