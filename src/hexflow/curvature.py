"""Curvature vector, discrete Laplacian and energies over a whole mesh.

K_i is the total boundary length at component i: the sum of the hexagon
arc lengths at every face corner incident to i.  The discrete Laplacian
Delta[i][j] = dK_i/du_j is symmetric and negative definite on the admissible
space.  The kernel keeps one stored entry of Delta per pair of components
sharing a face; `laplacian` returns them as a dense array, and the flows and
the Newton solver work on them directly: `_apply` multiplies Delta by a
vector with one np.bincount over them.

All are views of one batched face kernel, _hexagons: it gathers the radii
through the mesh's index arrays, computes every edge length and arc, and
each face's (3, 3) block d theta / d u in closed form, with numpy, and sums
them with np.bincount into K and, when asked, the stored entries of Delta.
A block has three diagonal values and one value per side: the derivative
of the arc at one end of the side in u at the other end, which is the same
either way round.  It is computed once and written to both places, so the
block is exactly symmetric by construction.  The sums run in a fixed order
(face index ascending, corner slot ascending), so identical inputs give
bitwise-identical outputs, and Delta is exactly symmetric.  Each cosh l is
formed without the cancellation of the defining formula (_edge_cosh), and
each arc as an asinh, so K keeps its relative accuracy for small weights
and large radii (the tests go to radii of 40, with arcs near 1e-17).  The
blocks are the package's only derivatives of the hexagon trigonometry.
The kernel is tested against the scalar functions in hexgeom for K, and
against an mpmath evaluation of the same formulas for K and Delta, which
derives Delta independently, by the chain rule d theta/d l . d l/d u.

Where it reads its input the kernel runs mesh.check_admissible, the one
admissibility test, so a state built directly as ConformalState(u=...) is
checked too.  Its only other guard is that its result is finite, since
admissible radii can still overflow it.  Both raise StateError.

The Ricci potential is a line integral of K along a segment of states, by
16-point Gauss-Legendre quadrature checked against 32-point, bisecting the
segment where the two disagree; each node is one curvature call.  The flows
do not call it: they carry the potential along their own stages.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StateError
from .hexgeom import radii
from .mesh import ConformalState, IdealTriangulation, check_admissible

# Documented contract for the line-integral energy is 1e-9 absolute; the
# quadrature itself is run tighter so finite differences of the energy
# remain accurate.  A segment is accepted when GL16 and GL32 agree within
# _GL_TOL per unit of segment length, relative to the integrand's size
# where that exceeds 1, so that rounding in a large integrand cannot keep a
# piece from being accepted.
POTENTIAL_ABS_TOL = 1e-9
_GL_TOL = 1e-12

# the column of slot k + 1 and of slot k + 2, for slot k in each column
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# where the pair value of side k goes in the flattened 3x3 block: row k + 1,
# column k + 2 (_PAIR[0, k]), and its transpose (_PAIR[1, k])
_PAIR = np.array([[5, 6, 1], [7, 2, 3]])


def _sinh_acosh(x: np.ndarray) -> np.ndarray:
    # sqrt(x-1) sqrt(x+1) keeps full accuracy near x = 1
    return np.sqrt(x - 1.0) * np.sqrt(x + 1.0)


def _edge_cosh(m: IdealTriangulation, r: np.ndarray) -> np.ndarray:
    """cosh of every edge length of m at the radii r, in edge order.

    cosh l = cosh(phi) sinh r_i sinh r_j - cosh r_i cosh r_j, evaluated as
    2 sinh^2(phi/2) sinh r_i sinh r_j - cosh(r_i - r_j): the two products
    of the first form nearly cancel when phi is small and the radii large,
    and cosh(phi) rounds to 1 below phi = 1.5e-8.  Exactly symmetric in
    (r_i, r_j), since cosh is even.  Greater than 1 at admissible radii,
    which its callers have checked; an overflow gives inf or NaN, so callers
    run it under np.errstate and test their result with _require_finite.
    """
    sh = np.sinh(r)
    i, j = m.ends[:, 0], m.ends[:, 1]
    return m.cosh_phi_minus_1 * (sh[i] * sh[j]) - np.cosh(r[i] - r[j])


def _require_finite(total: float, r: np.ndarray) -> None:
    """The kernel's one numeric guard: total, the sum of its output, is
    finite unless some radius overflowed the arithmetic."""
    if not math.isfinite(total):
        raise StateError(f"radii up to {float(r.max())!r} overflow the face kernel")


def _hexagons(m: IdealTriangulation, u: np.ndarray, jacobian: bool):
    """The face kernel at the state u: K, and with `jacobian` the tuple
    (K, data, jac) of K, the stored entries data of Delta in the order
    of m.laplacian_pattern, and the face blocks jac[f, a, b] = d theta_a /
    d u_b (F, 3, 3) that data sums.

    theta[f, k] is the arc at corner k of face f, opposite side k.  Each
    block is written in closed form, and the value of each pair (a, b) is
    computed once and stored at both (a, b) and (b, a), so jac[f] equals
    its transpose bit for bit.  u is checked by mesh.check_admissible
    before the radii are computed, so radii never sees a u >= 0.
    """
    check_admissible(m, u)
    r = radii(u)
    # the pattern is built on first use: before the temporaries below exist,
    # so that building it does not raise the kernel's peak memory
    p = m.laplacian_pattern if jacobian else None
    # products of cosh l and cosh r overflow once the radii of a face reach
    # about 120, where the arcs are about 1e-51; _require_finite turns the
    # resulting inf and NaN into a StateError
    with np.errstate(all="ignore"):
        x = _edge_cosh(m, r)
        cl, cl_next, cl_prev = x[m.sides]               # cosh l, each (F, 3)
        sl, sl_next, sl_prev = _sinh_acosh(x)[m.sides]  # sinh l
        # q = sinh l_{k+1} sinh l_{k+2} sinh theta_k is the same at every
        # corner and equals sqrt(sum cosh^2 l + 2 prod cosh l - 1), a sum of
        # positive terms; sinh theta = sqrt(cosh^2 theta - 1) would lose
        # digits for small arcs.  theta = asinh(q / (sinh l_{k+1} sinh
        # l_{k+2})) is then accurate to a few ulps relative however small the
        # arc, where log(cosh theta + sinh theta) is accurate only absolutely.
        q = np.sqrt((cl * cl).sum(axis=1) + 2.0 * cl.prod(axis=1) - 1.0)[:, None]
        s_adj = sl_next * sl_prev
        theta = np.arcsinh(q / s_adj)
        total = theta.sum()
        if jacobian:
            # pair[:, k] is d theta_{k+1} / d u_{k+2} = d theta_{k+2} / d u_{k+1},
            # the value of side k; the diagonal is d theta_k / d u_k
            ct = (cl + cl_next * cl_prev) / s_adj       # cosh theta
            cr = np.cosh(r)[m.vertex]                   # cosh r at each corner
            ct_next, ct_prev = ct[:, _NEXT], ct[:, _PREV]
            cr_next, cr_prev = cr[:, _NEXT], cr[:, _PREV]
            pair = (cr - (cr_next * ct_prev * sl_next + cr_prev * ct_next * sl_prev) / sl) / q
            jac = np.empty((len(q), 9))
            jac[:, _PAIR] = pair[:, None]
            jac[:, ::4] = -(sl / q) * (ct_prev * (cr_prev + cr * cl_next) / sl_next
                                       + ct_next * (cr_next + cr * cl_prev) / sl_prev)
            jac = jac.reshape(-1, 3, 3)
            total += jac.sum()
    _require_finite(total, r)
    k = np.bincount(m.vertex.ravel(), weights=theta.ravel(), minlength=m.n_boundary)
    if not jacobian:
        return k
    return k, np.bincount(p.slot, weights=jac.ravel(), minlength=p.indices.size), jac


def edge_lengths(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Length of every edge at the state s, in the edge order of the mesh file."""
    check_admissible(m, s.u)
    r = radii(s.u)
    with np.errstate(all="ignore"):
        x = _edge_cosh(m, r)
        lengths = np.log(x + _sinh_acosh(x))
    _require_finite(lengths.sum(), r)
    return lengths


def curvature(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Generalized curvature K (boundary lengths), one entry per component."""
    return _hexagons(m, s.u, jacobian=False)


def _dense_laplacian(m: IdealTriangulation, data: np.ndarray) -> np.ndarray:
    """Dense Delta from its stored entries data (see _hexagons)."""
    p = m.laplacian_pattern
    n = m.n_boundary
    a = np.zeros((n, n))
    a[p.indices, p.col] = data
    return a


def _apply(m: IdealTriangulation, data: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Delta v, for Delta with the stored entries data (see _hexagons)."""
    p = m.laplacian_pattern
    return np.bincount(p.indices, weights=data * v[p.col], minlength=m.n_boundary)


def laplacian(m: IdealTriangulation, s: ConformalState) -> np.ndarray:
    """Dense matrix dK_i/du_j, assembled from the per-face corner Jacobians."""
    return _dense_laplacian(m, _hexagons(m, s.u, jacobian=True)[1])


def _check_target(m: IdealTriangulation, kbar: np.ndarray) -> None:
    """Raise ValueError unless the target kbar has shape (N,), one entry per
    boundary component of m."""
    if kbar.shape != (m.n_boundary,):
        size = f"{kbar.size} entries" if kbar.ndim == 1 else f"shape {kbar.shape}"
        raise ValueError(f"target has {size}, mesh has {m.n_boundary}")


def calabi_energy(k, kbar) -> float:
    """Half the squared curvature-prescription residual."""
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    if k.shape != kbar.shape:
        raise ValueError(f"length mismatch: {k.shape} vs {kbar.shape}")
    d = k - kbar
    return 0.5 * float(d @ d)


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
    piece of the segment is integrated by GL16 and GL32 at once, from K at
    their 48 nodes; a piece where the two rules
    differ by more than _GL_TOL per unit length (times the integrand's size
    where that exceeds 1) is bisected, and the GL32 values of the accepted
    pieces are summed.  The result is within POTENTIAL_ABS_TOL of the exact
    integral.  Raises ValueError unless kbar has one entry per boundary
    component of m, and StateError unless s and s0 are admissible.
    """
    kbar = np.asarray(kbar, dtype=float)
    _check_target(m, kbar)
    check_admissible(m, s.u)
    check_admissible(m, s0.u)
    d = s.u - s0.u
    if not d.any():
        return 0.0
    nodes, w16, w32 = _gauss_legendre()
    total = 0.0
    pieces = [(0.0, 1.0)]
    while pieces:
        a, b = pieces.pop()
        resid = np.array([curvature(m, ConformalState(u=u)) for u in
                          s0.u + (a + (b - a) * nodes)[:, None] * d]) - kbar
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
