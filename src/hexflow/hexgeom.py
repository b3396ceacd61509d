"""Hyperbolic trigonometry of a single right-angled hexagon.

A boundary component carries a radius r > 0, equivalently a conformal factor
u = log tanh(r/2) < 0.  An edge between components i, j with weight phi > 0
has length l determined by

    cosh l = cosh(phi) sinh(r_i) sinh(r_j) - cosh(r_i) cosh(r_j),

which requires the right-hand side to exceed 1 (the admissibility condition).
Three such lengths determine a right-angled hexagon whose alternating sides
are boundary arcs; the arc opposite edge k has length theta_k with

    cosh theta_k = (cosh l_k + cosh l_{k+1} cosh l_{k+2})
                   / (sinh l_{k+1} sinh l_{k+2}).

Everything here is a pure function of its float arguments.  These scalar
functions are the reference for the batched face kernel in curvature, which
evaluates the same formulas for every face of a mesh at once.  They take
radii, not conformal factors, so they test admissibility in r-space, as
cosh l > 1 + ADMISSIBILITY_MARGIN, and raise StateError for any argument out
of range; the kernel tests it in u-space (mesh.check_admissible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError

# Strict margin on the open admissibility condition, so that downstream
# divisions by sinh(l) are safe.
ADMISSIBILITY_MARGIN = 1e-12

# sinh/cosh overflow shortly past 710; reject rather than produce inf.
RADIUS_MAX = 700.0


def _check_radius(r: float, name: str = "r") -> None:
    if not math.isfinite(r) or r <= 0.0:
        raise StateError(f"{name} must be a finite positive real, got {r!r}")
    if r > RADIUS_MAX:
        raise StateError(f"{name}={r!r} exceeds the overflow bound {RADIUS_MAX}")


def _check_weight(phi: float) -> None:
    if not math.isfinite(phi) or phi <= 0.0:
        raise StateError(f"weight must be a finite positive real, got {phi!r}")
    if phi > RADIUS_MAX:
        raise StateError(f"weight {phi!r} exceeds the overflow bound {RADIUS_MAX}")


def _acosh(x: float) -> float:
    # log(x + sqrt(x-1)sqrt(x+1)) keeps full accuracy near x = 1.
    return math.log(x + math.sqrt(x - 1.0) * math.sqrt(x + 1.0))


def to_conformal(r: float) -> float:
    """Conformal factor u = log tanh(r/2) of a radius r > 0."""
    _check_radius(r)
    e = math.exp(-r)
    return math.log1p(-e) - math.log1p(e)


def radii(u):
    """Radii r = 2 artanh(exp(u)) of conformal factors u < 0, elementwise.

    Evaluated as log1p(2 e^u / (1 - e^u)) with 1 - e^u = -expm1(u), which
    keeps full relative accuracy at both ends: 2 artanh(exp(u)) fails for
    |u| below 1.1e-16, where exp(u) rounds to 1, and -log(tanh(-u/2))
    rounds to 0 for u below about -37.  The result overflows to inf for
    |u| below 1.1e-308 and underflows to 0 for u below about -745.
    """
    with np.errstate(over="ignore"):
        return np.log1p(-2.0 * np.exp(u) / np.expm1(u))


def from_conformal(u: float) -> float:
    """Radius r = 2 artanh(exp(u)) of a conformal factor u < 0.

    Raises StateError when u or the radius is out of range (see radii).
    """
    if not math.isfinite(u) or u >= 0.0:
        raise StateError(f"conformal factor must be a finite negative real, got {u!r}")
    r = float(radii(u))
    _check_radius(r, f"radius of u={u!r}")
    return r


def admissibility(r_i: float, r_j: float, phi: float) -> float:
    """Value of cosh(phi) sinh(r_i) sinh(r_j) - cosh(r_i) cosh(r_j).

    The pair is admissible iff this exceeds 1.
    """
    _check_radius(r_i, "r_i")
    _check_radius(r_j, "r_j")
    _check_weight(phi)
    # grouped so the value is exactly symmetric in (r_i, r_j)
    return (math.cosh(phi) * (math.sinh(r_i) * math.sinh(r_j))
            - math.cosh(r_i) * math.cosh(r_j))


def edge_length(r_i: float, r_j: float, phi: float) -> float:
    """Edge length induced by two radii and an edge weight.

    Raises StateError when the admissibility expression is
    <= 1 + ADMISSIBILITY_MARGIN (the length would be zero or undefined).
    """
    x = admissibility(r_i, r_j, phi)
    if x <= 1.0 + ADMISSIBILITY_MARGIN:
        raise StateError(f"inadmissible radius pair (r_i={r_i!r}, r_j={r_j!r}, "
                         f"phi={phi!r}): admissibility expression {x!r} <= 1")
    return _acosh(x)


def arc_length(l_opp: float, l_a: float, l_b: float) -> float:
    """Boundary-arc length at the corner opposite l_opp, adjacent to l_a, l_b."""
    for name, v in (("l_opp", l_opp), ("l_a", l_a), ("l_b", l_b)):
        if not math.isfinite(v) or v <= 0.0:
            raise StateError(f"{name} must be a finite positive real, got {v!r}")
    q = (math.cosh(l_opp) + math.cosh(l_a) * math.cosh(l_b)) / (
        math.sinh(l_a) * math.sinh(l_b))
    return _acosh(q)


@dataclass(frozen=True)
class HexagonGeometry:
    """Edge lengths, arc lengths and the corner-independent Q of one hexagon.

    theta[k] is the arc at the corner opposite edge k, and
    q = sinh(l_p) sinh(l_s) sinh(theta_t) for any corner choice {p, s, t}.
    """

    l: tuple[float, float, float]
    theta: tuple[float, float, float]
    q: float


def hexagon_geometry(l: tuple[float, float, float]) -> HexagonGeometry:
    """Arc lengths and Q-quantity of the hexagon with edge lengths l."""
    theta = tuple(arc_length(l[k], l[(k + 1) % 3], l[(k + 2) % 3]) for k in range(3))
    q = math.sinh(l[1]) * math.sinh(l[2]) * math.sinh(theta[0])
    return HexagonGeometry(l=tuple(l), theta=theta, q=q)


def d_length_d_radius(r_i: float, r_j: float, phi: float) -> tuple[float, float]:
    """Partials (dl/dr_i, dl/dr_j) of the edge length, both strictly positive."""
    l = edge_length(r_i, r_j, phi)
    sl = math.sinh(l)
    cl = math.cosh(l)
    dl_dri = (math.cosh(r_j) + math.cosh(r_i) * cl) / (math.sinh(r_i) * sl)
    dl_drj = (math.cosh(r_i) + math.cosh(r_j) * cl) / (math.sinh(r_j) * sl)
    return dl_dri, dl_drj


def corner_jacobian(r: tuple[float, float, float],
                    phi: tuple[float, float, float]) -> np.ndarray:
    """3x3 matrix m[a][b] = d theta_a / d u_b for one face.

    r[k] is the radius at corner k and phi[k] the weight of the edge opposite
    corner k (joining the other two corners).  Assembled by the chain rule
    d theta/d l * d l/d r * d r/d u with d r_k/d u_k = sinh(r_k).  The result
    is symmetric and negative definite.  An inadmissible pair raises
    StateError naming the edge slot k, the edge opposite corner k.
    """
    lengths = [0.0, 0.0, 0.0]
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        try:
            lengths[k] = edge_length(r[a], r[b], phi[k])
        except StateError as exc:
            raise StateError(f"inadmissible face: edge slot {k}: {exc}") from exc
    hexa = hexagon_geometry(tuple(lengths))
    l, theta, q = hexa.l, hexa.theta, hexa.q

    # dtheta[a][e] = d theta_a / d l_e
    dtheta_dl = np.empty((3, 3))
    for a in range(3):
        sla = math.sinh(l[a])
        for e in range(3):
            if e == a:
                dtheta_dl[a][e] = sla / q
            else:
                other = 3 - a - e
                dtheta_dl[a][e] = -sla * math.cosh(theta[other]) / q

    # dl_dr[e][b] = d l_e / d r_b; zero when b is the corner opposite edge e.
    dl_dr = np.zeros((3, 3))
    for e in range(3):
        a, b = (e + 1) % 3, (e + 2) % 3
        dl_dr[e][a], dl_dr[e][b] = d_length_d_radius(r[a], r[b], phi[e])

    dr_du = np.diag([math.sinh(rk) for rk in r])
    return dtheta_dl @ dl_dr @ dr_du
