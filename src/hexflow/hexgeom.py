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
functions are the reference for the arcs and K of the batched face kernel in
curvature, which evaluates an equivalent, better-conditioned form of the
same formulas for every face of a mesh at once: cosh l as
2 sinh^2(phi/2) sinh r_i sinh r_j - cosh(r_i - r_j), and each arc as
asinh(q / (sinh l_{k+1} sinh l_{k+2})).  The forms here lose digits where
those do not: cosh l cancels for small weights and large radii, and an arc
from cosh theta near 1 is accurate only in absolute terms.  The kernel's
derivatives, the face blocks of Delta, are its own.  These functions take
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


def to_conformal(r):
    """Conformal factors u = log tanh(r/2) of radii r > 0, elementwise.
    Raises StateError for the first radius out of range.

    u = log(1 - e^-r) - log1p(e^-r), where log(1 - e^-r) is log(-expm1(-r))
    for r <= ln 2, since e^-r rounds there, and log1p(-e^-r) above (Maechler,
    "Accurately computing log(1 - exp(-|a|))", 2012): full relative accuracy
    down to the smallest positive radius."""
    r = np.asarray(r, dtype=float)
    ok = (r > 0.0) & (r <= RADIUS_MAX)      # False for NaN
    if not ok.all():
        _check_radius(float(r[~ok][0]))
    e = np.exp(-r)
    small = r <= math.log(2.0)
    log1m = np.empty_like(r)
    log1m[small] = np.log(-np.expm1(-r[small]))
    log1m[~small] = np.log1p(-e[~small])
    return log1m - np.log1p(e)


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

