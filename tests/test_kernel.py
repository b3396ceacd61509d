"""The batched face kernel against the mpmath oracle and the scalar
hexgeom reference.

The oracle, exact_hexagons, evaluates the hexagon formulas and their chain
rule with mpmath; it is the reference for K and for Delta, and its chain
rule derives Delta independently of the kernel's closed-form blocks.  The
kernel must be within 1e-13 (K) and 1e-12 max|Delta| (Delta) of its values
at normal states, and within a few ulps, K relative to itself, at radii
20-40 and at weights down to 1e-10.  The float hexgeom functions are a
second reference for K alone: they pass each edge as its length l and
recompute cosh l from it, which costs them digits once the radii grow and
the arcs shrink (up to 5e-13 in K on the states below), so the kernel
agrees with them to its bound plus their own error.  A walk around the
hexagon in SO(2, 1), closure_defect, checks the pairing of arcs and sides
that all three share.
"""

import json
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_array

import hexflow as hf
from conftest import (PANTS_DOC, admissible_state, disjoint_union, pants_doc_with_weight,
                      random_mesh, reference_curvature)

MESHES = ["pants", "torus"] + [f"grid{n}" for n in range(3, 11)]


def exact_hexagons(m, u, digits=30):
    """(K, Delta) at the state u, evaluated with mpmath: K from the formulas
    of hexgeom.hexagon_geometry, Delta by the chain rule d theta/d l .
    d l/d u summed over the faces.  The reference for the kernel's Delta."""
    mp = mpmath.mp
    with mpmath.workdps(digits):
        r = [2 * mp.atanh(mp.exp(mp.mpf(float(x)))) for x in u]
        cosh_l = {}
        for e in m.edges:
            ri, rj = r[e.ends[0]], r[e.ends[1]]
            cosh_l[e.id] = mp.cosh(e.phi) * mp.sinh(ri) * mp.sinh(rj) - mp.cosh(ri) * mp.cosh(rj)
        n = m.n_boundary
        k = [mp.mpf(0)] * n
        a = [[mp.mpf(0)] * n for _ in range(n)]
        for f in m.faces:
            c = [cosh_l[i] for i in f.edges]
            sl = [mp.sqrt(x * x - 1) for x in c]
            ct = [(c[t] + c[(t + 1) % 3] * c[(t + 2) % 3]) / (sl[(t + 1) % 3] * sl[(t + 2) % 3])
                  for t in range(3)]
            q = sl[1] * sl[2] * mp.sqrt(ct[0] ** 2 - 1)
            cr = [mp.cosh(r[v]) for v in f.opposite]
            for p in range(3):
                k[f.opposite[p]] += mp.acosh(ct[p])
                for b in range(3):
                    # sum over sides e of d theta_p / d l_e * d l_e / d u_b
                    total = mp.mpf(0)
                    for e in range(3):
                        if e == b:
                            continue
                        dtheta = sl[p] / q if e == p else -sl[p] * ct[3 - p - e] / q
                        total += dtheta * (cr[3 - e - b] + cr[b] * c[e]) / sl[e]
                    a[f.opposite[p]][f.opposite[b]] += total
        return (np.array([float(x) for x in k]),
                np.array([[float(x) for x in row] for row in a]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MESHES), st.integers(0, 2**32 - 1))
def test_kernel_matches_scalar_reference(name, seed):
    rng = np.random.default_rng(seed)
    m = random_mesh(name, rng)
    s = admissible_state(m, rng)
    k_exact, a_exact = exact_hexagons(m, s.u)
    scale = np.max(np.abs(a_exact))

    k = hf.curvature(m, s)
    assert np.max(np.abs(k - k_exact)) <= 1e-13
    k_ref = reference_curvature(m, s)
    assert (np.max(np.abs(k - k_ref))
            <= 1e-13 + np.max(np.abs(k_ref - k_exact)))

    a = hf.laplacian(m, s)
    assert np.max(np.abs(a - a_exact)) <= 1e-12 * scale
    assert np.array_equal(a, a.T)

    again = hf.validate_state(m, s.u.copy())
    assert np.array_equal(hf.curvature(m, again), k)
    assert np.array_equal(hf.laplacian(m, again), a)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["pants", "torus", "grid3", "grid4"])
def test_large_radii_match_oracle(name, seed):
    # arcs of 1e-17 to 1e-8, so K is compared relative to itself
    rng = np.random.default_rng(seed)
    m = random_mesh(name, rng)
    s = hf.state_from_radii(m, rng.uniform(20.0, 40.0, m.n_boundary))
    k_exact, a_exact = exact_hexagons(m, s.u, digits=60)
    assert np.max(np.abs(hf.curvature(m, s) / k_exact - 1.0)) <= 2e-15
    assert np.max(np.abs(hf.laplacian(m, s) - a_exact)) <= 2e-15 * np.max(np.abs(a_exact))


@pytest.mark.parametrize("phi", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-10])
def test_small_weight_matches_oracle(phi):
    # the default start has u = -phi/4 and radii of about log(8/phi), so
    # cosh(phi) sinh r_i sinh r_j - cosh r_i cosh r_j cancels, and cosh(phi)
    # rounds to 1 below phi = 1.5e-8; 60 digits, since at 30 the oracle's
    # own cosh(phi) cancels at phi = 1e-8
    m = hf.parse_mesh(json.dumps(pants_doc_with_weight(phi)))
    s = hf.default_start(m)
    k_exact, a_exact = exact_hexagons(m, s.u, digits=60)
    assert np.max(np.abs(hf.curvature(m, s) / k_exact - 1.0)) <= 4e-15
    assert np.max(np.abs(hf.laplacian(m, s) - a_exact)) <= 4e-15 * np.max(np.abs(a_exact))


def closure_defect(m, s, arcs_after):
    """Walk a face of the pants m at the state s in SO(2, 1): each side in
    turn (l_0, theta_{arcs_after[0]}, l_1, ...) is a boost by its length,
    then a turn by pi/2.  Returns |walk - I|max / prod cosh(side), which is
    0 when the sides close a right-angled hexagon."""
    # both faces of the pants have corners (3, 1, 2) opposite edges
    # (1, 2, 3), so the arc at corner k of either is half of K there
    lengths = hf.edge_lengths(m, s)
    theta = hf.curvature(m, s)[[2, 0, 1]] / 2
    sides = [x for k, a in enumerate(arcs_after) for x in (lengths[k], theta[a])]
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    walk = np.eye(3)
    for t in sides:
        ch, sh = np.cosh(t), np.sinh(t)
        walk = walk @ np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]]) @ turn
    return np.max(np.abs(walk - np.eye(3))) / np.prod(np.cosh(sides))


def test_hexagon_closes(pants):
    # side l_k joins the corners k + 1 and k + 2, so the arc met after it is
    # theta_{k+2}; an independent check of the cosine law's pairing, which
    # the kernel, hexgeom and the mpmath oracle share
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_mesh("pants", rng)
        assert closure_defect(m, admissible_state(m, rng), [2, 0, 1]) <= 1e-14
    s = hf.state_from_radii(pants, [0.5, 1.5, 3.0])
    assert closure_defect(pants, s, [2, 0, 1]) <= 1e-14
    assert closure_defect(pants, s, [0, 1, 2]) > 1e-3


@pytest.mark.parametrize("n", [3, 4, 5, 6, "pants", "torus"])
def test_fused_call_bitwise_equal_to_separate_calls(n):
    # the Calabi right-hand side scatters the stored entries of Delta in
    # the column order of scipy's CSC product, so the two agree bitwise; on
    # the pants and the torus repeated corners sum several Jacobian entries
    # into one stored entry
    c = sys.modules["hexflow.curvature"]
    if isinstance(n, int):
        rng = np.random.default_rng(n)
        m = random_mesh(f"grid{n}", rng)
    else:
        rng = np.random.default_rng(len(n))
        m = random_mesh(n, rng)
    size = m.n_boundary
    p = m.laplacian_pattern
    indptr = np.searchsorted(p.col, np.arange(size + 1))
    kbar = rng.uniform(0.5, 2.0, size)
    cfg = hf.FlowConfig(kind=hf.FlowKind.calabi(), kbar=kbar)
    for _ in range(4):
        s = admissible_state(m, rng)
        a = csc_array((c._hexagons(m, s.u, jacobian=True)[1], p.indices, indptr),
                      shape=(size, size))
        assert np.array_equal(hf.rhs(m, s, cfg), -(a @ (hf.curvature(m, s) - kbar)))


def test_grid_laplacian_negative_definite():
    rng = np.random.default_rng(5)
    m = random_mesh("grid6", rng)
    for _ in range(5):
        a = hf.laplacian(m, admissible_state(m, rng))
        assert np.max(np.linalg.eigvalsh(a)) < 0


def test_disjoint_union_is_block_diagonal(pants):
    double = hf.parse_mesh(json.dumps(disjoint_union(PANTS_DOC, PANTS_DOC)))
    u = np.array([-0.3, -0.5, -0.7])
    a = hf.laplacian(pants, hf.validate_state(pants, u))
    a2 = hf.laplacian(double, hf.validate_state(double, np.tile(u, 2)))
    assert np.array_equal(a2, np.kron(np.eye(2), a))


def test_sparse_pattern_is_face_adjacency():
    m = random_mesh("grid5", np.random.default_rng(3))
    p = m.laplacian_pattern
    # each vertex of the triangulated torus grid has six neighbours
    assert p.indices.size == 7 * m.n_boundary
    assert np.all(np.bincount(p.col) == 7)


@pytest.mark.parametrize("name", ["pants", "torus", "grid3", "grid5"])
def test_pattern_ordered_by_column_then_row(name):
    # _pcg's Jacobi diagonal and the bitwise _apply contract read the
    # stored entries in this order
    m = random_mesh(name, np.random.default_rng(3))
    p = m.laplacian_pattern
    assert np.all(np.diff(p.col * m.n_boundary + p.indices) > 0)


def test_edge_lengths_match_scalar(pants):
    # at u_1 = -1e-300, r_1 = 691: the lengths stay finite, though the
    # kernel's products of cosh l overflow (BAD_STATES["radius_691"])
    for u in ([-0.3, -0.5, -0.7], [-1e-300, -0.5, -0.5]):
        s = hf.validate_state(pants, u)
        r = s.r
        expected = [hf.edge_length(r[e.ends[0]], r[e.ends[1]], e.phi) for e in pants.edges]
        assert np.allclose(hf.edge_lengths(pants, s), expected, rtol=1e-14)


@pytest.mark.parametrize("u", [
    [-1.0, -1.0, -0.5],     # u_1 + u_2 = -phi
    [-0.5, -800.0, -0.5],   # radius underflows to 0
    [-0.5, -1e-310, -0.5],  # radius past RADIUS_MAX
])
def test_kernel_raises_like_scalar(pants, u):
    # the scalar reference checks the radii, the kernel the state u
    s = hf.ConformalState(u=np.array(u))
    with pytest.raises(hf.StateError):
        hf.edge_length(s.r[0], s.r[1], 2.0)
    with pytest.raises(hf.StateError):
        hf.curvature(pants, s)
    with pytest.raises(hf.StateError):
        hf.laplacian(pants, s)


# States built directly as ConformalState(u=...), bypassing validate_state,
# with the message each must raise StateError with.  They are checked where
# the face kernel reads its input, by the one admissibility test, or fail
# its finiteness guard.
BAD_STATES = {
    "pair_on_boundary": ([-1.0, -1.0, -0.5], r"edge 1 constraint u_1 \+ u_2 > -phi violated"),
    "u3_zero": ([-0.5, -0.5, 0.0], r"u\[2\] = 0\.0 violates u < 0"),
    "nan": ([-0.5, np.nan, -0.5], r"u\[1\] = nan violates u < 0"),
    # the radius would underflow to 0, but u_1 + u_2 > -phi fails first
    "radius_underflow": ([-0.5, -800.0, -0.5], r"edge 1 constraint u_1 \+ u_2 > -phi violated"),
    "radius_inf": ([-0.5, -1e-310, -0.5], "radii up to inf overflow the face kernel"),
    # r = 691 is finite, but the kernel's products of cosh l overflow
    "radius_691": ([-1e-300, -0.5, -0.5], "radii up to 691.* overflow the face kernel"),
    "too_long": ([-0.5] * 4, "state has 4 components, mesh has 3"),
    "too_short": ([-0.5] * 2, "state has 2 components, mesh has 3"),
    "two_dimensional": ([[-0.5] * 3], r"^state has shape \(1, 3\), mesh has 3$"),
}

EVALUATORS = {
    "curvature": hf.curvature,
    "laplacian": hf.laplacian,
    "edge_lengths": hf.edge_lengths,
}


@pytest.mark.parametrize("state,evaluator", [
    (state, evaluator) for state in BAD_STATES for evaluator in EVALUATORS
    # edge lengths alone stay finite at r = 691 (test_edge_lengths_match_scalar)
    if (state, evaluator) != ("radius_691", "edge_lengths")])
def test_every_evaluator_rejects_bad_state(pants, state, evaluator):
    u, message = BAD_STATES[state]
    with pytest.raises(hf.StateError, match=message):
        EVALUATORS[evaluator](pants, hf.ConformalState(u=np.array(u)))


def test_face_tables_built_lazily(pants):
    m = hf.parse_mesh(hf.serialize_mesh(pants))
    s = hf.state_from_radii(m, [1.0] * 3)
    hf.curvature(m, s)
    assert "laplacian_pattern" not in vars(m)
    hf.laplacian(m, s)
    assert "laplacian_pattern" in vars(m)
