"""The batched face kernel against the scalar hexgeom reference.

The oracle is the reference's formulas evaluated with mpmath.  The float
reference passes each edge as its length l and recomputes cosh l from it,
which costs it digits once the radii grow and the arcs shrink: on the
states below it is off by up to 5e-13 in K and 3e-11 max|Delta| in Delta.
The kernel keeps cosh l and must be within 1e-13 (K) and 1e-12 max|Delta|
(Delta) of the exact values, so it agrees with the float reference to
those bounds plus the reference's own error.
"""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hexflow as hf
from hexflow.curvature import _curvatures, curvature_laplacian
from conftest import (PANTS_DOC, TORUS_DOC, admissible_state, disjoint_union,
                      reference_curvature, reference_laplacian, torus_grid_doc)

MESHES = ["pants", "torus"] + [f"grid{n}" for n in range(3, 11)]


def random_mesh(name, rng):
    """The named mesh with every weight drawn from U(0.5, 3)."""
    if name.startswith("grid"):
        n = int(name[4:])
        return hf.parse_mesh(json.dumps(torus_grid_doc(n, rng.uniform(0.5, 3.0, 3 * n * n))))
    doc = json.loads(json.dumps(PANTS_DOC if name == "pants" else TORUS_DOC))
    for e in doc["edges"]:
        e["phi"] = float(rng.uniform(0.5, 3.0))
    return hf.parse_mesh(json.dumps(doc))


def exact_hexagons(m, u, digits=30):
    """(K, Delta) at the state u from the formulas of hexgeom.hexagon_geometry
    and hexgeom.corner_jacobian, evaluated with mpmath."""
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
    a_ref = reference_laplacian(m, s)
    assert (np.max(np.abs(a - a_ref))
            <= 1e-12 * scale + np.max(np.abs(a_ref - a_exact)))
    assert np.array_equal(a, a.T)
    assert np.array_equal(hf.sparse_laplacian(m, s).toarray(), a)

    again = hf.validate_state(m, s.u.copy())
    assert np.array_equal(hf.curvature(m, again), k)
    assert np.array_equal(hf.laplacian(m, again), a)


@pytest.mark.parametrize("n", range(3, 7))
def test_fused_call_bitwise_equal_to_separate_calls(n):
    rng = np.random.default_rng(n)
    m = random_mesh(f"grid{n}", rng)
    kbar = rng.uniform(0.5, 2.0, m.n_boundary)
    cfg = hf.FlowConfig(kind=hf.FlowKind.calabi(), kbar=kbar)
    for _ in range(4):
        s = admissible_state(m, rng)
        k, a = curvature_laplacian(m, s)
        assert np.array_equal(k, hf.curvature(m, s))
        assert np.array_equal(a, hf.laplacian(m, s))
        assert np.array_equal(hf.rhs(m, s, cfg),
                              -hf.laplacian(m, s) @ (hf.curvature(m, s) - kbar))


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
    a = hf.sparse_laplacian(m, admissible_state(m, np.random.default_rng(4)))
    # each vertex of the triangulated torus grid has six neighbours
    assert a.nnz == 7 * m.n_boundary
    assert np.all(np.diff(a.indptr) == 7)


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
}

EVALUATORS = {
    "curvature": hf.curvature,
    "laplacian": hf.laplacian,
    "sparse_laplacian": hf.sparse_laplacian,
    "curvature_laplacian": curvature_laplacian,
    "edge_lengths": hf.edge_lengths,
    # the bad state as the middle row of a batch
    "batched": lambda m, s: _curvatures(
        m, np.array([[-0.5, -0.5, -0.5], s.u, [-0.6, -0.4, -0.5]])),
}


@pytest.mark.parametrize("state,evaluator", [
    (state, evaluator) for state in BAD_STATES for evaluator in EVALUATORS
    # edge lengths alone stay finite at r = 691 (test_edge_lengths_match_scalar)
    if (state, evaluator) != ("radius_691", "edge_lengths")])
def test_every_evaluator_rejects_bad_state(pants, state, evaluator):
    u, message = BAD_STATES[state]
    with pytest.raises(hf.StateError, match=message):
        EVALUATORS[evaluator](pants, hf.ConformalState(u=np.array(u)))


@pytest.mark.parametrize("n", [3, 7])
def test_batched_curvature_rows_equal_single_state(n):
    rng = np.random.default_rng(n)
    m = random_mesh(f"grid{n}", rng)
    u = np.array([admissible_state(m, rng).u for _ in range(48)])
    k = _curvatures(m, u)
    assert k.shape == (48, m.n_boundary)
    for row, ui in zip(k, u):
        assert np.array_equal(row, hf.curvature(m, hf.validate_state(m, ui)))


@pytest.mark.parametrize("u,error", [
    ([-1.0, -1.0, -0.5], hf.StateError),      # u_1 + u_2 = -phi
    ([-0.5, -0.5, 0.0], hf.StateError),        # u_3 = 0
    ([-0.5, -1e-310, -0.5], hf.StateError),    # r_2 = inf overflows the kernel
])
def test_batched_curvature_checks_every_row(pants, u, error):
    batch = np.array([[-0.5, -0.5, -0.5], u, [-0.6, -0.4, -0.5]])
    with pytest.raises(error):
        _curvatures(pants, batch)


def test_face_tables_built_lazily(pants):
    m = hf.parse_mesh(hf.serialize_mesh(pants))
    assert "tables" not in vars(m)
    s = hf.state_from_radii(m, [1.0] * 3)
    hf.curvature(m, s)
    assert "tables" in vars(m) and "laplacian_pattern" not in vars(m)
    hf.laplacian(m, s)
    assert "laplacian_pattern" in vars(m)
