import json

import numpy as np
import pytest

import hexflow as hf

# Frozen oracle values, computed with mpmath at 40 significant digits by
# direct evaluation of the defining formulas.
U_OF_R1 = -0.7719368329053047        # log tanh(1/2)
R_OF_U1 = 0.7719368329053047         # 2 artanh(e^-1)
L_112 = 1.6949011625917027           # edge_length(1, 1, 2)
ARC_111 = 1.7049128323580137         # arc_length(1, 1, 1)
ARC_CHAIN = 1.0067141268431947       # arc_length(L_112, L_112, L_112)
Q_111 = 3.6731111454375017           # sinh(1)^2 sinh(ARC_111)
K_PANTS_R1 = 2.0134282536863894      # 2 * ARC_CHAIN
DLDR_112 = 1.9036801308665639        # d edge_length / d r_i at (1, 1, 2)
THETA_AT_15 = 5.871347117527181e-07  # arc at r_i = 15, r_j = r_k = 1, phi = 2

PANTS_DOC = {
    "n_boundary": 3,
    "edges": [
        {"id": 1, "ends": [1, 2], "phi": 2.0},
        {"id": 2, "ends": [2, 3], "phi": 2.0},
        {"id": 3, "ends": [3, 1], "phi": 2.0},
    ],
    "faces": [
        {"edges": [1, 2, 3], "opposite_vertices": [3, 1, 2]},
        {"edges": [1, 2, 3], "opposite_vertices": [3, 1, 2]},
    ],
}

TORUS_DOC = {
    "n_boundary": 1,
    "edges": [
        {"id": 1, "ends": [1, 1], "phi": 2.0},
        {"id": 2, "ends": [1, 1], "phi": 2.0},
        {"id": 3, "ends": [1, 1], "phi": 2.0},
    ],
    "faces": [
        {"edges": [1, 2, 3], "opposite_vertices": [1, 1, 1]},
        {"edges": [1, 2, 3], "opposite_vertices": [1, 1, 1]},
    ],
}


@pytest.fixture
def pants():
    return hf.parse_mesh(json.dumps(PANTS_DOC))


@pytest.fixture
def torus():
    return hf.parse_mesh(json.dumps(TORUS_DOC))


def disjoint_union(doc_a: dict, doc_b: dict) -> dict:
    """File-level disjoint union of two mesh documents."""
    na = doc_a["n_boundary"]
    eid = max(e["id"] for e in doc_a["edges"])
    out = json.loads(json.dumps(doc_a))
    out["n_boundary"] += doc_b["n_boundary"]
    for e in doc_b["edges"]:
        out["edges"].append({"id": e["id"] + eid,
                             "ends": [v + na for v in e["ends"]],
                             "phi": e["phi"]})
    for f in doc_b["faces"]:
        out["faces"].append({"edges": [e + eid for e in f["edges"]],
                             "opposite_vertices": [v + na
                                                   for v in f["opposite_vertices"]]})
    return out


def sample_valid_states(m, count, rng, lo=-0.9, hi=-0.15):
    """Uniform samples from a safe box, rejection-filtered by validate_state."""
    states = []
    while len(states) < count:
        u = rng.uniform(lo, hi, m.n_boundary)
        try:
            states.append(hf.validate_state(m, u))
        except hf.StateError:
            continue
    return states


def fd_curvature_jacobian(m, u, h=1e-6):
    """Central finite differences of K in u; the Laplacian oracle."""
    n = len(u)
    jac = np.zeros((n, n))
    for j in range(n):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        kp = hf.curvature(m, hf.validate_state(m, up))
        km = hf.curvature(m, hf.validate_state(m, um))
        jac[:, j] = (kp - km) / (2 * h)
    return jac


def face_thetas(u3, phi3):
    """Arc lengths of one face as a function of its corner conformal factors."""
    r = [hf.from_conformal(x) for x in u3]
    lengths = tuple(hf.edge_length(r[(k + 1) % 3], r[(k + 2) % 3], phi3[k])
                    for k in range(3))
    return np.array(hf.hexagon_geometry(lengths).theta)


def fd_corner_jacobian(u3, phi3, h=1e-6):
    """Central finite differences of the face arc lengths in u."""
    jac = np.zeros((3, 3))
    for b in range(3):
        up, um = list(u3), list(u3)
        up[b] += h
        um[b] -= h
        jac[:, b] = (face_thetas(up, phi3) - face_thetas(um, phi3)) / (2 * h)
    return jac


def torus_grid_doc(n: int, phi) -> dict:
    """The n x n torus grid (n >= 3): vertex (i, j) -> i*n + j + 1, each
    square (a, b, c, d) split into faces (a, b, d) and (a, d, c).  phi is
    indexed by 0-based edge id; square s owns edges 3s+1 (a-b), 3s+2 (a-c)
    and 3s+3 (a-d)."""
    def vid(i, j):
        return (i % n) * n + (j % n) + 1

    def eid(i, j, kind):
        return 3 * ((i % n) * n + (j % n)) + kind + 1

    edges, faces = [], []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
            for kind, ends in enumerate(((a, b), (a, c), (a, d))):
                k = eid(i, j, kind)
                edges.append({"id": k, "ends": list(ends), "phi": float(phi[k - 1])})
            faces.append({"edges": [eid(i, j + 1, 1), eid(i, j, 2), eid(i, j, 0)],
                          "opposite_vertices": [a, b, d]})
            faces.append({"edges": [eid(i + 1, j, 0), eid(i, j, 1), eid(i, j, 2)],
                          "opposite_vertices": [a, d, c]})
    return {"n_boundary": n * n, "edges": edges, "faces": faces}


def random_mesh(name, rng):
    """The named mesh ("pants", "torus" or "grid<n>") with every weight
    drawn from U(0.5, 3)."""
    if name.startswith("grid"):
        n = int(name[4:])
        return hf.parse_mesh(json.dumps(torus_grid_doc(n, rng.uniform(0.5, 3.0, 3 * n * n))))
    doc = json.loads(json.dumps(PANTS_DOC if name == "pants" else TORUS_DOC))
    for e in doc["edges"]:
        e["phi"] = float(rng.uniform(0.5, 3.0))
    return hf.parse_mesh(json.dumps(doc))


def admissible_state(m, rng, lo=0.05, hi=0.95):
    """u_i = -U(lo, hi) * min(1, phi_min(i) / 2), phi_min(i) the smallest
    weight at component i; hi < 1 keeps every edge slack >= (1 - hi) phi."""
    phi_min = np.full(m.n_boundary, np.inf)
    for e in m.edges:
        for v in e.ends:
            phi_min[v] = min(phi_min[v], e.phi)
    u = -rng.uniform(lo, hi, m.n_boundary) * np.minimum(1.0, phi_min / 2.0)
    return hf.validate_state(m, u)


def reference_curvature(m, s):
    """K by a loop over faces of the scalar hexgeom functions."""
    r = [hf.from_conformal(x) for x in s.u]
    lengths = {e.id: hf.edge_length(r[e.ends[0]], r[e.ends[1]], e.phi) for e in m.edges}
    k = np.zeros(m.n_boundary)
    for f in m.faces:
        geo = hf.hexagon_geometry(tuple(lengths[eid] for eid in f.edges))
        for slot in range(3):
            k[f.opposite[slot]] += geo.theta[slot]
    return k


def reference_laplacian(m, s):
    """Dense Delta by a loop over faces of hexgeom.corner_jacobian."""
    r = [hf.from_conformal(x) for x in s.u]
    phi = {e.id: e.phi for e in m.edges}
    a = np.zeros((m.n_boundary, m.n_boundary))
    for f in m.faces:
        jac = hf.corner_jacobian(tuple(r[v] for v in f.opposite),
                                 tuple(phi[eid] for eid in f.edges))
        for p in range(3):
            for q in range(3):
                a[f.opposite[p], f.opposite[q]] += jac[p, q]
    return a
