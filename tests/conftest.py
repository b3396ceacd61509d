import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hexflow as hf
from hexflow.curvature import _hexagons

# the benchmark's torus-grid generator is the tests' one too
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import meshgen

# Frozen oracle values, computed with mpmath at 40 significant digits by
# direct evaluation of the defining formulas.
U_OF_R1 = -0.7719368329053047        # log tanh(1/2)
R_OF_U1 = 0.7719368329053047         # 2 artanh(e^-1)
L_112 = 1.6949011625917027           # edge_length(1, 1, 2)
ARC_111 = 1.7049128323580137         # arc_length(1, 1, 1)
ARC_CHAIN = 1.0067141268431947       # arc_length(L_112, L_112, L_112)
Q_111 = 3.6731111454375017           # sinh(1)^2 sinh(ARC_111)
K_PANTS_R1 = 2.0134282536863894      # 2 * ARC_CHAIN
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

# JSON arrays nested past the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def pants():
    return hf.parse_mesh(json.dumps(PANTS_DOC))


@pytest.fixture
def torus():
    return hf.parse_mesh(json.dumps(TORUS_DOC))


def pants_doc_with_weight(phi: float) -> dict:
    """The pants document with edge 1's weight set to phi."""
    doc = json.loads(json.dumps(PANTS_DOC))
    doc["edges"][0]["phi"] = phi
    return doc


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


def fd_face_block(u3, phi3, h=1e-6):
    """Central finite differences of the face arc lengths in u; the oracle
    for face_block."""
    jac = np.zeros((3, 3))
    for b in range(3):
        up, um = list(u3), list(u3)
        up[b] += h
        um[b] -= h
        jac[:, b] = (face_thetas(up, phi3) - face_thetas(um, phi3)) / (2 * h)
    return jac


def face_block(u3, phi3):
    """The face kernel's 3x3 block d theta_a / d u_b of one face with u3[k]
    at corner k and phi3[k] the weight of the edge opposite it.

    Built on the pants, whose two faces both have corners (3, 1, 2)
    opposite edges (1, 2, 3), so its first block is the block of any
    (u, phi) triple (and equals the second)."""
    doc = json.loads(json.dumps(PANTS_DOC))
    for e, phi in zip(doc["edges"], phi3):
        e["phi"] = float(phi)
    m = hf.parse_mesh(json.dumps(doc))
    u = np.empty(3)
    u[m.vertex[0]] = u3
    return _hexagons(m, u, jacobian=True)[2][0]


def torus_grid_doc(n: int, phi) -> dict:
    """The n x n torus grid of perfbench/meshgen.py as a mesh document."""
    return json.loads(meshgen.torus_grid(n, phi))


def random_mesh(name, rng):
    """The named mesh ("pants", "torus" or "grid<n>") with every weight
    drawn from U(0.5, 3)."""
    if name.startswith("grid"):
        n = int(name[4:])
        return hf.parse_mesh(meshgen.torus_grid(n, rng.uniform(0.5, 3.0, 3 * n * n)))
    doc = json.loads(json.dumps(PANTS_DOC if name == "pants" else TORUS_DOC))
    for e in doc["edges"]:
        e["phi"] = float(rng.uniform(0.5, 3.0))
    return hf.parse_mesh(json.dumps(doc))


def admissible_state(m, rng, lo=0.05, hi=0.95):
    """meshgen.scaled_state, validated: u_i = -U(lo, hi) * min(1, phi_min(i) / 2),
    phi_min(i) the smallest weight at component i."""
    return hf.validate_state(m, meshgen.scaled_state(m, rng, lo, hi))


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

