"""Torus-grid meshes and admissible states for the benchmark.

The n x n torus grid has vertex (i, j) -> i*n + j (indices mod n).  Each
square with corners a = (i, j), b = (i, j+1), c = (i+1, j), d = (i+1, j+1)
is split along a-d into faces (a, b, d) and (a, d, c), and every face lists
edges[k] opposite corner k.  N = n^2, E = 3n^2, F = 2n^2, so chi = 0.
n >= 3 is required: smaller n glues parallel edges onto one vertex pair.

Self-check (hexflow importable, e.g. PYTHONPATH=src):

    python3 perfbench/meshgen.py
"""

from __future__ import annotations

import json

import numpy as np


def torus_grid(n: int, phi) -> str:
    """Mesh JSON text of the n x n torus grid.

    phi is one weight for every edge or an array of 3n^2 weights indexed by
    0-based edge id.  Square s = i*n + j owns the edges 3s+1 (horizontal,
    a-b), 3s+2 (vertical, a-c) and 3s+3 (diagonal, a-d).
    """
    if n < 3:
        raise ValueError(f"torus grid needs n >= 3, got {n}")
    weights = np.broadcast_to(np.asarray(phi, dtype=float), (3 * n * n,))

    def vid(i: int, j: int) -> int:
        return (i % n) * n + (j % n) + 1

    def eid(i: int, j: int, kind: int) -> int:
        return 3 * ((i % n) * n + (j % n)) + kind + 1

    edges, faces = [], []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
            for kind, ends in enumerate(((a, b), (a, c), (a, d))):
                k = eid(i, j, kind)
                edges.append({"id": k, "ends": list(ends), "phi": float(weights[k - 1])})
            hor, ver, diag = eid(i, j, 0), eid(i, j, 1), eid(i, j, 2)
            # (a, b, d): b-d is the vertical edge of square (i, j+1)
            faces.append({"edges": [eid(i, j + 1, 1), diag, hor],
                          "opposite_vertices": [a, b, d]})
            # (a, d, c): d-c is the horizontal edge of square (i+1, j)
            faces.append({"edges": [eid(i + 1, j, 0), ver, diag],
                          "opposite_vertices": [a, d, c]})
    return json.dumps({"n_boundary": n * n, "edges": edges, "faces": faces})


def min_incident_weight(m) -> np.ndarray:
    """phi_min(i): the smallest weight of an edge ending at component i."""
    out = np.full(m.n_boundary, np.inf)
    for e in m.edges:
        for v in e.ends:
            out[v] = min(out[v], e.phi)
    return out


def scaled_state(m, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """u_i = -U(lo, hi) * min(1, phi_min(i) / 2).

    With hi < 1 every edge keeps slack u_i + u_j + phi >= (1 - hi) phi > 0,
    so the state is admissible by construction.
    """
    scale = np.minimum(1.0, min_incident_weight(m) / 2.0)
    return -rng.uniform(lo, hi, size=m.n_boundary) * scale


def self_check() -> None:
    """parse_mesh accepts every grid from n = 3 to 50 with chi = 0, and the
    constructed states are admissible, including at the smallest weights."""
    import hexflow

    rng = np.random.default_rng(0)
    for n in range(3, 51):
        m = hexflow.parse_mesh(torus_grid(n, rng.uniform(0.5, 3.0, size=3 * n * n)))
        counts = (m.n_boundary, len(m.edges), len(m.faces))
        if counts != (n * n, 3 * n * n, 2 * n * n) or hexflow.euler_characteristic(m) != 0:
            raise AssertionError(f"n={n}: (N, E, F) = {counts}")
        hexflow.validate_state(m, scaled_state(m, rng, 0.3, 0.9))
    m = hexflow.parse_mesh(torus_grid(3, 0.5))
    hexflow.validate_state(m, scaled_state(m, np.random.default_rng(1), 0.9, 0.9))
    print("torus grids n = 3..50 parse with chi = 0; scaled states are admissible")


if __name__ == "__main__":
    self_check()
