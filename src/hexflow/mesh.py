"""Combinatorial data model for ideally triangulated surfaces with boundary.

The mesh file format is UTF-8 JSON with 1-based boundary indices:

    { "n_boundary": int,
      "edges": [ {"id": int, "ends": [int, int], "phi": 0 < float <= 700}, ... ],
      "faces": [ {"edges": [int, int, int],
                  "opposite_vertices": [int, int, int]}, ... ] }

opposite_vertices[k] is the boundary component at the corner opposite
edges[k].  The bound phi <= 700 (hexgeom.RADIUS_MAX) keeps cosh(phi)
finite.  Self-loop edges and repeated vertices per face are allowed (the
one-holed torus needs both), so corners are stored explicitly rather than
inferred from edge endpoints.  Internally indices are 0-based.

A state file is { "u": [float, ...] } or { "r": [float, ...] } with exactly
one of the two keys present; radii are converted on load.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, StateError
from .hexgeom import ADMISSIBILITY_MARGIN, RADIUS_MAX, radii, to_conformal


@dataclass(frozen=True)
class Edge:
    id: int
    ends: tuple[int, int]  # 0-based boundary indices, unordered pair
    phi: float


@dataclass(frozen=True)
class Face:
    edges: tuple[int, int, int]            # edge ids
    opposite: tuple[int, int, int]         # opposite[k] is the corner opposite edges[k]


@dataclass(frozen=True)
class FaceTables:
    """Index arrays of a mesh for the batched face kernel in curvature.

    Slot k of face f is its corner k together with the side opposite it;
    sides[0] lists the side of every slot, and sides[1] and sides[2] the
    sides of slots k + 1 and k + 2 (mod 3), the two that meet at corner k.
    """

    sides: np.ndarray     # (3, F, 3) position in m.edges of the side at slots k, k+1, k+2
    vertex: np.ndarray    # (F, 3) boundary component at each corner
    ends: np.ndarray      # (E, 2) endpoints of each edge
    phi: np.ndarray       # (E,) edge weights
    cosh_phi: np.ndarray  # (E,)


@dataclass(frozen=True)
class LaplacianPattern:
    """Where the corner Jacobians of a mesh land in Delta.

    Delta has one stored entry per (row, column) pair of corners sharing a
    face, in compressed sparse column (CSC) order: column j holds rows
    indices[indptr[j]:indptr[j + 1]], ascending, and col names the column
    of every stored entry.
    """

    slot: np.ndarray      # (9F,) CSC entry of corner-Jacobian entry (f, a, b), flattened
    indptr: np.ndarray    # (N + 1,)
    indices: np.ndarray   # (nnz,) row of each stored entry
    col: np.ndarray       # (nnz,) column of each stored entry


def _read_only(tables):
    for a in vars(tables).values():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return tables


@dataclass(frozen=True)
class IdealTriangulation:
    """Validated ideal triangulation; immutable after construction."""

    n_boundary: int
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]

    def __post_init__(self):
        n = self.n_boundary
        if n < 1:
            raise FormatError("n_boundary must be >= 1")
        if not self.faces:
            raise FormatError("mesh must have at least one face")
        seen_ids = set()
        for e in self.edges:
            if e.id in seen_ids:
                raise FormatError(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            for v in e.ends:
                if not 0 <= v < n:
                    raise FormatError(f"edge {e.id} endpoint {v + 1} out of range 1..{n}")
            if not 0.0 < e.phi <= RADIUS_MAX:  # also false for NaN
                raise FormatError(f"edge {e.id} weight must be positive and at most "
                                  f"{RADIUS_MAX:g}, got {e.phi!r}")
        by_id = {e.id: e for e in self.edges}

        side_count: dict[int, int] = {e.id: 0 for e in self.edges}
        corner_vertices = set()
        for fi, f in enumerate(self.faces):
            if len(set(f.edges)) != 3:
                raise FormatError(f"face {fi} must reference 3 distinct edge ids, "
                                  f"got {f.edges}")
            for k in range(3):
                if f.edges[k] not in by_id:
                    raise FormatError(f"face {fi} references undefined edge id "
                                      f"{f.edges[k]} (slot {k})")
                side_count[f.edges[k]] += 1
            for k in range(3):
                v = f.opposite[k]
                if not 0 <= v < n:
                    raise FormatError(f"face {fi} corner {k} vertex {v + 1} "
                                      f"out of range 1..{n}")
                # the corner opposite edge k must lie on the two adjacent edges
                for adj in (f.edges[(k + 1) % 3], f.edges[(k + 2) % 3]):
                    if v not in by_id[adj].ends:
                        raise FormatError(
                            f"corner inconsistency in face {fi}, slot {k}: vertex "
                            f"{v + 1} is not an endpoint of edge {adj}")
                corner_vertices.add(v)
        for eid, c in side_count.items():
            if c == 0:
                raise FormatError(f"edge {eid} is not referenced by any face")
            if c != 2:
                raise FormatError(f"edge {eid} appears in {c} face-corner slots, "
                                  f"expected exactly 2 (closed gluing)")
        # every corner vertex is in range, so they cover all n components
        # exactly when there are n of them; the count keeps a huge declared
        # n_boundary from costing time and memory before it is rejected
        missing = n - len(corner_vertices)
        if missing:
            first = list(itertools.islice(
                (v + 1 for v in range(n) if v not in corner_vertices), 10))
            listed = ", ".join(map(str, first)) + (", ..." if missing > 10 else "")
            raise FormatError(f"{missing} boundary components appear in no face "
                              f"corner: {listed}")

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def tables(self) -> FaceTables:
        """Built on first use, so that parsing and checking a mesh skip it."""
        position = {e.id: k for k, e in enumerate(self.edges)}
        edge = np.array([[position[i] for i in f.edges] for f in self.faces], dtype=np.intp)
        phi = np.array([e.phi for e in self.edges])
        return _read_only(FaceTables(
            sides=np.array([edge, edge[:, [1, 2, 0]], edge[:, [2, 0, 1]]]),
            vertex=np.array([f.opposite for f in self.faces], dtype=np.intp),
            ends=np.array([e.ends for e in self.edges], dtype=np.intp),
            phi=phi, cosh_phi=np.cosh(phi)))

    @cached_property
    def laplacian_pattern(self) -> LaplacianPattern:
        """Built on first use, so that evaluating K alone skips it."""
        n = self.n_boundary
        vertex = self.tables.vertex
        # key col * n + row of entry (f, a, b), whose row is corner a and
        # column corner b; sorted keys are CSC order
        keys = (vertex[:, None, :] * n + vertex[:, :, None]).ravel()
        stored, slot = np.unique(keys, return_inverse=True)
        col = stored // n
        return _read_only(LaplacianPattern(
            slot=slot, indptr=np.searchsorted(col, np.arange(n + 1)),
            indices=stored % n, col=col))


@dataclass(frozen=True)
class ConformalState:
    """A point of the admissible space Omega(Phi): u_i < 0 for every boundary
    component and u_i + u_j > -phi_ij for every edge.  Construct through
    validate_state; the evaluators in curvature check a state built directly
    as well, and raise StateError if it is not admissible."""

    u: np.ndarray

    def __post_init__(self):
        self.u.setflags(write=False)

    @cached_property
    def r(self) -> np.ndarray:
        r = radii(self.u)
        r.setflags(write=False)
        return r


def check_admissible(m: IdealTriangulation, u: np.ndarray) -> None:
    """Raise StateError unless u, one state of shape (N,), lies in the
    admissible space of m.

    This is the one admissibility test: validate_state and the face kernel
    in curvature both run it.  It is exact, as u_i + u_j > -phi_ij holds
    exactly when cosh l_ij > 1.
    """
    if u.shape != (m.n_boundary,):
        raise StateError(f"state has {u.size} components, mesh has {m.n_boundary}")
    # one reduction per bound on the fast path; NaN fails every comparison
    if not (u.max() < 0 and u.min() > -math.inf):
        i = int(np.argmin(np.isfinite(u) & (u < 0)))
        raise StateError(f"u[{i}] = {float(u[i])!r} violates u < 0")
    t = m.tables
    slack = u[t.ends[:, 0]] + u[t.ends[:, 1]] + t.phi
    if not slack.min() > ADMISSIBILITY_MARGIN:
        k = int(np.argmin(slack > ADMISSIBILITY_MARGIN))
        e = m.edges[k]
        i, j = e.ends
        raise StateError(f"edge {e.id} constraint u_{i + 1} + u_{j + 1} > "
                         f"-phi violated (slack {float(slack[k]):.3e})")


def validate_state(m: IdealTriangulation, u) -> ConformalState:
    """Check u against the admissible space of m; raises StateError otherwise."""
    u = np.asarray(u, dtype=float).copy()
    check_admissible(m, u)
    return ConformalState(u=u)


def state_from_radii(m: IdealTriangulation, r) -> ConformalState:
    """Convenience: validate the state with u_i = log tanh(r_i / 2)."""
    return validate_state(m, [to_conformal(ri) for ri in np.asarray(r, dtype=float)])


def euler_characteristic(m: IdealTriangulation) -> int:
    """N - |E| + |F| of the coned surface."""
    return m.n_boundary - len(m.edges) + len(m.faces)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _is_int_list(v, length: int) -> bool:
    # JSON true/false parse to bool, a subclass of int; type() excludes them
    return type(v) is list and len(v) == length and all(type(x) is int for x in v)


def parse_mesh(text: str | bytes) -> IdealTriangulation:
    """Parse and fully validate a mesh file."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"mesh JSON syntax error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "mesh document must be a JSON object")
    for key in ("n_boundary", "edges", "faces"):
        _require(key in doc, f"mesh document missing key {key!r}")
    n = doc["n_boundary"]
    _require(type(n) is int, "n_boundary must be an integer")
    _require(isinstance(doc["edges"], list), "edges must be a list")
    _require(isinstance(doc["faces"], list), "faces must be a list")

    edges = []
    for idx, e in enumerate(doc["edges"]):
        _require(isinstance(e, dict), f"edge entry {idx} must be an object")
        for key in ("id", "ends", "phi"):
            _require(key in e, f"edge entry {idx} missing key {key!r}")
        _require(type(e["id"]) is int, f"edge entry {idx}: id must be an integer")
        ends = e["ends"]
        _require(_is_int_list(ends, 2), f"edge entry {idx}: ends must be a pair of integers")
        _require(isinstance(e["phi"], (int, float)) and not isinstance(e["phi"], bool),
                 f"edge entry {idx}: phi must be a number")
        try:
            phi = float(e["phi"])
        except OverflowError:  # an integer too large for a float
            phi = math.inf if e["phi"] > 0 else -math.inf
        edges.append(Edge(id=e["id"], ends=(ends[0] - 1, ends[1] - 1), phi=phi))

    faces = []
    for idx, f in enumerate(doc["faces"]):
        _require(isinstance(f, dict), f"face entry {idx} must be an object")
        for key in ("edges", "opposite_vertices"):
            _require(key in f, f"face entry {idx} missing key {key!r}")
        fe, fo = f["edges"], f["opposite_vertices"]
        _require(_is_int_list(fe, 3), f"face entry {idx}: edges must be a triple of edge ids")
        _require(_is_int_list(fo, 3),
                 f"face entry {idx}: opposite_vertices must be a triple of integers")
        faces.append(Face(edges=tuple(fe), opposite=tuple(v - 1 for v in fo)))

    return IdealTriangulation(n_boundary=n, edges=tuple(edges), faces=tuple(faces))


def serialize_mesh(m: IdealTriangulation) -> str:
    """Inverse of parse_mesh on the combinatorial content."""
    doc = {
        "n_boundary": m.n_boundary,
        "edges": [{"id": e.id, "ends": [e.ends[0] + 1, e.ends[1] + 1], "phi": e.phi}
                  for e in m.edges],
        "faces": [{"edges": list(f.edges),
                   "opposite_vertices": [v + 1 for v in f.opposite]}
                  for f in m.faces],
    }
    return json.dumps(doc, indent=2)


def load_mesh(path) -> IdealTriangulation:
    with open(path, "rb") as fh:
        return parse_mesh(fh.read())


def parse_keyed_vector(text: str | bytes, what: str,
                       keys: tuple[str, str]) -> tuple[str, np.ndarray]:
    """Parse a JSON object holding exactly one of the two `keys`, whose value
    is a list of numbers; returns the key present and the values as floats.

    `what` names the document in the FormatError messages.  The state file
    and the CLI's target file share this format.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        # every number is read as a float, so an integer too large for one
        # becomes inf, as the number 1e400 does, instead of raising
        # OverflowError; true and false stay bool
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} JSON syntax error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), f"{what} document must be a JSON object")
    present = [k for k in keys if k in doc]
    _require(len(present) == 1,
             f'{what} document must contain exactly one of "{keys[0]}" or "{keys[1]}"')
    values = doc[present[0]]
    _require(isinstance(values, list) and all(type(v) is float for v in values),
             f"{what} key {present[0]!r} must be a list of numbers")
    return present[0], np.array(values, dtype=float)


def parse_state_vector(text: str | bytes) -> np.ndarray:
    """Parse a state file into a raw u vector (radii converted, not validated)."""
    key, values = parse_keyed_vector(text, "state", ("u", "r"))
    if key == "u":
        return values
    return np.array([to_conformal(float(ri)) for ri in values])


def load_state_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_state_vector(fh.read())
