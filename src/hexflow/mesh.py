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
inferred from edge endpoints.  Edge ids are any integers, of any size.

parse_mesh checks the JSON shape of the entries one column at a time (every
id, then every ends pair, ...), each test one C-level pass, and converts
each column straight to an array.  Only when a column test fails does it
walk the entries, edges then faces, to name the first offender.

In memory a mesh is held once, as the read-only arrays that the face
kernel in curvature reads, with 0-based indices.  IdealTriangulation checks
them with array operations, each naming its first offender in file order.
m.edges and m.faces, tuples of Edge and Face objects, are views built on
first use; nothing in hexflow reads them.

A state file is { "u": [float, ...] } or { "r": [float, ...] } with exactly
one of the two keys present; radii are converted on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from typing import NoReturn

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
class LaplacianPattern:
    """Where the corner Jacobians of a mesh land in Delta.

    Delta has one stored entry per (row, column) pair of corners sharing a
    face, ordered by column, then by row; indices and col name the row and
    the column of every stored entry.
    """

    slot: np.ndarray      # (9F,) stored entry of corner-Jacobian entry (f, a, b), flattened
    indices: np.ndarray   # (nnz,) row of each stored entry
    col: np.ndarray       # (nnz,) column of each stored entry


_ARRAYS = ("ids", "ends", "phi", "vertex", "sides")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require(cond: bool, msg: str, *args) -> None:
    # msg.format(*args) runs only on failure: the entry loops call this
    # several times per entry
    if not cond:
        raise FormatError(msg.format(*args))


def _int_array(values) -> np.ndarray:
    """values as int64, or as Python ints if one lies past int64, so that a
    failed check reports it exactly as written."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _first_fault(*checks: np.ndarray) -> tuple[int, int] | None:
    """The first item that fails one of checks, masks over the same items,
    and the first check it fails, as (item, check); None if none fails."""
    failed = np.array(checks).T
    return divmod(int(np.argmax(failed)), len(checks)) if failed.any() else None


@dataclass(frozen=True, eq=False)
class IdealTriangulation:
    """Validated ideal triangulation; immutable after construction.

    Built from a mesh file's values, 0-based, with face_edges (F, 3) giving
    the edge ids of each face.  Slot k of face f is its corner k together
    with the side opposite it; sides[0] holds the side of every slot as a
    position in the edge arrays, and sides[1] and sides[2] the sides of
    slots k + 1 and k + 2 (mod 3), the two that meet at corner k.
    """

    n_boundary: int
    ids: np.ndarray       # (E,) file id of each edge (Python ints if one is past int64)
    ends: np.ndarray      # (E, 2) endpoints of each edge
    phi: np.ndarray       # (E,) edge weights
    vertex: np.ndarray    # (F, 3) boundary component at each corner
    face_edges: InitVar[list]
    sides: np.ndarray = field(init=False)  # (3, F, 3)

    def __post_init__(self, face_edges):
        n = self.n_boundary
        _require(n >= 1, "n_boundary must be >= 1")
        _require(len(face_edges) > 0, "mesh must have at least one face")
        ids, fe, vertex = map(_int_array, (self.ids, face_edges, self.vertex))
        ends, phi = _int_array(self.ends).reshape(-1, 2), np.array(self.phi, dtype=float)

        # each edge in turn: its id repeats an earlier one, endpoint 0 or 1 is
        # out of range, its weight is outside (0, RADIUS_MAX] (NaN included)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        repeat = np.zeros(ids.size, dtype=bool)
        repeat[order[1:]] = sorted_ids[1:] == sorted_ids[:-1]
        fault = _first_fault(repeat, *((ends < 0) | (ends >= n)).T,
                             ~((phi > 0.0) & (phi <= RADIUS_MAX)))
        if fault:
            e, check = fault
            if check == 0:
                raise FormatError(f"duplicate edge id {ids[e]}")
            if check < 3:
                raise FormatError(f"edge {ids[e]} endpoint {int(ends[e, check - 1]) + 1} "
                                  f"out of range 1..{n}")
            raise FormatError(f"edge {ids[e]} weight must be positive and at most "
                              f"{RADIUS_MAX:g}, got {float(phi[e])!r}")

        # each face in turn: its edge ids repeat, or slot 0, 1 or 2 names no
        # edge; then each slot k of the faces before the first such face:
        # its corner is out of range, or is no end of side k + 1 or k + 2
        pos = np.searchsorted(sorted_ids, fe)
        defined = pos < ids.size
        defined[defined] = sorted_ids[pos[defined]] == fe[defined]
        a, b, c = fe.T
        face_fault = _first_fault((a == b) | (b == c) | (a == c), *~defined.T)
        nf = face_fault[0] if face_fault else len(fe)
        side, corner = order[pos[:nf]], vertex[:nf]
        out = (corner < 0) | (corner >= n)
        off = [(ends[side[:, s]] != corner[:, :, None]).all(axis=2)
               for s in ([1, 2, 0], [2, 0, 1])]
        fault = _first_fault(*(mask[:, k] for k in range(3) for mask in (out, *off)))
        if fault:
            f, (k, check) = fault[0], divmod(fault[1], 3)
            v = int(vertex[f, k]) + 1
            if check == 0:
                raise FormatError(f"face {f} corner {k} vertex {v} out of range 1..{n}")
            raise FormatError(f"corner inconsistency in face {f}, slot {k}: vertex {v} "
                              f"is not an endpoint of edge {fe[f, (k + check) % 3]}")
        if face_fault:
            f, check = face_fault
            if check == 0:
                raise FormatError(f"face {f} must reference 3 distinct edge ids, "
                                  f"got {tuple(fe[f].tolist())}")
            raise FormatError(f"face {f} references undefined edge id "
                              f"{fe[f, check - 1]} (slot {check - 1})")

        count = np.bincount(side.ravel(), minlength=ids.size)
        if (count != 2).any():
            e = int(np.argmax(count != 2))
            if count[e] == 0:
                raise FormatError(f"edge {ids[e]} is not referenced by any face")
            raise FormatError(f"edge {ids[e]} appears in {count[e]} face-corner slots, "
                              f"expected exactly 2 (closed gluing)")
        # every corner is in range, so they cover all n components exactly
        # when n of them are distinct; the missing ones are listed from the
        # smallest candidates, so a huge declared n_boundary costs nothing
        corners = np.sort(vertex, axis=None, kind="stable")
        distinct = 1 + int(np.count_nonzero(corners[1:] != corners[:-1]))
        missing = n - distinct
        if missing:
            candidates = np.arange(min(n, distinct + 10))
            first = (candidates[~np.isin(candidates, corners)][:10] + 1).tolist()
            raise FormatError(f"{missing} boundary components appear in no face corner: "
                              + ", ".join(map(str, first)) + (", ..." if missing > 10 else ""))

        # every index is now below n <= 3F, so it fits an intp
        sides = np.array([side, side[:, [1, 2, 0]], side[:, [2, 0, 1]]])
        for name, value in zip(_ARRAYS, (ids, ends.astype(np.intp), phi,
                                         vertex.astype(np.intp), sides)):
            object.__setattr__(self, name, _frozen(value))

    def __eq__(self, other):
        return (isinstance(other, IdealTriangulation) and self.n_boundary == other.n_boundary
                and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS))

    @cached_property
    def cosh_phi_minus_1(self) -> np.ndarray:
        """cosh(phi) - 1 of every edge weight, as 2 sinh^2(phi/2), which
        keeps its relative accuracy where cosh(phi) rounds to 1."""
        return _frozen(2.0 * np.sinh(0.5 * self.phi) ** 2)

    # zip(*a.T.tolist()) gives the rows of a as tuples
    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.ids.tolist(), zip(*self.ends.T.tolist()),
                         self.phi.tolist()))

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(map(Face, zip(*self.ids[self.sides[0]].T.tolist()),
                         zip(*self.vertex.T.tolist())))

    @cached_property
    def laplacian_pattern(self) -> LaplacianPattern:
        """Built on first use, so that evaluating K alone skips it."""
        n = self.n_boundary
        vertex = self.vertex
        # key col * n + row of entry (f, a, b), whose row is corner a and
        # column corner b; sorted keys order the entries by column, then row
        keys = (vertex[:, None, :] * n + vertex[:, :, None]).ravel()
        stored, slot = np.unique(keys, return_inverse=True)
        return LaplacianPattern(*map(_frozen, (slot, stored % n, stored // n)))


@dataclass(frozen=True)
class ConformalState:
    """A point of the admissible space Omega(Phi): u_i < 0 for every boundary
    component and u_i + u_j > -phi_ij for every edge.  Construct through
    validate_state; the evaluators in curvature check a state built directly
    as well, and raise StateError if it is not admissible."""

    u: np.ndarray

    def __post_init__(self):
        _frozen(self.u)

    @cached_property
    def r(self) -> np.ndarray:
        return _frozen(radii(self.u))


def check_admissible(m: IdealTriangulation, u: np.ndarray) -> None:
    """Raise StateError unless u, one state of shape (N,), lies in the
    admissible space of m.

    This is the one admissibility test: validate_state and the face kernel
    in curvature both run it.  It is exact, as u_i + u_j > -phi_ij holds
    exactly when cosh l_ij > 1.
    """
    if u.shape != (m.n_boundary,):
        size = f"{u.size} components" if u.ndim == 1 else f"shape {u.shape}"
        raise StateError(f"state has {size}, mesh has {m.n_boundary}")
    # one reduction per bound on the fast path; NaN fails every comparison
    if not (u.max() < 0 and u.min() > -math.inf):
        i = int(np.argmin(np.isfinite(u) & (u < 0)))
        raise StateError(f"u[{i}] = {float(u[i])!r} violates u < 0")
    slack = u[m.ends[:, 0]] + u[m.ends[:, 1]] + m.phi
    if not slack.min() > ADMISSIBILITY_MARGIN:
        k = int(np.argmin(slack > ADMISSIBILITY_MARGIN))
        i, j = m.ends[k]
        raise StateError(f"edge {m.ids[k]} constraint u_{i + 1} + u_{j + 1} > "
                         f"-phi violated (slack {float(slack[k]):.3e})")


def validate_state(m: IdealTriangulation, u) -> ConformalState:
    """Check u against the admissible space of m; raises StateError otherwise."""
    u = np.asarray(u, dtype=float).copy()
    check_admissible(m, u)
    return ConformalState(u=u)


def state_from_radii(m: IdealTriangulation, r) -> ConformalState:
    """Convenience: validate the state with u_i = log tanh(r_i / 2)."""
    return validate_state(m, to_conformal(r))


def euler_characteristic(m: IdealTriangulation) -> int:
    """N - |E| + |F| of the coned surface."""
    return m.n_boundary - len(m.phi) + len(m.vertex)


def _is_int_list(v, length: int) -> bool:
    # JSON true/false parse to bool, a subclass of int; type() excludes them
    return type(v) is list and len(v) == length and all(type(x) is int for x in v)


def _int_rows(column: list, width: int) -> np.ndarray | None:
    """column, whose every item passes _is_int_list(item, width), as an
    (n, width) _int_array; None if an item fails.  Each test is one C-level
    pass over the items or their members."""
    if not (set(map(type, column)) <= {list} and set(map(len, column)) <= {width}):
        return None
    members = list(chain.from_iterable(column))
    if not set(map(type, members)) <= {int}:
        return None
    return _int_array(members).reshape(-1, width)


def _raise_entry_fault(edges: list, faces: list) -> NoReturn:
    """Raise the FormatError of the first edge entry, then face entry, whose
    JSON shape is wrong, checking each entry in the order of its fields.

    parse_mesh tests the shape one column at a time and walks the entries
    only after a column test has failed, to name the first offender.
    """
    for idx, e in enumerate(edges):
        _require(isinstance(e, dict), "edge entry {} must be an object", idx)
        for key in ("id", "ends", "phi"):
            _require(key in e, "edge entry {} missing key {!r}", idx, key)
        _require(type(e["id"]) is int, "edge entry {}: id must be an integer", idx)
        _require(_is_int_list(e["ends"], 2),
                 "edge entry {}: ends must be a pair of integers", idx)
        _require(type(e["phi"]) in (int, float), "edge entry {}: phi must be a number", idx)
    for idx, f in enumerate(faces):
        _require(isinstance(f, dict), "face entry {} must be an object", idx)
        for key in ("edges", "opposite_vertices"):
            _require(key in f, "face entry {} missing key {!r}", idx, key)
        _require(_is_int_list(f["edges"], 3),
                 "face entry {}: edges must be a triple of edge ids", idx)
        _require(_is_int_list(f["opposite_vertices"], 3),
                 "face entry {}: opposite_vertices must be a triple of integers", idx)
    raise AssertionError("a column shape test failed, but no entry's test did")


def _less_one(a: np.ndarray) -> np.ndarray:
    """a - 1, 1-based to 0-based, for an _int_array a; an int64 minimum
    becomes a Python int first, so that it does not wrap."""
    if a.dtype != object and a.size and a.min() == -2 ** 63:
        a = a.astype(object)
    return a - 1


def _float(v: int | float) -> float:
    try:
        return float(v)
    except OverflowError:  # an integer too large for a float
        return math.inf if v > 0 else -math.inf


def _float_array(values: list) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array(list(map(_float, values)))


def _load_json(text: str | bytes, what: str, **options):
    """json.loads(text, **options); a FormatError names `what` if it fails."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} JSON syntax error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise FormatError(f"{what} JSON nested too deeply") from exc


def parse_mesh(text: str | bytes) -> IdealTriangulation:
    """Parse and fully validate a mesh file."""
    doc = _load_json(text, "mesh")
    _require(isinstance(doc, dict), "mesh document must be a JSON object")
    for key in ("n_boundary", "edges", "faces"):
        _require(key in doc, "mesh document missing key {!r}", key)
    n, edges, faces = doc["n_boundary"], doc["edges"], doc["faces"]
    _require(type(n) is int, "n_boundary must be an integer")
    _require(isinstance(edges, list), "edges must be a list")
    _require(isinstance(faces, list), "faces must be a list")

    try:
        ids, ends, phi = ([e[key] for e in edges] for key in ("id", "ends", "phi"))
        face_edges, corners = ([f[key] for f in faces]
                               for key in ("edges", "opposite_vertices"))
    except (TypeError, KeyError):  # an entry is no object or lacks a key
        _raise_entry_fault(edges, faces)
    rows = _int_rows(ends, 2), _int_rows(face_edges, 3), _int_rows(corners, 3)
    if (any(r is None for r in rows) or not set(map(type, ids)) <= {int}
            or not set(map(type, phi)) <= {int, float}):
        _raise_entry_fault(edges, faces)
    ends, face_edges, corners = rows
    return IdealTriangulation(n_boundary=n, ids=ids, ends=_less_one(ends),
                              phi=_float_array(phi), vertex=_less_one(corners),
                              face_edges=face_edges)


def serialize_mesh(m: IdealTriangulation) -> str:
    """Inverse of parse_mesh on the combinatorial content."""
    doc = {
        "n_boundary": m.n_boundary,
        "edges": [{"id": i, "ends": e, "phi": p} for i, e, p in
                  zip(m.ids.tolist(), (m.ends + 1).tolist(), m.phi.tolist())],
        "faces": [{"edges": e, "opposite_vertices": v} for e, v in
                  zip(m.ids[m.sides[0]].tolist(), (m.vertex + 1).tolist())],
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
    # every number is read as a float, so an integer too large for one
    # becomes inf, as the number 1e400 does, instead of raising
    # OverflowError; true and false stay bool
    doc = _load_json(text, what, parse_int=float)
    _require(isinstance(doc, dict), "{} document must be a JSON object", what)
    present = [k for k in keys if k in doc]
    _require(len(present) == 1,
             '{} document must contain exactly one of "{}" or "{}"', what, *keys)
    values = doc[present[0]]
    _require(isinstance(values, list) and set(map(type, values)) <= {float},
             "{} key {!r} must be a list of numbers", what, present[0])
    return present[0], np.array(values, dtype=float)


def parse_state_vector(text: str | bytes) -> np.ndarray:
    """Parse a state file into a raw u vector (radii converted, not validated)."""
    key, values = parse_keyed_vector(text, "state", ("u", "r"))
    if key == "u":
        return values
    return to_conformal(values)


def load_state_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_state_vector(fh.read())
