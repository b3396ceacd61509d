import json
import random

import numpy as np
import pytest

import hexflow as hf
from hexflow.mesh import parse_keyed_vector
from conftest import DEEP, PANTS_DOC, TORUS_DOC, U_OF_R1, disjoint_union, torus_grid_doc


def doc_with(doc, **overrides):
    out = json.loads(json.dumps(doc))
    out.update(overrides)
    return out


class TestParse:
    def test_pair_of_pants(self, pants):
        assert pants.n_boundary == 3
        assert len(pants.edges) == 3
        assert len(pants.faces) == 2
        assert hf.euler_characteristic(pants) == 2

    def test_one_holed_torus(self, torus):
        assert torus.n_boundary == 1
        assert len(torus.edges) == 3
        assert len(torus.faces) == 2
        assert hf.euler_characteristic(torus) == 0

    def test_disjoint_union_euler(self):
        m = hf.parse_mesh(json.dumps(disjoint_union(PANTS_DOC, PANTS_DOC)))
        assert m.n_boundary == 6
        assert hf.euler_characteristic(m) == 4

    def test_round_trip(self, pants, torus):
        for m in (pants, torus):
            again = hf.parse_mesh(hf.serialize_mesh(m))
            assert again == m

    def test_syntax_error_reports_position(self):
        with pytest.raises(hf.FormatError, match="line"):
            hf.parse_mesh('{"n_boundary": 3,')

    def test_deeply_nested_json(self):
        with pytest.raises(hf.FormatError, match="^mesh JSON nested too deeply$"):
            hf.parse_mesh(DEEP)

    def test_dangling_edge_reference(self):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["faces"][1]["edges"] = [1, 2, 99]
        with pytest.raises(hf.FormatError, match="undefined edge id 99"):
            hf.parse_mesh(json.dumps(doc))

    def test_corner_inconsistency_names_face_and_slot(self):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["faces"][1]["opposite_vertices"] = [1, 3, 2]
        with pytest.raises(hf.FormatError, match="face 1, slot 0"):
            hf.parse_mesh(json.dumps(doc))

    def test_duplicate_edge_id(self):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["edges"][2]["id"] = 1
        with pytest.raises(hf.FormatError, match="duplicate edge id"):
            hf.parse_mesh(json.dumps(doc))

    def test_nonpositive_weight(self):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["edges"][0]["phi"] = 0.0
        with pytest.raises(hf.FormatError, match="weight"):
            hf.parse_mesh(json.dumps(doc))

    def test_weight_overflow_bound(self):
        # the bound is RADIUS_MAX = 700; cosh(phi) overflows past about 710
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["edges"][0]["phi"] = 700.0
        hf.parse_mesh(json.dumps(doc))
        for phi in (705.0, float("inf"), float("nan")):
            doc["edges"][0]["phi"] = phi
            with pytest.raises(hf.FormatError,
                               match="edge 1 weight must be positive and at most 700"):
                hf.parse_mesh(json.dumps(doc))

    def test_edge_side_count(self):
        # three faces on the same edges: each edge in 3 corner slots
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["faces"].append(doc["faces"][0])
        with pytest.raises(hf.FormatError, match="slots"):
            hf.parse_mesh(json.dumps(doc))

    def test_missing_key(self):
        with pytest.raises(hf.FormatError, match="missing key"):
            hf.parse_mesh(json.dumps({"n_boundary": 3, "edges": []}))

    @pytest.mark.parametrize("section,index,key,value", [
        ("edges", 0, "id", True),
        ("edges", 0, "ends", [True, 2]),
        ("edges", 1, "ends", [2, False]),
        ("faces", 0, "edges", [True, 2, 3]),
        ("faces", 1, "opposite_vertices", [3, True, 2]),
    ])
    def test_boolean_integer_rejected(self, section, index, key, value):
        # JSON true/false parse to bool, a subclass of int; true would read as 1
        doc = json.loads(json.dumps(PANTS_DOC))
        doc[section][index][key] = value
        with pytest.raises(hf.FormatError, match="integer|edge ids"):
            hf.parse_mesh(json.dumps(doc))


def pants_with(edit):
    """A copy of the pants document changed in place by edit(doc)."""
    doc = json.loads(json.dumps(PANTS_DOC))
    edit(doc)
    return doc


def set_item(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def rename_edge_1(new_id):
    """An edit giving edge 1 the id new_id everywhere it appears."""
    def edit(doc):
        doc["edges"][0]["id"] = new_id
        for f in doc["faces"]:
            f["edges"] = [new_id if e == 1 else e for e in f["edges"]]
    return edit


BIG = 2 ** 70
# one single-fault pants document per FormatError message, with its message
# in full
FAULTS = {
    "n_boundary_zero": (set_item(["n_boundary"], 0), "n_boundary must be >= 1"),
    "no_faces": (set_item(["faces"], []), "mesh must have at least one face"),
    "endpoint_out_of_range": (set_item(["edges", 1, "ends"], [2, 4]),
                              "edge 2 endpoint 4 out of range 1..3"),
    "phi_string": (set_item(["edges", 1, "phi"], "2"),
                   "edge entry 1: phi must be a number"),
    "repeated_face_edge": (set_item(["faces", 1, "edges"], [1, 2, 2]),
                           "face 1 must reference 3 distinct edge ids, got (1, 2, 2)"),
    "corner_zero": (set_item(["faces", 0, "opposite_vertices"], [3, 0, 2]),
                    "face 0 corner 1 vertex 0 out of range 1..3"),
    "unused_edge": (lambda doc: doc["edges"].append({"id": 4, "ends": [1, 2], "phi": 2.0}),
                    "edge 4 is not referenced by any face"),
    "edge_entry_not_object": (set_item(["edges", 1], [2, [2, 3], 2.0]),
                              "edge entry 1 must be an object"),
    "face_entry_not_object": (set_item(["faces", 1], "face"),
                              "face entry 1 must be an object"),
    "edges_not_list": (set_item(["edges"], {}), "edges must be a list"),
    "n_boundary_float": (set_item(["n_boundary"], 3.0), "n_boundary must be an integer"),
    "component_unused": (set_item(["n_boundary"], 4),
                         "1 boundary components appear in no face corner: 4"),
    # integers past int64 keep their messages and print as written
    "endpoint_2_70": (set_item(["edges", 1, "ends"], [2, BIG]),
                      f"edge 2 endpoint {BIG} out of range 1..3"),
    "endpoint_2_63": (set_item(["edges", 1, "ends"], [2, 2 ** 63]),
                      f"edge 2 endpoint {2 ** 63} out of range 1..3"),
    "corner_2_70": (set_item(["faces", 0, "opposite_vertices"], [3, BIG, 2]),
                    f"face 0 corner 1 vertex {BIG} out of range 1..3"),
    "corner_minus_2_64": (set_item(["faces", 0, "opposite_vertices"], [3, -2 ** 64, 2]),
                          f"face 0 corner 1 vertex {-2 ** 64} out of range 1..3"),
    "face_edge_2_70": (set_item(["faces", 1, "edges"], [1, 2, BIG]),
                       f"face 1 references undefined edge id {BIG} (slot 2)"),
    "n_boundary_10_30": (set_item(["n_boundary"], 10 ** 30),
                         f"{10 ** 30 - 3} boundary components appear in no face corner: "
                         "4, 5, 6, 7, 8, 9, 10, 11, 12, 13, ..."),
    # JSON shape faults, which parse_mesh tests one column at a time
    "edge_missing_phi": (lambda doc: doc["edges"][2].pop("phi"),
                         "edge entry 2 missing key 'phi'"),
    "ends_length_1": (set_item(["edges", 1, "ends"], [2]),
                      "edge entry 1: ends must be a pair of integers"),
    "ends_length_3": (set_item(["edges", 1, "ends"], [2, 3, 1]),
                      "edge entry 1: ends must be a pair of integers"),
    "face_edges_length_4": (set_item(["faces", 1, "edges"], [1, 2, 3, 1]),
                            "face entry 1: edges must be a triple of edge ids"),
    "phi_true": (set_item(["edges", 1, "phi"], True), "edge entry 1: phi must be a number"),
    # an integer too large for a float reads as inf
    "phi_10_400": (set_item(["edges", 1, "phi"], 10 ** 400),
                   "edge 2 weight must be positive and at most 700, got inf"),
    # the int64 minimum must not wrap when 1 is subtracted
    "endpoint_minus_2_63": (set_item(["edges", 1, "ends"], [2, -2 ** 63]),
                            f"edge 2 endpoint {-2 ** 63} out of range 1..3"),
    "corner_minus_2_63": (set_item(["faces", 0, "opposite_vertices"], [3, -2 ** 63, 2]),
                          f"face 0 corner 1 vertex {-2 ** 63} out of range 1..3"),
}

# several faults in one document: the first in edge order, then face order,
# then slot order wins, and within one edge or face the checks keep their
# order (id, endpoints, weight; distinct, defined, corner range, consistency)
MULTI_FAULTS = {
    "weight_before_later_duplicate": (
        lambda doc: (set_item(["edges", 0, "phi"], 0.0)(doc),
                     set_item(["edges", 2, "id"], 1)(doc)),
        "edge 1 weight must be positive and at most 700, got 0.0"),
    "duplicate_before_own_endpoint": (
        set_item(["edges", 2], {"id": 1, "ends": [9, 1], "phi": -1.0}),
        "duplicate edge id 1"),
    "second_endpoint_before_weight": (
        set_item(["edges", 1], {"id": 2, "ends": [2, 7], "phi": 0.0}),
        "edge 2 endpoint 7 out of range 1..3"),
    "edge_faults_before_face_faults": (
        lambda doc: (set_item(["faces", 0, "edges"], [1, 1, 1])(doc),
                     set_item(["edges", 2, "ends"], [3, 5])(doc)),
        "edge 3 endpoint 5 out of range 1..3"),
    "face_0_corner_before_face_1_undefined": (
        lambda doc: (set_item(["faces", 0, "opposite_vertices"], [1, 3, 2])(doc),
                     set_item(["faces", 1, "edges"], [1, 2, 99])(doc)),
        "corner inconsistency in face 0, slot 0: vertex 1 is not an endpoint of edge 2"),
    "distinct_before_undefined": (
        set_item(["faces", 0, "edges"], [99, 99, 3]),
        "face 0 must reference 3 distinct edge ids, got (99, 99, 3)"),
    "undefined_before_corner_range": (
        lambda doc: (set_item(["faces", 0, "edges"], [1, 98, 3])(doc),
                     set_item(["faces", 0, "opposite_vertices"], [0, 1, 2])(doc)),
        "face 0 references undefined edge id 98 (slot 1)"),
    "slot_0_consistency_before_slot_1_range": (
        set_item(["faces", 1, "opposite_vertices"], [1, 5, 2]),
        "corner inconsistency in face 1, slot 0: vertex 1 is not an endpoint of edge 2"),
    "consistency_second_adjacent_edge": (
        set_item(["faces", 1, "opposite_vertices"], [2, 1, 2]),
        "corner inconsistency in face 1, slot 0: vertex 2 is not an endpoint of edge 3"),
    "unreferenced_before_overused": (
        lambda doc: (doc["edges"].insert(0, {"id": 7, "ends": [1, 2], "phi": 2.0}),
                     doc["faces"].append(doc["faces"][0])),
        "edge 7 is not referenced by any face"),
    "last_face_shape_before_edge_0_range": (
        lambda doc: (set_item(["edges", 0, "ends"], [1, 9])(doc),
                     set_item(["faces", 1, "opposite_vertices"], [3, 1])(doc)),
        "face entry 1: opposite_vertices must be a triple of integers"),
    "face_faults_before_missing_components": (
        lambda doc: (set_item(["n_boundary"], 5)(doc),
                     set_item(["faces", 1, "edges"], [1, 2, 4])(doc)),
        "face 1 references undefined edge id 4 (slot 2)"),
}


@pytest.mark.parametrize("case", list(FAULTS) + list(MULTI_FAULTS))
def test_format_error_message(case):
    edit, message = {**FAULTS, **MULTI_FAULTS}[case]
    with pytest.raises(hf.FormatError) as exc:
        hf.parse_mesh(json.dumps(pants_with(edit)))
    assert str(exc.value) == message


def test_edge_and_face_views_built_on_first_use(pants):
    m = hf.parse_mesh(hf.serialize_mesh(pants))
    kbar = np.full(3, 2.5)
    s = hf.default_start(m)
    hf.curvature(m, s)
    hf.laplacian(m, s)
    hf.newton_solve(m, None, kbar)
    hf.integrate(m, s, hf.FlowConfig(kind=hf.FlowKind.calabi(), kbar=kbar, tol=1e-6))
    assert "edges" not in vars(m) and "faces" not in vars(m)
    assert m.edges == pants.edges and m.faces == pants.faces
    assert m.edges[0] == hf.Edge(id=1, ends=(0, 1), phi=2.0)
    assert m.faces[0] == hf.Face(edges=(1, 2, 3), opposite=(2, 0, 1))


def test_arrays_read_only(pants):
    for a in (pants.ids, pants.ends, pants.phi, pants.vertex, pants.sides):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_edge_id_past_int64_parses():
    m = hf.parse_mesh(json.dumps(pants_with(rename_edge_1(BIG))))
    assert m.edges[0].id == BIG and m.faces[0].edges == (BIG, 2, 3)
    assert hf.parse_mesh(hf.serialize_mesh(m)) == m


def loop_reference(doc):
    """The message of the first failed structural check, found by loops over
    the edges and faces in file order, or None for a valid mesh."""
    n = doc["n_boundary"]
    edges = [(e["id"], [v - 1 for v in e["ends"]], e["phi"]) for e in doc["edges"]]
    faces = [(tuple(f["edges"]), [v - 1 for v in f["opposite_vertices"]])
             for f in doc["faces"]]
    if n < 1:
        return "n_boundary must be >= 1"
    if not faces:
        return "mesh must have at least one face"
    ends = {}
    for eid, pair, phi in edges:
        if eid in ends:
            return f"duplicate edge id {eid}"
        ends[eid] = pair
        for v in pair:
            if not 0 <= v < n:
                return f"edge {eid} endpoint {v + 1} out of range 1..{n}"
        if not 0.0 < phi <= 700.0:
            return f"edge {eid} weight must be positive and at most 700, got {float(phi)!r}"
    count = dict.fromkeys(ends, 0)
    for fi, (fe, corners) in enumerate(faces):
        if len(set(fe)) != 3:
            return f"face {fi} must reference 3 distinct edge ids, got {fe}"
        for k, eid in enumerate(fe):
            if eid not in ends:
                return f"face {fi} references undefined edge id {eid} (slot {k})"
            count[eid] += 1
        for k, v in enumerate(corners):
            if not 0 <= v < n:
                return f"face {fi} corner {k} vertex {v + 1} out of range 1..{n}"
            for adj in (fe[(k + 1) % 3], fe[(k + 2) % 3]):
                if v not in ends[adj]:
                    return (f"corner inconsistency in face {fi}, slot {k}: vertex "
                            f"{v + 1} is not an endpoint of edge {adj}")
    for eid, c in count.items():
        if c != 2:
            return (f"edge {eid} is not referenced by any face" if c == 0 else
                    f"edge {eid} appears in {c} face-corner slots, "
                    f"expected exactly 2 (closed gluing)")
    used = {v for _, corners in faces for v in corners}
    if len(used) != n:
        first = [v + 1 for v in range(min(n, len(used) + 10)) if v not in used][:10]
        return (f"{n - len(used)} boundary components appear in no face corner: "
                + ", ".join(map(str, first)) + (", ..." if n - len(used) > 10 else ""))
    return None


def random_faults(rng, doc):
    """doc with one to four random values replaced, entries dropped or copied."""
    values = [0, 1, 2, 3, 4, 9, -1, 99, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, BIG]
    for _ in range(rng.randint(1, 4)):
        edges, faces = doc["edges"], doc["faces"]
        e, f = rng.randrange(len(edges) or 1), rng.randrange(len(faces) or 1)
        choice = rng.randrange(9)
        if choice == 0 and edges:
            edges[e]["id"] = rng.choice(values + [x["id"] for x in edges])
        elif choice == 1 and edges:
            edges[e]["ends"][rng.randrange(2)] = rng.choice(values)
        elif choice == 2 and edges:
            edges[e]["phi"] = rng.choice([0.0, -1.0, 1.5, 700.0, 700.5, float("nan"), 3])
        elif choice == 3 and faces:
            faces[f]["edges"][rng.randrange(3)] = rng.choice(values)
        elif choice == 4 and faces:
            faces[f]["opposite_vertices"][rng.randrange(3)] = rng.choice(values)
        elif choice == 5:
            doc["n_boundary"] = rng.choice(values + [10 ** 30, 20])
        elif choice == 6 and edges:
            del edges[e]
        elif choice == 7 and faces:
            del faces[f]
        elif faces:
            faces.insert(f, json.loads(json.dumps(faces[f])))
    return doc


@pytest.mark.parametrize("base", ["pants", "torus", "grid3"])
def test_checks_match_loop_reference(base):
    # on random multi-fault documents the array checks report what loops
    # over the edges and faces in file order report first
    rng = random.Random(base)
    start = {"pants": PANTS_DOC, "torus": TORUS_DOC,
             "grid3": torus_grid_doc(3, np.full(27, 2.0))}[base]
    for _ in range(300):
        doc = random_faults(rng, json.loads(json.dumps(start)))
        try:
            hf.parse_mesh(json.dumps(doc))
            message = None
        except hf.FormatError as exc:
            message = str(exc)
        assert message == loop_reference(doc), doc


class TestValidateState:
    def test_accepts_interior_point(self, pants):
        s = hf.validate_state(pants, [U_OF_R1] * 3)
        # u_i + u_j ~ -1.544 > -2
        assert np.all(s.u < 0)

    def test_rejects_zero_component(self, pants):
        with pytest.raises(hf.StateError, match="u < 0"):
            hf.validate_state(pants, [-0.5, 0.0, -0.5])

    def test_rejects_edge_boundary(self, pants):
        with pytest.raises(hf.StateError, match="edge"):
            hf.validate_state(pants, [-1.0, -1.0, -0.5])

    def test_rejects_wrong_length(self, pants):
        with pytest.raises(hf.StateError, match="components"):
            hf.validate_state(pants, [-0.5, -0.5])

    def test_separates_both_sides_of_each_constraint(self, pants):
        # points straddling the face u_1 + u_2 = -2 of the polyhedron
        eps = 1e-6
        hf.validate_state(pants, [-1.0 + eps, -1.0 + eps, -0.5])
        with pytest.raises(hf.StateError):
            hf.validate_state(pants, [-1.0 - eps, -1.0 - eps, -0.5])
        # and of u_i < 0
        hf.validate_state(pants, [-eps, -0.9, -0.9])

    def test_self_loop_constraint(self, torus):
        # self-loop edge needs 2 u_1 > -2
        hf.validate_state(torus, [-0.99])
        with pytest.raises(hf.StateError):
            hf.validate_state(torus, [-1.0])

    def test_state_from_radii_round_trip(self, pants):
        s = hf.state_from_radii(pants, [1.0, 1.0, 1.0])
        assert np.allclose(s.u, U_OF_R1, rtol=1e-14)
        assert np.allclose(s.r, 1.0, rtol=1e-12)


class TestStateFiles:
    def test_u_key(self):
        u = hf.parse_state_vector('{"u": [-0.5, -0.25]}')
        assert np.array_equal(u, [-0.5, -0.25])

    def test_r_key_converted(self):
        u = hf.parse_state_vector('{"r": [1.0]}')
        assert u[0] == pytest.approx(U_OF_R1, rel=1e-14)

    def test_both_keys_rejected(self):
        with pytest.raises(hf.FormatError, match="exactly one"):
            hf.parse_state_vector('{"u": [-0.5], "r": [1.0]}')

    def test_neither_key_rejected(self):
        with pytest.raises(hf.FormatError, match="exactly one"):
            hf.parse_state_vector('{"radii": [1.0]}')

    def test_integer_past_float_range_reads_inf(self):
        # like the number -1e400; the state check then rejects it
        u = hf.parse_state_vector('{"u": [-1' + "0" * 400 + ', -0.5]}')
        assert np.array_equal(u, [-np.inf, -0.5])

    def test_deeply_nested_json(self):
        with pytest.raises(hf.FormatError, match="^state JSON nested too deeply$"):
            hf.parse_state_vector('{"u": ' + DEEP + "}")
        with pytest.raises(hf.FormatError, match="^target JSON nested too deeply$"):
            parse_keyed_vector(DEEP, "target", ("kbar", "K"))

    def test_extra_keys_tolerated(self):
        # solver output carries "K" alongside "u" and must reload as a state
        u = hf.parse_state_vector('{"u": [-0.5], "K": [2.0]}')
        assert np.array_equal(u, [-0.5])
