import json

import numpy as np
import pytest

import hexflow as hf
from conftest import PANTS_DOC, U_OF_R1, disjoint_union


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

    def test_extra_keys_tolerated(self):
        # solver output carries "K" alongside "u" and must reload as a state
        u = hf.parse_state_vector('{"u": [-0.5], "K": [2.0]}')
        assert np.array_equal(u, [-0.5])
