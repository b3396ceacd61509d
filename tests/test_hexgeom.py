import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import hexflow as hf
from hexflow.hexgeom import admissibility
from conftest import (ARC_111, ARC_CHAIN, L_112, Q_111, R_OF_U1, THETA_AT_15,
                      U_OF_R1, face_block, fd_face_block)


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestConformalChange:
    def test_inverse_of_exponential(self):
        assert hf.to_conformal(2 * math.atanh(math.exp(-1))) == pytest.approx(-1.0, rel=1e-12)

    def test_frozen_values(self):
        assert rel_err(hf.to_conformal(1.0), U_OF_R1) < 1e-14
        assert rel_err(hf.from_conformal(-1.0), R_OF_U1) < 1e-14

    # e^-r rounds for small r, and to 1 below about 1.1e-16
    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0, 1e-10, 1e-17])
    def test_round_trip_r(self, r):
        assert rel_err(hf.from_conformal(hf.to_conformal(r)), r) < 1e-12

    @pytest.mark.parametrize("u", [-0.1, -1.0, -10.0])
    def test_round_trip_u(self, u):
        assert rel_err(hf.to_conformal(hf.from_conformal(u)), u) < 1e-12

    def test_to_conformal_elementwise(self):
        r = np.array([[1e-3, 0.1, 1.0], [5.0, 40.0, 700.0]])
        u = hf.to_conformal(r)
        assert u.shape == r.shape
        for ui, ri in zip(u.flat, r.flat):
            assert rel_err(ui, hf.to_conformal(float(ri))) <= 1e-15

    @pytest.mark.parametrize("bad, message", [
        (-2.0, "r must be a finite positive real, got -2.0"),
        (800.0, "r=800.0 exceeds the overflow bound 700.0"),
        (math.nan, "r must be a finite positive real, got nan"),
    ])
    def test_to_conformal_names_first_bad_radius(self, bad, message):
        with pytest.raises(hf.StateError, match=f"^{re.escape(message)}$"):
            hf.to_conformal([1.0, bad, -1.0])

    def test_from_conformal_monotone_toward_infinity(self):
        us = [-1.0, -0.1, -0.01, -0.001, -1e-6]
        rs = [hf.from_conformal(u) for u in us]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert rs[-1] > 13  # r -> +inf as u -> 0-

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 701.0])
    def test_to_conformal_domain(self, bad):
        with pytest.raises(hf.StateError,
                           match="r must be a finite positive real|r=701.0 exceeds"):
            hf.to_conformal(bad)

    @pytest.mark.parametrize("bad", [0.0, 0.5, math.inf, math.nan, -1e-310, -800.0])
    def test_from_conformal_domain(self, bad):
        with pytest.raises(hf.StateError,
                           match="conformal factor must be a finite negative|radius of u="):
            hf.from_conformal(bad)

    @staticmethod
    def exact_radius(u):
        with mpmath.workdps(40):
            return float(2 * mpmath.atanh(mpmath.exp(mpmath.mpf(u))))

    @pytest.mark.parametrize("u", [-1e-17, -1e-16, -1e-12, -0.5, -10.0, -40.0, -300.0])
    def test_from_conformal_accurate_at_both_ends(self, u):
        assert rel_err(hf.from_conformal(u), self.exact_radius(u)) < 1e-15

    @pytest.mark.parametrize("u", [-1e-17, -1e-16, -5e-17])
    def test_state_radius_near_zero(self, pants, u):
        # exp(u) rounds to 1 for |u| < 1.1e-16, where 2 artanh(exp(u)) fails
        r = hf.validate_state(pants, [u, -0.5, -0.5]).r
        assert np.isfinite(r[0])
        assert rel_err(r[0], self.exact_radius(u)) < 1e-15


class TestEdgeLength:
    def test_frozen_value(self):
        assert rel_err(hf.edge_length(1.0, 1.0, 2.0), L_112) < 1e-14

    @given(st.floats(0.3, 3), st.floats(0.3, 3), st.floats(1.2, 4))
    def test_symmetry(self, a, b, phi):
        try:
            lab = hf.edge_length(a, b, phi)
        except hf.StateError:
            with pytest.raises(hf.StateError, match="inadmissible radius pair"):
                hf.edge_length(b, a, phi)
            return
        assert hf.edge_length(b, a, phi) == lab

    def test_boundary_case_raises(self):
        # u_i + u_j = -phi: the admissibility expression equals 1, limit l = 0
        r = 2 * math.atanh(math.exp(-1))
        with pytest.raises(hf.StateError, match="admissibility expression .* <= 1"):
            hf.edge_length(r, r, 2.0)
        assert admissibility(r, r, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_length_vanishes_toward_boundary(self):
        prev = math.inf
        for delta in (1e-2, 1e-4, 1e-6):
            r = hf.from_conformal((-2.0 + delta) / 2.0)
            l = hf.edge_length(r, r, 2.0)
            assert 0 < l < prev
            prev = l
        assert prev < 1e-2


class TestArcLength:
    def test_frozen_value(self):
        assert rel_err(hf.arc_length(1.0, 1.0, 1.0), ARC_111) < 1e-14

    def test_chained_frozen_value(self):
        l = hf.edge_length(1.0, 1.0, 2.0)
        assert rel_err(hf.arc_length(l, l, l), ARC_CHAIN) < 1e-13

    @given(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(0.1, 5))
    def test_adjacent_swap_invariance(self, l_opp, l_a, l_b):
        assert hf.arc_length(l_opp, l_a, l_b) == hf.arc_length(l_opp, l_b, l_a)

    def test_domain(self):
        with pytest.raises(hf.StateError, match="l_opp must be a finite positive"):
            hf.arc_length(0.0, 1.0, 1.0)
        with pytest.raises(hf.StateError, match="l_a must be a finite positive"):
            hf.arc_length(1.0, -1.0, 1.0)


class TestHexagonGeometry:
    def test_equilateral(self):
        geo = hf.hexagon_geometry((1.0, 1.0, 1.0))
        assert geo.theta[0] == geo.theta[1] == geo.theta[2]
        assert rel_err(geo.theta[0], ARC_111) < 1e-14
        assert rel_err(geo.q, Q_111) < 1e-13
        assert geo.q > 2

    @given(st.tuples(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(0.1, 5)))
    def test_q_corner_independence(self, l):
        geo = hf.hexagon_geometry(l)
        qs = [math.sinh(l[(t + 1) % 3]) * math.sinh(l[(t + 2) % 3])
              * math.sinh(geo.theta[t]) for t in range(3)]
        for q in qs:
            assert rel_err(q, geo.q) < 1e-12
        assert geo.q > 2


class TestCornerJacobian:
    """The face kernel's blocks d theta_a / d u_b, through face_block."""

    def test_equilateral_symmetry(self):
        m = face_block(hf.to_conformal([1.0, 1.0, 1.0]), (2.0, 2.0, 2.0))
        diag = np.diag(m)
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(diag, diag[0], rtol=1e-13)
        assert np.allclose(off, off[0], rtol=1e-13)
        assert m[0, 0] < 0

    def test_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u3 = rng.uniform(-0.9, -0.15, 3)
            phi3 = (2.0, 2.0, 2.0)
            m = face_block(u3, phi3)
            fd = fd_face_block(u3, phi3)
            assert np.max(np.abs(m - fd) / np.abs(fd)) < 1e-6

    def test_symmetric_negative_definite_on_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            u3 = rng.uniform(-1.2, -0.1, 3)
            phi3 = tuple(rng.uniform(1.5, 3.0, 3))
            if any(u3[(k + 1) % 3] + u3[(k + 2) % 3] <= -phi3[k] + 1e-3
                   for k in range(3)):
                continue
            m = face_block(u3, phi3)
            assert np.array_equal(m, m.T)
            assert np.max(np.linalg.eigvalsh(m)) < 0

    def test_matches_expanded_formulas(self):
        # the expanded closed forms, used only as a cross-check
        def expanded(r, phi):
            l = [hf.edge_length(r[(k + 1) % 3], r[(k + 2) % 3], phi[k])
                 for k in range(3)]
            geo = hf.hexagon_geometry(tuple(l))
            q = geo.q
            ch_l = [math.cosh(x) for x in l]
            sh2_l = [math.sinh(x) ** 2 for x in l]
            ch_r = [math.cosh(x) for x in r]
            m = np.zeros((3, 3))
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                m[i, i] = -(1.0 / q) * (
                    (ch_l[k] * ch_r[k] + ch_l[j] * ch_l[k] * ch_r[i]
                     + ch_l[i] * ch_l[j] * ch_r[k]
                     + ch_l[i] * ch_l[j] ** 2 * ch_r[i]) / sh2_l[j]
                    + (ch_l[j] * ch_r[j] + ch_l[j] * ch_l[k] * ch_r[i]
                       + ch_l[i] * ch_l[k] * ch_r[j]
                       + ch_l[i] * ch_l[k] ** 2 * ch_r[i]) / sh2_l[k]
                )
                m[i, j] = -(1.0 / (q * sh2_l[k])) * (
                    -sh2_l[k] * ch_r[k] + ch_l[i] * ch_r[j] + ch_l[j] * ch_r[i]
                    + ch_l[i] * ch_l[k] * ch_r[i] + ch_l[j] * ch_l[k] * ch_r[j]
                )
                m[i, k] = -(1.0 / (q * sh2_l[j])) * (
                    -sh2_l[j] * ch_r[j] + ch_l[i] * ch_r[k] + ch_l[k] * ch_r[i]
                    + ch_l[i] * ch_l[j] * ch_r[i] + ch_l[j] * ch_l[k] * ch_r[k]
                )
            return m

        rng = np.random.default_rng(17)
        for _ in range(50):
            u3 = rng.uniform(-0.9, -0.15, 3)
            r3 = tuple(hf.from_conformal(x) for x in u3)
            phi3 = (2.0, 2.0, 2.0)
            chain = face_block(u3, phi3)
            closed = expanded(r3, phi3)
            assert np.max(np.abs(chain - closed) / np.abs(closed)) < 1e-10


class TestAsymptoticProbes:
    def test_diagonal_dominance_trend(self):
        # |dtheta_i/du_i| / (|dtheta_i/du_j| + |dtheta_i/du_k|) grows with r_i
        ratios = []
        for r_i in (2.0, 4.0, 8.0, 16.0):
            m = face_block(hf.to_conformal([r_i, 1.0, 1.0]), (2.0, 2.0, 2.0))
            ratios.append(abs(m[0, 0]) / (abs(m[0, 1]) + abs(m[0, 2])))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_arc_vanishes_for_large_radius(self):
        thetas = []
        for r_i in (2.0, 4.0, 8.0, 15.0):
            l_jk = hf.edge_length(1.0, 1.0, 2.0)
            l_ij = hf.edge_length(r_i, 1.0, 2.0)
            thetas.append(hf.arc_length(l_jk, l_ij, l_ij))
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 1e-4
        # cancellation-limited: cosh(theta) - 1 ~ 1e-13 here, so only about
        # 1e-3 relative accuracy is attainable in doubles
        assert rel_err(thetas[-1], THETA_AT_15) < 1e-3
