import json
import sys

import mpmath
import numpy as np
import pytest

import hexflow as hf
from hexflow.curvature import _GL_TOL, _gauss_legendre
from conftest import (K_PANTS_R1, PANTS_DOC, admissible_state, disjoint_union,
                      fd_curvature_jacobian, sample_valid_states,
                      torus_grid_doc)


@pytest.fixture
def pants_r1(pants):
    return hf.state_from_radii(pants, [1.0, 1.0, 1.0])


class TestCurvature:
    def test_pants_equilateral(self, pants, pants_r1):
        k = hf.curvature(pants, pants_r1)
        assert np.allclose(k, K_PANTS_R1, rtol=1e-13)
        assert k[0] == k[1] == k[2]

    def test_relabeling_equivariance(self, pants):
        # rotate the boundary labels 1 -> 2 -> 3 -> 1
        doc = json.loads(json.dumps(PANTS_DOC))
        perm = {1: 2, 2: 3, 3: 1}
        for e in doc["edges"]:
            e["ends"] = [perm[v] for v in e["ends"]]
        for f in doc["faces"]:
            f["opposite_vertices"] = [perm[v] for v in f["opposite_vertices"]]
        permuted = hf.parse_mesh(json.dumps(doc))

        u = np.array([-0.3, -0.5, -0.7])
        k = hf.curvature(pants, hf.validate_state(pants, u))
        u_perm = np.empty(3)
        for src, dst in perm.items():
            u_perm[dst - 1] = u[src - 1]
        k_perm = hf.curvature(permuted, hf.validate_state(permuted, u_perm))
        for src, dst in perm.items():
            assert k_perm[dst - 1] == pytest.approx(k[src - 1], rel=1e-14)

    def test_doubling_mesh_concatenates(self, pants):
        double = hf.parse_mesh(json.dumps(disjoint_union(PANTS_DOC, PANTS_DOC)))
        u = np.array([-0.3, -0.5, -0.7])
        k = hf.curvature(pants, hf.validate_state(pants, u))
        k2 = hf.curvature(double, hf.validate_state(double, np.tile(u, 2)))
        assert np.array_equal(k2, np.tile(k, 2))

    def test_deterministic(self, pants):
        s = hf.validate_state(pants, [-0.31, -0.52, -0.73])
        assert np.array_equal(hf.curvature(pants, s), hf.curvature(pants, s))
        assert np.array_equal(hf.laplacian(pants, s), hf.laplacian(pants, s))

    def test_torus_single_component(self, torus):
        s = hf.state_from_radii(torus, [1.0])
        k = hf.curvature(torus, s)
        assert k.shape == (1,)
        # six corner slots all accumulate at the single boundary component
        assert k[0] == pytest.approx(3 * K_PANTS_R1, rel=1e-13)


class TestLaplacian:
    def test_equilateral_structure(self, pants, pants_r1):
        a = hf.laplacian(pants, pants_r1)
        assert np.allclose(np.diag(a), a[0, 0], rtol=1e-13)
        off = a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, off[0], rtol=1e-13)

    @pytest.mark.parametrize("mesh_name", ["pants", "torus"])
    def test_matches_finite_differences(self, request, mesh_name):
        m = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(23)
        for s in sample_valid_states(m, 10, rng):
            a = hf.laplacian(m, s)
            fd = fd_curvature_jacobian(m, s.u)
            assert np.max(np.abs(a - fd) / np.abs(fd)) < 1e-6

    @pytest.mark.parametrize("mesh_name", ["pants", "torus"])
    def test_symmetric_negative_definite(self, request, mesh_name):
        m = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(29)
        for s in sample_valid_states(m, 100, rng):
            a = hf.laplacian(m, s)
            assert np.max(np.abs(a - a.T)) <= 1e-10
            assert np.max(np.linalg.eigvalsh(a)) < 0


class TestCalabiEnergy:
    def test_zero_at_target(self):
        assert hf.calabi_energy([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_coordinate(self):
        assert hf.calabi_energy([3.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 0.5

    def test_pants_value(self, pants, pants_r1):
        k = hf.curvature(pants, pants_r1)
        # 3/2 (K - 2)^2 at the equilateral state, oracle value from mpmath
        assert hf.calabi_energy(k, [2.0, 2.0, 2.0]) == pytest.approx(
            2.704769955990439e-04, rel=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hf.calabi_energy([1.0], [1.0, 2.0])


class TestRicciPotential:
    KBAR = np.array([2.0, 2.0, 2.0])

    def test_zero_at_anchor(self, pants, pants_r1):
        assert hf.ricci_potential(pants, pants_r1, pants_r1, self.KBAR) == 0.0

    @pytest.mark.parametrize("kbar,message", [
        ([2.0], "target has 1 entries, mesh has 3"),
        ([2.0, 2.0], "target has 2 entries, mesh has 3"),
        ([[2.0, 2.0, 2.0]], r"target has shape \(1, 3\), mesh has 3"),
        (2.0, r"target has shape \(\), mesh has 3"),
    ], ids=["one", "two", "row", "scalar"])
    def test_target_shape_checked(self, pants, pants_r1, kbar, message):
        # a target that numpy would broadcast against K is refused too
        s0 = hf.validate_state(pants, [-0.7, -0.7, -0.7])
        with pytest.raises(ValueError, match=f"^{message}$"):
            hf.ricci_potential(pants, pants_r1, s0, kbar)

    @pytest.mark.parametrize("u0,message", [
        ([-0.6], "state has 1 components, mesh has 3"),
        ([[-0.6, -0.6, -0.6]], r"state has shape \(1, 3\), mesh has 3"),
    ], ids=["short", "row"])
    def test_anchor_shape_checked(self, pants, pants_r1, u0, message):
        # an anchor that numpy would broadcast against s is refused
        s0 = hf.ConformalState(u=np.array(u0))
        with pytest.raises(hf.StateError, match=f"^{message}$"):
            hf.ricci_potential(pants, pants_r1, s0, self.KBAR)

    def test_equal_states_checked(self, pants):
        s = hf.ConformalState(u=np.array([-0.6]))
        with pytest.raises(hf.StateError, match="^state has 1 components, mesh has 3$"):
            hf.ricci_potential(pants, s, s, self.KBAR)

    def test_gradient_is_negative_residual(self, pants, pants_r1):
        rng = np.random.default_rng(31)
        h = 1e-4
        for s in sample_valid_states(pants, 5, rng, lo=-0.8, hi=-0.3):
            grad = np.empty(3)
            for j in range(3):
                up, um = s.u.copy(), s.u.copy()
                up[j] += h
                um[j] -= h
                ep = hf.ricci_potential(pants, hf.validate_state(pants, up),
                                        pants_r1, self.KBAR)
                em = hf.ricci_potential(pants, hf.validate_state(pants, um),
                                        pants_r1, self.KBAR)
                grad[j] = (ep - em) / (2 * h)
            expected = -(hf.curvature(pants, s) - self.KBAR)
            # norm-wise relative error: individual components may vanish
            assert np.max(np.abs(grad - expected)) < 1e-4 * np.max(np.abs(expected))

    def test_additivity_along_states(self, pants):
        s0 = hf.validate_state(pants, [-0.7, -0.7, -0.7])
        s1 = hf.validate_state(pants, [-0.5, -0.6, -0.4])
        s2 = hf.validate_state(pants, [-0.3, -0.8, -0.5])
        e01 = hf.ricci_potential(pants, s1, s0, self.KBAR)
        e12 = hf.ricci_potential(pants, s2, s1, self.KBAR)
        e02 = hf.ricci_potential(pants, s2, s0, self.KBAR)
        assert e01 + e12 == pytest.approx(e02, abs=1e-8)

    def test_strictly_convex_along_segment(self, pants):
        s0 = hf.validate_state(pants, [-0.8, -0.6, -0.5])
        s1 = hf.validate_state(pants, [-0.3, -0.4, -0.7])
        ts = np.linspace(0.0, 1.0, 9)
        vals = [hf.ricci_potential(
            pants, hf.validate_state(pants, s0.u + t * (s1.u - s0.u)), s0,
            self.KBAR) for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second > 0)


def mpmath_potential(m, s, s0, kbar):
    """The potential by mpmath's tanh-sinh quadrature of the float integrand."""
    d = s.u - s0.u

    def integrand(t):
        st = hf.validate_state(m, s0.u + float(t) * d)
        return -float((hf.curvature(m, st) - kbar) @ d)

    return float(mpmath.quad(integrand, [0, 1]))


class TestRicciPotentialAccuracy:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Count the potential's curvature calls, one per node, failing past
        100 pieces of 48 nodes instead of bisecting without end."""
        module = sys.modules["hexflow.curvature"]
        single, calls = module.curvature, []

        def counted(m, s):
            calls.append(1)
            assert len(calls) <= 100 * 48, "potential keeps bisecting"
            return single(m, s)

        monkeypatch.setattr(module, "curvature", counted)
        return calls

    def test_pants_interior_segment(self, pants):
        kbar = np.full(3, 2.0)
        s0 = hf.validate_state(pants, [-0.7, -0.7, -0.7])
        s = hf.validate_state(pants, [-0.3, -0.8, -0.5])
        assert abs(hf.ricci_potential(pants, s, s0, kbar)
                   - mpmath_potential(pants, s, s0, kbar)) < 1e-12

    def test_pants_segment_to_u_near_zero_bisects(self, pants):
        kbar = np.full(3, 2.0)
        s0 = hf.validate_state(pants, [-1.5, -0.45, -0.45])
        s = hf.validate_state(pants, [-0.01, -0.01, -0.01])
        exact = mpmath_potential(pants, s, s0, kbar)
        # GL16 and GL32 over the whole segment disagree, so it is bisected;
        # GL16 alone misses the 1e-9 contract here, and GL32 alone 1e-12
        nodes, w16, w32 = _gauss_legendre()
        d = s.u - s0.u
        g = np.array([hf.curvature(pants, hf.ConformalState(u=u)) - kbar
                      for u in s0.u + nodes[:, None] * d]) @ d
        gl16, gl32 = -(w16 @ g[:16]), -(w32 @ g[16:])
        assert abs(gl16 - gl32) > _GL_TOL
        assert abs(gl16 - exact) > 1e-9
        assert abs(gl32 - exact) > 1e-12
        assert abs(hf.ricci_potential(pants, s, s0, kbar) - exact) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torus_grid(self, seed):
        rng = np.random.default_rng(seed)
        m = hf.parse_mesh(json.dumps(torus_grid_doc(3, rng.uniform(1.0, 3.0, 27))))
        kbar = rng.uniform(1.0, 4.0, 9)
        s0 = hf.validate_state(m, -rng.uniform(0.3, 0.45, 9))
        u = -rng.uniform(0.3, 0.45, 9)
        u[seed] = -0.01
        s = hf.validate_state(m, u)
        assert abs(hf.ricci_potential(m, s, s0, kbar)
                   - mpmath_potential(m, s, s0, kbar)) < 1e-12

    def test_large_integrand_terminates(self, kernel_calls):
        # an integrand of order 1e6: rounding alone makes GL16 and GL32
        # differ by more than 1e-12, so an absolute acceptance test bisects
        # without end
        rng = np.random.default_rng(10)
        m = hf.parse_mesh(json.dumps(torus_grid_doc(10, rng.uniform(0.5, 3.0, 300))))
        s0, s = admissible_state(m, rng), admissible_state(m, rng)
        kbar = rng.uniform(1e5, 2e5, 100)
        val = hf.ricci_potential(m, s, s0, kbar)
        exact = mpmath_potential(m, s, s0, kbar)
        assert abs(val - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("k1,expected", [(np.nan, np.nan), (np.inf, np.inf)])
    def test_nonfinite_target_propagates(self, pants, kernel_calls, k1, expected):
        s0 = hf.validate_state(pants, [-0.7, -0.7, -0.7])
        s = hf.validate_state(pants, [-0.3, -0.8, -0.5])
        val = hf.ricci_potential(pants, s, s0, [k1, 2.0, 2.0])
        np.testing.assert_equal(val, expected)
