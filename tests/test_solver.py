import logging
import re

import numpy as np
import pytest
from scipy.sparse import csc_array

import hexflow as hf
from hexflow.solver import factor_spd
from conftest import sample_valid_states


@pytest.fixture
def pants_r1(pants):
    return hf.state_from_radii(pants, [1.0, 1.0, 1.0])


class TestNewtonSolve:
    def test_zero_iterations_when_solved(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        res = hf.newton_solve(pants, pants_r1, kbar, tol=1e-10)
        assert res.converged
        assert res.iterations == 0

    def test_manufactured_solution(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        start = hf.validate_state(pants, pants_r1.u + 0.2 * np.array([1.0, -1.0, 0.0]))
        res = hf.newton_solve(pants, start, kbar, tol=1e-13, max_iter=20)
        assert res.converged
        assert np.max(np.abs(res.u_star.u - pants_r1.u)) < 1e-10

    def test_arbitrary_target_self_consistency(self, pants, pants_r1):
        kbar = np.array([0.5, 1.0, 3.0])
        res = hf.newton_solve(pants, pants_r1, kbar, tol=1e-12, max_iter=20)
        assert res.converged
        assert np.max(np.abs(hf.curvature(pants, res.u_star) - kbar)) < 1e-12

    def test_rigidity_two_starts_agree(self, pants):
        kbar = np.array([0.8, 1.6, 2.4])
        s_a = hf.validate_state(pants, [-0.3, -0.5, -0.7])
        s_b = hf.validate_state(pants, [-0.9, -0.2, -0.4])
        res_a = hf.newton_solve(pants, s_a, kbar, tol=1e-13, max_iter=30)
        res_b = hf.newton_solve(pants, s_b, kbar, tol=1e-13, max_iter=30)
        assert res_a.converged and res_b.converged
        assert np.max(np.abs(res_a.u_star.u - res_b.u_star.u)) < 1e-8

    def test_quadratic_convergence(self, pants, pants_r1):
        # track residuals: once below 1e-3, they should roughly square per step
        kbar = np.array([0.5, 1.0, 3.0])
        residuals = []
        state = pants_r1
        for _ in range(15):
            res = hf.newton_solve(pants, state, kbar, tol=1e-14, max_iter=1)
            residuals.append(res.residual_inf)
            state = res.u_star
            if res.residual_inf < 1e-13:
                break
        small = [r for r in residuals if 0 < r < 1e-3]
        assert len(small) >= 2
        # pairs whose successor is above the roundoff floor
        slopes = [np.log(b) / np.log(a) for a, b in zip(small, small[1:])
                  if b > 5e-14]
        assert slopes and all(s >= 1.7 for s in slopes)

    def test_matches_ricci_flow_limit(self, pants, pants_r1):
        kbar = np.array([1.5, 2.0, 2.5])
        res = hf.newton_solve(pants, pants_r1, kbar, tol=1e-13, max_iter=30)
        cfg = hf.FlowConfig(kind=hf.FlowKind.ricci(), kbar=kbar, tol=1e-10)
        final, _, status = hf.integrate(pants, pants_r1, cfg)
        assert res.converged and status is hf.Status.CONVERGED
        assert np.max(np.abs(res.u_star.u - final.u)) < 1e-6

    def test_default_start(self, pants, torus):
        for m in (pants, torus):
            s = hf.default_start(m)
            kbar = np.full(m.n_boundary, 2.0)
            res = hf.newton_solve(m, None, kbar, tol=1e-12, max_iter=30)
            assert res.converged
            assert np.max(np.abs(hf.curvature(m, res.u_star) - kbar)) < 1e-12
            assert np.all(s.u == -0.5)  # -min(1, 2/4)

    def test_torus_targets(self, torus):
        target_state = hf.state_from_radii(torus, [1.0])
        kbar = hf.curvature(torus, target_state)
        res = hf.newton_solve(torus, None, kbar, tol=1e-13, max_iter=30)
        assert res.converged
        assert abs(res.u_star.u[0] - target_state.u[0]) < 1e-10

    def test_logs_each_iteration(self, pants, pants_r1, caplog):
        caplog.set_level(logging.DEBUG, logger="hexflow.solver")
        start = hf.validate_state(pants, [-0.3, -0.5, -0.7])
        res = hf.newton_solve(pants, start, hf.curvature(pants, pants_r1),
                              tol=1e-12, max_iter=20)
        lines = [r.getMessage() for r in caplog.records if r.name == "hexflow.solver"]
        assert len(lines) == res.iterations
        for it, line in enumerate(lines, 1):
            assert re.fullmatch(rf"newton iteration {it}: residual_inf=\S+ "
                                rf"t=\S+ backtracks=\d+", line)
        assert float(lines[-1].split("residual_inf=")[1].split()[0]) == pytest.approx(
            res.residual_inf, rel=1e-3)

    def test_precondition_errors(self, pants, pants_r1):
        with pytest.raises(ValueError):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 0.0, 1.0]))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                hf.newton_solve(pants, pants_r1, np.array([bad, 1.0, 1.0]))
        with pytest.raises(ValueError):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0, 1.0]), tol=0.0)


class TestFactorSpd:
    @pytest.mark.parametrize("a", [
        np.diag([1.0, -1.0]),                      # indefinite, diagonal pivots
        np.array([[1.0, 2.0], [2.0, 1.0]]),        # indefinite, positive diagonal
        np.array([[0.0, 1.0], [1.0, 0.0]]),        # zero diagonal: off-diagonal pivot
        np.array([[1.0, 1.0], [1.0, 1.0]]),        # singular
        np.zeros((3, 3)),                          # singular
        np.array([[np.nan]]),
    ])
    def test_not_positive_definite(self, a):
        with pytest.raises(hf.DefinitenessError):
            factor_spd(csc_array(a))

    def test_solves_spd_system(self):
        rng = np.random.default_rng(41)
        b = rng.normal(size=(6, 6))
        a = b @ b.T + 6.0 * np.eye(6)
        x = rng.normal(size=6)
        assert np.allclose(factor_spd(csc_array(a)).solve(a @ x), x, rtol=1e-12)

    def test_negated_laplacian_factors(self, pants, torus):
        rng = np.random.default_rng(43)
        for m in (pants, torus):
            for s in sample_valid_states(m, 5, rng):
                lu = factor_spd(-hf.sparse_laplacian(m, s))
                r = rng.normal(size=m.n_boundary)
                assert np.allclose(-hf.laplacian(m, s) @ lu.solve(r), r, rtol=1e-12)
