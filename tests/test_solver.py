import logging
import re
import sys

import numpy as np
import pytest

import hexflow as hf
from hexflow.curvature import _hexagons
from conftest import admissible_state, random_mesh

solver = sys.modules["hexflow.solver"]


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
                                rf"t=\S+ backtracks=\d+ cg_iterations=\d+ "
                                rf"cg_residual=\S+", line)
        assert float(lines[-1].split("residual_inf=")[1].split()[0]) == pytest.approx(
            res.residual_inf, rel=1e-3)

    def test_logs_cg_iterations_and_residual(self, caplog):
        rng = np.random.default_rng(67)
        m = random_mesh("grid4", rng)
        caplog.set_level(logging.DEBUG, logger="hexflow.solver")
        res = hf.newton_solve(m, None, hf.curvature(m, admissible_state(m, rng)),
                              tol=1e-12)
        lines = [r.getMessage() for r in caplog.records if r.name == "hexflow.solver"]
        assert res.converged and len(lines) == res.iterations > 0
        for line in lines:
            iterations = int(re.search(r"cg_iterations=(\d+)", line)[1])
            rel_residual = float(re.search(r"cg_residual=(\S+)", line)[1])
            assert 1 < iterations < solver.CG_MAX_ITER
            assert 0.0 < rel_residual <= solver.CG_RTOL

    def test_trials_checked_once(self, pants, monkeypatch):
        # the kernel inside curvature checks each backtracking trial, so
        # with an explicit start validate_state is never called; from this
        # start three of the trials toward kbar = 5 are inadmissible
        start = hf.default_start(pants)
        calls = []
        validate_state = solver.validate_state
        monkeypatch.setattr(solver, "validate_state",
                            lambda m, u: calls.append(1) or validate_state(m, u))
        res = hf.newton_solve(pants, start, np.full(3, 5.0), tol=1e-12)
        assert res.converged and res.iterations > 0
        assert calls == []

    def test_states_evaluated_through_module_curvature(self, pants, caplog,
                                                       monkeypatch):
        # the benchmark counts the calls of solver.curvature: the start, then
        # one per trial state, accepted, inadmissible or without decrease
        calls = []
        curvature = solver.curvature
        monkeypatch.setattr(solver, "curvature",
                            lambda m, s: calls.append(1) or curvature(m, s))
        caplog.set_level(logging.DEBUG, logger="hexflow.solver")
        res = hf.newton_solve(pants, hf.default_start(pants), np.full(3, 5.0),
                              tol=1e-12)
        backtracks = [int(re.search(r"backtracks=(\d+)", r.getMessage())[1])
                      for r in caplog.records if r.name == "hexflow.solver"]
        assert res.converged and len(backtracks) == res.iterations > 0
        assert sum(backtracks) > 0
        assert len(calls) == 1 + res.iterations + sum(backtracks)

    def test_target_shape_named(self, pants, pants_r1):
        with pytest.raises(ValueError, match=r"^target has shape \(1, 3\), mesh has 3$"):
            hf.newton_solve(pants, pants_r1, np.full((1, 3), 2.0))

    def test_precondition_errors(self, pants, pants_r1):
        with pytest.raises(ValueError):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 0.0, 1.0]))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                hf.newton_solve(pants, pants_r1, np.array([bad, 1.0, 1.0]))
        for bad in (0.0, np.inf, np.nan, True, np.True_):
            with pytest.raises(ValueError, match="tol"):
                hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0, 1.0]), tol=bad)
        with pytest.raises(ValueError, match="max_iter"):
            hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0, 1.0]), max_iter=-1)
        for bad in (2.5, np.nan, True):
            with pytest.raises(ValueError, match="^max_iter must be an integer"):
                hf.newton_solve(pants, pants_r1, np.array([1.0, 1.0, 1.0]),
                                max_iter=bad)
        res = hf.newton_solve(pants, pants_r1, hf.curvature(pants, pants_r1),
                              max_iter=np.int64(0))
        assert res.converged and res.iterations == 0


MESHES = ("pants", "torus", "grid3", "grid10")
# admissible_state bands: interior, near the admissibility edge, large radii
BANDS = ((0.05, 0.95), (0.9, 0.999), (0.001, 0.01))


def solver_cases(name, seed):
    """A random-weight mesh and, per band, two states and right-hand sides."""
    rng = np.random.default_rng(seed)
    m = random_mesh(name, rng)
    for lo, hi in BANDS:
        for _ in range(2):
            yield m, admissible_state(m, rng, lo, hi), rng.normal(size=m.n_boundary)


class TestNewtonDirection:
    @pytest.mark.parametrize("name", MESHES)
    def test_matches_dense_solve(self, name):
        for m, s, r in solver_cases(name, 47):
            d, iterations, rel_residual = solver._newton_direction(m, s.u, r)
            # normwise: CG bounds |d - d*| by cond(-Delta) CG_RTOL |d*|
            d_ref = np.linalg.solve(-hf.laplacian(m, s), r)
            assert np.linalg.norm(d - d_ref) <= 1e-12 * np.linalg.norm(d_ref)
            assert 1 <= iterations < solver.CG_MAX_ITER
            assert rel_residual <= solver.CG_RTOL

    @pytest.mark.parametrize("name", MESHES)
    def test_face_blocks_pass_check(self, name):
        for m, s, _r in solver_cases(name, 53):
            _k, _data, jac = _hexagons(m, s.u, jacobian=True)
            solver._check_face_blocks(jac)
            assert np.all(np.linalg.eigvalsh(-jac)[:, 0] > 0.0)

    @pytest.mark.parametrize("block", [
        np.diag([1.0, -1.0, 1.0]),                                   # indefinite
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # indefinite
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # zero diagonal
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # singular
        np.zeros((3, 3)),                                            # singular
        np.full((3, 3), np.nan),
        np.diag([1.0, 1.0, -1.0]),              # only the third minor fails
    ], ids=["indefinite_diagonal", "indefinite", "zero_diagonal", "singular",
            "zero", "nan", "third_minor"])
    def test_bad_block_names_its_face(self, block):
        rng = np.random.default_rng(59)
        m = random_mesh("grid3", rng)
        _k, _data, jac = _hexagons(m, admissible_state(m, rng).u, jacobian=True)
        jac[7] = -block
        with pytest.raises(hf.DefinitenessError,
                           match="at face 7 is not positive definite"):
            solver._check_face_blocks(jac)

    def test_iteration_cap_ends_cg(self, monkeypatch):
        # the cap returns CG's iterate; the backtracking test judges the step
        m, s, r = next(solver_cases("grid10", 61))
        monkeypatch.setattr(solver, "CG_MAX_ITER", 2)
        d, iterations, rel_residual = solver._newton_direction(m, s.u, r)
        assert iterations == 2
        assert solver.CG_RTOL < rel_residual < 1.0
        assert np.linalg.norm(-hf.laplacian(m, s) @ d - r) == pytest.approx(
            rel_residual * np.linalg.norm(r), rel=1e-6)
