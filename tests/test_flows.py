import itertools
import json
import logging

import numpy as np
import pytest

import hexflow as hf
import hexflow.flows as flows
from conftest import admissible_state, sample_valid_states, torus_grid_doc


@pytest.fixture
def pants_r1(pants):
    return hf.state_from_radii(pants, [1.0, 1.0, 1.0])


def ricci_cfg(kbar, **kw):
    return hf.FlowConfig(kind=hf.FlowKind.ricci(), kbar=kbar, **kw)


class TestFlowKind:
    def test_fractional_needs_order(self):
        with pytest.raises(ValueError):
            hf.FlowKind("fractional")
        with pytest.raises(ValueError):
            hf.FlowKind.fractional(float("nan"))

    @pytest.mark.parametrize("s", [-1.0, 2.0, float("nan"), float("inf"), -1e-12])
    def test_fractional_order_outside_unit_interval(self, s):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hf.FlowKind.fractional(s)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_fractional_order_in_unit_interval(self, s):
        assert hf.FlowKind.fractional(s).s == s

    def test_plain_kinds_take_no_order(self):
        with pytest.raises(ValueError):
            hf.FlowKind("ricci", 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ricci_cfg(np.array([1.0, -1.0, 1.0]))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ricci_cfg(np.array([bad, 1.0, 1.0]))
        with pytest.raises(ValueError, match="dt0"):
            ricci_cfg(np.array([1.0]), dt0=0.0)
        with pytest.raises(ValueError, match="max_steps"):
            ricci_cfg(np.array([1.0]), max_steps=0)


class TestFractionalPower:
    def sample_laplacian(self, pants, seed=3):
        rng = np.random.default_rng(seed)
        [s] = sample_valid_states(pants, 1, rng)
        return hf.laplacian(pants, s)

    def test_power_one_is_identity_map(self, pants):
        a = self.sample_laplacian(pants)
        assert np.array_equal(hf.fractional_power(a, 1.0), a)

    def test_power_zero_is_minus_identity(self, pants):
        a = self.sample_laplacian(pants)
        assert np.array_equal(hf.fractional_power(a, 0.0), -np.eye(3))

    def test_half_power_squares_back(self, pants):
        a = self.sample_laplacian(pants)
        half = -hf.fractional_power(a, 0.5)     # (-a)^(1/2)
        assert np.max(np.abs(half @ half - (-a))) < 1e-9

    def test_result_symmetric_negative_definite(self, pants):
        a = self.sample_laplacian(pants)
        for s in (-1.0, -0.5, 0.3, 0.5, 1.7, 2.0):
            b = hf.fractional_power(a, s)
            assert np.max(np.abs(b - b.T)) < 1e-12
            assert np.max(np.linalg.eigvalsh(b)) < 0

    def test_definiteness_error(self):
        with pytest.raises(hf.DefinitenessError):
            hf.fractional_power(np.diag([-1.0, 1.0]), 0.5)


class TestRhs:
    def test_zero_at_fixed_point(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        for kind in (hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                     hf.FlowKind.fractional(0.5)):
            cfg = hf.FlowConfig(kind=kind, kbar=kbar)
            assert np.max(np.abs(hf.rhs(pants, pants_r1, cfg))) < 1e-13

    def test_fractional_reductions(self, pants):
        kbar = np.array([2.0, 1.0, 3.0])
        rng = np.random.default_rng(37)
        for s in sample_valid_states(pants, 20, rng):
            ricci = hf.rhs(pants, s, ricci_cfg(kbar))
            calabi = hf.rhs(pants, s, hf.FlowConfig(hf.FlowKind.calabi(), kbar))
            frac0 = hf.rhs(pants, s, hf.FlowConfig(hf.FlowKind.fractional(0.0), kbar))
            frac1 = hf.rhs(pants, s, hf.FlowConfig(hf.FlowKind.fractional(1.0), kbar))
            assert np.max(np.abs(frac0 - ricci)) < 1e-12
            assert np.max(np.abs(frac1 - calabi)) < 1e-12

    def test_ricci_sign_convention(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        s = hf.validate_state(pants, pants_r1.u + 0.05)
        assert np.array_equal(hf.rhs(pants, s, ricci_cfg(kbar)),
                              hf.curvature(pants, s) - kbar)


class TestIntegrate:
    def perturbed(self, pants, pants_r1):
        return hf.validate_state(pants, pants_r1.u + np.array([0.1, -0.05, 0.02]))

    def test_immediate_convergence(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        final, trace, status = hf.integrate(pants, pants_r1,
                                            ricci_cfg(kbar, tol=1e-8))
        assert status is hf.Status.CONVERGED
        assert trace.rows[-1].step == 0
        assert np.array_equal(final.u, pants_r1.u)

    @pytest.mark.parametrize("kind", [hf.FlowKind.ricci(), hf.FlowKind.calabi()])
    def test_converges_to_manufactured_state(self, pants, pants_r1, kind):
        kbar = hf.curvature(pants, pants_r1)
        start = self.perturbed(pants, pants_r1)
        cfg = hf.FlowConfig(kind=kind, kbar=kbar, tol=1e-10, trace_every=1)
        final, trace, status = hf.integrate(pants, start, cfg)
        assert status is hf.Status.CONVERGED
        assert np.max(np.abs(final.u - pants_r1.u)) < 1e-8
        energies = [row.calabi_energy for row in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        potentials = [row.ricci_potential_delta for row in trace.rows]
        assert all(b <= a + 1e-9 for a, b in zip(potentials, potentials[1:]))

    def test_interior_preservation(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        start = self.perturbed(pants, pants_r1)
        _, trace, status = hf.integrate(pants, start,
                                        ricci_cfg(kbar, tol=1e-10, trace_every=1))
        assert status is hf.Status.CONVERGED
        assert min(row.min_edge_length for row in trace.rows) > 0.1
        assert max(row.max_u for row in trace.rows) < 0

    def test_exponential_tail(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        start = self.perturbed(pants, pants_r1)
        _, trace, _ = hf.integrate(pants, start,
                                   ricci_cfg(kbar, tol=1e-10, trace_every=1))
        tail = [row for row in trace.rows if row.residual_inf > 0][-20:]
        assert len(tail) >= 5
        slope = np.polyfit([row.t for row in tail],
                           np.log([row.residual_inf for row in tail]), 1)[0]
        assert slope < 0

    def test_budget_exhaustion(self, pants, pants_r1):
        kbar = np.array([0.5, 1.0, 3.0])
        start = self.perturbed(pants, pants_r1)
        final, trace, status = hf.integrate(
            pants, start, ricci_cfg(kbar, tol=1e-12, max_steps=3))
        assert status is hf.Status.BUDGET_EXHAUSTED
        assert trace.rows[-1].step == 3
        hf.validate_state(pants, final.u)  # partial result still admissible

    def test_fractional_local_convergence(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        start = hf.validate_state(pants, pants_r1.u + 1e-2 * np.array([1.0, -1.0, 0.0]))
        cfg = hf.FlowConfig(kind=hf.FlowKind.fractional(0.5), kbar=kbar, tol=1e-8)
        final, _, status = hf.integrate(pants, start, cfg)
        assert status is hf.Status.CONVERGED
        assert np.max(np.abs(hf.curvature(pants, final) - kbar)) < 1e-8

    def test_trace_csv_schema(self, pants, pants_r1, tmp_path):
        kbar = hf.curvature(pants, pants_r1)
        _, trace, _ = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                   ricci_cfg(kbar, tol=1e-8))
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            trace.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,t,dt,residual_inf,calabi_energy,"
                            "ricci_potential_delta,min_edge_length,max_u")
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == sorted(set(steps))

    def test_torus_ricci(self, torus):
        target_state = hf.state_from_radii(torus, [1.0])
        kbar = hf.curvature(torus, target_state)
        start = hf.validate_state(torus, target_state.u + 0.1)
        final, _, status = hf.integrate(torus, start, ricci_cfg(kbar, tol=1e-10))
        assert status is hf.Status.CONVERGED
        assert abs(final.u[0] - target_state.u[0]) < 1e-8

    def test_fsal_evaluation_count(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        _, trace, status = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                        ricci_cfg(kbar, tol=1e-10))
        assert status is hf.Status.CONVERGED
        assert trace.rejected_inadmissible == 0
        steps = trace.rows[-1].step
        # one evaluation at the start, then 6 per attempt: stage 7 of an
        # accepted step is the first stage of the next
        assert trace.rhs_evals == 1 + 6 * (steps + trace.rejected_error
                                           + trace.rejected_energy)

    def test_large_dt0_rejects_inadmissible_stages(self, pants, pants_r1, caplog):
        kbar = hf.curvature(pants, pants_r1)
        with caplog.at_level(logging.DEBUG, logger="hexflow.flows"):
            final, trace, status = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                                ricci_cfg(kbar, tol=1e-10, dt0=50.0))
        assert status is hf.Status.CONVERGED
        assert np.max(np.abs(final.u - pants_r1.u)) < 1e-8
        assert trace.rejected_inadmissible >= 1
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "hexflow.flows" and "rejected" in r.getMessage()]
        assert len(logged) == (trace.rejected_error + trace.rejected_inadmissible
                               + trace.rejected_energy)
        assert sum("(inadmissible)" in msg for msg in logged) == trace.rejected_inadmissible

    def test_step_collapse(self, pants, pants_r1, monkeypatch):
        kbar = hf.curvature(pants, pants_r1)
        rising = itertools.count()
        monkeypatch.setattr(flows, "calabi_energy", lambda k, kbar: float(next(rising)))
        with pytest.raises(hf.StepCollapseError,
                           match=f"{flows.MAX_HALVINGS} consecutive rejections"):
            hf.integrate(pants, self.perturbed(pants, pants_r1), ricci_cfg(kbar))


@pytest.mark.parametrize("kind", [hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                                  hf.FlowKind.fractional(0.5)], ids=lambda k: k.name)
@pytest.mark.parametrize("n", [3, 4])
def test_grid_flows_converge_from_default_start(n, kind):
    rng = np.random.default_rng(100 + n)
    m = hf.parse_mesh(json.dumps(torus_grid_doc(n, rng.uniform(0.5, 3.0, 3 * n * n))))
    target = admissible_state(m, rng, 0.3, 0.9)
    cfg = hf.FlowConfig(kind=kind, kbar=hf.curvature(m, target), tol=1e-8)
    final, _, status = hf.integrate(m, hf.default_start(m), cfg)
    assert status is hf.Status.CONVERGED
    assert np.max(np.abs(final.u - target.u)) < 1e-8
