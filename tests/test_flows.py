import dataclasses
import io
import itertools
import json
import logging
import re

import numpy as np
import pytest

import hexflow as hf
import hexflow.flows as flows
from conftest import admissible_state, random_mesh, sample_valid_states, torus_grid_doc


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
        with pytest.raises(ValueError, match="max_steps"):
            ricci_cfg(np.array([1.0]), max_steps=0)
        for name, bad in itertools.product(("max_steps", "trace_every"),
                                           (2.5, np.nan, 3.0, True)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                ricci_cfg(np.array([1.0]), **{name: bad})
        cfg = ricci_cfg(np.array([1.0]), max_steps=np.int64(3), trace_every=np.int32(2))
        assert (cfg.max_steps, cfg.trace_every) == (3, 2)
        for bad in (0.0, np.inf, np.nan, True, np.True_):
            with pytest.raises(ValueError, match="tol"):
                ricci_cfg(np.array([1.0]), tol=bad)


def test_flow_order():
    orders = [hf.FlowKind.ricci().order, hf.FlowKind.calabi().order,
              hf.FlowKind.fractional(0.25).order]
    assert orders == [0.0, 1.0, 0.25]


def test_config_frozen_after_checks():
    # the checks run once, so no field may change after them
    kbar = np.array([1.0, 2.0, 3.0])
    cfg = ricci_cfg(kbar)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trace_every = 0
    kbar[0] = -5.0
    assert np.array_equal(cfg.kbar, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="read-only"):
        cfg.kbar[0] = -5.0


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
            assert np.array_equal(frac0, ricci)
            assert np.array_equal(frac1, calabi)

    def test_ricci_sign_convention(self, pants, pants_r1):
        kbar = hf.curvature(pants, pants_r1)
        s = hf.validate_state(pants, pants_r1.u + 0.05)
        assert np.array_equal(hf.rhs(pants, s, ricci_cfg(kbar)),
                              hf.curvature(pants, s) - kbar)


def stability_function(z):
    """R(z): one step of the integrator's tableau on y' = z y from y = 1
    with dt = 1, stage by stage as integrate takes it."""
    ks = [z]
    for a in flows._A:
        y = 1.0 + a @ np.array(ks)
        ks.append(z * y)
    return y


class TestTableau:
    def test_stability_bound_is_real_axis_crossing(self):
        bound = flows.STABILITY_BOUND
        assert abs(abs(stability_function(-bound)) - 1.0) < 1e-6
        inside = np.linspace(-bound, 0.0, 2001)[1:-1]
        assert max(abs(stability_function(z)) for z in inside) < 1.0

    def test_consistency(self):
        assert len(flows._A) == len(flows._C) == 12
        for a, c in zip(flows._A[:-1], flows._C[1:]):
            assert abs(a.sum() - c) < 1e-14
        assert abs(flows._A[-1].sum() - 1.0) < 1e-14
        assert abs(flows._E5.sum()) < 1e-14
        assert abs(flows._E3.sum()) < 1e-14

    def test_one_step_error_falls_at_eighth_order(self):
        # the local error of an order-8 step is O(dt^9)
        errs = [abs(stability_function(-dt) - np.exp(-dt)) for dt in (1.0, 0.5, 0.25)]
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(rates > 8.0)


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

    @pytest.mark.parametrize("kind", [hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                                      hf.FlowKind.fractional(0.5)],
                             ids=["ricci", "calabi", "fractional"])
    @pytest.mark.parametrize("size", [1, 4])
    def test_target_length_checked_first(self, pants, pants_r1, kind, size):
        cfg = hf.FlowConfig(kind=kind, kbar=np.full(size, 2.0))
        with pytest.raises(ValueError, match=f"^target has {size} entries, mesh has 3$"):
            hf.integrate(pants, pants_r1, cfg)

    def test_target_shape_named(self, pants, pants_r1):
        cfg = ricci_cfg(np.full((1, 3), 2.0))
        with pytest.raises(ValueError, match=r"^target has shape \(1, 3\), mesh has 3$"):
            hf.integrate(pants, pants_r1, cfg)

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

    def test_budget_row_records_dt_used(self):
        # the budget ran out between sampled rows: the row written at the
        # last step carries the dt that step took, as with trace_every=1
        m = hf.parse_mesh(json.dumps(torus_grid_doc(3, np.full(27, 2.0))))
        kbar = hf.curvature(m, admissible_state(m, np.random.default_rng(5), 0.3, 0.6))
        rows = {}
        for every in (1, 2):
            _, trace, status = hf.integrate(m, hf.default_start(m),
                                            ricci_cfg(kbar, max_steps=3,
                                                      trace_every=every))
            assert status is hf.Status.BUDGET_EXHAUSTED
            rows[every] = trace.rows
        assert [row.step for row in rows[2]] == [0, 2, 3]
        assert rows[2][-1] == rows[1][-1]
        assert rows[2][-1].dt == pytest.approx(rows[1][3].t - rows[1][2].t, rel=1e-12)

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
        # one evaluation at the start, then 12 per attempt: the evaluation
        # at the new state of an accepted step is the first stage of the next
        assert trace.rhs_evals == 1 + 12 * (steps + trace.rejected_error
                                            + trace.rejected_energy)

    def test_ricci_stages_evaluated_through_module_curvature(self, pants, pants_r1,
                                                            monkeypatch):
        # the benchmark counts the calls of flows.curvature: the Ricci flow's
        # first evaluation and the 11 inner stages of every attempt (the
        # stage at the new state also needs Delta, for the stability cap)
        kbar = hf.curvature(pants, pants_r1)
        calls = []
        curvature = flows.curvature
        monkeypatch.setattr(flows, "curvature",
                            lambda m, s: calls.append(1) or curvature(m, s))
        _, trace, status = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                        ricci_cfg(kbar, tol=1e-10))
        assert status is hf.Status.CONVERGED
        assert trace.rejected_inadmissible == 0
        attempts = trace.rows[-1].step + trace.rejected_error + trace.rejected_energy
        assert len(calls) == 1 + 11 * attempts

    def test_large_dt0_rejects_inadmissible_stages(self, pants, pants_r1, caplog,
                                                   monkeypatch):
        kbar = hf.curvature(pants, pants_r1)
        monkeypatch.setattr(flows, "DT0", 50.0)
        with caplog.at_level(logging.DEBUG, logger="hexflow.flows"):
            final, trace, status = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                                ricci_cfg(kbar, tol=1e-10))
        assert status is hf.Status.CONVERGED
        assert np.max(np.abs(final.u - pants_r1.u)) < 1e-8
        assert trace.rejected_inadmissible >= 1
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "hexflow.flows" and "rejected" in r.getMessage()]
        assert len(logged) == (trace.rejected_error + trace.rejected_inadmissible
                               + trace.rejected_energy)
        assert sum("(inadmissible)" in msg for msg in logged) == trace.rejected_inadmissible

    def test_no_growth_right_after_rejection(self, pants, pants_r1, caplog, monkeypatch):
        # a step accepted after a rejection does not grow dt for the next step
        kbar = hf.curvature(pants, pants_r1)
        monkeypatch.setattr(flows, "DT0", 50.0)
        with caplog.at_level(logging.DEBUG, logger="hexflow.flows"):
            _, trace, status = hf.integrate(pants, self.perturbed(pants, pants_r1),
                                            ricci_cfg(kbar, tol=1e-10, trace_every=1))
        assert status is hf.Status.CONVERGED
        rejected = {int(match[1]) for r in caplog.records if r.name == "hexflow.flows"
                    if (match := re.match(r"step (\d+) rejected", r.getMessage()))}
        rows = trace.rows
        assert rejected and max(rejected) + 1 < len(rows)
        for n in rejected:
            assert rows[n + 1].dt <= rows[n].dt
        assert any(rows[n + 1].dt > rows[n].dt
                   for n in range(1, len(rows) - 1) if n not in rejected)

    @pytest.mark.parametrize("kind", [hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                                      hf.FlowKind.fractional(0.5)],
                             ids=["ricci", "calabi", "fractional"])
    def test_step_collapse(self, pants, pants_r1, monkeypatch, kind):
        # every kind rejects a step that raises the Calabi energy
        kbar = hf.curvature(pants, pants_r1)
        rising = itertools.count()
        monkeypatch.setattr(flows, "calabi_energy", lambda k, kbar: float(next(rising)))
        with pytest.raises(hf.StepCollapseError,
                           match=f"{flows.MAX_HALVINGS} consecutive rejections"):
            hf.integrate(pants, self.perturbed(pants, pants_r1),
                         hf.FlowConfig(kind=kind, kbar=kbar))


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


@pytest.mark.parametrize("kind", [hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                                  hf.FlowKind.fractional(0.5)], ids=lambda k: k.name)
@pytest.mark.parametrize("name", ["pants", "grid3", "grid4"])
def test_trace_potential_matches_quadrature(name, kind):
    # the integrator carries the potential along its stages; at whatever
    # step a run stops, the carried value agrees with the line integral
    rng = np.random.default_rng(7)
    m = random_mesh(name, rng)
    kbar = hf.curvature(m, admissible_state(m, rng, 0.3, 0.9))
    s0 = hf.default_start(m)
    for max_steps in (1, 7, 25, 60):
        cfg = hf.FlowConfig(kind=kind, kbar=kbar, max_steps=max_steps)
        final, trace, _ = hf.integrate(m, s0, cfg)
        carried = trace.rows[-1].ricci_potential_delta
        assert abs(carried - hf.ricci_potential(m, final, s0, kbar)) <= \
            1e-9 * max(1.0, abs(carried))


@pytest.mark.parametrize("name, kind", [
    ("grid3", hf.FlowKind.calabi()),
    ("grid3", hf.FlowKind.fractional(0.5)),
    ("grid10", hf.FlowKind.ricci()),
], ids=lambda v: getattr(v, "name", v))
def test_converges_at_default_tol(name, kind):
    # near u* the step size must stay inside the tableau's stability
    # region, or the stiffest mode of u - u* stops decaying at a size set
    # by STEP_ERROR_TOL and the residual stalls above the default tol
    rng = np.random.default_rng(0)
    m = random_mesh(name, rng)
    target = admissible_state(m, rng, 0.3, 0.9)
    cfg = hf.FlowConfig(kind=kind, kbar=hf.curvature(m, target), max_steps=3000)
    assert cfg.tol == 1e-10
    final, _, status = hf.integrate(m, hf.default_start(m), cfg)
    assert status is hf.Status.CONVERGED
    assert np.max(np.abs(final.u - target.u)) < 1e-8


def run_bytes(m, s0, cfg):
    """Everything integrate reports, as bytes: final u, trace CSV, status
    and the counters."""
    final, trace, status = hf.integrate(m, s0, cfg)
    csv = io.StringIO()
    trace.write_csv(csv)
    return (final.u.tobytes(), csv.getvalue(), status, trace.rhs_evals,
            trace.rejected_error, trace.rejected_inadmissible, trace.rejected_energy)


@pytest.mark.parametrize("name", ["pants", "grid3"])
def test_fractional_ends_run_ricci_and_calabi(name):
    # orders 0 and 1 take the Ricci and Calabi paths, bit for bit
    rng = np.random.default_rng(11)
    m = random_mesh(name, rng)
    kbar = hf.curvature(m, admissible_state(m, rng, 0.3, 0.9))
    s0 = hf.default_start(m)
    for plain, s in ((hf.FlowKind.ricci(), 0.0), (hf.FlowKind.calabi(), 1.0)):
        for tol, max_steps in ((1e-8, 200_000), (1e-10, 40)):
            runs = [run_bytes(m, s0, hf.FlowConfig(kind, kbar, tol=tol,
                                                   max_steps=max_steps, trace_every=1))
                    for kind in (plain, hf.FlowKind.fractional(s))]
            assert runs[0] == runs[1]


def test_only_fractional_builds_dense_laplacian(monkeypatch):
    # the Ricci bound and the Calabi right-hand side use the stored entries
    # of Delta; only the eigendecomposition of the fractional flow of an
    # order strictly between 0 and 1 needs the dense matrix
    def dense(*args):
        raise AssertionError("dense Delta built")

    monkeypatch.setattr(flows, "_dense_laplacian", dense)
    rng = np.random.default_rng(0)
    m = random_mesh("grid3", rng)
    kbar = hf.curvature(m, admissible_state(m, rng, 0.3, 0.9))
    for kind in (hf.FlowKind.ricci(), hf.FlowKind.calabi(),
                 hf.FlowKind.fractional(0.0), hf.FlowKind.fractional(1.0)):
        cfg = hf.FlowConfig(kind=kind, kbar=kbar, tol=1e-8)
        _, _, status = hf.integrate(m, hf.default_start(m), cfg)
        assert status is hf.Status.CONVERGED
    cfg = hf.FlowConfig(kind=hf.FlowKind.fractional(0.5), kbar=kbar, tol=1e-8)
    with pytest.raises(AssertionError, match="dense Delta built"):
        hf.integrate(m, hf.default_start(m), cfg)
