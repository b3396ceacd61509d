import itertools
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hexflow as hf
from hexflow.cli import log_level, main
from conftest import (DEEP, K_PANTS_R1, PANTS_DOC, TORUS_DOC, U_OF_R1,
                      pants_doc_with_weight)


@pytest.fixture
def pants_file(tmp_path):
    path = tmp_path / "pants.json"
    path.write_text(json.dumps(PANTS_DOC))
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_DOC))
    return str(path)


@pytest.fixture
def r1_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"r": [1.0, 1.0, 1.0]}))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_pants(self, pants_file, capsys):
        assert main(["check", pants_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N=3 E=3 F=2 chi=2"

    def test_torus(self, torus_file, capsys):
        assert main(["check", torus_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "N=1 E=3 F=2 chi=0"

    def test_corner_inconsistency(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["faces"][1]["opposite_vertices"] = [1, 3, 2]
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["check", path]) == 2
        assert "face 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_weight_past_overflow_bound_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["edges"][1]["phi"] = 705.0
        path = write_json(tmp_path, "heavy.json", doc)
        assert main(["check", path]) == 2
        assert "edge 2 weight" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", [1, -1])
    def test_weight_too_large_for_a_float_exit_2(self, tmp_path, capsys, sign):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["edges"][0]["phi"] = sign * int("9" * 400)
        path = write_json(tmp_path, "huge.json", doc)
        assert main(["check", path]) == 2
        assert "edge 1 weight must be positive and at most 700" in capsys.readouterr().err

    def test_huge_component_count_exit_2_with_short_message(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PANTS_DOC))
        doc["n_boundary"] = 1_000_000
        path = write_json(tmp_path, "many.json", doc)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert "999997 boundary components appear in no face corner: 4, 5," in err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        assert main(["check", str(path)]) == 2
        assert "mesh JSON nested too deeply" in capsys.readouterr().err


class TestCurvature:
    def test_pants_r1(self, pants_file, r1_state_file, capsys):
        assert main(["curvature", pants_file, "--state", r1_state_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["K"], K_PANTS_R1, rtol=1e-14)

    def test_inadmissible_state_exit_3(self, pants_file, tmp_path):
        state = write_json(tmp_path, "bad_state.json", {"u": [-1.0, -1.0, -0.5]})
        assert main(["curvature", pants_file, "--state", state]) == 3

    def test_radius_past_overflow_exit_3(self, pants_file, tmp_path):
        # u = -1e-300 is admissible, but its radius (691) overflows the kernel
        state = write_json(tmp_path, "huge_r.json", {"u": [-1e-300, -0.5, -0.5]})
        assert main(["curvature", pants_file, "--state", state]) == 3

    def test_small_weight_at_default_start(self, tmp_path, capsys):
        # cosh(1e-8) rounds to 1; the edge cosh must not be formed from it
        doc = pants_doc_with_weight(1e-8)
        m = hf.parse_mesh(json.dumps(doc))
        s0 = hf.default_start(m)
        mesh = write_json(tmp_path, "thin.json", doc)
        state = write_json(tmp_path, "start.json", {"u": s0.u.tolist()})
        assert main(["curvature", mesh, "--state", state]) == 0
        assert np.allclose(json.loads(capsys.readouterr().out)["K"], hf.curvature(m, s0),
                           rtol=1e-14, atol=0.0)

    def test_inadmissible_pair_exit_3(self, pants_file, r1_state_file,
                                      monkeypatch):
        def raise_pair(m, s):
            raise hf.StateError("inadmissible radius pair")
        monkeypatch.setattr(sys.modules["hexflow.cli"], "curvature", raise_pair)
        assert main(["curvature", pants_file, "--state", r1_state_file]) == 3

    def test_missing_state_key_exit_2(self, pants_file, tmp_path):
        state = write_json(tmp_path, "no_key.json", {"radii": [1, 1, 1]})
        assert main(["curvature", pants_file, "--state", state]) == 2

    def test_deeply_nested_state_exit_2(self, pants_file, tmp_path, caplog):
        state = tmp_path / "deep.json"
        state.write_text('{"u": ' + DEEP + "}")
        assert main(["curvature", pants_file, "--state", str(state)]) == 2
        assert "state JSON nested too deeply" in caplog.text


class TestFlow:
    def flow_args(self, pants_file, r1_state_file, tmp_path, target, **extra):
        target_file = write_json(tmp_path, "target.json", {"kbar": list(target)})
        start = write_json(
            tmp_path, "start.json",
            {"u": [U_OF_R1 + 0.1, U_OF_R1 - 0.05, U_OF_R1 + 0.02]})
        out = str(tmp_path / "out.json")
        trace = str(tmp_path / "trace.csv")
        args = ["flow", pants_file, "--state", start, "--target", target_file,
                "--kind", extra.pop("kind", "ricci"),
                "--out", out, "--trace", trace]
        for flag, val in extra.items():
            args += [f"--{flag.replace('_', '-')}", str(val)]
        return args, out, trace

    def test_ricci_converges(self, pants_file, r1_state_file, tmp_path):
        args, out, trace = self.flow_args(pants_file, r1_state_file, tmp_path,
                                          [K_PANTS_R1] * 3, trace_every=1)
        assert main(args) == 0
        u = hf.load_state_vector(out)
        assert np.max(np.abs(u - U_OF_R1)) < 1e-8
        lines = Path(trace).read_text().splitlines()
        assert lines[0].startswith("step,t,dt,residual_inf,calabi_energy")
        energies = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_frac_requires_s(self, pants_file, r1_state_file, tmp_path):
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [2.0] * 3, kind="frac")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["ricci", "calabi"])
    def test_order_without_frac_exit_2(self, pants_file, r1_state_file, tmp_path,
                                       kind, capsys):
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [2.0] * 3, kind=kind, s=0.5)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--s" in capsys.readouterr().err

    @pytest.mark.parametrize("s", [2.0, -1.0, "nan"])
    def test_frac_order_out_of_range_exit_2(self, pants_file, r1_state_file, tmp_path, s):
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [2.0] * 3, kind="frac", s=s)
        assert main(args) == 2

    def test_frac_with_s_runs(self, pants_file, r1_state_file, tmp_path):
        args, out, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                      [K_PANTS_R1] * 3, kind="frac", s=0.5,
                                      tol=1e-8)
        assert main(args) == 0

    @pytest.mark.parametrize("s, kind", [(0, "ricci"), (1, "calabi")])
    def test_frac_order_ends_match_plain_kinds(self, pants_file, r1_state_file,
                                               tmp_path, s, kind):
        outputs = []
        for extra in ({"kind": "frac", "s": s}, {"kind": kind}):
            args, out, trace = self.flow_args(pants_file, r1_state_file, tmp_path,
                                              [0.5, 1.0, 3.0], tol=1e-8,
                                              trace_every=1, **extra)
            assert main(args) == 0
            outputs.append((Path(out).read_bytes(), Path(trace).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_budget_exhaustion_exit_4(self, pants_file, r1_state_file, tmp_path):
        args, out, trace = self.flow_args(pants_file, r1_state_file, tmp_path,
                                          [0.5, 1.0, 3.0], max_steps=1)
        assert main(args) == 4
        # partial outputs still written
        assert len(Path(trace).read_text().splitlines()) >= 2
        hf.load_state_vector(out)

    def test_step_collapse_exit_4(self, pants_file, r1_state_file, tmp_path,
                                  monkeypatch):
        rising = itertools.count()
        monkeypatch.setattr(sys.modules["hexflow.flows"], "calabi_energy",
                            lambda k, kbar: float(next(rising)))
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [K_PANTS_R1] * 3)
        assert main(args) == 4

    def test_nonpositive_target_exit_2(self, pants_file, r1_state_file, tmp_path):
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [0.0, 1.0, 1.0])
        assert main(args) == 2

    def test_infinite_target_exit_2(self, pants_file, r1_state_file, tmp_path, caplog):
        # json writes and reads the float inf as the bare token Infinity
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [float("inf"), 1.0, 1.0])
        assert main(args) == 2
        assert "positive and finite" in caplog.text


    def test_infinite_tol_exit_2(self, pants_file, r1_state_file, tmp_path, caplog):
        # with tol = inf the flow would report convergence at step 0
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path,
                                    [5.0, 1.0, 3.0], tol="inf")
        assert main(args) == 2
        assert "tol must be positive and finite" in caplog.text

    @pytest.mark.parametrize("size", [1, 4])
    def test_target_length_exit_2(self, pants_file, r1_state_file, tmp_path, caplog,
                                  size):
        args, _, _ = self.flow_args(pants_file, r1_state_file, tmp_path, [2.0] * size)
        assert main(args) == 2
        assert f"target has {size} entries, mesh has 3" in caplog.text


class TestSolve:
    def test_arbitrary_target(self, pants_file, tmp_path):
        target = write_json(tmp_path, "target.json", {"kbar": [0.5, 1.0, 3.0]})
        out = str(tmp_path / "sol.json")
        assert main(["solve", pants_file, "--target", target,
                     "--tol", "1e-12", "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert np.max(np.abs(np.array(doc["K"]) - [0.5, 1.0, 3.0])) < 1e-10
        # the written solution is itself a loadable state
        u = hf.load_state_vector(out)
        assert np.array_equal(u, doc["u"])

    def test_curvature_output_reusable_as_target(self, pants_file, r1_state_file,
                                                 tmp_path, capsys):
        assert main(["curvature", pants_file, "--state", r1_state_file]) == 0
        target = tmp_path / "target.json"
        target.write_text(capsys.readouterr().out)
        out = str(tmp_path / "sol.json")
        assert main(["solve", pants_file, "--target", str(target),
                     "--tol", "1e-12", "--out", out]) == 0
        u = hf.load_state_vector(out)
        assert np.max(np.abs(u - U_OF_R1)) < 1e-9

    def test_zero_target_exit_2(self, pants_file, tmp_path):
        target = write_json(tmp_path, "target.json", {"kbar": [0.0, 1.0, 1.0]})
        assert main(["solve", pants_file, "--target", target]) == 2

    def test_infinite_target_exit_2(self, pants_file, tmp_path, caplog):
        target = tmp_path / "target.json"
        target.write_text('{"kbar": [Infinity, 1.0, 1.0]}')
        assert main(["solve", pants_file, "--target", str(target)]) == 2
        assert "positive and finite" in caplog.text

    @pytest.mark.parametrize("text,message", [
        ('{"kbar": [1.0, 1.0,', "target JSON syntax error at line 1"),
        ('{"kbar": [1.0, 1.0, 1.0], "K": [1.0, 1.0, 1.0]}',
         'exactly one of "kbar" or "K"'),
        ('{"target": [1.0, 1.0, 1.0]}', 'exactly one of "kbar" or "K"'),
        ('{"kbar": [1.0, true, 1.0]}', "target key 'kbar' must be a list of numbers"),
        ('{"kbar": [1' + "0" * 400 + ', 1.0, 1.0]}', "positive and finite"),
    ], ids=["syntax", "both_keys", "neither_key", "bool_entry", "int_past_float_range"])
    def test_malformed_target_exit_2(self, pants_file, tmp_path, caplog, text, message):
        target = tmp_path / "target.json"
        target.write_text(text)
        assert main(["solve", pants_file, "--target", str(target)]) == 2
        assert message in caplog.text

    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "inf", "tol must be positive and finite"),
        ("--max-iter", "-1", "max_iter must be >= 0"),
    ], ids=["tol_inf", "max_iter_negative"])
    def test_bad_iteration_setting_exit_2(self, pants_file, tmp_path, caplog,
                                          flag, value, message):
        target = write_json(tmp_path, "target.json", {"kbar": [5.0, 1.0, 3.0]})
        assert main(["solve", pants_file, "--target", target, flag, value]) == 2
        assert message in caplog.text

    def test_torus_default_start(self, torus_file, tmp_path):
        target = write_json(tmp_path, "target.json", {"kbar": [2.0]})
        assert main(["solve", torus_file, "--target", target]) == 0

    def test_indefinite_jacobian_exit_4(self, pants_file, tmp_path, caplog,
                                        monkeypatch):
        # corner Jacobians with the wrong sign reach the per-face check,
        # which raises DefinitenessError; the CLI maps it to an exit code
        solver = sys.modules["hexflow.solver"]
        hexagons = solver._hexagons

        def negated(m, u, jacobian):
            k, data, jac = hexagons(m, u, jacobian)
            return k, data, -jac

        monkeypatch.setattr(solver, "_hexagons", negated)
        target = write_json(tmp_path, "target.json", {"kbar": [1.0, 1.0, 1.0]})
        assert main(["solve", pants_file, "--target", target]) == 4
        assert "not positive definite" in caplog.text

    def test_explicit_start(self, pants_file, tmp_path):
        target = write_json(tmp_path, "target.json", {"kbar": [2.0, 2.0, 2.0]})
        state = write_json(tmp_path, "start.json", {"u": [-0.4, -0.6, -0.5]})
        assert main(["solve", pants_file, "--target", target,
                     "--state", state]) == 0


class TestRoundTrip:
    def test_state_round_trips_losslessly(self, pants_file, r1_state_file,
                                          tmp_path):
        args = ["flow", pants_file, "--state", r1_state_file, "--target",
                write_json(tmp_path, "t.json", {"kbar": [K_PANTS_R1] * 3}),
                "--kind", "ricci", "--out", str(tmp_path / "o.json")]
        assert main(args) == 0
        u1 = hf.load_state_vector(str(tmp_path / "o.json"))
        # rewrite and reload: bit-identical
        (tmp_path / "o2.json").write_text(json.dumps({"u": list(map(float, u1))}))
        u2 = hf.load_state_vector(str(tmp_path / "o2.json"))
        assert np.array_equal(u1, u2)


class TestLogLevel:
    @pytest.mark.parametrize("name,level", [
        ("DEBUG", logging.DEBUG), ("debug", logging.DEBUG), ("Info", logging.INFO),
        ("warning", logging.WARNING), ("WARN", logging.WARNING),
        ("error", logging.ERROR), ("Critical", logging.CRITICAL),
    ])
    def test_standard_names_any_case(self, name, level):
        assert log_level(name) == level

    @pytest.mark.parametrize("name", [None, "", "verbose", "Level 5"])
    def test_unknown_falls_back_to_info(self, name):
        assert log_level(name) == logging.INFO


def test_readme_mesh_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    meshes = [b for b in blocks if '"n_boundary"' in b]
    assert len(meshes) == 1
    m = hf.parse_mesh(meshes[0])
    assert (m.n_boundary, len(m.edges), len(m.faces)) == (3, 3, 2)
