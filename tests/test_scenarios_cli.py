import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsds.cli import emit_plot_data, main
from nsds.errors import ModelError, UnsupportedError
from nsds.fields import ControlField, PiecewiseField
from nsds.geometry import ConvexPolygon
from nsds.integrate import IntegratorConfig, Trajectory
from nsds.nonsmooth import Graph, hsp, make_function
from nsds.scenarios import SCENARIOS, MoveAwayLaw, get_scenario


EXPECTED_CATALOG = {
    "brick", "oscillator", "oscillator_dissipative", "move_away_1",
    "move_away_n", "consensus", "cart", "nonholonomic_integrator",
    "smq_flow", "sphere_packing",
}


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestCatalog:
    def test_exact_scenario_list(self):
        assert set(SCENARIOS) == EXPECTED_CATALOG

    def test_all_builders_validate(self):
        for name, sc in SCENARIOS.items():
            built = sc.build()
            assert built is not None

    def test_unknown_constant_rejected(self):
        from nsds.errors import ModelError

        with pytest.raises(ModelError):
            get_scenario("brick").build({"mass": 3.0})

    def test_control_scenario_has_no_autonomous_dynamics(self):
        with pytest.raises(UnsupportedError):
            get_scenario("nonholonomic_integrator").simulate([0.0, 0.0, 0.0], 1.0)

    def test_readme_catalog_table_names_every_scenario(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Scenario catalog", 1)[1].split("\n\n", 2)[1]
        names = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]]
        assert sorted(names) == sorted(SCENARIOS)

    def test_duplicates_are_aliases(self):
        assert SCENARIOS["move_away_n"] is SCENARIOS["sphere_packing"]
        assert SCENARIOS["smq_flow"] is SCENARIOS["move_away_1"]

    @pytest.mark.parametrize("x0", [[0.0, 1.0], [0.0, 1.0, 5.0, 7.0]])
    def test_consensus_sizes_its_path_from_x0(self, x0, tmp_path):
        tr = get_scenario("consensus").simulate(x0, 0.01)
        assert tr.dim == len(x0)
        out = tmp_path / "c.csv"
        code, text = run_cli("simulate", "--scenario", "consensus", "--t-end", "0.01",
                             "--x0", ",".join(map(str, x0)), "--out", str(out))
        assert code == 0
        assert len(json.loads(text)["final_state"]) == len(x0)


class TestCli:
    def test_filippov_set_move_away_square(self):
        code, out = run_cli("filippov-set", "--scenario", "move_away_1",
                            "--point", "0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2
        assert payload["tol"] == 1e-9
        verts = {tuple(v) for v in payload["vertices"]}
        assert verts == {(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)}

    def test_filippov_set_descent_function(self):
        code, out = run_cli("filippov-set", "--function", "abs", "--point", "0")
        assert code == 0
        verts = sorted(v[0] for v in json.loads(out)["vertices"])
        assert verts == [-1.0, 1.0]

    def test_gradient_and_proximal(self):
        code, out = run_cli("gradient", "--function", "abs", "--point", "0")
        assert code == 0
        payload = json.loads(out)
        assert sorted(v[0] for v in payload["vertices"]) == [-1.0, 1.0]
        assert payload["exact"] is True
        code, out = run_cli("gradient", "--function", "neg_abs", "--point", "0",
                            "--proximal")
        assert code == 0
        assert json.loads(out)["vertices"] == []
        code, out = run_cli("gradient", "--function", "sqrt_abs", "--point", "0",
                            "--proximal")
        assert code == 0
        assert json.loads(out)["all_space"] is True

    def test_consensus_command(self):
        code, out = run_cli("consensus", "--graph", "1-2,2-3", "--variant", "sign",
                            "--p0", "0,1,5")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert abs(payload["consensus_value"] - 2.5) <= 1e-3
        assert payload["consensus_time"] <= 10.0

    def test_consensus_graph_is_sized_from_p0(self, capsys):
        # Agent 3 is in no edge: it is isolated and holds its value.
        code, out = run_cli("consensus", "--graph", "1-2", "--variant", "sign",
                            "--p0", "0,1,5", "--t-end", "1")
        assert code == 0
        assert np.allclose(json.loads(out)["final_state"], [0.5, 0.5, 5.0], atol=1e-9)
        code, _ = run_cli("consensus", "--graph", "1-4", "--variant", "sign",
                          "--p0", "0,1,5", "--t-end", "1")
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError: bad edge")

    @pytest.mark.parametrize("argv, err", [
        (["sample-hold", "--scenario", "cart", "--x0", "1", "--diam", "0.1", "--t-end", "1"],
         "DimensionMismatch:"),
        (["simulate", "--scenario", "oscillator", "--x0", "1", "--t-end", "1",
          "--out", "OUT"], "DimensionMismatch:"),
        (["simulate", "--scenario", "sphere_packing", "--x0", "0.1,0.2", "--t-end", "1",
          "--out", "OUT"], "DimensionMismatch:"),
        (["gradient", "--function", "abs", "--point", "nan"], "Model:"),
        (["filippov-set", "--scenario", "brick", "--point", "nan"], "Model:"),
        (["simulate", "--scenario", "oscillator", "--x0", "1,0", "--t-end", "1",
          "--dt-max", "nan", "--out", "OUT"], "ValueError: dt_max must be finite and positive"),
    ], ids=["sample-hold-short-x0", "simulate-short-x0", "simulate-packing-short-x0",
            "gradient-nan", "filippov-set-nan", "simulate-nan-dt-max"])
    def test_bad_point_exits_1_with_a_typed_error(self, argv, err, tmp_path, capsys):
        argv = [str(tmp_path / "never.csv") if a == "OUT" else a for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(err)

    def test_simulate_round_trips_csv(self, tmp_path):
        out_file = tmp_path / "tr.csv"
        code, out = run_cli("simulate", "--scenario", "brick", "--x0", "1",
                            "--t-end", "0.5", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        tr = Trajectory.from_csv(text)
        assert tr.to_csv() == text
        assert json.loads(out)["schema"] == 1

    def test_simulate_json_format(self, tmp_path):
        out_file = tmp_path / "tr.json"
        code, _ = run_cli("simulate", "--scenario", "oscillator", "--x0", "1,0",
                          "--t-end", "1.0", "--out", str(out_file),
                          "--format", "json")
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == 1
        tr = Trajectory.from_json_dict(payload)
        assert tr.dim == 2

    def test_determinism_identical_outputs(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _ = run_cli("pack", "--n", "3", "--seed", "4", "--t-end", "3",
                              "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_lyapunov_report(self):
        code, out = run_cli("lyapunov", "--scenario", "oscillator",
                            "--function", "energy_oscillator",
                            "--theorem", "thm1", "--grid=-1:1:21,-1:1:21")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "certified"
        assert payload["checked_points"] == 441
        assert payload["schema"] == 1

    @pytest.mark.parametrize("grid, axis", [
        ("-1:1:0,-1:1:3", 0), ("-1:1:3,-1:nan:3", 1), ("-1:1:3,-1:1", 1)])
    def test_lyapunov_rejects_a_bad_grid_axis(self, grid, axis, capsys):
        code = main(["lyapunov", "--scenario", "oscillator", "--function",
                     "energy_oscillator", "--theorem", "thm1", f"--grid={grid}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ValueError: grid axis {axis}:")

    @pytest.mark.parametrize("grid, extra, message", [
        ("-1:1:3,-1:1:3", ["--exclude-band", "0.1", "--exclude-axes", "5"],
         "--exclude-axes: axis 5 is not in 0..1"),
        ("-1:1:3,-1:1:3", ["--exclude-band", "0.1", "--exclude-axes=-1"],
         "--exclude-axes: axis -1 is not in 0..1"),
        ("-1:1:1001,-1:1:1001", ["--exclude-band", "0.1"], "grid has 1002001 points"),
        ("-1:1:3,-1:1:3", ["--exclude-axes", "5"], "--exclude-axes needs --exclude-band"),
    ], ids=["axis-5", "axis-minus-1", "grid-cap", "axes-without-band"])
    def test_lyapunov_rejects_an_out_of_range_grid_option(self, grid, extra, message, capsys):
        # An axis of 5 was an IndexError traceback, and -1 excluded the last
        # axis.  Axes without a band were dropped, and the run certified.
        code = main(["lyapunov", "--scenario", "oscillator", "--function", "energy_oscillator",
                     "--theorem", "thm1", f"--grid={grid}", *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ValueError: {message}")

    def test_lyapunov_fully_excluded_grid_is_inconclusive(self):
        code, out = run_cli("lyapunov", "--scenario", "oscillator",
                            "--function", "energy_oscillator", "--theorem", "thm1",
                            "--grid=-1:1:5,-1:1:5", "--exclude-band", "10")
        assert code == 0
        payload = json.loads(out)
        assert (payload["verdict"], payload["checked_points"]) == ("inconclusive", 0)
        assert payload["failed_clause"] == "empty-grid"

    def test_lyapunov_prop13w_cart(self):
        code, out = run_cli("lyapunov", "--scenario", "cart",
                            "--function", "cart_lyapunov",
                            "--theorem", "prop13w", "--grid=-1:1:15,-1:1:15",
                            "--exclude-band", "1e-6", "--exclude-axes", "0")
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_sample_hold_command(self):
        code, out = run_cli("sample-hold", "--scenario", "cart",
                            "--x0", "0.6,0.3", "--diam", "0.01", "--t-end", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["final_norm"] < 0.7

    def test_pack_reports_radius(self, tmp_path):
        code, out = run_cli("pack", "--n", "2", "--seed", "1", "--t-end", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["final_hsp"] >= payload["initial_hsp"] - 1e-9

    def test_pack_integrates_in_the_given_polygon(self, tmp_path):
        poly_file = tmp_path / "triangle.txt"
        poly_file.write_text("0 0\n3 0\n0 3\n")
        out_file = tmp_path / "pack.csv"
        code, out = run_cli("pack", "--n", "3", "--seed", "1", "--polygon", str(poly_file),
                            "--t-end", "0.5", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["final_hsp"] > payload["initial_hsp"]
        triangle = ConvexPolygon([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        tr = Trajectory.from_csv(out_file.read_text())
        for x in tr.states:
            assert all(triangle.contains_point(p) for p in x.reshape(3, 2))
        assert payload["final_hsp"] == hsp(triangle, tr.final_state.reshape(3, 2))

    def test_pack_rejects_a_negative_number_of_agents(self, capsys):
        assert main(["pack", "--n", "-1", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("ValueError: the number of agents n")

    def test_json_trajectory_feeds_plot_data(self, tmp_path):
        traj, table = tmp_path / "orbit.json", tmp_path / "orbit.dat"
        code, out = run_cli("simulate", "--scenario", "oscillator", "--x0", "1,0",
                            "--t-end", "1", "--format", "json", "--out", str(traj))
        assert code == 0
        samples = json.loads(out)["samples"]
        code, out = run_cli("plot-data", "--traj", str(traj), "--kind", "phase",
                            "--out", str(table))
        assert code == 0
        assert json.loads(out)["rows"] == samples
        assert len(table.read_text().splitlines()) == samples

    @pytest.mark.parametrize("argv", [
        ["consensus", "--graph", "1-2,2-3", "--variant", "sign", "--p0", "0,1,5", "--t-end", "1"],
        ["sample-hold", "--scenario", "cart", "--x0", "0.6,0.3", "--diam", "0.01",
         "--t-end", "0.5"],
    ], ids=["consensus", "sample-hold"])
    def test_out_file_ends_at_the_printed_final_state(self, argv, tmp_path):
        out_file = tmp_path / "run.csv"
        code, out = run_cli(*argv, "--out", str(out_file))
        assert code == 0
        tr = Trajectory.from_csv(out_file.read_text())
        assert tr.final_state.tolist() == json.loads(out)["final_state"]

    @pytest.mark.parametrize("name", ["consensus", "sphere_packing", "move_away_n"])
    def test_lyapunov_on_a_flow_scenario_is_unsupported(self, name, capsys):
        code = main(["lyapunov", "--scenario", name, "--function", "abs_sum",
                     "--theorem", "thm1", "--grid=-1:1:2,-1:1:2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("Unsupported:") and "Traceback" not in err

    def test_exit_codes(self, capsys):
        # Argument errors exit 2 through argparse.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "brick"])
        assert exc.value.code == 2
        # Model errors exit 1 and name the error.
        code = main(["simulate", "--scenario", "unknown", "--x0", "1",
                     "--t-end", "1", "--out", "/tmp/never.csv"])
        assert code == 1
        assert "Model" in capsys.readouterr().err
        code = main(["gradient", "--function", "smq", "--point", "5,5,5"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["sample-hold", "--scenario", "cart", "--x0", "0.6,0.3", "--diam", "0", "--t-end", "1"],
        ["sample-hold", "--scenario", "cart", "--x0", "0.6,0.3", "--diam", "-0.5",
         "--t-end", "1"],
        ["sample-hold", "--scenario", "cart", "--x0", "0.6,0.3", "--diam", "0.1",
         "--t-end", "inf"],
        ["plot-data", "--traj", "EMPTY", "--kind", "time", "--out", "OUT"],
        ["plot-data", "--traj", "SHORT", "--kind", "time", "--out", "OUT"],
        ["simulate", "--scenario", "brick", "--const", "theta", "--x0", "1", "--t-end", "1",
         "--out", "OUT"],
    ], ids=["zero-diam", "negative-diam", "infinite-t-end", "empty-csv", "short-row",
            "const-without-value"])
    def test_bad_schedule_or_trajectory_file_exits_1(self, argv, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        short = tmp_path / "short.csv"
        short.write_text("t,x1,mode,event\n0.0,1.0\n")
        files = {"EMPTY": str(empty), "SHORT": str(short), "OUT": str(tmp_path / "o.dat")}
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError:") and "Traceback" not in err

    def test_simulate_rejects_removed_settings(self, tmp_path, capsys):
        # Neither a run-config key nor a flag outside the integrator's
        # settings ends in a traceback.
        cfg_file = tmp_path / "run.json"
        out = str(tmp_path / "never.csv")
        for key, value in (("rk_order", 4), ("stall_window", 20), ("sliding_exit_margin", 1e-6)):
            cfg_file.write_text(json.dumps({"scenario": "brick", "x0": [1.0], "t_end": 0.1,
                                            "cfg": {key: value}}))
            assert main(["simulate", "--config", str(cfg_file), "--out", out]) == 1
            assert key in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "brick", "--x0", "1", "--t-end", "0.1",
                  "--out", out, "--seed", "3"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("argv, flag", [
        (["--scenario", "oscillator", "--t-end", "1"], "--x0"),
        (["--scenario", "oscillator", "--x0=", "--t-end", "1"], "--x0"),
        (["--scenario", "oscillator", "--x0", "1,0"], "--t-end"),
    ], ids=["no-x0", "empty-x0", "no-t-end"])
    def test_simulate_without_a_start_or_horizon_names_the_flag(self, argv, flag, tmp_path,
                                                                 capsys):
        # Each used to exit 1 with a bare KeyError: 'x0' or 't_end'.
        out = tmp_path / "never.csv"
        assert main(["simulate", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Unsupported:") and flag in err and "--config" in err
        assert not out.exists()
        # A config that holds the missing key is enough.
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"x0": [1.0, 0.0], "t_end": 0.01}))
        assert main(["simulate", *argv, "--config", str(cfg_file), "--out", str(out)]) == 0

    @pytest.mark.parametrize("band", ["nan", "inf", "-1"])
    def test_lyapunov_rejects_a_band_that_excludes_nothing(self, band, capsys):
        # --exclude-band nan certified all 9 points of a grid that read
        # "excluded": true.
        code = main(["lyapunov", "--scenario", "oscillator", "--function", "energy_oscillator",
                     "--theorem", "thm1", "--grid=-1:1:3,-1:1:3", "--exclude-band", band,
                     "--exclude-axes", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: exclusion band") and "Traceback" not in err

    @pytest.mark.parametrize("argv,err", [
        (["--theorem", "thm1", "--tol", "nan"], "ValueError: tol=nan"),
        (["--theorem", "thm1p", "--margin", "nan"], "ValueError: tol=1e-09 and margin=nan"),
        (["--theorem", "prop13w", "--tol", "nan"], "ValueError: tol=nan"),
        (["--theorem", "thm1", "--equilibrium", "nan,nan"], "ValueError: equilibrium"),
    ], ids=["tol", "margin", "prop13w-tol", "equilibrium"])
    def test_lyapunov_rejects_a_value_that_is_not_finite(self, argv, err, capsys):
        # Each exited 0: a NaN tol or margin falsified the first point, and
        # a NaN equilibrium certified 9 of 9 points with offset NaN.
        code = main(["lyapunov", "--scenario", "oscillator", "--function", "energy_oscillator",
                     "--grid=-1:1:3,-1:1:3", *argv])
        assert code == 1
        text = capsys.readouterr().err
        assert text.startswith(err) and "Traceback" not in text

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_consensus_rejects_a_spread_tolerance_no_spread_meets(self, tol, capsys):
        # --spread-tol nan exited 0 with consensus_value null.
        code = main(["consensus", "--graph", "1-2", "--variant", "norm", "--p0", "0,1",
                     "--spread-tol", tol, "--t-end", "0.1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError: spread_tol must be finite")

    @pytest.mark.parametrize("diam", ["1e-300", "5e-324"])
    def test_sample_hold_caps_the_partition(self, diam, capsys):
        # 1e-300 escaped as numpy's "Maximum allowed size exceeded", and
        # 5e-324 as an OverflowError traceback.
        code = main(["sample-hold", "--scenario", "cart", "--x0", "0.5,0.1", "--diam", diam,
                     "--t-end", "0.3"])
        assert code == 1
        assert "more than 1000000 intervals" in capsys.readouterr().err


class TestPlotData:
    def test_phase_closed_orbit(self, tmp_path):
        tr = get_scenario("oscillator").simulate([1.0, 0.0], 4.0 * np.sqrt(2.0),
                                                 IntegratorConfig(dt_max=1e-3))
        text = emit_plot_data(tr, "phase")
        rows = [r for r in text.splitlines() if r]
        first = np.array([float(v) for v in rows[0].split()])
        last = np.array([float(v) for v in rows[-1].split()])
        assert np.linalg.norm(first - last) <= 1e-3

    def test_time_table_monotone_after_stop(self):
        tr = get_scenario("brick").simulate([1.0], 0.6)
        text = emit_plot_data(tr, "time")
        rows = [[float(v) for v in r.split()] for r in text.splitlines() if r]
        decel = 9.8 * (np.cos(np.pi / 6) - np.sin(np.pi / 6))
        t_star = 1.0 / decel
        tail = [r[1] for r in rows if r[0] >= t_star + 1e-3]
        assert max(abs(v) for v in tail) <= 1e-8

    def test_level_overlay_grid_vanishes_only_at_origin(self):
        sc = get_scenario("oscillator")
        trajectory = sc.simulate([0.4, 0.0], 1.0)
        f = make_function("cart_lyapunov")
        text = emit_plot_data(trajectory, "level_overlay", f, grid_n=21)
        grid_rows = [r for r in text.splitlines() if len(r.split()) == 3]
        assert grid_rows, "grid block missing"
        vals = np.array([[float(v) for v in r.split()] for r in grid_rows])
        assert np.all(np.isfinite(vals))
        for row in vals[np.abs(vals[:, 2]) <= 1e-12]:
            assert np.linalg.norm(row[:2]) <= 1e-9
        # Nonzero away from the origin on the sampled grid.
        away = vals[np.linalg.norm(vals[:, :2], axis=1) > 1e-6]
        assert np.all(away[:, 2] > 0.0)

    def test_phase_needs_planar_data(self):
        tr = get_scenario("brick").simulate([1.0], 0.2)
        from nsds.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            emit_plot_data(tr, "phase")


def state_dim(model) -> int:
    if isinstance(model, MoveAwayLaw):
        return 2 * model.n
    if isinstance(model, Graph):
        return model.n
    return model.dim


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_through_the_cli(name, tmp_path, capsys):
    """Each command ends in exit 0 or a named error, never a traceback: a
    piecewise or control model has a direction set, a piecewise or flow
    model has dynamics to simulate."""
    sc = get_scenario(name)
    model = sc.build()
    dim = state_dim(model)
    has_set = isinstance(model, (PiecewiseField, ControlField))
    has_flow = not isinstance(model, ControlField)
    point = ",".join(repr(0.05 * (k + 1) - 0.25) for k in range(dim))
    grid = ",".join(["-0.5:0.5:2"] * dim)
    runs = [
        (["filippov-set", "--scenario", name, f"--point={point}"], has_set),
        (["lyapunov", "--scenario", name, "--function", sc.lyapunov or "abs_sum",
          "--theorem", "thm1", f"--grid={grid}"], has_set),
        (["simulate", "--scenario", name, f"--x0={point}", "--t-end", "0.01",
          "--out", str(tmp_path / "tr.csv")], has_flow),
    ]
    for argv, supported in runs:
        code, _ = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == (0 if supported else 1), (argv, err)
        if not supported:
            assert err.startswith("Unsupported:"), err


def _src_env() -> dict:
    # A child does not see pytest's pythonpath setting, so it is handed the
    # source tree and runs from a checkout without an installed package.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + inherited if inherited else src}


def test_cli_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "nsds.cli", "gradient", "--function", "abs",
         "--point", "2"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["vertices"] == [[1.0]]


def test_package_and_cli_never_import_scipy():
    code = ("import sys, nsds, nsds.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
