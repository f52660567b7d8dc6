"""Command-line interface: output shapes, determinism, exit codes.

Most checks call main() in process for speed; a couple of subprocess
runs confirm the installed entry point emits byte-identical documents.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hetsis
from hetsis.cli import main

from conftest import subprocess_env


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_steady_triangle(capsys, triangle_file):
    code, out = run_cli(capsys, ["steady", "--graph", triangle_file, "--tau", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "endemic"
    assert np.allclose(doc["v_inf"], 0.5, atol=1e-9)
    assert abs(doc["y_inf"] - 0.5) < 1e-9
    assert doc["residual"] <= 1e-10
    assert set(doc["bounds"]) == {"lower", "upper", "y_lower", "y_upper", "informative", "satisfied"}


def test_steady_deterministic_output(capsys, triangle_file):
    argv = ["steady", "--graph", triangle_file, "--beta", "1.3", "--delta", "0.9"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_steady_critical_exits_3(capsys, triangle_file):
    code, out = run_cli(capsys, ["steady", "--graph", triangle_file, "--tau", "0.5"])
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "critical-threshold"
    assert "derivative undefined" in doc["detail"]


def test_missing_graph_file_exits_2(capsys):
    code, out = run_cli(capsys, ["steady", "--graph", "/nonexistent/g.edges", "--tau", "1.0"])
    assert code == 2
    assert json.loads(out)["error"] == "file-not-found"


def test_malformed_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    code, out = run_cli(capsys, ["steady", "--graph", str(bad), "--tau", "1.0"])
    assert code == 2
    assert "self-loop" in json.loads(out)["detail"]


def test_rate_option_conflicts(capsys, triangle_file, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"beta": [1, 1, 1], "delta": [1, 1, 1]}')
    code, out = run_cli(
        capsys,
        ["steady", "--graph", triangle_file, "--rates", str(rates), "--beta", "1.0"],
    )
    assert code == 2
    assert json.loads(out)["error"] == "conflicting-rates"

    code, out = run_cli(capsys, ["steady", "--graph", triangle_file, "--tau", "1.0", "--beta", "1.0"])
    assert code == 2
    assert json.loads(out)["error"] == "conflicting-rates"

    code, out = run_cli(capsys, ["steady", "--graph", triangle_file])
    assert code == 2
    assert json.loads(out)["error"] == "missing-rates"


def test_rates_file_reaches_solver(capsys, path3_file, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"beta": [2.0, 1.0, 2.0], "delta": [1.0, 1.0, 1.0]}')
    code, out = run_cli(capsys, ["steady", "--graph", path3_file, "--rates", str(rates)])
    assert code == 0
    assert json.loads(out)["regime"] == "endemic"


@pytest.mark.parametrize("beta", ['{"a": 1}', '"x"', '"2"', '["1", "2", "3"]', "[[1, 2], [3]]"])
def test_non_numeric_rates_file_exits_2(capsys, path3_file, tmp_path, beta):
    rates = tmp_path / "rates.json"
    rates.write_text(f'{{"beta": {beta}, "delta": 1}}')
    code, out = run_cli(capsys, ["steady", "--graph", path3_file, "--rates", str(rates)])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-rates"


def test_dynamics_csv_shape(capsys, triangle_file):
    argv = [
        "dynamics", "--graph", triangle_file, "--beta", "2.0", "--delta", "1.0",
        "--t-end", "5.0", "--max-points", "40",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,v0,v1,v2"
    assert 2 <= len(lines) - 1 <= 40
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(last[0]) == 5.0
    assert abs(float(last[1]) - 0.75) < 1e-6  # K3 tau=2 endemic level

    _, second = run_cli(capsys, argv)
    assert out == second


def test_dynamics_rejects_bare_tau(capsys, triangle_file):
    code, out = run_cli(capsys, ["dynamics", "--graph", triangle_file, "--tau", "2.0", "--t-end", "1.0"])
    assert code == 2
    assert json.loads(out)["error"] == "bare-tau-not-allowed"


def test_dynamics_v0_list(capsys, path3_file):
    argv = [
        "dynamics", "--graph", path3_file, "--beta", "2.0", "--delta", "1.0",
        "--t-end", "1.0", "--v0-list", "0.1,0.2,0.3",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,v0,v1,v2"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.1, 0.2, 0.3]

    code, out = run_cli(capsys, argv[:-1] + ["0.1,0.2"])
    assert code == 2
    assert "length" in json.loads(out)["detail"]


def test_threshold_document(capsys, triangle_file):
    argv = ["threshold", "--graph", triangle_file, "--tau", "0.75", "--direction", "1,1,1"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda_max_R"] - 1.5) < 1e-12
    assert doc["regime"] == "infected"
    assert abs(doc["s_star"] - 0.5) < 1e-10
    assert doc["tau_min"] == doc["tau_max"] == 0.75
    assert "spectral_lower" in doc["bound_ledger"]
    assert all(entry["satisfied"] for entry in doc["bound_ledger"].values())

    _, second = run_cli(capsys, argv)
    assert out == second


def test_threshold_malformed_direction_exits_2(capsys, triangle_file):
    code, out = run_cli(capsys, ["threshold", "--graph", triangle_file, "--tau", "0.75", "--direction", "1,x,1"])
    assert code == 2
    assert json.loads(out)["error"] == "parse-error"


def test_dynamics_malformed_v0_list_exits_2(capsys, path3_file):
    argv = ["dynamics", "--graph", path3_file, "--beta", "2.0", "--delta", "1.0", "--t-end", "1.0"]
    code, out = run_cli(capsys, argv + ["--v0-list", "0.5,abc,0.5"])
    assert code == 2
    assert json.loads(out)["error"] == "parse-error"


def test_dynamics_max_points_below_two_exits_2(capsys, triangle_file):
    argv = ["dynamics", "--graph", triangle_file, "--beta", "2.0", "--delta", "1.0", "--t-end", "1.0"]
    for value in ("1", "0"):
        code, out = run_cli(capsys, argv + ["--max-points", value])
        assert code == 2
        assert json.loads(out)["error"] == "invalid-argument"


def test_dynamics_full_resolution_keeps_every_step(capsys, triangle_file):
    argv = ["dynamics", "--graph", triangle_file, "--beta", "2.0", "--delta", "1.0", "--t-end", "60.0"]
    code, out = run_cli(capsys, argv + ["--max-points", "40", "--full-resolution"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    g = hetsis.parse_edge_list(Path(triangle_file).read_text())
    traj = hetsis.integrate(g, hetsis.RateConfig.for_graph(g, 2.0, 1.0), np.full(3, 0.9), 60.0, max_points=None)
    assert len(rows) == 1 + traj.steps > 40  # t = 0 and one row per accepted step
    assert [float(row.split(",")[0]) for row in rows] == traj.times.tolist()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dynamics_non_finite_dt_hint_exits_2(capsys, triangle_file, value):
    argv = ["dynamics", "--graph", triangle_file, "--beta", "2.0", "--delta", "1.0", "--t-end", "1.0"]
    code, out = run_cli(capsys, argv + [f"--dt-hint={value}"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-argument"


def test_kn_malformed_tau_list_exits_2(capsys):
    code, out = run_cli(capsys, ["kn", "--tau-list", "1,,2"])
    assert code == 2
    assert json.loads(out)["error"] == "parse-error"


def test_threshold_regimes(capsys, triangle_file):
    for tau, expected in (("0.4", "not_infected"), ("0.5", "critical"), ("0.6", "infected")):
        _, out = run_cli(capsys, ["threshold", "--graph", triangle_file, "--tau", tau])
        assert json.loads(out)["regime"] == expected


def test_sensitivity_document(capsys, triangle_file):
    argv = ["sensitivity", "--graph", triangle_file, "--tau", "1.0"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    d1 = np.array(doc["d1"])
    assert d1.shape == (3, 3)
    assert np.allclose(np.diag(d1), -0.3, atol=1e-9)
    assert np.allclose(np.array(doc["d2"])[0, 0], 0.256, atol=1e-8)
    assert doc["d1_tied"] is not None
    assert doc["convexity"][0][0] == "convex"
    assert all(entry["satisfied"] for entry in doc["inverse_ledger"].values())

    _, second = run_cli(capsys, argv)
    assert out == second


def test_sensitivity_tied_null_for_heterogeneous_delta(capsys, path3_file, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"beta": [2.0, 2.0, 2.0], "delta": [1.0, 0.8, 1.0]}')
    code, out = run_cli(capsys, ["sensitivity", "--graph", path3_file, "--rates", str(rates)])
    assert code == 0
    doc = json.loads(out)
    assert doc["d1_tied"] is None
    assert doc["d2_tied"] is None


def test_kn_document(capsys):
    argv = ["kn", "--tau-list", "1,2,3"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["tau"] == [1.0, 2.0, 3.0]
    assert abs(doc["lambda_max"] - 3.7664354838523195) < 1e-12
    assert doc["on_surface"] is False

    _, second = run_cli(capsys, argv)
    assert out == second


def test_kn_broadcast_and_mismatch(capsys):
    code, out = run_cli(capsys, ["kn", "--n", "4", "--tau-list", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == [0.5, 0.5, 0.5, 0.5]
    assert abs(doc["lambda_max"] - 1.5) < 1e-12

    code, out = run_cli(capsys, ["kn", "--n", "4", "--tau-list", "1,2"])
    assert code == 2
    assert json.loads(out)["error"] == "length-mismatch"


def test_invalid_numeric_options_exit_2(capsys, triangle_file):
    for argv in (
        ["kn", "--n", "-1", "--tau-list", "0.5"],
        ["steady", "--graph", triangle_file, "--tau", "1.5", "--tol", "0"],
        ["steady", "--graph", triangle_file, "--tau", "1.5", "--max-iter", "-1"],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"] == "invalid-argument"

def test_oracle_document(capsys, path3_file):
    argv = [
        "oracle", "--graph", path3_file, "--beta", "3.0", "--delta", "1.0",
        "--horizon", "8.0", "--burn-in", "2.0", "--replicas", "60", "--seed", "5",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["prevalence_mean"]) == 3
    assert doc["replicas"] == 60 and doc["seed"] == 5
    assert 0.0 < doc["survival_fraction"] <= 1.0
    assert len(doc["mean_field_prevalence"]) == 3
    assert doc["mean_field_y"] > 0.5

    _, second = run_cli(capsys, argv)
    assert out == second


def test_oracle_rejects_bare_tau(capsys, path3_file):
    code, out = run_cli(capsys, ["oracle", "--graph", path3_file, "--tau", "3.0"])
    assert code == 2
    assert json.loads(out)["error"] == "bare-tau-not-allowed"


def test_oracle_no_survivors_exits_3(capsys, path3_file):
    argv = [
        "oracle", "--graph", path3_file, "--beta", "0.1", "--delta", "1.0",
        "--horizon", "60.0", "--burn-in", "10.0", "--replicas", "10", "--seed", "0",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "no-surviving-replicas"
    assert doc["detail"] == "no surviving replicas; raise tau or shorten horizon"


def test_entry_point_byte_identical(triangle_file):
    argv = [sys.executable, "-m", "hetsis.cli", "steady", "--graph", triangle_file, "--tau", "1.5"]
    first = subprocess.run(argv, capture_output=True, check=True, env=subprocess_env())
    second = subprocess.run(argv, capture_output=True, check=True, env=subprocess_env())
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_import_and_mean_field_paths_leave_scipy_unloaded(triangle_file):
    # scipy.sparse adds about 0.2 s to start-up and serves only the exact
    # chain, which imports it on first use; scipy.linalg and scipy.integrate
    # are not used at all.  So neither the import nor any mean-field path,
    # CLI included, may load a scipy module; classify and critical_scaling run
    # on both sides of the Collatz-Wielandt crossover.
    code = (
        "import sys, contextlib, io, numpy as np, hetsis, hetsis.cli\n"
        "print(hetsis.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "g = hetsis.Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])\n"
        "r = hetsis.RateConfig.for_graph(g, 1.5, 1.0)\n"
        "hetsis.solve(g, r)\n"
        "hetsis.classify(g, r)\n"
        "hetsis.critical_scaling(g, np.ones(g.n))\n"
        "big = hetsis.Graph.from_edges([(0, i) for i in range(1, 160)])\n"
        "assert big.n >= hetsis.spectral._BRACKET_MIN_N\n"
        "assert hetsis.spectral._perron_bracket(hetsis.effective_adjacency(big, np.full(big.n, 0.4)))\n"
        "hetsis.classify(big, hetsis.RateConfig.from_tau(big, 0.4))\n"
        "hetsis.critical_scaling(big, np.linspace(0.5, 1.5, big.n))\n"
        "hetsis.integrate(g, r, np.full(g.n, 0.5), 2.0)\n"
        "hetsis.full_report(g, r)\n"
        "hetsis.convexity_verdicts(g, r)\n"
        "hetsis.optimal_curing_rate(g, r, 2, 0.2)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert hetsis.cli.main(['steady', '--graph', {triangle_file!r}, '--tau', '1.5']) == 0\n"
        f"    assert hetsis.cli.main(['dynamics', '--graph', {triangle_file!r}, '--beta', '2.0', '--delta', '1.0', '--t-end', '1.0']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    origin, after_import, after_calls = out.stdout.splitlines()
    assert Path(origin).resolve() == Path(hetsis.__file__).resolve()
    assert after_import == "[]"
    assert after_calls == "[]"
