"""End-to-end CLI behavior: subcommands, file formats, determinism, demos."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import growing_states
from localspec import (LinearSystem, generate_sbm, is_strongly_connected, normalized_laplacian,
                       simulate, spectral)
from localspec.cli import _cluster, build_parser, main
from localspec.io import example1_path, load_system, load_trajectory, save_trajectory


def run(*argv):
    return main([str(a) for a in argv])


def run_fresh(*argv):
    """``python argv...`` in a new interpreter that imports this checkout's localspec."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=300)


# every file a demo writes besides its manifest
DEMO_PAYLOADS = {
    "fig1": ("system.json", "trajectory.csv", "eigenvalues.csv", "analysis.json"),
    "fig2": ("adjacency.json", "system.json", "trajectory.csv",
             "laplacian_spectrum.csv", "components.csv", "labels.json"),
    "fig3": ("coupled_system.json", "trajectory.csv", "comparison.json"),
}


class TestOptionSurface:
    """Each command registers exactly the options it reads."""

    def _parameters(self, manifest_path):
        return set(json.loads(manifest_path.read_text())["parameters"])

    def test_manifest_parameters_per_command(self, tmp_path):
        sys_file, traj = tmp_path / "bip.json", tmp_path / "t.csv"
        assert run("generate", "bipartite", "--out", sys_file, "--quiet") == 0
        assert self._parameters(tmp_path / "bip.json.manifest.json") == {
            "command", "kind", "sizes", "intra_p", "inter_p", "intra_weight",
            "inter_weight", "adjacency", "wave_speed", "dim", "out", "seed",
        }
        assert run("simulate", sys_file, "--steps", "24", "--x0-seed", "7",
                   "--out", traj, "--quiet") == 0
        assert self._parameters(tmp_path / "t.csv.manifest.json") == {
            "command", "system", "steps", "x0", "x0_seed", "lift", "out",
        }
        rep = tmp_path / "loc.json"
        assert run("localizability", sys_file, "--all", "--out", rep, "--quiet") == 0
        assert self._parameters(tmp_path / "loc.json.manifest.json") == {
            "command", "system", "vertex", "all", "out", "tol_rank",
        }
        rep = tmp_path / "rep.json"
        assert run("analyze", traj, "--vertex", "1", "--out", rep, "--quiet") == 0
        assert self._parameters(tmp_path / "rep.json.manifest.json") == {
            "command", "trajectory", "vertex", "delays", "gap", "max_k", "out", "tol_rank",
            "tol_distinct",
        }
        labels = tmp_path / "labels.json"
        assert run("cluster", traj, "--k", "2", "--out", labels, "--quiet") == 0
        assert self._parameters(tmp_path / "labels.json.manifest.json") == {
            "command", "trajectory", "k", "delays", "components_out", "out",
            "tol_rank", "tol_distinct",
        }
        outdir = tmp_path / "fig1"
        assert run("demo", "fig1", "--outdir", outdir, "--quiet") == 0
        assert self._parameters(outdir / "manifest.json") == {
            "command", "name", "outdir", "seed",
        }

    @pytest.mark.parametrize("argv", [
        ("generate", "random", "--tol-rank", "1e-8"),
        ("generate", "random", "--tol-distinct", "1e-8"),
        ("simulate", "s.json", "--steps", "3", "--seed", "3"),
        ("simulate", "s.json", "--steps", "3", "--tol-rank", "1e-8"),
        ("simulate", "s.json", "--steps", "3", "--tol-distinct", "1e-8"),
        ("localizability", "s.json", "--seed", "3"),
        ("localizability", "s.json", "--tol-distinct", "1e-8"),
        ("analyze", "t.csv", "--seed", "3"),
        # analyze always reports bipartiteness and the components the data determine
        ("analyze", "t.csv", "--no-bipartite", "--quiet"),
        ("analyze", "t.csv", "--no-components", "--quiet"),
        ("cluster", "t.csv", "--seed", "3"),
        ("demo", "fig1", "--out", "x"),
        ("demo", "fig1", "--tol-rank", "1e-8"),
        ("demo", "fig1", "--tol-distinct", "1e-8"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_option_rejected_by_argparse(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_option_count(self):
        commands = next(a for a in build_parser()._actions if a.choices).choices.values()
        options = [a for p in commands for a in p._actions
                   if a.option_strings and a.dest != "help"]
        assert len(options) == 40


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_intact(self, tmp_path, capsys):
        sys_file, rep = tmp_path / "bip.json", tmp_path / "loc.json"
        assert run("generate", "bipartite", "--out", sys_file, "--quiet") == 0
        with pytest.raises(SystemExit) as info:
            run("localizability", sys_file, "--vertex", "1", "--bogus")
        assert info.value.code == 2
        assert run("localizability", sys_file, "--vertex", "2", "--out", rep, "--quiet") == 0
        params = json.loads((tmp_path / "loc.json.manifest.json").read_text())["parameters"]
        assert params["vertex"] == 2 and params["all"] is False
        assert [r["vertex"] for r in json.loads(rep.read_text())["reports"]] == [2]


@pytest.fixture
def bipartite_files(tmp_path, monkeypatch, capsys):
    """Run in ``tmp_path`` beside bip.json (the bipartite fixture) and t.csv (its trajectory)."""
    monkeypatch.chdir(tmp_path)
    assert run("generate", "bipartite", "--out", "bip.json", "--quiet") == 0
    assert run("simulate", "bip.json", "--steps", "24", "--x0-seed", "7",
               "--out", "t.csv", "--quiet") == 0
    assert capsys.readouterr() == ("", "")


# argv, the option naming its output, the output without it, and the summary
# printed for that output (None: the command prints its JSON report)
STDOUT_CASES = [
    (["generate", "bipartite"], "--out", "bipartite.json", "wrote {}\n"),
    (["simulate", "bip.json", "--steps", "24", "--x0-seed", "7"], "--out", "trajectory.csv",
     "wrote {} (25 states of dimension 6)\n"),
    (["localizability", "bip.json", "--vertex", "2"], "--out", None, None),
    (["analyze", "t.csv", "--vertex", "1"], "--out", None, None),
    (["cluster", "t.csv", "--k", "2"], "--out", "labels.json",
     "2 clusters over 6 vertices -> {}\n"),
    (["demo", "fig1"], "--outdir", "demo_fig1", "wrote demo bundle to {}\n"),
]

# argv, then the manifest it writes and that manifest's command, seed, inputs, outputs
MANIFEST_CASES = [
    (["generate", "bipartite", "--out", "g.json"],
     "g.json.manifest.json", "generate bipartite", 0, [], ["g.json"]),
    (["generate", "sbm", "--seed", "4", "--out", "w.json"],
     "w.json.manifest.json", "generate sbm", 4, [], ["w.json"]),
    (["simulate", "bip.json", "--steps", "5", "--x0-seed", "7", "--out", "s.csv"],
     "s.csv.manifest.json", "simulate", 7, ["bip.json"], ["s.csv"]),
    (["simulate", "bip.json", "--steps", "5", "--x0", "1,2,3,4,5,6", "--out", "s.csv"],
     "s.csv.manifest.json", "simulate", None, ["bip.json"], ["s.csv"]),
    (["localizability", "bip.json", "--out", "loc.json"],
     "loc.json.manifest.json", "localizability", None, ["bip.json"], ["loc.json"]),
    (["analyze", "t.csv", "--gap", "--out", "rep.json"],
     "rep.json.manifest.json", "analyze", None, ["t.csv"], ["rep.json"]),
    (["cluster", "t.csv", "--k", "2", "--out", "lab.json"],
     "lab.json.manifest.json", "cluster", None, ["t.csv"], ["lab.json", "lab_components.csv"]),
    (["demo", "fig2", "--seed", "3", "--outdir", "d"],
     "d/manifest.json", "demo fig2", 3, [], [f"d/{name}" for name in DEMO_PAYLOADS["fig2"]]),
]


class TestEpilogue:
    """What each command prints, and the manifest beside what it writes."""

    @pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
    @pytest.mark.parametrize("out", [False, True], ids=["default", "out"])
    @pytest.mark.parametrize("argv, option, default, summary", STDOUT_CASES,
                             ids=[case[0][0] for case in STDOUT_CASES])
    def test_stdout(self, bipartite_files, capsys, argv, option, default, summary, out, quiet):
        if summary is None:  # the report text, as --out writes it
            assert run(*argv, "--out", "report.json", "--quiet") == 0
            expected = "" if quiet and out else Path("report.json").read_text()
        else:
            expected = "" if quiet else summary.format("given" if out else default)
        given = [option, "given"] if out else []
        assert run(*argv, *given, *(["--quiet"] if quiet else [])) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv, path, command, seed, inputs, outputs", MANIFEST_CASES,
                             ids=[" ".join(case[0][:2]) for case in MANIFEST_CASES])
    def test_manifest(self, bipartite_files, argv, path, command, seed, inputs, outputs):
        assert run(*argv, "--quiet") == 0
        manifest = json.loads(Path(path).read_text())
        assert (manifest["command"], manifest["seed"]) == (command, seed)
        assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)

    def test_a_report_printed_alone_writes_no_manifest(self, bipartite_files, tmp_path):
        before = set(tmp_path.iterdir())
        assert run("localizability", "bip.json", "--quiet") == 0
        assert run("analyze", "t.csv", "--quiet") == 0
        assert set(tmp_path.iterdir()) == before


class TestOptionValues:
    def _trajectory(self, tmp_path):
        sys_file, traj = tmp_path / "bip.json", tmp_path / "t.csv"
        assert run("generate", "bipartite", "--out", sys_file, "--quiet") == 0
        assert run("simulate", sys_file, "--steps", "24", "--x0-seed", "7",
                   "--out", traj, "--quiet") == 0
        return traj

    @pytest.mark.parametrize("command", ["analyze", "cluster"])
    def test_zero_delays_rejected(self, tmp_path, capsys, command):
        traj = self._trajectory(tmp_path)
        assert run(command, traj, "--delays", "0", "--out", tmp_path / "r.json",
                   "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "delay count s must be at least 1", "type": "ValueError"}
        assert not (tmp_path / "r.json").exists()

    def test_max_k_without_gap_rejected(self, tmp_path, capsys):
        traj = self._trajectory(tmp_path)
        assert run("analyze", traj, "--max-k", "3", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "--gap" in err["error"]
        assert run("analyze", traj, "--max-k", "3", "--gap", "--quiet") == 0

    @pytest.mark.parametrize("vertex", [0, 7])
    def test_vertex_out_of_range_rejected(self, tmp_path, capsys, vertex):
        # the fixture has 6 vertices; unchecked, --vertex 0 would read column -1
        traj = self._trajectory(tmp_path)
        assert run("analyze", traj, "--vertex", vertex, "--out", tmp_path / "r.json",
                   "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"vertex {vertex} out of range 1..6", "type": "ValueError"}
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_cluster_count_below_one_rejected(self, tmp_path, capsys, k):
        traj = self._trajectory(tmp_path)
        assert run("cluster", traj, "--k", k, "--out", tmp_path / "l.json", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "--k" in err["error"]
        assert not (tmp_path / "l.json").exists()

    def test_non_integer_cluster_count_rejected(self, tmp_path, capsys):
        traj = self._trajectory(tmp_path)
        assert run("cluster", traj, "--k", "2.5", "--out", tmp_path / "l.json", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert "--k" in err["error"] and "'auto'" in err["error"] and "'2.5'" in err["error"]
        assert not (tmp_path / "l.json").exists()

    def test_non_integer_block_size_rejected(self, tmp_path, capsys):
        assert run("generate", "sbm", "--sizes", "5,x", "--out", tmp_path / "w.json",
                   "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "--sizes" in err["error"] and "'x'" in err["error"]

    def test_non_numeric_initial_state_rejected(self, tmp_path, capsys):
        sys_file = tmp_path / "id.json"
        sys_file.write_text('{"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]]}')
        assert run("simulate", sys_file, "--steps", "2", "--x0", "1,abc",
                   "--out", tmp_path / "t.csv", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "--x0" in err["error"] and "'abc'" in err["error"]
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_random_dimension_below_one_rejected(self, tmp_path, capsys, dim):
        out = tmp_path / "r.json"
        assert run("generate", "random", "--dim", dim, "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and "--dim" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value", [
        ("localizability", "--tol-rank", "nan"),
        ("analyze", "--tol-rank", "-1"),
        ("analyze", "--tol-distinct", "0"),
        ("cluster", "--tol-rank", "inf"),
        ("cluster", "--tol-distinct", "-inf"),
    ])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, command,
                                                  option, value):
        sys_file, traj = tmp_path / "bip.json", self._trajectory(tmp_path)
        target = sys_file if command == "localizability" else traj
        with pytest.raises(SystemExit) as info:
            run(command, target, f"{option}={value}", "--out", tmp_path / "r.json",
                "--quiet")
        assert info.value.code == 2
        assert f"argument {option}: must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestTableFormat:
    def test_every_cli_table_has_an_integer_key_and_17_digit_floats(self, tmp_path):
        sys_file, traj = tmp_path / "bip.json", tmp_path / "t.csv"
        assert run("generate", "bipartite", "--out", sys_file, "--quiet") == 0
        assert run("simulate", sys_file, "--steps", "24", "--x0-seed", "7",
                   "--out", traj, "--quiet") == 0
        assert run("cluster", traj, "--k", "2", "--out", tmp_path / "labels.json",
                   "--quiet") == 0
        tables = [traj, tmp_path / "labels_components.csv"]
        for fig, names in DEMO_PAYLOADS.items():
            assert run("demo", fig, "--outdir", tmp_path / fig, "--quiet") == 0
            tables += [tmp_path / fig / name for name in names if name.endswith(".csv")]
        assert len(tables) == 8
        for path in tables:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                assert row[0] == str(int(row[0])), path
                assert all(x == format(float(x), ".17g") for x in row[1:]), path


class TestGenerate:
    def test_sbm_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("generate", "sbm", "--sizes", "5,5,5", "--seed", "7", "--out", a, "--quiet") == 0
        assert run("generate", "sbm", "--sizes", "5,5,5", "--seed", "7", "--out", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bipartite_system(self, tmp_path):
        out = tmp_path / "bip.json"
        assert run("generate", "bipartite", "--out", out, "--quiet") == 0
        sys = load_system(out)
        assert sys.n == 6
        manifest = json.loads((tmp_path / "bip.json.manifest.json").read_text())
        assert manifest["command"] == "generate bipartite"
        assert "seed" in manifest["parameters"]
        assert "duration_seconds" in manifest["timing"]

    def test_coupled_records_epsilon(self, tmp_path):
        out = tmp_path / "coupled.json"
        assert run("generate", "coupled", "--seed", "3", "--out", out, "--quiet") == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "coupled"
        assert data["epsilon"] == 0.1
        assert data["d"] == 4

    def test_wave_consumes_adjacency(self, tmp_path):
        adj = tmp_path / "adj.json"
        run("generate", "sbm", "--sizes", "3,3", "--intra-p", "1.0", "--inter-p", "0.5",
            "--seed", "4", "--out", adj, "--quiet")
        out = tmp_path / "wave.json"
        assert run("generate", "wave", "--adjacency", adj, "--wave-speed", "1.0",
                   "--out", out, "--quiet") == 0
        wave = load_system(out)
        assert wave.n == 12
        eigs = np.linalg.eigvals(wave.a)
        assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-6

    def test_bad_params_exit_nonzero(self, tmp_path, capsys):
        code = run("generate", "sbm", "--sizes", "1,2", "--intra-p", "1.0",
                   "--inter-p", "0.0", "--out", tmp_path / "x.json", "--quiet")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "type" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["--intra-weight", "--inter-weight"])
    def test_non_finite_weight_fails_without_writing(self, tmp_path, capsys, option, bad):
        out = tmp_path / "sbm.json"
        assert run("generate", "sbm", "--sizes", "3,3", option, bad,
                   "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert f"{option[2:].replace('-', '_')} must be finite" in err["error"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_wave_speed_fails_without_writing(self, tmp_path, capsys, bad):
        adj = tmp_path / "adj.json"
        assert run("generate", "sbm", "--sizes", "3,3", "--out", adj, "--quiet") == 0
        out = tmp_path / "wave.json"
        assert run("generate", "wave", "--adjacency", adj, "--wave-speed", bad,
                   "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert "wave speed must be finite" in err["error"]
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


    def test_non_finite_adjacency_weight_fails_without_writing(self, tmp_path, capsys):
        adj = tmp_path / "adj.json"
        assert run("generate", "sbm", "--sizes", "3,3", "--out", adj, "--quiet") == 0
        data = json.loads(adj.read_text())
        data["W"][0][1] = float("nan")
        adj.write_text(json.dumps(data))
        out = tmp_path / "wave.json"
        assert run("generate", "wave", "--adjacency", adj, "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "adjacency weights must be finite", "type": "ValueError"}
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


# JSON integer text beyond the largest double, about 1.8e308
HUGE = "1" + "0" * 400


class TestEntriesOutsideTheFloatRange:
    @pytest.mark.parametrize("entry", [HUGE, f'"{HUGE}/3"'], ids=["integer", "rational"])
    @pytest.mark.parametrize("argv", [
        ("localizability", "--all"),
        ("simulate", "--steps", "5", "--x0-seed", "1"),
    ], ids=["localizability", "simulate"])
    def test_system_file_fails_naming_the_entry(self, tmp_path, capsys, argv, entry):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(f'{{"A": [[0.5, {entry}], [1, 0.5]]}}')
        out = tmp_path / "out.file"
        assert run(argv[0], sys_file, *argv[1:], "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "'A' row 1 entry 2: value is outside the float range",
                       "type": "ValueError"}
        assert not out.exists()

    @pytest.mark.parametrize("entry", [HUGE, f'"-{HUGE}/3"'], ids=["integer", "rational"])
    def test_adjacency_file_fails_naming_the_entry(self, tmp_path, capsys, entry):
        adj = tmp_path / "adj.json"
        adj.write_text(f'{{"W": [[0, 1], [{entry}, 0]]}}')
        out = tmp_path / "wave.json"
        assert run("generate", "wave", "--adjacency", adj, "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "'W' row 2 entry 1: value is outside the float range",
                       "type": "ValueError"}
        assert not out.exists()


class TestNonFiniteCoupledFields:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--steps", "5", "--x0-seed", "1"),
        ("simulate", "--steps", "5", "--x0-seed", "1", "--lift"),
        ("simulate", "--steps", "0", "--x0-seed", "1"),
        ("localizability", "--all"),
    ], ids=["simulate", "lift", "zero-steps", "localizability"])
    @pytest.mark.parametrize("field, bad", [
        ("alpha", float("nan")), ("gamma", float("inf")), ("S", float("nan")),
        ("epsilon", float("-inf")),
    ])
    def test_rejected_naming_the_field(self, tmp_path, capsys, argv, field, bad):
        sys_file = tmp_path / "coupled.json"
        assert run("generate", "coupled", "--out", sys_file, "--quiet") == 0
        data = json.loads(sys_file.read_text())
        if field == "epsilon":
            data[field] = bad
        elif field == "S":
            data[field][0][1] = bad
        else:
            data[field][0] = bad
        sys_file.write_text(json.dumps(data))
        out = tmp_path / "out.file"
        assert run(argv[0], sys_file, *argv[1:], "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        name = "coupling" if field == "S" else field
        assert err == {"error": f"{name} must be finite", "type": "ValueError"}
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


class TestSimulate:
    def test_identity_constant_rows(self, tmp_path):
        sys_file = tmp_path / "id.json"
        sys_file.write_text('{"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]]}')
        out = tmp_path / "traj.csv"
        assert run("simulate", sys_file, "--steps", "5", "--x0", "2.5,-1.0",
                   "--out", out, "--quiet") == 0
        states = load_trajectory(out)
        assert np.array_equal(states, np.tile([2.5, -1.0], (6, 1)))

    def test_lift_matches_nonlinear(self, tmp_path):
        sys_file = tmp_path / "coupled.json"
        run("generate", "coupled", "--seed", "2", "--out", sys_file, "--quiet")
        direct, lifted = tmp_path / "direct.csv", tmp_path / "lifted.csv"
        assert run("simulate", sys_file, "--steps", "50", "--x0-seed", "9",
                   "--out", direct, "--quiet") == 0
        assert run("simulate", sys_file, "--steps", "50", "--x0-seed", "9",
                   "--lift", "--out", lifted, "--quiet") == 0
        nonlinear = load_trajectory(direct)
        lift = load_trajectory(lifted)
        assert lift.shape[1] == 12
        assert np.max(np.abs(lift[:, 0::3] - nonlinear[:, 0::2])) <= 1e-9
        assert np.max(np.abs(lift[:, 1::3] - nonlinear[:, 1::2])) <= 1e-9

    def test_dimension_mismatch_fails(self, tmp_path, capsys):
        sys_file = tmp_path / "id.json"
        sys_file.write_text('{"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]]}')
        assert run("simulate", sys_file, "--steps", "2", "--x0", "1.0",
                   "--out", tmp_path / "t.csv", "--quiet") == 1
        assert "error" in capsys.readouterr().err

    def test_overflow_fails_without_writing(self, tmp_path, capsys):
        sys_file = tmp_path / "big.json"
        sys_file.write_text('{"n": 1, "A": [[1e200]]}')
        out = tmp_path / "t.csv"
        assert run("simulate", sys_file, "--steps", "3", "--x0", "1e200",
                   "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert "step 1" in err["error"]
        assert not out.exists()

    def test_coupled_overflow_fails_without_writing(self, tmp_path, capsys):
        sys_file = tmp_path / "coupled.json"
        sys_file.write_text(
            '{"kind": "coupled", "d": 1, "alpha": [0.5], "beta": [1.0], '
            '"gamma": [2.0], "S": [[0]], "epsilon": 0.1}'
        )
        out = tmp_path / "t.csv"
        assert run("simulate", sys_file, "--steps", "3", "--x0", "1.0,1e200",
                   "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert "step 1" in err["error"]
        assert not out.exists()


class TestLocalizability:
    @pytest.mark.parametrize("which", ["left", "middle", "right"])
    def test_example1_fixtures_not_localizable(self, which, tmp_path):
        out = tmp_path / "rep.json"
        assert run("localizability", example1_path(which), "--vertex", "1",
                   "--out", out, "--quiet") == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report["localizable"] is False
        assert report["numeric_rank"] == 1

    def test_identity_false_everywhere(self, tmp_path):
        sys_file = tmp_path / "id.json"
        sys_file.write_text('{"n": 3, "A": [[1,0,0],[0,1,0],[0,0,1]]}')
        out = tmp_path / "rep.json"
        assert run("localizability", sys_file, "--all", "--out", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["localizable_everywhere"] is False
        assert all(not r["localizable"] for r in payload["reports"])

    def test_random_dense_true_everywhere(self, tmp_path):
        sys_file = tmp_path / "rand.json"
        run("generate", "random", "--dim", "6", "--seed", "12", "--out", sys_file, "--quiet")
        out = tmp_path / "rep.json"
        assert run("localizability", sys_file, "--out", out, "--quiet") == 0
        assert json.loads(out.read_text())["localizable_everywhere"] is True

    def test_coupled_epsilon_null_is_a_value_error(self, tmp_path, capsys):
        sys_file = tmp_path / "coupled.json"
        assert run("generate", "coupled", "--out", sys_file, "--quiet") == 0
        payload = json.loads(sys_file.read_text())
        sys_file.write_text(json.dumps({**payload, "epsilon": None}))
        out = tmp_path / "rep.json"
        assert run("localizability", sys_file, "--all", "--out", out, "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "'epsilon': entries must be numbers or 'p/q' strings, got None",
                       "type": "ValueError"}
        assert not out.exists()

    @pytest.mark.parametrize("seed, vertex", [(149, 9), (351, 17)])
    def test_one_vertex_report_is_the_all_vertex_entry(self, seed, vertex, tmp_path):
        # sparse systems whose staircase at this vertex sits near the cut:
        # run alone, the vertex got a rank other than its --all entry
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((18, 18)) / np.sqrt(18)
        a *= rng.random((18, 18)) < 0.15
        sys_file = tmp_path / "sparse.json"
        sys_file.write_text(json.dumps({"n": 18, "A": a.tolist()}))
        one, every = tmp_path / "one.json", tmp_path / "all.json"
        assert run("localizability", sys_file, "--vertex", str(vertex),
                   "--out", one, "--quiet") == 0
        assert run("localizability", sys_file, "--all", "--out", every, "--quiet") == 0
        [single] = json.loads(one.read_text())["reports"]
        entry = json.loads(every.read_text())["reports"][vertex - 1]
        assert json.dumps(single) == json.dumps(entry)

    def test_system_whose_r_overflows_is_answered(self, tmp_path, capfd):
        # the rows a12^T A22^l of R overflow by l = 1; the staircase scales A
        # first, and a12 = 1e200 (1, ..., 1) spans A22's Krylov space alone
        sys_file = tmp_path / "big.json"
        a = np.full((5, 5), 1e200)
        np.fill_diagonal(a, 0.5)
        sys_file.write_text(json.dumps({"n": 5, "A": a.tolist()}))
        out = tmp_path / "rep.json"
        assert run("localizability", sys_file, "--vertex", "1", "--out", out, "--quiet") == 0
        captured = capfd.readouterr()  # file descriptors, so LAPACK's own messages count
        assert captured.out == captured.err == ""
        [report] = json.loads(out.read_text())["reports"]
        assert list(report) == ["vertex", "margin", "numeric_rank", "localizable", "tolerance"]
        assert (report["numeric_rank"], report["localizable"]) == (1, False)
        assert report["margin"] < 1e-15


class TestAnalyze:
    def test_scalar_geometric(self, tmp_path):
        traj = tmp_path / "geo.csv"
        save_trajectory(traj, (0.5 ** np.arange(12))[:, None])
        out = tmp_path / "rep.json"
        assert run("analyze", traj, "--vertex", "1", "--delays", "1",
                   "--out", out, "--quiet") == 0
        report = json.loads(out.read_text())
        assert report["eigenvalues"][0]["re"] == pytest.approx(0.5, abs=1e-9)
        assert report["trace_estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_bipartite_flag_from_local_data(self, tmp_path):
        sys_file, traj = tmp_path / "bip.json", tmp_path / "traj.csv"
        run("generate", "bipartite", "--out", sys_file, "--quiet")
        run("simulate", sys_file, "--steps", "24", "--x0-seed", "7", "--out", traj, "--quiet")
        out = tmp_path / "rep.json"
        assert run("analyze", traj, "--vertex", "1", "--out", out, "--quiet") == 0
        assert json.loads(out.read_text())["bipartite"] is True

    def test_gap_detection_flag(self, tmp_path):
        traj = TestCluster()._bridged_cliques_trajectory(tmp_path)
        out = tmp_path / "rep.json"
        assert run("analyze", traj, "--vertex", "2", "--gap", "--out", out, "--quiet") == 0
        assert json.loads(out.read_text())["cluster_count"] == 2

    @pytest.mark.parametrize(
        "content", ["k,x1\n0,1.0\n1,nan\n", "k,x1,x2\n0,1.0,2.0\n1,3.0\n"],
        ids=["nan", "ragged"],
    )
    def test_bad_trajectory_fails_naming_the_line(self, tmp_path, capsys, content):
        traj = tmp_path / "bad.csv"
        traj.write_text(content)
        assert run("analyze", traj, "--vertex", "1", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert "line 3" in err["error"]

    def test_csv_field_beyond_the_reader_limit_fails_naming_the_line(self, tmp_path, capsys):
        traj = tmp_path / "long.csv"
        traj.write_text(f'k,x1\n0,1.0\n1,"{"0" * 140_000}1"\n')
        assert run("analyze", traj, "--vertex", "1", "--quiet") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "trajectory CSV line 3: field larger than field limit (131072)",
                       "type": "ValueError"}


# A localizable directed path 1 -> 2 -> 3 -> 4: every eigenvalue is 0, so
# the spectrum is bipartite and no vertex's components are determined.
PATH_SYSTEM = '{"n": 4, "A": [[0,0,0,0],[1,0,0,0],[0,1,0,0],[0,0,1,0]]}'


def path_trajectory(tmp_path):
    sys_file, traj = tmp_path / "path.json", tmp_path / "path.csv"
    sys_file.write_text(PATH_SYSTEM)
    assert run("simulate", sys_file, "--steps", "20", "--x0", "1,2,3,4",
               "--out", traj, "--quiet") == 0
    return traj


class TestCoincidingEigenvalues:
    def test_analyze_reports_without_components(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run("analyze", path_trajectory(tmp_path), "--vertex", "4",
                   "--out", out, "--quiet") == 0
        report = json.loads(out.read_text())
        assert report["eigenvalues"] == [{"re": 0.0, "im": 0.0}] * 4
        assert report["bipartite"] is True
        assert report["vertex_components"] == {}

    def test_cluster_fails_naming_a_vertex(self, tmp_path, capsys):
        traj = path_trajectory(tmp_path)
        out = tmp_path / "labels.json"
        assert run("cluster", traj, "--k", "2", "--out", out, "--quiet") == 1
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["type"] == "DegenerateSpectrumError"
        assert "vertex 1 " in err["error"]
        assert not out.exists() and not (tmp_path / "labels_components.csv").exists()


class TestCluster:
    def _bridged_cliques_trajectory(self, tmp_path):
        w = np.zeros((6, 6))
        for i in range(3):
            for j in range(3):
                if i != j:
                    w[i, j] = w[3 + i, 3 + j] = 1.0
        w[0, 3] = w[3, 0] = 0.05
        lap = normalized_laplacian(w)
        a = np.eye(6) - 0.5 * lap
        states = [np.random.default_rng(3).standard_normal(6)]
        for _ in range(60):
            states.append(a @ states[-1])
        traj = tmp_path / "traj.csv"
        save_trajectory(traj, np.array(states))
        return traj

    def test_two_weakly_joined_cliques(self, tmp_path):
        traj = self._bridged_cliques_trajectory(tmp_path)
        out = tmp_path / "labels.json"
        assert run("cluster", traj, "--k", "auto", "--out", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["cluster_count"] == 2
        labels = {entry["vertex"]: entry["cluster"] for entry in payload["labels"]}
        assert len({labels[v] for v in (1, 2, 3)}) == 1
        assert len({labels[v] for v in (4, 5, 6)}) == 1
        assert labels[1] != labels[4]
        comps = (tmp_path / "labels_components.csv").read_text().splitlines()
        assert comps[0].startswith("vertex,c1_re,c1_im")
        assert len(comps) == 7

    def test_components_match_single_vertex_analysis(self, tmp_path):
        traj = self._bridged_cliques_trajectory(tmp_path)
        out = tmp_path / "labels.json"
        assert run("cluster", traj, "--k", "2", "--out", out, "--quiet") == 0
        rows = (tmp_path / "labels_components.csv").read_text().splitlines()[1:]
        for v, row in enumerate(rows, start=1):
            rep = tmp_path / f"rep{v}.json"
            assert run("analyze", traj, "--vertex", v, "--out", rep, "--quiet") == 0
            comps = json.loads(rep.read_text())["vertex_components"][str(v)]
            values = [float(x) for x in row.split(",")[1:]]
            assert row.split(",")[0] == str(v)
            assert values == [part for c in comps for part in (c["re"], c["im"])]

    def test_components_out_writes_the_default_csv_at_the_given_path(self, tmp_path):
        traj = self._bridged_cliques_trajectory(tmp_path)
        assert run("cluster", traj, "--k", "2", "--out", tmp_path / "labels.json", "--quiet") == 0
        elsewhere = tmp_path / "other" / "labels.json"
        comps = tmp_path / "comps.csv"
        elsewhere.parent.mkdir()
        assert run("cluster", traj, "--k", "2", "--out", elsewhere,
                   "--components-out", comps, "--quiet") == 0
        assert comps.read_bytes() == (tmp_path / "labels_components.csv").read_bytes()
        assert not (elsewhere.parent / "labels_components.csv").exists()
        manifest = json.loads(Path(f"{elsewhere}.manifest.json").read_text())
        assert manifest["outputs"] == [str(elsewhere), str(comps)]

    def test_forced_single_cluster(self, tmp_path):
        traj = self._bridged_cliques_trajectory(tmp_path)
        out = tmp_path / "labels.json"
        assert run("cluster", traj, "--k", "1", "--out", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert {entry["cluster"] for entry in payload["labels"]} == {0}


class TestBipartiteMatchingWhereReported:
    """Bipartiteness is matched where a report prints it, and nowhere else."""

    def test_cluster_never_matches(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("cluster matched a spectrum against its negation")

        monkeypatch.setattr(spectral, "is_bipartite_spectrum", refuse)
        w = generate_sbm([4, 4, 4], 0.9, 0.1, 1.0, 0.2, seed=0)
        assert is_strongly_connected(w)
        a = np.eye(12) - 0.5 * normalized_laplacian(w)
        states = simulate(LinearSystem(a), np.random.default_rng(0).standard_normal(12),
                          120).states
        payload, comps, _ = _cluster(states, 12, 3)
        assert [e["cluster"] for e in payload["labels"]] == [0] * 4 + [1] * 4 + [2] * 4
        assert sorted(comps) == list(range(1, 13))

    def test_analyze_matches_once_and_prints_the_flag(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = spectral.is_bipartite_spectrum
        monkeypatch.setattr(spectral, "is_bipartite_spectrum",
                            lambda eigs: calls.append(eigs) or original(eigs))
        traj = TestOptionValues()._trajectory(tmp_path)  # the bipartite fixture
        assert run("analyze", traj, "--vertex", "1", "--gap") == 0
        out = capsys.readouterr().out
        assert '"bipartite": true' in out and json.loads(out)["bipartite"] is True
        assert len(calls) == 1


class TestDemos:
    def test_fig1_bundle(self, tmp_path):
        outdir = tmp_path / "fig1"
        assert run("demo", "fig1", "--seed", "11", "--outdir", outdir, "--quiet") == 0
        analysis = json.loads((outdir / "analysis.json").read_text())
        assert analysis["localizable_everywhere"] is True
        assert all(analysis["vertices"][v]["bipartite"] for v in ("1", "3", "5"))
        rows = (outdir / "eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "vertex,re,im"
        # negation symmetry of each estimated multiset
        for v in ("1", "3", "5"):
            eigs = np.array(
                [complex(e["re"], e["im"]) for e in analysis["vertices"][v]["eigenvalues"]]
            )
            from localspec import is_bipartite_spectrum

            assert is_bipartite_spectrum(eigs, tol=1e-6)

    def test_fig2_bundle(self, tmp_path):
        outdir = tmp_path / "fig2"
        assert run("demo", "fig2", "--seed", "0", "--outdir", outdir, "--quiet") == 0
        payload = json.loads((outdir / "labels.json").read_text())
        assert payload["cluster_count"] == 3
        labels = {e["vertex"]: e["cluster"] for e in payload["labels"]}
        assert len(labels) == 15
        sizes = sorted(
            sum(1 for v in labels.values() if v == c) for c in set(labels.values())
        )
        assert sizes == [5, 5, 5]
        spectrum_rows = (outdir / "laplacian_spectrum.csv").read_text().splitlines()
        assert spectrum_rows[0] == "index,mu_true,mu_estimated"
        assert len(spectrum_rows) == 16

    def test_fig2_labels_equal_cluster_auto_on_its_trajectory(self, tmp_path):
        outdir, out = tmp_path / "fig2", tmp_path / "labels.json"
        assert run("demo", "fig2", "--seed", "1", "--outdir", outdir, "--quiet") == 0
        assert run("cluster", outdir / "trajectory.csv", "--k", "auto", "--out", out,
                   "--quiet") == 0
        demo = json.loads((outdir / "labels.json").read_text())
        assert demo.pop("x0") and demo == json.loads(out.read_text())

    def test_fig3_bundle(self, tmp_path):
        outdir = tmp_path / "fig3"
        assert run("demo", "fig3", "--seed", "11", "--outdir", outdir, "--quiet") == 0
        comparison = json.loads((outdir / "comparison.json").read_text())
        assert comparison["lift_max_abs_deviation"] <= 1e-9
        assert comparison["localized_max_growth_normalized_error"] <= 1e-3
        # the report says the data leave some of the 3d weights undetermined
        model = comparison["model"]
        assert model["rank"] < model["s"] and 0.0 <= model["sigma_ratio"] <= 1e-10
        rows = (outdir / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "k,x11_nonlinear,x11_localized"
        sys = load_system(outdir / "coupled_system.json")
        assert sys.epsilon == 0.1

    @pytest.mark.parametrize("fig", sorted(DEMO_PAYLOADS))
    def test_demo_payloads_byte_identical_across_runs(self, tmp_path, fig):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run("demo", fig, "--seed", "5", "--outdir", d1, "--quiet") == 0
        assert run("demo", fig, "--seed", "5", "--outdir", d2, "--quiet") == 0
        for name in DEMO_PAYLOADS[fig]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        # manifests may differ only in the timing field
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        m1.pop("timing"), m2.pop("timing")
        m1.pop("parameters"), m2.pop("parameters")  # outdir path differs
        m1.pop("outputs"), m2.pop("outputs")
        assert m1 == m2


class TestFreshInterpreter:
    @pytest.mark.parametrize("command", [["analyze", "--vertex", "10"], ["cluster"]],
                             ids=["analyze", "cluster"])
    def test_series_beyond_1e154_leaves_stderr_empty(self, tmp_path, command):
        traj = tmp_path / "grow.csv"
        save_trajectory(traj, growing_states())
        done = run_fresh("-m", "localspec.cli", command[0], traj, *command[1:],
                         "--out", tmp_path / "out.json", "--quiet")
        assert (done.returncode, done.stderr) == (0, "")

    def test_no_command_imports_scipy(self, tmp_path):
        script = """
import sys
from localspec.cli import main
d = sys.argv[1]
for argv in [
    ["generate", "bipartite", "--out", f"{d}/bip.json"],
    ["simulate", f"{d}/bip.json", "--steps", "24", "--x0-seed", "7", "--out", f"{d}/t.csv"],
    ["localizability", f"{d}/bip.json", "--out", f"{d}/loc.json"],
    ["analyze", f"{d}/t.csv", "--out", f"{d}/rep.json"],
    ["cluster", f"{d}/t.csv", "--out", f"{d}/labels.json"],
    *(["demo", fig, "--outdir", f"{d}/{fig}"] for fig in ("fig1", "fig2", "fig3")),
]:
    assert main([*argv, "--quiet"]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        done = run_fresh("-c", script, tmp_path)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")
