"""Command-line interface: argument handling, exit codes, artifacts."""

import ast
import json
import logging
import os
import pathlib

import pytest

from degenlab import cli
from degenlab.cli import build_parser, main
from degenlab.solver import SolverError


class TestParsing:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("alpha", "mesh_levels", "k_levels", "seed", "out_dir"):
            assert key in out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_no_ucp_command(self, capsys):
        # the (5.2) chain is reported and gated by observe alone
        with pytest.raises(SystemExit) as exc:
            main(["ucp"])
        assert exc.value.code == 2

    def test_bad_override_format_is_config_error(self, capsys):
        rc = main(["converge", "--set", "alpha"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_value_is_config_error(self, capsys):
        rc = main(["converge", "--set", "alpha=2.5"])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, capsys):
        rc = main(["converge", "--set", "warp_factor=9"])
        assert rc == 2
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sample_count=0", "sample_count=1.5", "sample_count=true",
        "sampler_families=[]", "theta=0.3", "theta=1.5",
        "carleman_family_count=0", "carleman_sweep_samples=-1",
        "k_levels=[]", "mesh_levels=[]",
        "carleman_s=[0.5,4]", "carleman_gamma=[0]", "carleman_lambda=[4,-1]",
        "carleman_s=[]",
        "s_default=0.5", "gamma_default=0", "lambda_default=0.9",
        "carleman_epsilon=0", "carleman_epsilon=-0.1", "dt_factor=0",
        "R=0", "R=-1", "dim=3", "seed=1.5", "seed=-10", "seed=true",
        "out_dir=5", 'out_dir=""', "T=0", "T=-1",
        "mesh_levels=0.24", "k_levels=8", 'sampler_families="interior"',
        'mesh_levels="0.3"', 'sampler_families=["interior","interior"]',
        # float keys take ints and floats only: no bool, string, list or null
        "theta=true", "carleman_s=[true,4]", "alpha=[1]", 'R="1"',
        'dt_factor="0.5"', "L=null", "mesh_levels=[null]",
        'sampler_families=["bogus"]'])
    def test_out_of_range_value_is_config_error(self, override, capsys):
        rc = main(["observe", "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and override.split("=")[0] in err

    @pytest.mark.parametrize("override", [
        "mesh_levels=[1.5]", "mesh_levels=[-0.2]", "k_levels=[0,8]",
        "k_levels=[-4,8]", "L=Infinity", "T=NaN", "carleman_epsilon=Infinity",
        "k_levels=[8.5,16]", "mesh_levels=[0.0001]", "mesh_levels=[1e-160]",
        "mesh_levels=[1e-200]", "dt_factor=1e-9", "seed=1.5", "seed=-10",
        "out_dir=5",
        # psi_eps divides by eps^3, which underflows below eps = 2.81e-103
        "carleman_epsilon=1e-120", "carleman_epsilon=1e-300",
        # eps = 1/k for a 114-digit k and for a k past float range
        "k_levels=[8,1" + "0" * 113 + "]", "k_levels=[8,1" + "0" * 400 + "]",
        # Theta(T/2) = 256/T^8 passes THETA_CAP below T = 0.02
        "T=0.018"])
    def test_degenerate_value_exits_before_any_study(self, override,
                                                     monkeypatch, capsys):
        def study(config, *args, **kwargs):
            raise AssertionError(f"a study ran with {override}")

        monkeypatch.setattr(cli, "run_approximation_study", study)
        rc = main(["converge", "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and override.split("=")[0] in err

    @pytest.mark.parametrize("override", [
        "carleman_epsilon=1e-100", "T=0.021", "T=0.02"])
    def test_value_at_the_edge_passes_the_config(self, override):
        cfg = cli.parse_config(None, cli._parse_overrides([override]))
        key, value = override.split("=")
        assert getattr(cfg, key) == float(value)

    def test_non_json_value_kept_as_text(self):
        overrides = cli._parse_overrides(["out_dir=plainword"])
        assert overrides == {"out_dir": "plainword"}
        assert cli.parse_config(None, overrides).out_dir == "plainword"

    def test_negative_cli_seed_is_config_error(self, tmp_path, capsys):
        rc = main(["verify-weights", "--seed", "-3", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_config_file_missing(self, capsys):
        rc = main(["converge", "--config", "/no/such/file.json"])
        assert rc == 2

    def test_config_file_must_be_object(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]\n")
        rc = main(["converge", "--config", str(p)])
        assert rc == 2


class TestVerifyWeights:
    def test_runs_clean_and_persists(self, tmp_path):
        out = str(tmp_path / "res")
        rc = main(["verify-weights", "--seed", "3", "--out", out])
        assert rc == 0
        files = sorted(os.listdir(out))
        assert files == ["verify_weights.json", "verify_weights_residuals.csv"]
        rep = json.load(open(os.path.join(out, "verify_weights.json")))
        assert rep["passed"] is True
        assert rep["summary"]["all_below_1e-12"] is True

    def test_cli_seed_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        out = str(tmp_path / "res")
        rc = main(["verify-weights", "--config", str(cfg), "--seed", "42",
                   "--out", out])
        assert rc == 0
        rep = json.load(open(os.path.join(out, "verify_weights.json")))
        assert rep["config"]["seed"] == 42


class TestSolve:
    def test_energy_identity_holds_for_crank_nicolson(self, tmp_path):
        out = str(tmp_path / "res")
        rc = main(["solve", "--set", "theta=0.5", "--set",
                   "mesh_levels=[0.3]", "--out", out])
        assert rc == 0
        side = json.load(open(os.path.join(out, "solve_trajectory.json")))
        assert abs(side["energy"]["identity_constant"] - 1.0) <= 1e-8

    @pytest.mark.parametrize("constant, data_sq, code", [
        (0.5, 1.0, 1),             # the solve lost energy
        (1.0 + 2e-8, 1.0, 1),      # gained it, past the tolerance
        (1.0 - 5e-9, 1.0, 0),
        (0.0, 0.0, 0),             # a zero datum has no constant
        (0.0, 1.0, 1),
    ])
    def test_identity_gate_is_two_sided(self, tmp_path, monkeypatch,
                                        constant, data_sq, code):
        real = cli.energy_report

        def reported(sol):
            return {**real(sol), "identity_constant": constant,
                    "data_sq": data_sq}

        monkeypatch.setattr(cli, "energy_report", reported)
        assert main(["solve", "--set", "mesh_levels=[0.5]",
                     "--out", str(tmp_path / "res")]) == code


class TestSolverError:
    def test_one_line_and_exit_1(self, monkeypatch, capsys):
        def fail(config):
            raise SolverError("non-finite values at time step 3 of 12")

        monkeypatch.setattr(cli, "run_approximation_study", fail)
        rc = main(["converge"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("degenlab: converge: solver error: non-finite values "
                       "at time step 3 of 12\n")


class TestWriteError:
    def test_unwritable_out_is_one_line_and_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        rc = main(["verify-weights", "--out", str(blocker / "res")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("degenlab: verify-weights: cannot write report: ")
        assert err.count("\n") == 1


class TestAll:
    TINY = ["--set", "mesh_levels=[0.6,0.5]", "--set", "sample_count=1",
            "--set", "k_levels=[8,16]", "--set", "carleman_family_count=1",
            "--set", "carleman_sweep_samples=0"]
    STEPS = ["verify-weights", "solve", "converge", "observe", "carleman"]

    def test_writes_the_files_of_every_step(self, tmp_path):
        expected = set()
        for name in self.STEPS:
            out = tmp_path / name
            assert main([name, "--out", str(out)] + self.TINY) == 0
            expected |= set(os.listdir(out))
        out = tmp_path / "all"
        assert main(["all", "--out", str(out)] + self.TINY) == 0
        files = set(os.listdir(out))
        assert files == expected
        assert not any(f.startswith("ucp") for f in files)

    def test_verbose_logs_progress_and_writes_the_same_files(
            self, tmp_path, monkeypatch, capsys):
        # progress goes to stdout only: the report tree is byte-identical
        # with and without --verbose
        trees = {}
        for flags in ([], ["--verbose"]):
            run = tmp_path / ("verbose" if flags else "quiet")
            run.mkdir()
            monkeypatch.chdir(run)
            assert main(["all", "--out", "res"] + self.TINY + flags) == 0
            out = capsys.readouterr().out
            trees[bool(flags)] = {f: (run / "res" / f).read_bytes()
                                  for f in os.listdir(run / "res")}
            if not flags:
                assert out == ""
        lines = out.splitlines()
        assert all(line.startswith("[degenlab] ") for line in lines)
        for part in ("energy identity constant", "observe level=1 noise "
                     "sample=0", "carleman level=1 sample=0",
                     "carleman: exit 0 in"):
            assert any(part in line for line in lines), part
        assert trees[True] == trees[False]

    def test_returns_the_largest_step_exit_code(self, tmp_path, monkeypatch):
        ran = []
        codes = {"converge": 1}
        for name in self.STEPS:
            def step(cfg, name=name):
                ran.append(name)
                return codes.get(name, 0)
            monkeypatch.setitem(cli._COMMANDS, name, (step, name))
        out = tmp_path / "res"
        assert main(["all", "--out", str(out)] + self.TINY) == 1
        assert ran == self.STEPS
        assert not out.exists()     # only the stubs ran


class TestLogging:
    SOLVE = ["solve", "--set", "mesh_levels=[0.6]"]

    def test_verbose_leaves_no_handler(self, tmp_path, capsys):
        package = logging.getLogger("degenlab")
        level = package.level
        assert main(self.SOLVE + ["--out", str(tmp_path), "--verbose"]) == 0
        assert capsys.readouterr().out.startswith("[degenlab] ")
        assert package.handlers == [] and package.level == level

    def test_quiet_after_verbose_and_verbose_twice(self, tmp_path, capsys):
        outs = []
        for flags in (["--verbose"], [], ["--verbose"]):
            assert main(self.SOLVE + ["--out", str(tmp_path)] + flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == ""
        # one line each, not one per verbose call made so far
        assert outs[0].count("\n") == 1
        assert outs[2] == outs[0]
        assert outs[0].startswith("[degenlab] energy identity constant ")

    def test_no_print_in_src(self):
        # progress goes through the degenlab logger: the only prints in the
        # package are cli.main's one-line errors on stderr
        hits = []
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            main_fn = next((n for n in tree.body
                            if isinstance(n, ast.FunctionDef)
                            and n.name == "main"), None)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    continue
                allowed = (path.name == "cli.py"
                           and main_fn.lineno <= node.lineno <= main_fn.end_lineno
                           and any(k.arg == "file"
                                   and ast.unparse(k.value) == "sys.stderr"
                                   for k in node.keywords))
                if not allowed:
                    hits.append(f"{path.name}:{node.lineno}")
        assert hits == []
