import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import leo
from leo import local_lti, lti_core
from leo.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestDemo:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("demo", "--seed", "0", "--epochs", "5", "--out-dir", str(out)) == 0
        rows = read_csv(out / "demo_trajectories.csv")
        header, data = rows[0], rows[1:]
        assert len(data) == 261
        assert header[:5] == ["k", "u", "v", "w1", "w2"]
        assert "x1_real" in header and "e2_luen_enh" in header
        # final row has no input or process noise, but has a measurement
        last = dict(zip(header, data[-1]))
        assert last["k"] == "260" and last["u"] == "" and last["w1"] == ""
        assert last["v"] != ""

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("demo", "--seed", "3", "--epochs", "5", "--out-dir", str(a))
        run_cli("demo", "--seed", "3", "--epochs", "5", "--out-dir", str(b))
        assert (a / "demo_trajectories.csv").read_bytes() == (
            b / "demo_trajectories.csv"
        ).read_bytes()

    def test_zero_epochs_enhanced_equals_nominal(self, tmp_path):
        out = tmp_path / "demo"
        run_cli("demo", "--seed", "1", "--epochs", "0", "--out-dir", str(out))
        rows = read_csv(out / "demo_trajectories.csv")
        header = rows[0]
        idx = {name: i for i, name in enumerate(header)}
        for row in rows[1:]:
            for comp in ("x1", "x2"):
                assert row[idx[f"{comp}_open_nom"]] == row[idx[f"{comp}_open_enh"]]
                assert row[idx[f"{comp}_luen_nom"]] == row[idx[f"{comp}_luen_enh"]]


class TestTrial:
    def test_json_output_schema(self, capsys):
        assert run_cli("trial", "--dims", "2,1,1", "--seed", "7", "--epochs", "5") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [2, 1, 1]
        for key in (
            "e_nominal_open", "e_enhanced_open", "e_nominal_closed", "e_enhanced_closed",
        ):
            assert payload[key] >= 0

    def test_deterministic(self, capsys):
        run_cli("trial", "--dims", "2,1,1", "--seed", "7", "--epochs", "5")
        first = capsys.readouterr().out
        run_cli("trial", "--dims", "2,1,1", "--seed", "7", "--epochs", "5")
        assert capsys.readouterr().out == first

    def test_invalid_dims_usage_error(self, capsys):
        assert run_cli("trial", "--dims", "2,3,1") == 2

    def test_non_integer_dims_entry_named(self, capsys):
        assert run_cli("trial", "--dims", "2,x,1") == 2
        assert "dims entry '2,x,1' has a non-integer value 'x'" in capsys.readouterr().err

    def test_dump_params(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        assert run_cli(
            "trial", "--dims", "2,1,1", "--seed", "1", "--epochs", "5",
            "--dump-params", str(path),
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["A"]["rows"] == 2 and payload["A"]["cols"] == 2
        assert len(payload["x0"]) == 2


class TestMonteCarlo:
    def test_small_run_files_and_cardinality(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "10", "--seed", "1",
            "--epochs", "5", "--out-dir", str(out),
        ) == 0
        rows = read_csv(out / "trials.csv")
        assert len(rows) == 11  # header + 10 trials
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["summaries"]) == 1
        assert summary["summaries"][0]["trials"] == 10
        assert summary["config"]["master_seed"] == 1
        assert "version" in summary

    @pytest.mark.parametrize("forced", [False, True])
    def test_summary_records_the_kernel(self, tmp_path, capsys, monkeypatch, forced):
        if forced:
            monkeypatch.setattr(lti_core, "_kernel", lti_core._Kernel())
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "10", "--epochs", "2",
            "--out-dir", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        kernel = summary["kernel"]
        assert kernel == ("numpy" if forced else lti_core.kernel_name())
        assert kernel in ("c", "numpy")
        loaded = lti_core._load_kernel()
        assert summary["c_passes"] == {
            "loop": kernel == "c",
            "loss": bool(loaded.loss),
            "placement": bool(loaded.place),
            "train": bool(loaded.train),
        }
        if forced:
            assert not any(summary["c_passes"].values())

    @pytest.mark.parametrize("resolves", [True, False])
    def test_summary_records_the_blas_core(self, tmp_path, capsys, monkeypatch, resolves):
        if not resolves:
            monkeypatch.setattr(lti_core, "_openblas_symbol", lambda name: None)
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "10", "--epochs", "0",
            "--out-dir", str(out),
        ) == 0
        core = json.loads((out / "summary.json").read_text())["blas_core"]
        if not resolves:
            assert core is None
        elif lti_core._openblas_symbol("scipy_openblas_get_corename64_") is None:
            assert core is None  # numpy's BLAS is not its bundled OpenBLAS
        else:
            # OpenBLAS's name for the core it picked, which OPENBLAS_CORETYPE sets
            assert isinstance(core, str) and core.isalnum()
            wanted = os.environ.get("OPENBLAS_CORETYPE")
            assert wanted is None or core.lower() == wanted.lower()

    def test_too_few_trials_rejected(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "5", "--out-dir", str(out)
        ) == 2
        assert "at least 10 trials" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_parallel_rejected(self, tmp_path):
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "10", "--parallel", "0",
            "--out-dir", str(tmp_path),
        ) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1", "--trials", "10", "--seed", "2",
            "--epochs", "3", "--format", "json", "--out-dir", str(out),
        ) == 0
        trials = json.loads((out / "trials.json").read_text())
        assert len(trials) == 10

    def test_multiple_dims(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--dims", "2,1,1;3,2,1", "--trials", "10", "--seed", "3",
            "--epochs", "3", "--out-dir", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [s["dims"] for s in summary["summaries"]] == [[2, 1, 1], [3, 2, 1]]

    def test_default_dims_is_the_full_grid(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--trials", "10", "--seed", "4", "--epochs", "1",
            "--out-dir", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["summaries"]) == 15
        rows = read_csv(out / "trials.csv")
        assert len(rows) == 1 + 15 * 10


class TestTheoryCheck:
    def test_default_passes(self, capsys):
        assert run_cli("theory-check", "--cases", "30", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_deterministic(self, capsys):
        run_cli("theory-check", "--cases", "25", "--seed", "9")
        first = capsys.readouterr().out
        run_cli("theory-check", "--cases", "25", "--seed", "9")
        assert capsys.readouterr().out == first

    def test_injected_fault_fails(self, monkeypatch, capsys):
        # the local fit returns C = Y X^T, the transpose instead of the pseudoinverse
        fit = local_lti._fit

        def transposed_output_fit(X, X_next, U, Y):
            A, B, _ = fit(X, X_next, U, Y)
            return A, B, Y @ X.swapaxes(1, 2)

        monkeypatch.setattr(local_lti, "_fit", transposed_output_fit)
        assert run_cli("theory-check", "--cases", "10") == 1
        out = capsys.readouterr().out
        assert "check local_fit_replay: FAIL" in out and out.count("PASS") == 3

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_no_cases_is_a_usage_error(self, capsys, cases):
        # an empty suite checks nothing, so it must not print PASS
        assert run_cli("theory-check", "--cases", cases) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "cases must be >= 1" in captured.err


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nepochs = 5\ndims = 2,1,1\n")
        run_cli("trial", "--config", str(cfg))
        via_config = json.loads(capsys.readouterr().out)
        run_cli("trial", "--dims", "2,1,1", "--seed", "7", "--epochs", "5")
        via_flags = json.loads(capsys.readouterr().out)
        assert via_config == via_flags

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nepochs = 5\ndims = 2,1,1\n")
        run_cli("trial", "--config", str(cfg), "--seed", "8")
        with_flag = json.loads(capsys.readouterr().out)
        assert with_flag["seed"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert run_cli("trial", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("key, value", [("trials", "abc"), ("parallel", "two"), ("epochs", "1.5")])
    def test_bad_integer_value_names_its_key(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--config", str(cfg), "--dims", "2,1,1", "--out-dir", str(out)
        ) == 2
        assert f"config key '{key}' must be an integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nseed = 4  # trailing\nepochs = 3\n")
        assert run_cli("trial", "--dims", "2,1,1", "--config", str(cfg)) == 0

    def test_boolean_typo_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("two_sided = ture\n")
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--config", str(cfg), "--dims", "2,1,1", "--trials", "10",
            "--epochs", "1", "--out-dir", str(out),
        ) == 2
        assert "two_sided" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_value_reaches_the_summary(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "mc"
        for value, want in (("yes", True), ("off", False)):
            cfg.write_text(f"two_sided = {value}\n")
            assert run_cli(
                "montecarlo", "--config", str(cfg), "--dims", "2,1,1", "--trials", "10",
                "--epochs", "1", "--out-dir", str(out),
            ) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"]["two_sided"] is want
        # the flag wins over the config file
        assert run_cli(
            "montecarlo", "--config", str(cfg), "--two-sided", "--dims", "2,1,1",
            "--trials", "10", "--epochs", "1", "--out-dir", str(out),
        ) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["two_sided"] is True

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEO_SEED", "11")
        run_cli("trial", "--dims", "2,1,1", "--epochs", "3")
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11


class TestSeed:
    # Each subcommand takes --seed; every source is checked before any work.
    COMMANDS = ["demo", "trial", "montecarlo", "theory-check"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_flag(self, command, tmp_path, capsys):
        assert run_cli(command, "--seed", "-1", "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
    def test_bad_config_value(self, command, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {value}\n")
        assert run_cli(command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
        assert f"config key 'seed' must be a non-negative integer, got '{value}'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value", ["abc", "-2", ""])
    def test_bad_environment_value(self, command, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEO_SEED", value)
        assert run_cli(command, "--out-dir", str(tmp_path / "o")) == 2
        assert f"LEO_SEED must be a non-negative integer, got '{value}'" in (
            capsys.readouterr().err
        )

    def test_flag_wins_over_a_bad_environment_value(self, capsys, monkeypatch):
        monkeypatch.setenv("LEO_SEED", "abc")
        assert run_cli("theory-check", "--seed", "1", "--cases", "2") == 0


class TestVersion:
    def test_build_parser_starts_no_subprocess(self, monkeypatch):
        import subprocess

        def refuse(*args, **kwargs):
            raise AssertionError("build_parser started a subprocess")

        monkeypatch.setattr(subprocess, "run", refuse)
        build_parser()

    def test_version_flag_prints_and_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        out = capsys.readouterr().out.strip()
        assert out and "\n" not in out

    def test_copy_in_another_repository_reports_the_package_version(self, tmp_path):
        # an installed copy inside another project's repository must not
        # report that project's commit, unless that repository tracks it
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
        env.update(PYTHONDONTWRITEBYTECODE="1")

        def git(*args):
            identity = ["-c", "user.name=leo", "-c", "user.email=leo@example.org",
                        "-c", "commit.gpgsign=false"]
            return subprocess.run(["git", *identity, *args], cwd=tmp_path, env=env, check=True,
                                  capture_output=True, text=True, timeout=60).stdout.strip()

        git("init", "-q")
        (tmp_path / "README").write_text("another project\n")
        git("add", "README")
        git("commit", "-q", "-m", "another project")
        site = tmp_path / "venv" / "site-packages"
        shutil.copytree(Path(leo.__file__).parent, site / "leo",
                        ignore=shutil.ignore_patterns("__pycache__"))

        def version():
            code = "from leo.cli import _version_string; print(_version_string())"
            return subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONPATH=str(site)),
                                  check=True, capture_output=True, text=True,
                                  timeout=60).stdout.strip()

        assert version() == f"leo-observer-{leo.__version__}"
        git("add", "venv")
        git("commit", "-q", "-m", "vendor leo")
        assert version() == git("describe", "--always", "--dirty")
