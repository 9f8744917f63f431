import shutil

import numpy as np
import pytest

import sapt
from sapt.bnn import BnnPosterior
from sapt.cli import build_parser, main
from sapt.data import (load_registered, registry_entry, resolve_data_file,
                       save_csv)


def run_cli(args):
    return main(args)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "iris"
        assert args.replicas == 10
        assert args.samples == 50000
        assert args.swap_interval == 50
        assert args.surrogate_interval == 50
        assert args.surrogate_prob == 0.0
        assert args.max_temp == 5.0
        assert args.proposal == "rw"
        assert args.lg_prob == 0.5
        assert args.lg_rate == 0.02
        assert args.rw_sd == 0.025
        assert args.burn_in == 0.5
        assert args.thin == 10

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--version"])
        assert exit_info.value.code == 0
        assert sapt.__version__ in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero_through_main(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([flag])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


class TestErrors:
    def test_unknown_dataset_lists_registry(self, capsys):
        assert run_cli(["--dataset", "does-not-exist"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "iris" in err

    def test_bad_config_is_reported(self, capsys, tmp_path):
        code = run_cli(["--replicas", "1", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_path_requires_hidden(self, capsys, tmp_path):
        csv_path = tmp_path / "d.csv"
        _, train, _ = load_registered("iris", seed=0)
        save_csv(train, csv_path)
        code = run_cli(["--dataset", str(csv_path),
                        "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "--hidden" in capsys.readouterr().err

    def test_malformed_csv_is_reported(self, capsys, tmp_path,
                                       malformed_csv):
        code = run_cli(["--dataset", str(malformed_csv), "--hidden", "3",
                        "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("extra", [
        ["--max-temp", "nan"], ["--rw-sd", "nan"], ["--rw-sd", "inf"],
        ["--proposal", "lg", "--lg-rate", "inf"], ["--seed", "-1"],
        ["--prior-var", "inf"],
    ], ids=["max-temp-nan", "rw-sd-nan", "rw-sd-inf", "lg-rate-inf",
            "negative-seed", "prior-var-inf"])
    def test_out_of_range_value_is_reported(self, capsys, tmp_path, extra):
        code = run_cli(["--replicas", "2", "--samples", "200",
                        "--swap-interval", "10", "--surrogate-interval", "10",
                        "--out-dir", str(tmp_path / "o"), *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("extra", [
        ["--replicas", "abc"], ["--proposal", "xx"],
        ["--surrogate-hidden", "3"], ["--bogus"],
    ], ids=["bad-int", "bad-choice", "one-surrogate-hidden", "unknown-flag"])
    def test_bad_flag_is_reported(self, capsys, tmp_path, extra):
        code = run_cli(["--out-dir", str(tmp_path / "o"), *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_file_as_out_dir_is_reported(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code = run_cli(["--replicas", "2", "--samples", "40",
                        "--swap-interval", "10", "--surrogate-interval", "10",
                        "--out-dir", str(taken)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(taken) in err
        assert taken.read_text() == "kept\n"

    def test_surrogate_prob_one_is_reported(self, capsys, tmp_path):
        code = run_cli(["--surrogate-prob", "1.0", "--replicas", "2",
                        "--samples", "40", "--swap-interval", "10",
                        "--surrogate-interval", "10",
                        "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "surrogate_prob" in err


class TestRuns:
    def small_args(self, out_dir, extra=()):
        return ["--dataset", "iris", "--replicas", "2", "--samples", "400",
                "--swap-interval", "10", "--surrogate-interval", "10",
                "--thin", "5", "--seed", "1",
                "--out-dir", str(out_dir), *extra]

    def test_plain_run_outputs(self, capsys, tmp_path):
        out = tmp_path / "run"
        assert run_cli(self.small_args(out)) == 0
        stdout = capsys.readouterr().out
        assert "test accuracy" in stdout
        assert "true evals 400, surrogate evals 0, likelihood calls 402" \
            in stdout
        report = (out / "report.txt").read_text()
        assert "likelihood_calls 402" in report.splitlines()
        assert "replica_count 2" in report
        assert "partial false" in report
        assert "surrogate_prediction_rmse n/a" in report.splitlines()
        manifest = (out / "manifest.txt").read_text()
        assert "dataset iris" in manifest
        assert "base_seed 1" in manifest
        assert (out / "posterior_p0.csv").exists()
        assert (out / "trace_replica0.csv").exists()
        assert (out / "trace_replica1.csv").exists()
        assert (out / "histograms.csv").exists()
        assert not (out / "surrogate_trace.csv").exists()

    def test_manifest_records_numpy_and_blas(self, capsys, tmp_path,
                                             monkeypatch):
        # a run's bits depend on numpy, its BLAS and, with the surrogate
        # on, the BLAS thread count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert run_cli(self.small_args(out)) == 0
        entries = dict(line.split(" ", 1) for line in
                       (out / "manifest.txt").read_text().splitlines())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert entries["numpy_version"] == np.__version__
        assert entries["blas"] == f"{blas['name']} {blas['version']}"
        assert entries["openblas_num_threads"] == "1"
        assert entries["omp_num_threads"] == "unset"

    def test_surrogate_run_outputs(self, capsys, tmp_path):
        out = tmp_path / "surr"
        extra = ["--surrogate-prob", "0.5", "--surrogate-interval", "20"]
        assert run_cli(self.small_args(out, extra)) == 0
        stdout = capsys.readouterr().out
        assert (out / "surrogate_trace.csv").exists()
        report = dict(line.split(" ", 1) for line in
                      (out / "report.txt").read_text().splitlines() if line)
        assert int(report["surrogate_evals"]) > 0
        assert report["surrogate_train_rmse_mean_scaled"] != "n/a"

    def test_runs_are_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.small_args(a)) == 0
        assert run_cli(self.small_args(b)) == 0
        capsys.readouterr()
        assert (a / "posterior_p0.csv").read_bytes() == \
            (b / "posterior_p0.csv").read_bytes()
        # manifest and report repeat too, elapsed wall time aside
        keep = [line for line in (a / "report.txt").read_text().splitlines()
                if not line.startswith("elapsed")]
        keep_b = [line for line in (b / "report.txt").read_text().splitlines()
                  if not line.startswith("elapsed")]
        assert keep == keep_b

    def test_csv_path_run(self, capsys, tmp_path):
        csv_path = tmp_path / "iris_copy.csv"
        _, train, _ = load_registered("iris", seed=0)
        save_csv(train, csv_path)
        out = tmp_path / "csvrun"
        code = run_cli(["--dataset", str(csv_path), "--hidden", "6",
                        "--replicas", "2", "--samples", "200",
                        "--swap-interval", "10", "--surrogate-interval",
                        "10", "--thin", "5",
                        "--out-dir", str(out)])
        assert code == 0
        assert "hidden_units 6" in (out / "manifest.txt").read_text()

    def test_path_csv_matches_registry_twin(self, capsys, tmp_path):
        csv_path = tmp_path / "iris_copy.csv"
        shutil.copyfile(resolve_data_file(registry_entry("iris")), csv_path)
        surrogate = ["--surrogate-prob", "0.5"]
        by_path, by_name = tmp_path / "path", tmp_path / "name"
        assert run_cli(self.small_args(by_path, [
            *surrogate, "--dataset", str(csv_path), "--hidden", "12"])) == 0
        assert run_cli(self.small_args(by_name, surrogate)) == 0
        capsys.readouterr()
        names = sorted(f.name for f in by_path.iterdir())
        assert names == sorted(f.name for f in by_name.iterdir())
        assert "surrogate_trace.csv" in names
        for name in names:
            if name.startswith(("posterior_p", "trace_replica")) or \
                    name in ("histograms.csv", "surrogate_trace.csv"):
                assert (by_path / name).read_bytes() == \
                    (by_name / name).read_bytes(), name

        def changed_keys(name):
            a = (by_path / name).read_text().splitlines()
            b = (by_name / name).read_text().splitlines()
            assert len(a) == len(b)
            return {x.split()[0] for x, y in zip(a, b) if x != y}

        assert changed_keys("manifest.txt") == {"dataset"}
        assert changed_keys("report.txt") <= {"elapsed_seconds",
                                              "elapsed_minutes"}

    def test_reused_out_dir_holds_only_this_runs_files(self, capsys,
                                                       tmp_path, monkeypatch):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        (reused / "notes.txt").write_text("kept\n")
        assert run_cli(self.small_args(reused, [
            "--surrogate-prob", "0.5", "--surrogate-interval", "20"])) == 0
        assert (reused / "surrogate_trace.csv").exists()
        second = ["--hidden", "3"]
        assert run_cli(self.small_args(reused, second)) == 0
        assert run_cli(self.small_args(fresh, second)) == 0
        names = {f.name for f in reused.iterdir()}
        assert names == {f.name for f in fresh.iterdir()} | {"notes.txt"}

        def failing(self, theta):
            raise RuntimeError("likelihood backend gave up")

        monkeypatch.setattr(BnnPosterior, "log_likelihood", failing)
        assert run_cli(self.small_args(reused)) == 2
        capsys.readouterr()
        assert {f.name for f in reused.iterdir()} == {
            "manifest.txt", "report.txt", "notes.txt"}

    def test_langevin_flag(self, capsys, tmp_path):
        out = tmp_path / "lg"
        extra = ["--proposal", "lg", "--lg-rate", "0.05"]
        assert run_cli(self.small_args(out, extra)) == 0
        assert "proposal langevin_mix" in \
            (out / "manifest.txt").read_text()

    def test_sampling_failure_leaves_partial_report(self, capsys, tmp_path,
                                                   monkeypatch):
        original = BnnPosterior.log_likelihood
        calls = []

        def failing(self, theta):
            calls.append(None)
            if len(calls) > 50:
                raise RuntimeError("likelihood backend gave up")
            return original(self, theta)

        monkeypatch.setattr(BnnPosterior, "log_likelihood", failing)
        out = tmp_path / "failed"
        assert run_cli(self.small_args(out)) == 2
        assert "gave up" in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert "partial true" in report
        assert "failure RuntimeError: likelihood backend gave up" in report
        assert (out / "manifest.txt").exists()
        assert not (out / "posterior_p0.csv").exists()
