"""CLI exit codes, output, and artifact writing."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fedthresh
from conftest import make_config
from fedthresh.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    cfg = make_config()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


def write_config(tmp_path, **overrides):
    cfg = make_config(**overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


class TestThresholdCommand:
    def test_success(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["threshold", "--config",
                                      str(config_file), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "our_method" in result.output
        assert "global_f1" in result.output
        assert (out / "results.csv").exists()
        assert (out / "timing.csv").exists()

    def test_a_kqe_run_imports_no_scipy(self, tmp_path):
        # kqe carries its own root finder and normal CDF
        config = write_config(tmp_path, methods=["our_method", "kqe"])
        src = Path(fedthresh.__file__).resolve().parents[1]
        code = ("import sys; from fedthresh.cli import main; "
                "main(sys.argv[1:], standalone_mode=False); "
                "print([m for m in sys.modules if m.partition('.')[0] "
                "== 'scipy'])")
        done = subprocess.run(
            [sys.executable, "-c", code, "threshold", "--config", str(config),
             "--out", str(tmp_path / "out")], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert any(line.startswith("kqe")
                   for line in done.stdout.splitlines())
        assert done.stdout.splitlines()[-1] == "[]"

    def test_method_filter(self, runner, config_file):
        result = runner.invoke(main, ["threshold", "--config",
                                      str(config_file),
                                      "--method", "largest_mse"])
        assert result.exit_code == 0, result.output
        table = [line for line in result.output.splitlines()
                 if line and not line.startswith("method")]
        assert len(table) == 1
        assert table[0].startswith("largest_mse")

    def test_unknown_method_flag_rejected(self, runner, config_file):
        result = runner.invoke(main, ["threshold", "--config",
                                      str(config_file),
                                      "--method", "magic"])
        assert result.exit_code == 2

    def test_seed_override_changes_results(self, runner, config_file):
        base = runner.invoke(main, ["threshold", "--config",
                                    str(config_file)])
        same = runner.invoke(main, ["threshold", "--config",
                                    str(config_file)])
        other = runner.invoke(main, ["threshold", "--config",
                                     str(config_file), "--seed", "99"])
        assert base.exit_code == same.exit_code == other.exit_code == 0
        assert base.output == same.output
        assert base.output != other.output

    def test_negative_seed_exits_2(self, runner, config_file):
        result = runner.invoke(main, ["threshold", "--config",
                                      str(config_file), "--seed", "-1"])
        assert result.exit_code == 2
        assert "'--seed'" in result.output

    def test_repeated_method_flag_exits_2(self, runner, config_file):
        result = runner.invoke(main, ["threshold", "--config",
                                      str(config_file), "--method", "iqr",
                                      "--method", "iqr"])
        assert result.exit_code == 2
        assert "methods lists ['iqr'] more than once" in result.output

    def test_removed_option_exits_2(self, runner, tmp_path):
        raw = make_config().to_dict()
        raw["refine"] = False
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert "unknown config keys ['refine']" in result.output

    def test_missing_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["threshold", "--config",
                                      str(tmp_path / "none.json")])
        assert result.exit_code == 2
        assert "no such config file" in result.output

    def test_invalid_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        result = runner.invoke(main, ["threshold", "--config", str(bad)])
        assert result.exit_code == 2
        assert "invalid JSON" in result.output

    @pytest.mark.parametrize("text", [
        b'{"rounds": 1' + b"0" * 5000 + b"}",  # beyond int()'s digit limit
        b'{"scenario_id": "\xff"}'], ids=["long-int", "not-utf-8"])
    def test_unreadable_json_exits_2(self, runner, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        result = runner.invoke(main, ["threshold", "--config", str(bad)])
        assert result.exit_code == 2
        assert "invalid JSON" in result.output

    def test_unknown_config_method_exits_2(self, runner, tmp_path):
        # a mistyped field is a config error too, not a TypeError (exit 3)
        synth = {"kind": "synth", "num_normal": 600, "num_anomaly": 60,
                 "dim": 6, "separation": 6.0}
        blobs = {"kind": "blobs", "num_normal": 600,
                 "anomaly_blob_sizes": [30, 30], "dim": 6,
                 "separations": [4.0, 8.0]}
        csv = {"kind": "csv", "path": "data.csv", "label_column": "label",
               "positive_label": "1"}
        for key, value, shown in (
                ("methods", ["our_method", "crystal_ball"], "crystal_ball"),
                ("n_candidates", "1000", "n_candidates must be int"),
                ("dataset", {**synth, "dim": "6"}, "dataset.dim must be int"),
                ("dataset", {**csv, "path": 5}, "dataset.path must be str"),
                ("dataset", {**blobs, "anomaly_blob_sizes": ["a"]},
                 "dataset.anomaly_blob_sizes must be tuple[int, ...]"),
                ("dataset", {**csv, "positive_label": 1},
                 "dataset.positive_label must be str"),
                # JSON's Infinity: a config error, not an all-zero F1 run
                ("dataset", {**synth, "separation": float("inf")},
                 "dataset.separation must be in (-inf, inf), got inf")):
            raw = make_config().to_dict()
            raw[key] = value
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            result = runner.invoke(main, ["threshold", "--config", str(path)])
            assert result.exit_code == 2
            assert shown in result.output

    @pytest.mark.parametrize("field_name, value, message", [
        ("rounds", 0, "rounds must be in (0, inf), got 0"),
        ("local_epochs", 0, "local_epochs must be in (0, inf), got 0"),
        ("learning_rate", -0.5, "learning_rate must be in [0, inf), got -0.5"),
        ("batch_size", 0, "batch_size must be in (0, inf), got 0"),
        ("optimizer", "adamw",
         "unknown optimizer 'adamw'; valid: ('sgd', 'adam')"),
        ("noise_sigma_scale", -1.0,
         "noise_sigma_scale must be in [0, inf), got -1.0"),
        ("scale_method", "bogus",
         "unknown scale_method 'bogus'; valid: ('minmax', 'zscore')"),
        ("train_frac", 0.9,
         "train_frac + val_frac must be in (0, 1), got 0.9 + 0.2"),
        ("val_frac", 0.5,
         "train_frac + val_frac must be in (0, 1), got 0.6 + 0.5"),
        # the default scheme is "even", which never reads concentration
        ("concentration", -1.0, "concentration must be in (0, inf), got -1.0"),
        # JSON's NaN and Infinity
        ("noise_sigma_scale", float("nan"),
         "noise_sigma_scale must be in [0, inf), got nan"),
        ("noise_sigma_scale", float("inf"),
         "noise_sigma_scale must be in [0, inf), got inf"),
        ("learning_rate", float("inf"),
         "learning_rate must be in [0, inf), got inf"),
        ("concentration", float("inf"),
         "concentration must be in (0, inf), got inf"),
    ] + [(name, -1, f"{name} must be in [0, inf), got -1")
         for name in ("data_seed", "model_seed", "partition_seed",
                      "train_seed", "corruption_seed")])
    def test_training_and_corruption_settings_fail_at_load(
            self, runner, tmp_path, field_name, value, message):
        # the dataset file does not exist: the setting must fail first
        raw = make_config().to_dict()
        raw["dataset"] = {"kind": "csv", "path": str(tmp_path / "none.csv"),
                          "label_column": "label", "positive_label": "1"}
        raw[field_name] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("num_normal", 0, "dataset.num_normal must be in (0, inf), got 0"),
        ("num_anomaly", 0, "dataset.num_anomaly must be in (1, inf), got 0"),
        ("num_anomaly", -5, "dataset.num_anomaly must be in (1, inf), got -5"),
        ("dim", 0, "dataset.dim must be in (0, inf), got 0"),
        ("separation", float("nan"),
         "dataset.separation must be in (-inf, inf), got nan"),
        ("anomaly_blob_sizes", [30, -1], "dataset.anomaly_blob_sizes "
                                         "entries must be in [0, inf), "
                                         "got [30, -1]"),
        ("separations", [4.0, float("nan")], "dataset.separations entries "
                                             "must be in (-inf, inf), "
                                             "got [4.0, nan]"),
        ("num_anomaly", 1, "dataset.num_anomaly must be in (1, inf), got 1"),
    ])
    def test_dataset_values_fail_at_load(self, runner, tmp_path, key, value,
                                         message):
        if key in ("anomaly_blob_sizes", "separations"):
            dataset = {"kind": "blobs", "num_normal": 600,
                       "anomaly_blob_sizes": [30, 30], "dim": 6,
                       "separations": [4.0, 8.0]}
        else:
            dataset = {"kind": "synth", "num_normal": 600, "num_anomaly": 60,
                       "dim": 6, "separation": 6.0}
        raw = make_config().to_dict()
        raw["dataset"] = {**dataset, key: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"error: stage 'load' failed: {message}\n"

    @pytest.mark.parametrize("key, value, message", [pytest.param(
        key, value, message, id=key) for key, value, message in (
            ("concentration", 10**30,
             f"concentration must be float, got {10**30}"),
            ("noise_sigma_scale", 10**30,
             f"noise_sigma_scale must be float, got {10**30}"),
            ("learning_rate", 10**400,
             f"learning_rate must be float, got {10**400}"),
            ("train_frac", 10**400,
             f"train_frac must be float, got {10**400}"),
            ("dataset.separation", 10**400,
             f"stage 'load' failed: dataset.separation must be float, "
             f"got {10**400}"),
            ("method_params.percentile.p", 10**400,
             f"method_params['percentile']['p'] must be in (0, 100), "
             f"got {10**400}"))])
    def test_huge_json_numbers_exit_2(self, runner, tmp_path, key, value,
                                      message):
        # a float field's int must fit a float exactly, and a Range holds
        # only what float() does, so none of these reaches numpy
        raw = make_config(methods=("percentile",)).to_dict()
        if key.startswith("dataset."):
            raw["dataset"]["separation"] = value
        elif key.startswith("method_params."):
            raw["method_params"] = {"percentile": {"p": value}}
        else:
            raw[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize("dataset", [
        {"kind": "synth", "num_normal": 600, "num_anomaly": 60, "dim": 6,
         "separation": -6.0},
        {"kind": "blobs", "num_normal": 600, "anomaly_blob_sizes": [0, 60],
         "dim": 6, "separations": [-4.0, 8.0]}])
    def test_dataset_values_at_the_range_edges_run(self, runner, tmp_path,
                                                   dataset):
        path = write_config(tmp_path, dataset=dataset)
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 0, result.output

    def test_noniid_k_above_the_row_count_exits_2(self, runner, tmp_path):
        path = write_config(tmp_path, scheme="noniid_kmeans",
                            noniid_k=100_000)
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == ("error: stage 'partition' failed: "
                                 "noniid_k=100000 exceeds the 660 rows that "
                                 "k-means clusters\n")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_fed_minmax_on_constant_features_exits_0(self, runner, tmp_path):
        # every error is the same, so [min, max] has zero width
        data = tmp_path / "constant.csv"
        rows = "1.5,2.5,0\n" * 90 + "1.5,2.5,1\n" * 30
        data.write_text("a,b,label\n" + rows, encoding="utf-8")
        path = write_config(tmp_path, dataset={
            "kind": "csv", "path": str(data), "label_column": "label",
            "positive_label": "1"}, num_clients=3)
        result = runner.invoke(main, ["threshold", "--config", str(path),
                                      "--method", "fed_minmax"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1].startswith("fed_minmax")

    def test_config_path_naming_a_directory_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["threshold", "--config", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == f"error: {tmp_path}: is a directory\n"

    @pytest.mark.parametrize("data, message", [
        (None, "is a directory"),
        ("a,b,label\n1,2,caf\xe9\n".encode("latin-1"),
         "not UTF-8: byte 0xe9 at offset 17"),
        ("a,b,label\n1,2,0\n".encode("utf-16"),
         "not UTF-8: byte 0xff at offset 0")],
        ids=["directory", "latin-1", "utf-16"])
    def test_an_unreadable_dataset_file_exits_2(self, runner, tmp_path, data,
                                                message):
        csv_path = tmp_path / "data.csv"
        if data is None:
            csv_path.mkdir()
        else:
            csv_path.write_bytes(data)
        path = write_config(tmp_path, dataset={
            "kind": "csv", "path": str(csv_path), "label_column": "label",
            "positive_label": "1"})
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == (f"error: stage 'load' failed: {csv_path}: "
                                 f"{message}\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, runner, tmp_path):
        path = write_config(tmp_path, learning_rate=1e200, rounds=1)
        result = runner.invoke(main, ["threshold", "--config", str(path)])
        assert result.exit_code == 3
        assert "stage 'train'" in result.output
        assert "diverged" in result.output


class TestTrainCommand:
    def test_success(self, runner, config_file, tmp_path):
        out = tmp_path / "model_out"
        result = runner.invoke(main, ["train", "--config", str(config_file),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "final mean last-epoch MSE" in result.output
        assert (out / "model.txt").exists()
        assert (out / "fedavg_rounds.csv").exists()
        assert (out / "partition_plan.csv").exists()


class TestSweepCommands:
    def test_sweep_clients(self, runner, config_file, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep-clients", "--config",
                                      str(config_file), "--counts", "2,3",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "2 clients" in result.output
        assert (out / "clients_sweep.csv").exists()
        assert (out / "timing_by_clients.csv").exists()

    def test_sweep_clients_bad_counts_exit_2(self, runner, config_file):
        result = runner.invoke(main, ["sweep-clients", "--config",
                                      str(config_file), "--counts", "2,x"])
        assert result.exit_code == 2
        assert "comma-separated integers" in result.output

    def test_sweep_corruption(self, runner, config_file, tmp_path):
        out = tmp_path / "corr"
        result = runner.invoke(main, ["sweep-corruption", "--config",
                                      str(config_file), "--counts", "0,2",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "0 corrupt" in result.output
        assert (out / "corruption_sweep.csv").exists()

    def test_sweep_corruption_rejects_corrupt_client_ids(self, runner,
                                                         tmp_path):
        path = write_config(tmp_path, corrupt_client_ids=[3])
        result = runner.invoke(main, ["sweep-corruption", "--config",
                                      str(path), "--counts", "0,1"])
        assert result.exit_code == 2
        assert "corrupt_client_ids must be []" in result.output

    def test_retrain_option_is_gone(self, runner, config_file):
        # every level trained the same model: corruption touches
        # validation data only
        result = runner.invoke(main, ["sweep-corruption", "--config",
                                      str(config_file), "--counts", "0",
                                      "--retrain"])
        assert result.exit_code == 2
        assert "No such option '--retrain'" in result.output


class TestFollowupCommand:
    def test_followup(self, runner, config_file, tmp_path):
        out = tmp_path / "follow"
        result = runner.invoke(main, ["followup-dataset", "--config",
                                      str(config_file), "--runs", "2",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "feature rows" in result.output
        assert "f1_difference" in result.output
        assert (out / "followup_features.csv").exists()
        assert (out / "followup_correlation.csv").exists()


class TestHelp:
    def test_group_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("train", "threshold", "sweep-clients",
                    "sweep-corruption", "followup-dataset"):
            assert cmd in result.output
