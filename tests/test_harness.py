"""Tests for scenario configuration, orchestration, audit, and reports."""
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config
from fedthresh.autoencoder import MODEL_FORMAT_HEADER, load_model
from fedthresh.errors import ConfigError, StageError
from fedthresh.federation import Channel
from fedthresh.harness import (AUDITED_METHODS, METHODS, Method,
                               ScenarioConfig, _compute_method, audit_channel,
                               build_followup_dataset, emit_report,
                               run_scenario, sweep_clients, sweep_corruption,
                               train_model)
from fedthresh.metrics import STAT_FEATURE_COLUMNS
from fedthresh.thresholds import METHOD_TAGS


def row_key(r):
    """Everything deterministic about a row (wall time excluded)."""
    return (r.scenario_id, r.method, r.client_id, r.split, r.f1, r.threshold,
            r.config_hash)


def fill_fedavg(channel, num_clients, rounds):
    for t in range(rounds):
        for c in range(num_clients):
            channel.record("broadcast", "model", 10, c, t, context="fedavg")
            channel.record("upload", "model_update", 10, c, t,
                           context="fedavg")


class TestScenarioConfig:
    def test_defaults_cover_all_methods(self):
        cfg = make_config(methods=METHOD_TAGS)
        assert cfg.methods == METHOD_TAGS

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="'kind'"):
            make_config(dataset={"num_normal": 5})
        with pytest.raises(ConfigError, match="scheme"):
            make_config(scheme="carousel")
        with pytest.raises(ConfigError, match="unknown methods"):
            make_config(methods=("our_method", "oracle"))
        with pytest.raises(ConfigError, match="at least one method"):
            make_config(methods=())
        with pytest.raises(ConfigError, match=r"methods lists \['iqr'\]"):
            make_config(methods=["iqr", "kqe", "iqr"])
        with pytest.raises(ConfigError, match="formula_mode"):
            make_config(formula_mode="verbatim")
        with pytest.raises(ConfigError, match="n_candidates"):
            make_config(n_candidates=1)
        with pytest.raises(ConfigError, match="num_clients"):
            make_config(num_clients=0)
        with pytest.raises(ConfigError, match=r"corrupt_client_ids \[99\]"):
            make_config(num_clients=3, corrupt_client_ids=[99])
        with pytest.raises(ConfigError, match=r"corrupt_client_ids \[-1\]"):
            make_config(corrupt_client_ids=[-1])
        # an empty or zero-width architecture fails here, not in training
        for widths in ([], [4, 0]):
            with pytest.raises(ConfigError, match="^hidden_dims must be"):
                make_config(hidden_dims=widths)
        with pytest.raises(ConfigError, match="'q'"):
            make_config(method_params={"percentile": {"q": 50}})
        with pytest.raises(ConfigError, match="'zcut'"):
            make_config(method_params={"fed_filtered": {"zcut": 0.01}})
        with pytest.raises(ConfigError, match="'nonsense'"):
            make_config(method_params={"nonsense": {"q": 1}})
        with pytest.raises(ConfigError, match="numbers.*'risk'"):
            make_config(method_params={"pot": {"risk": "tiny"}})
        # field types come from the annotations; nothing is coerced
        for field_name, value in (("n_candidates", "1000"),
                                  ("num_clients", 4.0), ("rounds", True),
                                  ("learning_rate", "0.1"),
                                  ("scheme", None), ("methods", "iqr"),
                                  ("methods", [1, "iqr"]),
                                  ("methods", [["iqr"]]),
                                  ("hidden_dims", 8), ("hidden_dims", [2.7]),
                                  ("hidden_dims", ["a"]),
                                  ("hidden_dims", [True]),
                                  ("corrupt_client_ids", ["1"]),
                                  ("corrupt_client_ids", [True]),
                                  ("corrupt_client_ids", [1.9]),
                                  ("noniid_k", "3"),
                                  ("dataset", ["synth"]),
                                  ("method_params", [])):
            with pytest.raises(ConfigError, match=f"^{field_name} must be"):
                make_config(**{field_name: value})
        with pytest.raises(ConfigError, match="noniid_k.*'even'"):
            make_config(noniid_k=3)
        with pytest.raises(ConfigError, match="noniid_k.*'random'"):
            make_config(scheme="random", noniid_k=3)
        make_config(scheme="noniid_kmeans", noniid_k=3)
        # JSON has no tuples and writes 1.0 as 1: lists and ints pass
        make_config(methods=["iqr"], hidden_dims=[4, 2], learning_rate=1)
        # float() coercion as before; None keeps kqe's default bandwidth
        make_config(method_params={"kqe": {"q": "0.9", "bandwidth": None}})

    def test_from_dict_rejects_unknown_keys(self):
        raw = make_config().to_dict()
        raw["learning_rte"] = 0.1
        with pytest.raises(ConfigError, match="learning_rte"):
            ScenarioConfig.from_dict(raw)
        # options that no longer exist are unknown keys too
        for key, value in (("refine", False), ("aggregation", "mean"),
                           ("client_weighting", "by_sample_count")):
            raw = make_config().to_dict()
            raw[key] = value
            with pytest.raises(ConfigError,
                               match=rf"unknown config keys \['{key}'\]"):
                ScenarioConfig.from_dict(raw)

    def test_dict_roundtrip_preserves_hash(self):
        cfg = make_config(hidden_dims=(8, 4), corrupt_client_ids=(1, 2),
                          method_params={"kqe": {"q": 0.9}})
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()
        assert isinstance(again.hidden_dims, tuple)
        assert isinstance(again.corrupt_client_ids, tuple)

    def test_from_file(self, tmp_path):
        cfg = make_config()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert ScenarioConfig.from_file(path) == cfg

        with pytest.raises(ConfigError, match="no such config file"):
            ScenarioConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_file(arr)

    def test_config_hash_stability(self):
        a, b = make_config(), make_config()
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 12
        assert int(a.config_hash(), 16) >= 0
        changed = make_config(rounds=3)
        assert changed.config_hash() != a.config_hash()

    def test_effective_id(self):
        named = make_config(scenario_id="exp-7")
        assert named.effective_id == "exp-7"
        anon = make_config(scenario_id="")
        assert anon.effective_id == f"scn-{anon.config_hash()}"


class TestRunScenario:
    def test_row_accounting_single_method(self):
        cfg = make_config(methods=("largest_mse",))
        rows = run_scenario(cfg)
        assert len(rows) == cfg.num_clients + 1
        assert [r.client_id for r in rows] == (
            ["global"] + [str(i) for i in range(cfg.num_clients)])
        assert all(r.split == "test" for r in rows)
        assert all(0.0 <= r.f1 <= 1.0 for r in rows)
        assert all(r.method == "largest_mse" for r in rows)
        assert all(r.scenario_id == "unit" for r in rows)

    def test_row_accounting_all_methods(self, small_config):
        rows = run_scenario(small_config)
        per_method = small_config.num_clients + 1
        assert len(rows) == len(small_config.methods) * per_method
        assert [r.method for r in rows[:per_method]] == \
            ["our_method"] * per_method

    def test_separable_data_scores_high(self, small_config):
        rows = run_scenario(small_config)
        ours = next(r for r in rows
                    if r.method == "our_method" and r.client_id == "global")
        assert ours.f1 >= 0.95

    def test_deterministic_rows(self, small_config):
        first = [row_key(r) for r in run_scenario(small_config)]
        second = [row_key(r) for r in run_scenario(small_config)]
        assert first == second

    def test_results_csv_byte_identical(self, small_config, tmp_path):
        run_scenario(small_config, out_dir=tmp_path / "a")
        run_scenario(small_config, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("overrides, digest", [
        ({}, "fb540b1d05acc60511bda3bf592a3973"
             "7edd126e971df7279e486e0f1617603a"),
        ({"scheme": "random", "num_clients": 5, "optimizer": "adam",
          "learning_rate": 0.01}, "00b37af7e1efc09c7376378cdd01b048"
                                  "56670ce79213f5daaef0aa15cda462f1"),
    ], ids=["even_sgd", "random_adam"])
    def test_results_csv_columns_are_pinned(self, overrides, digest, tmp_path):
        # the results.csv contract: for a fixed config, every column but
        # scenario_id and config_hash (which hash the config's keys) keeps
        # these bytes
        cfg = make_config(methods=METHOD_TAGS, **overrides)
        run_scenario(cfg, out_dir=tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].split(",")[1:6] == ["method", "client_id", "split",
                                            "f1", "threshold"]
        columns = "".join(",".join(line.split(",")[1:6]) + "\n"
                          for line in lines)
        assert len(lines) == 1 + len(METHOD_TAGS) * (cfg.num_clients + 1)
        assert hashlib.sha256(columns.encode()).hexdigest() == digest

    def test_output_files(self, small_config, tmp_path):
        run_scenario(small_config, out_dir=tmp_path)
        for name in ("results.csv", "timing.csv", "methods_summary.csv",
                     "summary_table.txt", "scenario_config.json",
                     "fedavg_rounds.csv", "partition_plan.csv"):
            assert (tmp_path / name).exists(), name
        saved = json.loads((tmp_path / "scenario_config.json").read_text())
        assert ScenarioConfig.from_dict(saved) == small_config

    def test_artifacts(self, small_config):
        artifacts = {}
        rows = run_scenario(small_config, artifacts=artifacts)
        assert rows
        for key in ("model", "channel", "plan", "clients", "round_log",
                    "uploads"):
            assert key in artifacts, key
        assert len(artifacts["clients"]) == small_config.num_clients
        assert set(artifacts["uploads"]) == set(small_config.methods)
        assert len(artifacts["uploads"]["our_method"]) == \
            small_config.num_clients
        assert len(artifacts["round_log"]) == \
            small_config.rounds * small_config.num_clients
        audit_channel(artifacts["channel"], small_config.num_clients,
                      small_config.rounds)

    def test_stage_error_names_failing_stage(self):
        cfg = make_config(dataset={"kind": "synth", "num_normal": 600,
                                   "num_anomaly": 60, "dim": 6,
                                   "separation": 6.0, "bogus": 1})
        with pytest.raises(StageError, match="stage 'load'") as excinfo:
            run_scenario(cfg)
        assert isinstance(excinfo.value.cause, ConfigError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_divergence_is_a_train_stage_error(self):
        cfg = make_config(learning_rate=1e200, rounds=1)
        with pytest.raises(StageError, match="stage 'train'"):
            run_scenario(cfg)


class TestAuditChannel:
    def test_passes_on_conforming_traffic(self):
        channel = Channel()
        fill_fedavg(channel, 3, 2)
        for tag in AUDITED_METHODS:
            channel.record("upload", "summary_stats", 5, 0, context=tag)
            channel.record("upload", "f1_scores", 100, 0, context=tag)
        audit_channel(channel, 3, 2)

    def test_wrong_fedavg_count(self):
        channel = Channel()
        fill_fedavg(channel, 3, 2)
        with pytest.raises(AssertionError, match="expected 2\\*3\\*3"):
            audit_channel(channel, 3, 3)

    def test_raw_error_upload_rejected(self):
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        channel.record("upload", "raw_errors", 500, 0, context="our_method")
        with pytest.raises(AssertionError, match="our_method uploaded"):
            audit_channel(channel, 2, 1)

    def test_raw_error_broadcast_rejected(self):
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        channel.record("broadcast", "raw_errors", 500, 0,
                       context="fed_mse_std")
        with pytest.raises(AssertionError, match="leaked raw errors"):
            audit_channel(channel, 2, 1)

    def test_oversized_summary_rejected(self):
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        channel.record("upload", "summary_stats", 6, 0, context="our_method")
        with pytest.raises(AssertionError, match="fixed-size"):
            audit_channel(channel, 2, 1)

    def test_unaudited_contexts_ignored(self):
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        channel.record("upload", "local_threshold", 1, 0, context="kqe")
        audit_channel(channel, 2, 1)

    def test_error_vector_upload_rejected(self, monkeypatch):
        """Upload sizes are measured, so a method that labels its error
        vector as a summary cannot pass the audit."""
        monkeypatch.setitem(METHODS, "leaky", Method(
            lambda errors, *_: errors, "summary_stats",
            lambda uploads, *_: 0.0))
        errors, labels = method_inputs()
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        _compute_method("leaky", make_config(), errors, labels, channel)
        with pytest.raises(AssertionError, match="size 40 .*fixed-size"):
            audit_channel(channel, 2, 1, methods=["leaky"])


def method_inputs():
    """Two clients' validation errors and labels, anomalies above 0.6."""
    rng = np.random.default_rng(11)
    errors = [np.concatenate([rng.uniform(0.0, 0.4, 30),
                              rng.uniform(0.6, 1.0, 10)]) for _ in range(2)]
    labels = [np.repeat([0, 1], [30, 10]) for _ in range(2)]
    return errors, labels


class TestMethods:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_upload_sizes_are_measured(self):
        errors, labels = method_inputs()
        channel = Channel()
        for tag in METHOD_TAGS:
            _compute_method(tag, make_config(n_candidates=50), errors, labels,
                            channel)
        uploads = {(m.context, m.kind): m.size
                   for m in channel.select("upload")}
        assert uploads == {
            ("our_method", "summary_stats"): 5,
            ("our_method", "f1_scores"): 50,
            ("fed_minmax", "error_range"): 2,
            ("fed_minmax", "f1_scores"): 50,
            ("fed_mse_std", "summary_stats"): 5,
            ("fed_filtered", "summary_stats"): 1,
            **{(tag, "local_threshold"): 1 for tag in METHOD_TAGS[4:]}}
        # our_method: a normal and an anomaly summary plus one F1 vector
        assert channel.count("upload", context="our_method") == 2 * 3

    def test_method_params_reach_the_function(self):
        errors, labels = method_inputs()
        cfg = make_config(method_params={"percentile": {"p": "50"}})
        result = _compute_method("percentile", cfg, errors, labels,
                                 Channel())
        assert result.client_thetas == [float(np.median(e[:30]))
                                        for e in errors]


class TestEmitReport:
    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no rows"):
            emit_report([], tmp_path)

    def test_file_contents(self, small_config, tmp_path):
        rows = run_scenario(small_config)
        paths = emit_report(rows, tmp_path, cfg=small_config)
        assert [p.name for p in paths] == ["results.csv", "timing.csv",
                                           "methods_summary.csv",
                                           "summary_table.txt"]
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == ("scenario_id,method,client_id,split,f1,threshold,"
                            "config_hash")
        assert len(lines) == len(rows) + 1
        # repr floats round-trip exactly
        first = lines[1].split(",")
        assert float(first[4]) == rows[0].f1
        assert float(first[5]) == rows[0].threshold

        summary = (tmp_path / "methods_summary.csv").read_text().splitlines()
        assert len(summary) == len(small_config.methods) + 1

        timing = (tmp_path / "timing.csv").read_text().splitlines()
        assert timing[0] == "scenario_id,method,client_id,wall_time_ms," \
                            "config_hash"
        assert len(timing) == len(rows) + 1

    def test_summary_table_uses_dataset_stem(self, small_config, tmp_path):
        rows = run_scenario(small_config)
        csv_cfg = replace(small_config, dataset={
            "kind": "csv", "path": "data/machine_logs.csv",
            "label_column": "label", "positive_label": "1"})
        emit_report(rows, tmp_path, cfg=csv_cfg)
        table = (tmp_path / "summary_table.txt").read_text()
        assert "machine_logs" in table.splitlines()[0]
        ours = next(r for r in rows
                    if r.method == "our_method" and r.client_id == "global")
        assert f"{ours.f1:.4f}" in table


class TestSweepClients:
    def test_counts_below_two_rejected(self, small_config):
        with pytest.raises(ConfigError, match=">= 2"):
            sweep_clients(small_config, [1, 4])

    def test_sweep_accounting(self, small_config, tmp_path):
        results = sweep_clients(small_config, [2, 3], out_dir=tmp_path)
        assert sorted(results) == [2, 3]
        for count, rows in results.items():
            assert len(rows) == len(small_config.methods) * (count + 1)
            assert rows[0].scenario_id == f"unit-n{count}"
        sweep = (tmp_path / "clients_sweep.csv").read_text().splitlines()
        assert sweep[0] == "client_count,method,f1,threshold"
        assert len(sweep) == 1 + 2 * len(small_config.methods)
        timing = (tmp_path / "timing_by_clients.csv").read_text().splitlines()
        assert timing[0] == "client_count,method,client_id,wall_time_ms"


class TestSweepCorruption:
    def test_counts_out_of_range_rejected(self, small_config):
        with pytest.raises(ConfigError, match="corrupt counts"):
            sweep_corruption(small_config, [0, 5])
        with pytest.raises(ConfigError, match="corrupt counts"):
            sweep_corruption(small_config, [-1])

    def test_level_zero_matches_plain_scenario(self, small_config, tmp_path):
        base = {(r.method, r.client_id): (r.f1, r.threshold)
                for r in run_scenario(small_config)}
        results = sweep_corruption(small_config, [0, 2], out_dir=tmp_path)
        level0 = {(r.method, r.client_id): (r.f1, r.threshold)
                  for r in results[0]}
        assert level0 == base
        assert results[0][0].scenario_id == "unit-corrupt0"

        # corrupted validation errors must move at least one threshold
        level2 = {(r.method, r.client_id): (r.f1, r.threshold)
                  for r in results[2]}
        assert level2 != level0

        sweep = (tmp_path / "corruption_sweep.csv").read_text().splitlines()
        assert sweep[0] == "corrupt_count,method,f1,threshold"
        assert len(sweep) == 1 + 2 * len(small_config.methods)

    def test_retrain_smoke(self, small_config):
        results = sweep_corruption(small_config, [1], retrain=True)
        assert sorted(results) == [1]
        assert len(results[1]) == len(small_config.methods) * \
            (small_config.num_clients + 1)


class TestFollowupDataset:
    def test_rejects_zero_runs(self, small_config):
        with pytest.raises(ConfigError, match="num_runs"):
            build_followup_dataset(small_config, 0)

    def test_shapes_and_files(self, small_config, tmp_path):
        rows, corr, constant = build_followup_dataset(small_config, 2,
                                                      out_dir=tmp_path)
        n_features = len(STAT_FEATURE_COLUMNS)
        assert len(rows) == 2 * small_config.num_clients
        assert corr.shape == (n_features, n_features)
        assert not np.any(np.isnan(corr))
        assert constant.shape == (n_features,)
        for j in range(n_features):
            assert corr[j, j] == (0.0 if constant[j] else 1.0)

        features = (tmp_path / "followup_features.csv").read_text().splitlines()
        assert features[0] == ",".join(STAT_FEATURE_COLUMNS)
        assert len(features) == 1 + len(rows)
        corr_csv = (tmp_path / "followup_correlation.csv").read_text()
        assert len(corr_csv.splitlines()) == 1 + n_features


class TestTrainModel:
    def test_artifacts_and_roundtrip(self, small_config, tmp_path):
        model, round_log = train_model(small_config, out_dir=tmp_path)
        assert len(round_log) == small_config.rounds * small_config.num_clients
        text = (tmp_path / "model.txt").read_text().splitlines()
        assert text[0] == MODEL_FORMAT_HEADER
        loaded = load_model(tmp_path / "model.txt")
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b)
                   for a, b in zip(loaded.weights, model.weights))
        rounds_csv = (tmp_path / "fedavg_rounds.csv").read_text().splitlines()
        assert rounds_csv[0] == "round,client_id,local_final_mse,wall_time_ms"
        assert (tmp_path / "partition_plan.csv").exists()
