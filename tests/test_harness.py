"""Tests for scenario configuration, orchestration, audit, and reports."""
import copy
import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_config
from fedthresh import federation, harness
from fedthresh.autoencoder import MODEL_FORMAT_HEADER, load_model
from fedthresh.cli import main
from fedthresh.data import Dataset
from fedthresh.errors import AuditError, ConfigError, StageError
from fedthresh.federation import Channel, ClientState
from fedthresh.harness import (AUDITED_METHODS, METHODS, Method,
                               MethodResult, ScenarioConfig, _compute_method,
                               audit_channel, build_followup_dataset,
                               emit_report, run_scenario, sweep_clients,
                               sweep_corruption, train_model)
from fedthresh.metrics import STAT_FEATURE_COLUMNS, Confusion, confusion, f1
from fedthresh.thresholds import METHOD_TAGS, classify


def row_key(r):
    """Everything deterministic about a row (wall time excluded)."""
    return (r.scenario_id, r.method, r.client_id, r.split, r.f1, r.threshold,
            r.config_hash)


def contract_digest(path: Path) -> str:
    """sha256 of a results.csv without scenario_id and config_hash, the
    columns that hash the config's keys, as
    test_results_csv_columns_are_pinned takes it."""
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[1:6] == ["method", "client_id", "split", "f1",
                                        "threshold"]
    columns = "".join(",".join(line.split(",")[1:6]) + "\n"
                      for line in lines)
    return hashlib.sha256(columns.encode()).hexdigest()


def write_feature_csv(tmp_path, a, b) -> Path:
    """Columns a and b; the last rows up to 60 are anomalies (label 1)."""
    labels = np.r_[np.zeros(len(a) - 60), np.ones(60)]
    path = tmp_path / "features.csv"
    np.savetxt(path, np.column_stack([a, b, labels]), fmt="%.17g",
               delimiter=",", header="a,b,label", comments="")
    return path


def csv_dataset(path) -> dict:
    return {"kind": "csv", "path": str(path), "label_column": "label",
            "positive_label": "1"}


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
        with pytest.raises(ConfigError,
                           match=r"^noniid_k must be in \(0, inf\), got 0"):
            make_config(scheme="noniid_kmeans", noniid_k=0)
        # JSON has no tuples and writes 1.0 as 1: lists and ints pass
        make_config(methods=["iqr"], hidden_dims=[4, 2], learning_rate=1)
        # float() coercion as before; None keeps kqe's default bandwidth
        make_config(method_params={"kqe": {"q": "0.9", "bandwidth": None}})

    @pytest.mark.parametrize("tag, key, value, allowed", [
        ("kqe", "q", 0, r"\(0, 1\)"), ("kqe", "q", "1", r"\(0, 1\)"),
        ("kqe", "q", "nan", r"\(0, 1\)"),
        ("kqe", "bandwidth", -1, r"\[0, inf\) or null"),
        ("kqe", "bandwidth", "inf", r"\[0, inf\) or null"),
        ("percentile", "p", 150, r"\(0, 100\)"),
        ("percentile", "p", 0, r"\(0, 100\)"),
        ("percentile", "p", None, r"\(0, 100\)"),
        ("pot", "u_quantile", 1.0, r"\(0, 1\)"),
        ("pot", "risk", 0, r"\(0, 1\)"),
        ("fed_filtered", "z_cut", -1, r"\(0, inf\)"),
        ("fed_filtered", "z_cut", 0, r"\(0, inf\)"),
    ])
    def test_method_params_out_of_range_fail_at_load(self, tag, key, value,
                                                      allowed):
        with pytest.raises(ConfigError, match=rf"^method_params\['{tag}'\]"
                           rf"\['{key}'\] must be in {allowed}, got "):
            make_config(method_params={tag: {key: value}})

    @pytest.mark.parametrize("tag, key", [("percentile", "p"),
                                          ("fed_filtered", "z_cut")])
    def test_method_params_reject_bools(self, tag, key):
        # float(True) is 1.0, inside both ranges
        with pytest.raises(ConfigError, match=rf"^method_params\['{tag}'\]"
                           rf"\['{key}'\] must be in .*, got True$"):
            make_config(method_params={tag: {key: True}})

    @pytest.mark.parametrize("scenario_id", ["a,b\nc", 'say "x"', "a\rb",
                                             "a,b", "line\n"])
    def test_scenario_id_that_breaks_csv_rows_rejected(self, scenario_id):
        with pytest.raises(ConfigError, match="^scenario_id must not hold"):
            make_config(scenario_id=scenario_id)

    def test_scenario_id_keeps_its_bytes(self, tmp_path):
        scenario_id = "exp 7; α=0.5 'b' [x]"
        cfg = make_config(scenario_id=scenario_id, methods=("largest_mse",))
        emit_report(run_scenario(cfg), tmp_path, cfg=cfg)
        lines = (tmp_path / "results.csv").read_text(
            encoding="utf-8").splitlines()
        assert all(line.startswith(scenario_id + ",largest_mse,")
                   for line in lines[1:])
        assert all(len(line.split(",")) == 7 for line in lines)

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
    def test_errors_beyond_the_summaries_range_fail_as_config(self):
        # validation errors near 1e118, whose summary moments overflow
        cfg = make_config(dataset={"kind": "synth", "num_normal": 600,
                                   "num_anomaly": 60, "dim": 6,
                                   "separation": 1e60})
        with pytest.raises(StageError, match="^stage 'threshold' failed: "
                           "validation errors reach") as caught:
            run_scenario(cfg)
        assert isinstance(caught.value.cause, ConfigError)

    @pytest.mark.parametrize("method", ["minmax", "zscore"])
    def test_a_scaler_that_overflows_fails_as_config(self, method, tmp_path):
        # the training rows of column a span 3.4e308: its range, and the
        # sums behind its mean and spread, overflow
        rng = np.random.default_rng(0)
        a = np.r_[np.tile([1.7e308, -1.7e308], 300), np.zeros(60)]
        b = np.r_[rng.normal(size=600), rng.normal(6.0, 1.0, 60)]
        path = write_feature_csv(tmp_path, a, b)
        cfg = make_config(dataset=csv_dataset(path), scale_method=method)
        with pytest.raises(StageError, match=rf"^stage 'scale' failed: "
                           rf"scale_method='{method}' overflows on feature "
                           "column 'a'$") as caught:
            run_scenario(cfg)
        assert isinstance(caught.value.cause, ConfigError)

    def test_a_scaled_value_that_overflows_fails_at_scale(self, tmp_path):
        # the training range of column a is finite (1e-300), but the
        # anomalies, which only val and test hold, scale to inf
        rng = np.random.default_rng(0)
        a = np.r_[rng.uniform(size=600) * 1e-300, np.full(60, 1e300)]
        b = np.r_[rng.normal(size=600), rng.normal(6.0, 1.0, 60)]
        path = write_feature_csv(tmp_path, a, b)
        with pytest.raises(StageError, match="^stage 'scale' failed: feature "
                           "column 'a' holds non-finite values$") as caught:
            run_scenario(make_config(dataset=csv_dataset(path)))
        assert isinstance(caught.value.cause, ConfigError)

    @pytest.mark.parametrize("sizes", [[1], [0, 1], [0]], ids=repr)
    def test_blob_sizes_below_two_fail_at_load(self, sizes):
        # split needs one anomaly for val and one for test
        cfg = make_config(dataset={"kind": "blobs", "num_normal": 600,
                                   "anomaly_blob_sizes": sizes, "dim": 6,
                                   "separations": [4.0] * len(sizes)})
        with pytest.raises(StageError, match=r"^stage 'load' failed: "
                           r"dataset\.anomaly_blob_sizes total must be in "
                           rf"\(1, inf\), got {sum(sizes)}$") as caught:
            run_scenario(cfg)
        assert isinstance(caught.value.cause, ConfigError)

    def test_round_log_costs_no_forward_pass(self, monkeypatch, tmp_path):
        # the round log reuses training's losses: no output asks for a
        # pass over a client's training data
        calls = []
        evaluate = federation.mse_per_sample
        monkeypatch.setattr(federation, "mse_per_sample",
                            lambda *args: calls.append(1) or evaluate(*args))
        cfg = make_config(num_clients=4, rounds=3, methods=("largest_mse",))
        artifacts = {}
        for kwargs in ({}, {"out_dir": tmp_path}, {"artifacts": artifacts}):
            run_scenario(cfg, **kwargs)
        assert calls == []
        rounds_csv = (tmp_path / "fedavg_rounds.csv").read_text().splitlines()
        assert len(rounds_csv) == 1 + 3 * 4
        assert [(r["round"], r["client_id"]) for r in artifacts["round_log"]] \
            == [(t, i) for t in range(3) for i in range(4)]

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
            channel.record("broadcast", "candidates", 100, 0, context=tag)
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
        with pytest.raises(AssertionError,
                           match=r"fed_mse_std broadcast \['raw_errors'\]"):
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
        channel = Channel()
        fill_fedavg(channel, 2, 1)
        _compute_method("leaky", make_config(), method_work(monkeypatch),
                        channel)
        with pytest.raises(AssertionError, match="size 40 .*fixed-size"):
            audit_channel(channel, 2, 1, methods=["leaky"])

    def test_error_vector_as_f1_scores_rejected(self):
        """An F1 vector must answer a grid the server broadcast to that
        client, so whole error vectors cannot pass as F1 scores."""
        with pytest.raises(AuditError, match="'f1_scores' is reserved"):
            Method(lambda errors, *_: errors, "f1_scores")
        with pytest.raises(AuditError, match="'candidates' is reserved"):
            Method(lambda errors, *_: errors, "candidates")
        errors, _ = method_inputs()
        for grid in (None, 100):
            channel = Channel()
            fill_fedavg(channel, 2, 1)
            for cid, client_errors in enumerate(errors):
                channel.record("upload", "summary_stats", 5, cid,
                               context="our_method")
                if grid is not None:
                    channel.record("broadcast", "candidates", grid, cid,
                                   context="our_method")
                channel.record("upload", "f1_scores", client_errors.size,
                               cid, context="our_method")
            with pytest.raises(AuditError, match=r"our_method client 0 "
                               r"uploaded f1_scores of sizes \[40\]"):
                audit_channel(channel, 2, 1)


def method_inputs():
    """Two clients' validation errors and labels, anomalies above 0.6."""
    rng = np.random.default_rng(11)
    errors = [np.concatenate([rng.uniform(0.0, 0.4, 30),
                              rng.uniform(0.6, 1.0, 10)]) for _ in range(2)]
    labels = [np.repeat([0, 1], [30, 10]) for _ in range(2)]
    return errors, labels


def method_work(monkeypatch):
    """method_inputs() as one _ClientWork per client; a client's
    validation errors are its first validation feature here."""
    monkeypatch.setattr(harness, "mse_per_sample",
                        lambda model, data: data[:, 0])
    return [harness._ClientWork(None, ClientState(
        i, np.ones((2, 1)), e[:, None], l, np.ones((0, 1)), np.zeros(0)))
        for i, (e, l) in enumerate(zip(*method_inputs()))]


class TestMethods:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_upload_sizes_are_measured(self, monkeypatch):
        work = method_work(monkeypatch)
        channel = Channel()
        for tag in METHOD_TAGS:
            _compute_method(tag, make_config(n_candidates=50), work, channel)
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

    def test_method_params_reach_the_function(self, monkeypatch):
        errors, _ = method_inputs()
        cfg = make_config(method_params={"percentile": {"p": "50"}})
        result = _compute_method("percentile", cfg, method_work(monkeypatch),
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


def unreadable_config():
    """A config whose dataset file does not exist: a sweep that reads
    data fails in stage 'load' instead of with a ConfigError."""
    return make_config(dataset={"kind": "csv", "path": "no/such/file.csv",
                                "label_column": "label",
                                "positive_label": "1"})


# each would run as some other count under int()
NON_INTEGER_COUNTS = [pytest.param(c, id=repr(c)) for c in (
    [2.7], [True], ["3"], [2, 3.0])]


class TestSweepClients:
    def test_counts_below_two_rejected(self, small_config):
        with pytest.raises(ConfigError,
                           match=r"^counts entries must be in \(1, inf\)"):
            sweep_clients(small_config, [1, 4])

    def test_repeated_counts_rejected_before_any_data_is_read(self):
        with pytest.raises(ConfigError,
                           match=r"^counts lists \[3\] more than once$"):
            sweep_clients(unreadable_config(), [2, 3, 3])

    @pytest.mark.parametrize("counts", NON_INTEGER_COUNTS)
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ConfigError, match=r"^counts must be "
                           r"tuple\[int, \.\.\.\], got "):
            sweep_clients(unreadable_config(), counts)

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
    def test_repeated_counts_rejected_before_any_data_is_read(self):
        with pytest.raises(ConfigError,
                           match=r"^counts lists \[2\] more than once$"):
            sweep_corruption(unreadable_config(), [2, 2])

    def test_counts_out_of_range_rejected(self, small_config):
        with pytest.raises(ConfigError, match="corrupt counts"):
            sweep_corruption(small_config, [0, 5])
        with pytest.raises(ConfigError, match="corrupt counts"):
            sweep_corruption(small_config, [-1])

    @pytest.mark.parametrize("counts", NON_INTEGER_COUNTS)
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ConfigError, match=r"^corrupt counts must be "
                           r"tuple\[int, \.\.\.\], got "):
            sweep_corruption(unreadable_config(), counts)

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

    def test_base_corrupt_client_ids_rejected(self, small_config):
        # the sweep sets corrupt_client_ids per level; a base value would
        # be silently overridden
        cfg = replace(small_config, corrupt_client_ids=(3,))
        with pytest.raises(ConfigError, match=r"^corrupt_client_ids must "
                           r"be \[\] .* got \[3\]"):
            sweep_corruption(cfg, [0, 1])


SWEEP_LEVELS = (0, 1, 3)
# what every level of the toy sweep warns, in order: (file, message)
LEVEL_WARNINGS = [
    ("harness.py", "client 0 holds no anomalies; local_minmax falls back "
                   "to max(errors)"),
    ("harness.py", "client 2 holds no anomalies; local_minmax falls back "
                   "to max(errors)"),
    ("thresholds.py", "constant errors; kqe returns the constant"),
] + [("harness.py", f"client {i}: thin tail, pot falls back to the 98% "
                    "percentile") for i in range(6)]


def toy_sweep_config():
    """Six Dirichlet clients, two without validation anomalies."""
    return make_config(methods=METHOD_TAGS, scheme="random", num_clients=6)


class TestSweepReuse:
    """A sweep computes each client state's work once and reuses it at
    every level that leaves the client clean."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_results_csv_columns_are_pinned(self, tmp_path):
        results = sweep_corruption(toy_sweep_config(), SWEEP_LEVELS)
        digests = {}
        for level, rows in results.items():
            emit_report(rows, tmp_path / str(level))
            digests[level] = contract_digest(tmp_path / str(level) /
                                             "results.csv")
        assert digests == {
            0: "8cc41836b917337606846a372114bc65"
               "cc5d5fe5ae948ea6d468a6a171c89b2b",
            1: "4641a1ca9ae3d3c324030bcbce11a8f1"
               "d134fcdb9d1f3842ee1bde5dd869ef54",
            3: "b7451be6e2d479f752ff778c2ea5abe2"
               "bd76da2b8314a0b719d74748b3210ac3",
        }

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_each_level_equals_a_sweep_of_that_level_alone(self):
        cfg = toy_sweep_config()
        results = sweep_corruption(cfg, SWEEP_LEVELS)
        for level in SWEEP_LEVELS:
            cold = sweep_corruption(cfg, [level])[level]
            assert [row_key(r) for r in results[level]] == \
                [row_key(r) for r in cold], level

    @staticmethod
    def spy_work(monkeypatch):
        """The client ids of each iqr client step and the inputs of each
        forward pass, in call order."""
        steps, forwards = [], []
        iqr = METHODS["iqr"]

        def spy_step(errors, labels, i, cfg, params):
            steps.append(i)
            return iqr.client(errors, labels, i, cfg, params)
        monkeypatch.setitem(METHODS, "iqr", replace(iqr, client=spy_step))
        mse_per_sample = harness.mse_per_sample

        def spy_forward(model, data):
            forwards.append(data)
            return mse_per_sample(model, data)
        monkeypatch.setattr(harness, "mse_per_sample", spy_forward)
        return steps, forwards

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_work_is_done_once_per_client_state(self, monkeypatch):
        steps, forwards = self.spy_work(monkeypatch)
        channels = []

        class KeptChannel(Channel):
            def __init__(self):
                super().__init__()
                channels.append(self)
        monkeypatch.setattr(harness, "Channel", KeptChannel)

        sweep_corruption(toy_sweep_config(), SWEEP_LEVELS)
        # clients 0-2 are corrupted once, each at the first level that
        # corrupts it
        assert steps == [0, 1, 2, 3, 4, 5] + [0] + [1, 2]
        # validation errors per client state, test errors once per client
        assert len(forwards) == 6 + 3 + 6
        # a reused upload is still sent at its level
        assert channels[0].count("upload", "local_threshold", "iqr") == \
            6 * len(SWEEP_LEVELS)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_clients_left_unchanged_keep_their_clean_work(self, monkeypatch):
        # at noise scale 0 corruption returns every client as it was
        steps, forwards = self.spy_work(monkeypatch)
        cfg = replace(toy_sweep_config(), noise_sigma_scale=0.0)
        results = sweep_corruption(cfg, SWEEP_LEVELS)
        assert steps == [0, 1, 2, 3, 4, 5]
        assert len(forwards) == 6 + 6
        assert [r.f1 for r in results[3]] == [r.f1 for r in results[0]]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_validation_forward_passes_run_outside_every_method(
            self, monkeypatch):
        # the benchmark times validation errors as threshold-stage work
        # only when no method's span encloses them
        in_method, forwards = [], []
        compute_method, mse_per_sample = (harness._compute_method,
                                          harness.mse_per_sample)

        def spy_method(*args):
            in_method.append(args[0])
            try:
                return compute_method(*args)
            finally:
                in_method.pop()

        def spy_forward(model, data):
            forwards.append(list(in_method))
            return mse_per_sample(model, data)
        monkeypatch.setattr(harness, "_compute_method", spy_method)
        monkeypatch.setattr(harness, "mse_per_sample", spy_forward)
        run_scenario(toy_sweep_config())
        sweep_corruption(toy_sweep_config(), SWEEP_LEVELS)
        assert forwards == [[]] * (6 + 6 + 6 + 3 + 6)

    def test_reused_steps_warn_again(self):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            sweep_corruption(toy_sweep_config(), SWEEP_LEVELS)
        assert [(Path(w.filename).name, str(w.message)) for w in log] == \
            LEVEL_WARNINGS * len(SWEEP_LEVELS)
        assert {w.category for w in log} == {UserWarning}
        # kqe imports these; importing them first keeps the filters they
        # add on import from resetting the once-per-location registries
        # in the middle of the sweep
        import scipy.optimize  # noqa: F401
        import scipy.special  # noqa: F401
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("default")
            sweep_corruption(toy_sweep_config(), SWEEP_LEVELS)
        # the default action shows each text once per location, reused
        # step or not
        assert [(Path(w.filename).name, str(w.message)) for w in log] == \
            LEVEL_WARNINGS

    def test_evaluate_counts_equal_the_recount(self, monkeypatch):
        # a client's test errors are its first test feature here
        monkeypatch.setattr(harness, "mse_per_sample",
                            lambda model, data: data[:, 0])
        cases = [([0.1, 0.2, 0.2, 0.5], [0, 1, 0, 1]),
                 ([0.3, np.nan, 0.1, np.nan, 0.9], [1, 1, 0, 0, 1]),
                 ([], []),
                 ([0.4, 0.4, 0.4], [1, 0, 1])]
        clients = [ClientState(i, np.ones((2, 1)), np.ones((0, 1)),
                               np.zeros(0), np.reshape(errors, (-1, 1)),
                               np.array(labels, dtype=np.int64))
                   for i, (errors, labels) in enumerate(cases)]
        thetas = [[0.2, 0.3, 0.2, 0.4],  # ties at theta
                  [-1.0] * 4, [5.0] * 4,  # below and above every error
                  [0.1, np.nan, 0.0, 0.39]]
        results = [MethodResult(f"m{k}", 0.0, t, 0.0, [0.0] * 4, [])
                   for k, t in enumerate(thetas)]
        rows = harness._evaluate(make_config(), results,
                                 [harness._ClientWork(None, c)
                                  for c in clients])
        for k, t in enumerate(thetas):
            confs = [confusion(c.test_labels, classify(c.test_data[:, 0],
                                                       t[i]))
                     for i, c in enumerate(clients)]
            pooled = Confusion(*(sum(getattr(c, f) for c in confs)
                                 for f in ("tp", "fp", "tn", "fn")))
            got = rows[k * 5:(k + 1) * 5]
            assert [r.client_id for r in got] == ["global", "0", "1", "2",
                                                  "3"]
            assert [r.f1 for r in got] == [f1(pooled)] + \
                [f1(c) for c in confs]


class TestFollowupDataset:
    def test_rejects_zero_runs(self, small_config):
        with pytest.raises(ConfigError, match="num_runs"):
            build_followup_dataset(small_config, 0)

    def test_computes_no_round_log(self, monkeypatch):
        # nothing reads a round log here, so no pass over a client's
        # training data may run for one
        calls = []
        evaluate = federation.mse_per_sample
        monkeypatch.setattr(federation, "mse_per_sample",
                            lambda *args: calls.append(1) or evaluate(*args))
        build_followup_dataset(make_config(num_clients=2, rounds=3), 2)
        assert calls == []

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
        assert rounds_csv[0] == "round,client_id,last_epoch_mse,wall_time_ms"
        assert (tmp_path / "partition_plan.csv").exists()

    def test_never_corrupts(self, monkeypatch):
        # corruption touches validation data only, which training never
        # reads
        calls = []

        def spy(client, *args):
            calls.append(client.client_id)
            return client
        monkeypatch.setattr(harness, "corrupt", spy)
        train_model(make_config(corrupt_client_ids=[0, 1]))
        assert calls == []


class TestPipelineStages:
    def test_every_entry_point_runs_one_stage_order(self, monkeypatch):
        names = []
        stage = harness._stage
        monkeypatch.setattr(harness, "_stage", lambda name, *args, **kwargs:
                            names.append(name) or stage(name, *args, **kwargs))
        cfg = make_config(methods=("largest_mse",))
        head = ["load", "split", "scale", "partition", "partition", "corrupt",
                "train"]
        for run, tail in (
                (lambda: train_model(cfg), []),
                (lambda: run_scenario(cfg), ["threshold", "evaluate"]),
                (lambda: sweep_corruption(cfg, [0, 2]),
                 ["threshold", "evaluate"] * 2)):
            names.clear()
            run()
            assert names == head + tail

    def test_every_entry_point_checks_the_data_twice(self, monkeypatch):
        # one Dataset at load and one scaled: split yields row indices and
        # each client gathers its rows from the scaled array
        built = []
        check = Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__",
                            lambda ds: built.append(ds.name) or check(ds))
        cfg = make_config(methods=("largest_mse",))
        for run in (lambda: train_model(cfg), lambda: run_scenario(cfg),
                    lambda: sweep_corruption(cfg, [0, 2])):
            built.clear()
            run()
            assert len(built) == 2


class TestPipelineAudit:
    """Every entry point audits the channel it built, so a method that
    uploads its error vector as a summary fails whoever calls it."""

    @pytest.fixture(autouse=True)
    def leak(self, monkeypatch):
        monkeypatch.setitem(METHODS, "our_method", Method(
            lambda errors, *_: errors, "summary_stats",
            lambda uploads, *_: 0.0))

    @pytest.mark.parametrize("run", [
        lambda cfg: run_scenario(cfg),
        lambda cfg: sweep_corruption(cfg, [0]),
        lambda cfg: sweep_clients(cfg, [2]),
        lambda cfg: build_followup_dataset(cfg, 1),
    ], ids=["run_scenario", "sweep_corruption", "sweep_clients",
            "build_followup_dataset"])
    def test_leaky_upload_raises(self, run, small_config):
        with pytest.raises(AuditError, match="our_method summary payload "
                           "of size .* not a fixed-size statistic"):
            run(small_config)

    def test_nothing_written_on_audit_failure(self, small_config, tmp_path):
        with pytest.raises(AuditError):
            run_scenario(small_config, out_dir=tmp_path)
        assert not (tmp_path / "results.csv").exists()


_CORRUPT_ONE = {"corrupt_client_ids": [0]}
# Every option and an output it must move: option -> (a non-default value,
# overrides both runs share, output). Options are the ScenarioConfig
# fields, the method_params keys as "tag.key", and the CLI flags that
# select behaviour; test_source.py checks that the table lists each one.
OPTION_EFFECTS = {
    "dataset": ({"kind": "blobs", "num_normal": 600,
                 "anomaly_blob_sizes": [30, 30], "dim": 6,
                 "separations": [4.0, 8.0]}, {}, "results"),
    "scheme": ("random", {}, "results"),
    "num_clients": (3, {}, "results"),
    "rounds": (3, {}, "results"),
    "local_epochs": (2, {}, "results"),
    "learning_rate": (0.01, {}, "results"),
    "batch_size": (16, {}, "results"),
    "optimizer": ("adam", {}, "results"),
    "hidden_dims": ([5], {}, "results"),
    "scale_method": ("zscore", {}, "results"),
    "train_frac": (0.5, {}, "results"),
    "val_frac": (0.3, {}, "results"),
    "methods": (["our_method"], {}, "results"),
    # our_method's best candidate here is its grid's lower end at any size
    "n_candidates": (7, {"methods": ["fed_minmax"]}, "results"),
    "formula_mode": ("weighted", {}, "pooled_moments"),
    "concentration": (5.0, {"scheme": "random"}, "results"),
    "noniid_k": (2, {"scheme": "noniid_kmeans"}, "results"),
    "corrupt_client_ids": ([0], {}, "results"),
    "noise_sigma_scale": (5.0, _CORRUPT_ONE, "results"),
    "method_params": ({"percentile": {"p": 50}}, {"methods": ["percentile"]},
                      "results"),
    "data_seed": (11, {}, "results"),
    "model_seed": (12, {}, "results"),
    "partition_seed": (13, {}, "results"),
    "train_seed": (14, {}, "results"),
    "corruption_seed": (15, _CORRUPT_ONE, "results"),
    "scenario_id": ("other", {}, "results"),
    # the corrupted client's mean + std lies at z = 1.7, the rest below 0
    "fed_filtered.z_cut": (2.0, {**_CORRUPT_ONE, "noise_sigma_scale": 5.0,
                                 "methods": ["fed_filtered"]}, "results"),
    "kqe.q": (0.9, {"methods": ["kqe"]}, "results"),
    "kqe.bandwidth": (0.0, {"methods": ["kqe"]}, "results"),
    "percentile.p": (50.0, {"methods": ["percentile"]}, "results"),
    "pot.u_quantile": (0.9, {"methods": ["pot"]}, "results"),
    # risk is read only with 8 or more exceedances above u
    "pot.risk": (0.01, {"methods": ["pot"],
                        "method_params": {"pot": {"u_quantile": 0.7}}},
                 "results"),
    "--seed": ("99", {}, "threshold"),
    "--method": ("iqr", {}, "threshold"),
    "--counts": ("3", {}, "sweep-clients"),
    "--runs": ("3", {}, "followup-dataset"),
}
# arguments a command always gets; the flag under test replaces its own
CLI_ARGS = {"threshold": {}, "sweep-clients": {"--counts": "2"},
            "followup-dataset": {"--runs": "2"}}


def option_output(option, value, overrides, output, tmp_path):
    """The named output of a toy run with `option` at `value`, or at its
    default when value is None."""
    overrides = copy.deepcopy(overrides)
    if value is not None and not option.startswith("--"):
        if "." in option:
            tag, key = option.split(".")
            params = overrides.setdefault("method_params", {})
            params.setdefault(tag, {})[key] = value
        else:
            overrides[option] = value
    cfg = make_config(**overrides)
    if output == "results":  # config_hash aside, which any option moves
        return [row_key(r)[:-1] for r in run_scenario(cfg)]
    if output == "pooled_moments":
        rows, _, _ = build_followup_dataset(cfg, 2)
        return [(r.normal_aggr_skewness, r.normal_aggr_kurtosis,
                 r.anomaly_aggr_skewness, r.anomaly_aggr_kurtosis)
                for r in rows]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    args = dict(CLI_ARGS[output])
    if value is not None:
        args[option] = value
    flags = [arg for pair in args.items() for arg in pair]
    result = CliRunner().invoke(main, [output, "--config", str(path), *flags])
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("option", list(OPTION_EFFECTS))
def test_every_option_changes_its_output(option, tmp_path):
    value, overrides, output = OPTION_EFFECTS[option]
    default = option_output(option, None, overrides, output, tmp_path)
    assert option_output(option, value, overrides, output, tmp_path) != \
        default
