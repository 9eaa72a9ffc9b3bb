"""Acceptance gate: thirteen numbered criteria, one PASS/FAIL line each.

Each test prints (and registers for the terminal summary) a single line
"PASS criterion N: ..." or "FAIL criterion N: ..." with the measured
numbers, then asserts. Criterion 13 needs a user-supplied CSV and skips
with instructions when FEDTHRESH_SHUTTLE_CSV is unset.
"""
import os
from dataclasses import replace
from statistics import median
from time import perf_counter

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, make_config
from fedthresh.autoencoder import ModelParams, init_model
from fedthresh.error_stats import (ClassSummaries, ErrorSummary, aggregate,
                                   overlap_region, summarize)
from fedthresh.harness import (ScenarioConfig, audit_channel, run_scenario,
                               sweep_clients, sweep_corruption)
from fedthresh.metrics import confusion, f1, f1_curve
from fedthresh.thresholds import METHOD_TAGS, classify, local_minmax, our_method
from test_autoencoder import loss_and_grads, numeric_grads, relative_error
from test_metrics import naive_f1_curve


def record(criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def record_skip(criterion: int, reason: str) -> None:
    line = f"SKIP criterion {criterion}: {reason}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    pytest.skip(reason)


def global_f1(rows, method: str) -> float:
    return next(r.f1 for r in rows
                if r.method == method and r.client_id == "global")


def desk_config(**overrides) -> ScenarioConfig:
    """Desk-scale end-to-end scenario shared by criteria 5, 7, 8, 11."""
    base = dict(
        dataset={"kind": "synth", "num_normal": 5000, "num_anomaly": 250,
                 "dim": 8, "separation": 4.0},
        scheme="even", num_clients=6, rounds=20, local_epochs=2,
        methods=("our_method", "fed_mse_std", "fed_filtered", "iqr",
                 "percentile", "local_mse_std"),
        scenario_id="desk")
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def desk_run():
    cfg = desk_config()
    artifacts = {}
    started = perf_counter()
    rows = run_scenario(cfg, artifacts=artifacts)
    elapsed = perf_counter() - started
    return cfg, rows, artifacts, elapsed


def test_criterion_01_pooled_moment_oracle():
    rng = np.random.default_rng(101)
    draw = (lambda n: rng.normal(3.0, 2.0, n),
            lambda n: rng.lognormal(0.0, 0.8, n),
            lambda n: rng.gamma(2.0, 1.5, n),
            lambda n: rng.uniform(-1.0, 4.0, n))
    started = perf_counter()
    worst_pooled = 0.0
    for case in range(500):
        n = int(rng.integers(3, 10_001))
        errors = draw[case % len(draw)](n)
        k = int(rng.integers(1, min(20, n) + 1))
        sizes = rng.multinomial(n - k, np.full(k, 1.0 / k)) + 1
        parts = np.split(errors, np.cumsum(sizes)[:-1])
        summaries = [summarize(p) for p in parts]
        whole = summarize(errors)

        pooled = aggregate(summaries)
        for got, want in ((pooled.mean, whole.mean),
                          (pooled.variance, whole.variance),
                          (pooled.skewness, whole.skewness),
                          (pooled.kurtosis, whole.kurtosis)):
            rel = abs(got - want) / max(abs(want), 1e-12)
            worst_pooled = max(worst_pooled, rel)

    elapsed = perf_counter() - started
    ok = worst_pooled < 1e-9 and elapsed < 10.0
    record(1, ok, f"500 partitions; worst relative error of the pooled "
                  f"moments {worst_pooled:.2e} (tol 1e-9); "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_02_gradient_check():
    rng = np.random.default_rng(202)
    model = init_model(4, (2,), seed=11)
    started = perf_counter()
    worst = 0.0
    for _ in range(20):
        batch = rng.normal(size=(int(rng.integers(2, 9)), 4))
        _, gw, gb = loss_and_grads(model, batch)
        nw, nb = numeric_grads(model, batch)
        for a, b in zip(list(gw) + list(gb), nw + nb):
            worst = max(worst, relative_error(a, b))
    elapsed = perf_counter() - started
    ok = worst < 1e-4 and elapsed < 5.0
    record(2, ok, f"4->2->4 model, 20 batches; worst relative gradient "
                  f"error {worst:.2e} (tol 1e-4); {elapsed:.1f}s < 5s")


def test_criterion_03_overlap_worked_examples():
    def g(mean, variance):
        return ErrorSummary(mean, variance, 0.0, 3.0, 100)

    a = overlap_region(g(1.0, 0.25), g(5.0, 1.0))
    ex_a = a.lower == 2.0 and a.upper == 2.5 and not a.degenerate

    b = overlap_region(g(0.0, 1.0), g(0.0, 1.0))
    ex_b = b.lower == -3.0 and b.upper == 3.0 and not b.degenerate

    c = overlap_region(g(0.0, 0.01), g(10.0, 0.01))
    sigma3 = 3.0 * np.sqrt(0.01)
    ex_c = (c.degenerate and c.lower == sigma3 and c.upper == 10.0 - sigma3
            and np.isclose(c.lower, 0.3, rtol=1e-12)
            and np.isclose(c.upper, 9.7, rtol=1e-12))

    ok = ex_a and ex_b and ex_c
    record(3, ok, f"[{a.lower}, {a.upper}], [{b.lower}, {b.upper}], "
                  f"degenerate [{c.lower:.3f}, {c.upper:.3f}] all match")


def brute_force_best_f1(errors, labels) -> float:
    cuts = np.concatenate(([errors.min() - 1.0], np.unique(errors)))
    return max(f1(confusion(labels, classify(errors, t))) for t in cuts)


def test_criterion_04_brute_force_threshold_oracle():
    rng = np.random.default_rng(404)
    started = perf_counter()
    worst_ours = worst_local = 0.0
    for _ in range(200):
        # Gaussian class pairs, 1.5-3sigma apart: the operating regime of
        # the 3sigma overlap region (heavier separations or tails push the
        # in-sample optimum outside the region)
        n = int(rng.integers(20, 201))
        n_anom = int(rng.integers(3, max(4, n // 4)))
        sigma = rng.uniform(0.1, 0.3)
        offset = rng.uniform(1.5, 3.0) * sigma
        errors = np.concatenate([rng.normal(1.0, sigma, n - n_anom),
                                 rng.normal(1.0 + offset, sigma, n_anom)])
        labels = np.concatenate([np.zeros(n - n_anom, dtype=np.int64),
                                 np.ones(n_anom, dtype=np.int64)])
        best = brute_force_best_f1(errors, labels)

        cs = ClassSummaries(summarize(errors[labels == 0]),
                            summarize(errors[labels == 1]))
        theta = our_method([cs], lambda c: f1_curve(errors, labels, c),
                           n=10_000)
        ours = f1(confusion(labels, classify(errors, theta)))
        worst_ours = max(worst_ours, best - ours)

        theta_local = local_minmax(errors, labels, n=10_000)
        local = f1(confusion(labels, classify(errors, theta_local)))
        worst_local = max(worst_local, best - local)
    elapsed = perf_counter() - started
    ok = worst_ours <= 0.01 and worst_local <= 0.01 and elapsed < 60.0
    record(4, ok, f"200 instances; worst F1 gap to exhaustive oracle: "
                  f"our_method {worst_ours:.4f}, local_minmax "
                  f"{worst_local:.4f} (tol 0.01); {elapsed:.1f}s < 60s")


def test_criterion_05_desk_scale_end_to_end(desk_run):
    _, rows, _, elapsed = desk_run
    ours = global_f1(rows, "our_method")
    rivals = {m: global_f1(rows, m) for m in
              ("fed_mse_std", "fed_filtered", "iqr", "percentile",
               "local_mse_std")}
    ok = (ours >= 0.90
          and all(ours >= v - 0.02 for v in rivals.values())
          and elapsed < 120.0)
    rival_txt = ", ".join(f"{m} {v:.3f}" for m, v in rivals.items())
    record(5, ok, f"our_method {ours:.3f} (>= 0.90, >= rivals - 0.02: "
                  f"{rival_txt}); {elapsed:.0f}s < 120s")


def test_criterion_06_noniid_ordering():
    # near blob inside the normal cloud's reach, far blob extreme: the
    # cluster partition then leaves the far blob on one client whose huge
    # mixed mean+std drags the fed_mse_std average past the near anomalies
    cfg = desk_config(
        dataset={"kind": "blobs", "num_normal": 5000,
                 "anomaly_blob_sizes": [150, 100], "dim": 8,
                 "separations": [1.5, 9.0]},
        scheme="noniid_kmeans", methods=("our_method", "fed_mse_std"),
        scenario_id="desk-noniid")
    rows = run_scenario(cfg)
    ours = global_f1(rows, "our_method")
    fed = global_f1(rows, "fed_mse_std")
    ok = ours >= fed + 0.05
    record(6, ok, f"non-IID blobs: our_method {ours:.3f} vs fed_mse_std "
                  f"{fed:.3f} (margin {ours - fed:+.3f}, need >= 0.05)")


def test_criterion_07_client_scalability():
    cfg = desk_config(methods=("our_method",), scenario_id="desk-scale")
    results = sweep_clients(cfg, (2, 6, 10, 20))
    f1s = {count: global_f1(rows, "our_method")
           for count, rows in results.items()}
    floor = f1s[2] - 0.05
    ok = all(v >= floor for v in f1s.values())
    record(7, ok, "F1 by client count " +
           ", ".join(f"{c}: {v:.3f}" for c, v in sorted(f1s.items())) +
           f" (floor {floor:.3f})")


def test_criterion_08_corruption_robustness():
    cfg = desk_config(methods=("our_method", "fed_mse_std"),
                      noise_sigma_scale=2.0, scenario_id="desk-corrupt")
    results = sweep_corruption(cfg, (0, 1, 3))
    ours = {c: global_f1(rows, "our_method") for c, rows in results.items()}
    fed_at_max = global_f1(results[3], "fed_mse_std")
    non_increasing = ours[1] <= ours[0] + 0.02 and ours[3] <= ours[1] + 0.02
    ok = non_increasing and ours[3] >= fed_at_max
    record(8, ok, f"our_method F1 at 0/1/3 corrupt: {ours[0]:.3f}/"
                  f"{ours[1]:.3f}/{ours[3]:.3f} (jitter 0.02); at max "
                  f"corruption vs fed_mse_std {fed_at_max:.3f}")


def test_criterion_09_timing_trend(tmp_path):
    cfg = make_config(
        dataset={"kind": "synth", "num_normal": 2000, "num_anomaly": 200,
                 "dim": 6, "separation": 6.0},
        rounds=1, n_candidates=4000,
        methods=("our_method", "local_minmax"), scenario_id="timing")
    counts = (2, 6, 10, 20)
    fed_ms = {c: [] for c in counts}
    local_ms = {c: [] for c in counts}
    for rep in range(3):
        out = tmp_path / f"rep{rep}"
        results = sweep_clients(cfg, counts, out_dir=out)
        for count, rows in results.items():
            fed_ms[count].append(next(
                r.wall_time_ms for r in rows
                if r.method == "our_method" and r.client_id == "global"))
            local_ms[count].append(median(
                r.wall_time_ms for r in rows
                if r.method == "local_minmax" and r.client_id != "global"))
    # min over repeats rejects scheduler noise
    fed = {c: min(v) for c, v in fed_ms.items()}
    local = {c: min(v) for c, v in local_ms.items()}
    # 0.25 ms floor absorbs timer granularity on near-zero baselines
    local_bound = 2.0 * local[2] + 0.25
    grows = fed[20] > fed[2] and fed[20] > fed[6] and fed[10] > fed[2]
    local_flat = all(local[c] <= local_bound for c in counts)
    ok = grows and local_flat and (tmp_path / "rep0" /
                                   "timing_by_clients.csv").exists()
    record(9, ok, "federated ms " +
           "/".join(f"{fed[c]:.1f}" for c in counts) +
           " grows; local per-client ms " +
           "/".join(f"{local[c]:.2f}" for c in counts) +
           f" within 2x of 2-client value (+0.25ms floor)")


# the four clients' validation normals are too few for pot's tail fit
@pytest.mark.filterwarnings("ignore:client \\d. thin tail, pot falls back to "
                            "the 98% percentile:UserWarning")
def test_criterion_10_determinism(tmp_path):
    cfg = make_config(methods=METHOD_TAGS, scenario_id="determinism")
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    ok = a == b
    record(10, ok, f"results.csv byte-identical across runs "
                   f"({len(a)} bytes, all 11 methods)")


def test_criterion_11_privacy_audit(desk_run):
    cfg, _, artifacts, _ = desk_run
    channel = artifacts["channel"]
    audit_channel(channel, cfg.num_clients, cfg.rounds)
    raw = channel.count(kind="raw_errors")
    fedavg = channel.count(context="fedavg")
    expected = 2 * cfg.num_clients * cfg.rounds
    kinds = set()
    for tag in ("our_method", "fed_mse_std", "fed_filtered"):
        kinds |= {m.kind for m in channel.select("upload", context=tag)}
    ok = (raw == 0 and fedavg == expected
          and kinds <= {"summary_stats", "f1_scores"})
    record(11, ok, f"uploads {sorted(kinds)} only; raw error payloads "
                   f"{raw}; FedAvg messages {fedavg} == 2*"
                   f"{cfg.num_clients}*{cfg.rounds}")


def test_criterion_12_f1_sweep_oracle():
    rng = np.random.default_rng(1212)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 301))
        errors = np.round(rng.normal(0.0, 1.0, n), 3)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        m = int(rng.integers(1, 41))
        candidates = np.sort(np.where(rng.random(m) < 0.5,
                                      rng.choice(errors, m),
                                      rng.normal(0.0, 1.5, m)))
        want = naive_f1_curve(errors, labels, candidates)
        if not np.array_equal(f1_curve(errors, labels, candidates), want):
            mismatches += 1
    ok = mismatches == 0
    record(12, ok, f"1000 random cases, f1_curve vs naive recount: "
                   f"{mismatches} mismatches (bit-exact required)")


def test_criterion_13_shuttle_spot_check():
    path = os.environ.get("FEDTHRESH_SHUTTLE_CSV")
    if not path:
        record_skip(13, "set FEDTHRESH_SHUTTLE_CSV to a Shuttle-style CSV "
                        "(binary 'label' column, 1 = anomaly) to enable")
    cfg = desk_config(
        dataset={"kind": "csv", "path": path, "label_column": "label",
                 "positive_label": "1"},
        methods=("our_method",), scenario_id="shuttle")
    rows = run_scenario(cfg)
    ours = global_f1(rows, "our_method")
    ok = ours >= 0.95
    record(13, ok, f"Shuttle CSV, 6 clients even: our_method F1 "
                   f"{ours:.4f} (need >= 0.95)")
