"""Child process of run.py: repeat one workload operation for a fixed time.

Runs in the workload's work directory with the package on PYTHONPATH and
one BLAS/OpenMP thread. Every operation is timed around the API call
alone and then checked: results.csv bytes equal to the first operation's,
the privacy audit passes, and our_method's global F1 reaches the
workload's floor. In trace mode, untraced and traced operations alternate
so the traced ones give the per-layer numbers and the pair gives the
tracing overhead. Writes one JSON summary to --out.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from fedthresh import cli, metrics

import tracing
import workloads
from run import THREAD_VARS


def environment():
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "FEDTHRESH_THREADS": os.environ.get("FEDTHRESH_THREADS"),
        "fast_sweep_importable": metrics.HAVE_FAST_SWEEP,
    }


def run_one(workload, cfg, probe, tracer, first):
    """Time and check one operation against the first good ones (keyed
    "plain" and "traced"); returns its record."""
    out_dir = Path("out")
    probe.reset()
    record = {"traced": tracer is not None, "error": None}
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        if tracer is not None:
            result, root = tracer.run_root(workloads.run_operation, workload,
                                           cfg, out_dir)
        else:
            result = workloads.run_operation(workload, cfg, out_dir)
        record["run_s"] = time.perf_counter() - started
    except Exception as exc:
        record["run_s"] = time.perf_counter() - started
        record["error"] = f"raised {exc!r}"
        traceback.print_exc()
        return record
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        record["f1_our_method"] = workloads.f1_our_method(workload, result)
        record["train_samples_per_s"] = probe.train_samples / probe.train_s
        record["counts"] = probe.counters()
        if tracer is not None:
            record["layers"] = tracing.op_layers(tracer.spans, root)
        record["sha256"] = workloads.results_digest(workload, result, out_dir)
        workloads.audit(cfg, probe.channel)
    except Exception as exc:
        record["error"] = f"check raised {exc!r}"
        traceback.print_exc()
        return record
    if record["f1_our_method"] < workload.f1_floor:
        record["error"] = (f"f1_our_method {record['f1_our_method']} below "
                           f"the floor {workload.f1_floor}")
    elif "plain" in first and record["sha256"] != first["plain"]["sha256"]:
        record["error"] = "results.csv differs from the first operation's"
    elif "plain" in first and record["counts"] != first["plain"]["counts"]:
        record["error"] = "channel or client counts differ between operations"
    elif "traced" in first and tracer is not None and any(
            record["layers"][k] != first["traced"]["layers"][k]
            for k in tracing.EXACT_COUNTS):
        record["error"] = "layer counts differ between traced operations"
    return record


def top_percentile(samples):
    """The highest percentile with at least ten samples beyond it, as
    {"p": p, "value": seconds}; None below 20 samples, where only the
    median qualifies."""
    if len(samples) < 20:
        return None
    p = int(100 * (1 - 10 / len(samples)))
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"p": p, "value": cuts[p - 1]}


def summarize(records, trace):
    """Metrics over every operation that returned, failed checks included:
    a failure is counted, never dropped."""
    measured = [r for r in records if "counts" in r]
    plain = [r for r in measured if not r["traced"]]
    summary = {
        "run_s_samples": [r["run_s"] for r in records if not r["traced"]],
        "sha256": sorted({r["sha256"] for r in records if "sha256" in r}),
        "errors": [r["error"] for r in records if r["error"]],
        "e2e": {
            "run_s": statistics.median(r["run_s"] for r in records
                                       if not r["traced"]),
            "train_samples_per_s": statistics.median(
                r["train_samples_per_s"] for r in plain) if plain else None,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "f1_our_method":
                measured[0]["f1_our_method"] if measured else None,
        },
    }
    summary["run_s_percentile"] = top_percentile(summary["run_s_samples"])
    if trace:
        traced = [r for r in measured if r["traced"]]
        layers = {}
        # counts repeat exactly across operations (checked); times are
        # medians over the traced operations
        for key in traced[0]["layers"] if traced else ():
            layers[key] = traced[0]["layers"][key] \
                if key in tracing.EXACT_COUNTS \
                else statistics.median(r["layers"][key] for r in traced)
        layers.update(measured[0]["counts"] if measured else {})
        traced_s = [r["run_s"] for r in records if r["traced"]]
        layers["trace.run_s"] = statistics.median(traced_s)
        layers["trace.untraced_run_s"] = summary["e2e"]["run_s"]
        layers["trace.overhead_ratio"] = \
            layers["trace.run_s"] / summary["e2e"]["run_s"]
        summary["layers"] = layers
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cfg = cli._load(workloads.CONFIG_NAME, args.seed)
    probe = tracing.Probe()
    probe.install()
    tracer = tracing.Tracer() if args.trace else None
    # enough operations that the determinism checks compare a pair of each
    # kind and the untraced median rests on more than one sample
    min_ops = 4 if args.trace else 3
    records, first = [], {}
    deadline = time.perf_counter() + args.seconds
    # stop when the next operation would end past the deadline by more than
    # half its length, so a run measures close to --seconds
    while len(records) < min_ops or \
            time.perf_counter() + records[-1]["run_s"] / 2 < deadline:
        traced = tracer if args.trace and len(records) % 2 else None
        record = run_one(workload, cfg, probe, traced, first)
        if record["error"] is None:
            first.setdefault("plain", record)
            if traced is not None:
                first.setdefault("traced", record)
        records.append(record)
    probe.restore()
    summary = summarize(records, args.trace)
    summary.update(attempted=len(records),
                   failed=sum(r["error"] is not None for r in records),
                   env=environment())
    if tracer is not None:
        tracer.write("spans.csv.gz")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
