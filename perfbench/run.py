"""End-to-end and per-layer benchmark of fedthresh.

    python3 perfbench/run.py --workload iid_train --seed 1 --seconds 34 --trace 0

Run from the repository root (the package is imported from ./src). The
inputs are made from the seed before anything is timed, in this process;
the workload then runs in a fresh child process (worker.py) with one
BLAS/OpenMP thread. With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics, with --trace 1 with the per-layer metrics.
Work files go to .perfbench/<workload>-seed<seed>/; the spans of a traced
run are kept there as spans.csv.gz. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CODE = ("import sys, fedthresh.cli as cli; "
              "cli._load(sys.argv[1], int(sys.argv[2]))")
# setup_s is the median of fresh interpreters started this many times
# before and after the worker, so that it spans the run; import time per
# package is the median of IMPORT_REPEATS -X importtime runs
SETUP_REPEATS = (3, 4)
IMPORT_REPEATS = 3
IMPORT_PACKAGES = ("fedthresh", "numpy", "scipy", "click")
CHILD_TIMEOUT_S = 150
# pinned to 1 in every child and reported by the worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
UNITS = {"run_s": "s", "setup_s": "s", "train_samples_per_s": "samples/s",
         "peak_rss_mb": "MB", "f1_our_method": "1"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_max_over_min")):
        return "1"
    return "count"


def child_env():
    env = dict(os.environ)
    env.pop("FEDTHRESH_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def python(args, work, env, **kwargs):
    """Run a fresh interpreter in work; returns the completed process."""
    return subprocess.run([sys.executable, *args], cwd=work, env=env,
                          timeout=CHILD_TIMEOUT_S, check=True, **kwargs)


def setup_seconds(work, env, seed, repeats):
    """Wall times of `repeats` fresh interpreters importing the CLI and
    parsing the workload's config."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        python(["-c", SETUP_CODE, workloads.CONFIG_NAME, str(seed)], work, env)
        times.append(time.perf_counter() - started)
    return times


def import_seconds(work, env, seed):
    """Self import time summed per top-level package (-X importtime),
    median over IMPORT_REPEATS runs."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        done = python(["-X", "importtime", "-c", SETUP_CODE,
                       workloads.CONFIG_NAME, str(seed)], work, env,
                      capture_output=True, text=True)
        per = dict.fromkeys(IMPORT_PACKAGES + ("other", "total"), 0.0)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, module = line[len("import time:"):].split("|")
            top = module.strip().split(".")[0]
            seconds = int(self_us) / 1e6
            per[top if top in IMPORT_PACKAGES else "other"] += seconds
            per["total"] += seconds
        runs.append(per)
    return {f"import.{k}_s": statistics.median(r[k] for r in runs)
            for k in runs[0]}


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedthresh" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'fedthresh'} not found; run from a "
              "fedthresh checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.make_inputs(workload, args.seed, work, args.toy)
    env = child_env()
    # one untimed interpreter first: it writes the bytecode caches that
    # every later CLI start reuses
    python(["-c", SETUP_CODE, workloads.CONFIG_NAME, str(args.seed)], work,
           env)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "toy": args.toy, "git_commit": git_commit()}
    if args.trace:
        imports = import_seconds(work, env, args.seed)
    else:
        setup_samples = setup_seconds(work, env, args.seed, SETUP_REPEATS[0])
    with open(work / "worker.stderr", "w", encoding="utf-8") as err:
        python([str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", "worker.json"],
               work, env, stderr=err)
    if not args.trace:
        setup_samples += setup_seconds(work, env, args.seed, SETUP_REPEATS[1])
        setup_s = statistics.median(setup_samples)
        detail["setup_s_samples"] = setup_samples
    summary = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    if args.trace:
        values = {**summary["layers"], **imports}
        units = {name: layer_unit(name) for name in values}
    else:
        values = {**summary["e2e"], "setup_s": setup_s}
        units = UNITS
    detail.update({k: summary[k] for k in (
        "attempted", "failed", "errors", "sha256", "run_s_samples",
        "run_s_percentile", "env")})
    detail["failed_ratio"] = summary["failed"] / summary["attempted"]
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n",
                                      encoding="utf-8")
    for name in ("input.csv", "out"):
        path = work / name
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)

    missing = sorted(k for k, v in values.items() if v is None)
    if missing:
        print(f"error: no successful operation measured {missing}: "
              f"{summary['errors'][:1]}; see {work / 'worker.stderr'}",
              file=sys.stderr)
        return 1
    for name in sorted(values):
        print(f"{args.workload:16s} {name:40s} {values[name]:>16.6g} "
              f"{units[name]}")
    print(f"{args.workload:16s} {'failed_ratio':40s} "
          f"{detail['failed_ratio']:>16.6g} 1")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
