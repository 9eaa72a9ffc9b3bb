"""Every end-to-end metric of every workload in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 34]

Runs perfbench/run.py untraced once per workload and prints its metric
lines: name, value and unit, with failed_ratio (failed / attempted
operations). Exits 1 if any workload failed a correctness check or could
not be measured. The per-layer metrics come from run.py --trace 1.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34)
    args = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: run.py exited {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            all_correct = False
            continue
        all_correct &= json.loads(lines[-1])["correct"]
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("detail ")))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
