"""Run the benchmark over several seeds and save each run's output.

    python3 bench/sweep.py OUT_DIR [--tree DIR ...] [--workload W ...] [--seeds 1-10]

Runs are sequential, one process at a time, untraced, each for the
`run_seconds` of BENCHMARK.json. With two `--tree` checkouts
(say the parent commit and the change) each seed runs on both, and which
tree goes first alternates from seed to seed. Outputs land in OUT_DIR/<i>/
for the i-th tree, ready for `compare.py OUT_DIR/0 OUT_DIR/1`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--tree", action="append", type=Path, default=None)
    ap.add_argument("--workload", action="append", choices=names, default=None)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in (args.tree or [HERE.parent])]
    status = 0
    for workload in args.workload or names:
        for n, seed in enumerate(args.seeds):
            order = list(enumerate(trees))
            if n % 2:
                order.reverse()
            for i, tree in order:
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
                dest = args.out / str(i) / f"{workload}-seed{seed}.out"
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(proc.stdout + proc.stderr)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{workload} seed {seed} tree {i}: exit {proc.returncode} {last[0][:120]}",
                      flush=True)
                status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
