"""Cross-check the traced per-stage shares against cProfile on the same problem.

Usage (from the repository root):

    python3 perfbench/profile_check.py [--seed N] [--problem K]

For problem K of each workload, runs one traced worker and one worker under
cProfile, and prints, for each traced stage function, its inclusive time as
a share of the whole ``cli.main`` call in both runs.  cProfile charges every
Python call, so stages made of many small calls read somewhat higher there.
"""

from __future__ import annotations

import argparse
import json
import os
import pstats
import subprocess
import sys
import tempfile

from run import SRC, WORKER
from spans import layer_metrics
from workloads import WORKLOADS, make_problem

STAGES = {
    "center_basis": "center.time_s",
    "nullspace_basis": "ratlinalg.nullspace_s",
    "rref": "ratlinalg.rref_s",
    "decompose_recursive": "decompose.recursive_s",
    "find_idempotents": "idempotent.find_s",
    "minimal_polynomial": "ratlinalg.minpoly_s",
    "primary_coprime_factors": "ratlinalg.factor_s",
    "verify_complete": "idempotent.verify_complete_s",
    "separate": "decompose.separate_s",
    "substitute_linear": "poly.substitute_linear_s",
    "verify_decomposition": "decompose.verify_s",
}


def _worker(args: list, profile_to: str | None = None) -> dict:
    cmd = [sys.executable]
    if profile_to:
        cmd += ["-m", "cProfile", "-o", profile_to]
    subprocess.run(cmd + [WORKER, SRC] + args, check=True)
    with open(args[2], encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--problem", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(SRC)) as work:
        problem_path = os.path.join(work, "p.txt")
        out, rep, prof = (os.path.join(work, f) for f in ("p.json", "r.json", "p.prof"))
        print("| workload | stage | traced share | cProfile share |")
        print("|---|---|---|---|")
        for workload in WORKLOADS:
            problem = make_problem(workload, args.seed, args.problem)
            with open(problem_path, "w", encoding="utf-8") as fh:
                fh.write(problem.text())
            traced = _worker([problem_path, out, rep, "1"])
            spans = traced["trace"]["spans"]
            total = next(s[4] - s[3] for s in spans if s[0] == "cli.main")
            metrics = layer_metrics(traced["trace"])
            _worker([problem_path, out, rep, "0"], profile_to=prof)
            cumulative: dict = {}
            for (filename, _, name), row in pstats.Stats(prof).stats.items():
                if os.sep + "polydecomp" + os.sep in filename:
                    cumulative[name] = max(cumulative.get(name, 0.0), row[3])
            main_s = cumulative["main"]
            for stage, metric in STAGES.items():
                print(
                    f"| {workload} | {stage} | {metrics[metric] / total:.3f} "
                    f"| {cumulative.get(stage, 0.0) / main_s:.3f} |"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
