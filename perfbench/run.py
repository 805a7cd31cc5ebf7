"""polydecomp benchmark: closed loop, one client, one worker process at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Problems of the named workload are generated from the seed (see
workloads.py) and solved one after another, each in a fresh worker process
running ``polydecomp.cli.main(["decompose", ...])`` under a CPU-time limit and
an address-space cap, until S seconds have passed and the workload's cycle of
problem shapes is complete (or 2 S seconds have passed).  Every output is checked
by check.py.  The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1); a table
of the same numbers goes to standard error.

With --trace 1 each problem is solved twice, untraced and then traced, so the
tracing overhead is measured on the same inputs.  Per-problem outcomes are
written to .perfbench/problems-WORKLOAD-SEED.json and, with --trace 1, all
spans of the run to .perfbench/trace-WORKLOAD-SEED.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Per-problem limits, the same for every workload and identical on every
# commit.  The slowest decided problem seen took 4.8 s and the largest peak
# of scalar_center and few_blocks is 47 MB; the many_blocks blow-ups reach
# the memory cap within about 3 s.
CPU_LIMIT_S = 20
MEMORY_CAP_MB = 256

# The host's speed drifts by up to a factor of two over seconds to minutes.
# Each worker times a fixed kernel (worker.calibrate) before its solve, and
# every timing of a run is multiplied by CALIBRATION_REF_S / (the run's mean
# kernel time).  Timings so read as seconds on a host where the kernel takes
# CALIBRATION_REF_S, its fastest time seen on the 2-vCPU 2.0 GHz Xeon VM the
# benchmark was written on.  A change to the program moves them in full;
# host drift mostly cancels.
CALIBRATION_REF_S = 0.008

END_TO_END_UNITS = {
    "solved_per_s": "1/s",
    "solve_s_p50": "s",
    "decided_ratio": "ratio",
    "separated_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Outcome:
    """What one worker did with one problem."""

    solve_s: float  # failed problems: time until the failure, or the limit
    setup_s: float | None
    calibration_s: float | None
    peak_rss_mb: float | None
    failure: str | None  # None when the output passed the checker
    separated: int = 0  # decided problems: planted blocks the output separates
    blocks: int = 0  # decided problems: planted blocks
    trace: dict | None = None


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 5))
    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def solve(problem, work: str, traced: bool) -> Outcome:
    from check import Verdict, check

    tag = f"{problem.pid}{'t' if traced else ''}"
    path = os.path.join(work, f"p{tag}.txt")
    output = os.path.join(work, f"p{tag}.json")
    report_path = os.path.join(work, f"p{tag}.report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem.text())
    proc = subprocess.Popen(
        [sys.executable, WORKER, SRC, path, output, report_path, "1" if traced else "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=_limit_child,
        cwd=work,
    )
    try:
        _, stderr = proc.communicate(timeout=2 * CPU_LIMIT_S + 10)
    except subprocess.TimeoutExpired:
        stderr = b"wall-clock limit exceeded"
    finally:
        proc.kill()  # does nothing once the worker has been waited for
        proc.wait()
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        reason = f"worker died (exit {proc.returncode}): {stderr.decode()[-200:].strip()}"
        return Outcome(CPU_LIMIT_S, None, None, None, reason)
    outcome = Outcome(
        report["solve_s"],
        report["setup_s"],
        report["calibration_s"],
        report["peak_rss_mb"],
        None,
        trace=report.get("trace"),
    )
    if report["error"]:
        outcome.failure = report["error"]
    elif report["rc"] != 0:
        outcome.failure = f"exit code {report['rc']}: {stderr.decode()[-200:].strip()}"
    else:
        try:
            with open(output, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            outcome.failure = f"unreadable output: {exc}"
        else:
            try:
                verdict = check(problem, doc)
            except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
                verdict = Verdict(False, f"malformed document: {exc!r}")
            outcome.failure = None if verdict.ok else f"wrong output: {verdict.reason}"
            outcome.separated, outcome.blocks = verdict.separated, len(problem.planted)
    return outcome


def time_scale(outcomes: list) -> float:
    """Factor that converts this run's timings to the reference host speed."""
    kernel = [o.calibration_s for o in outcomes if o.calibration_s is not None]
    return CALIBRATION_REF_S / statistics.fmean(kernel) if kernel else 1.0


def end_to_end(outcomes: list, scale: float) -> dict:
    decided = [o for o in outcomes if o.failure is None]
    p50 = [o.solve_s if o.failure is None else CPU_LIMIT_S for o in outcomes]
    setups = [o.setup_s for o in outcomes if o.setup_s is not None]
    return {
        "solved_per_s": len(decided) / (scale * sum(o.solve_s for o in outcomes)),
        "solve_s_p50": scale * statistics.median(p50),
        "decided_ratio": len(decided) / len(outcomes),
        "separated_ratio": (
            sum(o.separated for o in decided) / sum(o.blocks for o in decided) if decided else 0.0
        ),
        # Mean over decided problems.  A problem stopped at the memory cap
        # would read as the cap, and failures already count in decided_ratio.
        # The maximum is set by one rare problem per run, too unsteady to bound.
        "peak_rss_mb": (
            statistics.fmean(o.peak_rss_mb for o in decided) if decided else float(MEMORY_CAP_MB)
        ),
        "setup_s": scale * statistics.median(setups) if setups else float(CPU_LIMIT_S),
    }


def per_layer(pairs: list, scale: float) -> tuple:
    """Mean per traced problem of each layer metric, and the tracing overhead."""
    from spans import PER_LAYER, layer_metrics

    rows = [layer_metrics(t.trace) for _, t in pairs if t.trace is not None]
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    out = {}
    for name, unit in units.items():
        values = [r[name] for r in rows] or [0]
        out[name] = max(values) if name.endswith("_max") else statistics.fmean(values)
        if unit == "s":
            out[name] *= scale
    draws = out["idempotent.draws"]
    out["idempotent.split_ratio"] = out["idempotent.split_draws"] / draws if draws else 0.0
    plain = sum(u.solve_s for u, _ in pairs)
    traced = sum(t.solve_s for _, t in pairs)
    out["trace.overhead_s"] = scale * (traced - plain) / len(pairs)
    out["trace.overhead_share"] = (traced - plain) / plain
    out["bench.calibration_s"] = CALIBRATION_REF_S / scale
    units.update(
        {
            "idempotent.split_ratio": "ratio",
            "trace.overhead_s": "s",
            "trace.overhead_share": "ratio",
            "bench.calibration_s": "s",
        }
    )
    return out, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polydecomp", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_problem

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    outcomes, traced_outcomes, spans = [], [], []
    deadline = time.perf_counter() + args.seconds
    try:
        # Runs end on a whole cycle of the workload's shape schedule, so every
        # run measures the same mix of problem shapes, unless that would take
        # the run past twice its length.
        cycle = len(WORKLOADS[args.workload])
        while not outcomes or time.perf_counter() < deadline or (
            len(outcomes) % cycle and time.perf_counter() < deadline + args.seconds
        ):
            problem = make_problem(args.workload, args.seed, len(outcomes))
            outcome = solve(problem, work, traced=False)
            outcomes.append(outcome)
            if outcome.failure:
                print(f"problem {problem.pid} {problem.shape}: {outcome.failure}", file=sys.stderr)
            if args.trace:
                traced = solve(problem, work, traced=True)
                traced_outcomes.append(traced)
                if traced.trace is not None:
                    spans.append({"problem": problem.pid, **traced.trace})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log = [{"problem": pid, **vars(o), "trace": None} for pid, o in enumerate(outcomes)]
    with open(os.path.join(OUT_DIR, f"problems-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump(log, fh, indent=1)
    if args.trace:
        metrics, units = per_layer(
            list(zip(outcomes, traced_outcomes)), time_scale(outcomes + traced_outcomes)
        )
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(spans, fh)
    else:
        metrics, units = end_to_end(outcomes, time_scale(outcomes)), END_TO_END_UNITS
    wrong = [
        o for o in outcomes + traced_outcomes if o.failure and o.failure.startswith("wrong output")
    ]
    for name, value in metrics.items():
        print(f"{args.workload:>14} {name:<34} {value:12.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
