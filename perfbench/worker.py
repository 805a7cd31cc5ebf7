"""Solve one problem in a fresh interpreter through the real CLI entry point.

Usage: worker.py SRC_DIR PROBLEM OUTPUT REPORT TRACE

Times the import of ``polydecomp.cli`` (set-up) and the in-process call
``cli.main(["decompose", "--input", PROBLEM, "--json", "--output", OUTPUT])``
(solve), a fixed calibration kernel run between the two, and the worker's
peak resident set, and writes the four to REPORT as JSON.  With TRACE=1 the
public functions of the program's modules are wrapped before the call and
the recorded spans and counters go into the report as well.  Resource limits are
set by the parent on this process only.
"""

import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed mix of big-integer, Fraction and dict work.

    The host's speed drifts by tens of percent over minutes, and this figure
    drifts with it; run.py scales every timing of a run by it.  It runs
    before the solve, so nothing the program leaves on the heap can move it.
    """
    from fractions import Fraction  # imported here so set-up time includes it

    t0 = time.perf_counter()
    n = 14
    a = [[(i * 7919 + j * 104729 + i * j) % 97 - 48 for j in range(n)] for i in range(n)]
    prev = 1
    for col in range(n):  # Bareiss elimination: the divisions are exact
        piv = a[col][col] or 1
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [(piv * x - f * y) // prev for x, y in zip(a[r], a[col])]
        prev = piv
    s = Fraction(0)
    for k in range(1, 600):
        s += Fraction(k % 17 + 1, k % 29 + 1)
    d: dict = {}
    for k in range(30000):
        key = (k % 31, k % 7)
        d[key] = d.get(key, 0) + k
    return time.perf_counter() - t0


def main(argv: list) -> int:
    src, problem, output, report_path, trace = argv
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import polydecomp.cli as cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"imported {cli.__file__}, not the program under {src}", file=sys.stderr)
        return 4
    calibration_s = sum(calibrate() for _ in range(6)) / 6
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    report = {"setup_s": setup_s, "calibration_s": calibration_s, "rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        report["rc"] = cli.main(["decompose", "--input", problem, "--json", "--output", output])
    except MemoryError:
        report["error"] = "MemoryError"
    except Exception as exc:  # a crash of the program is a result to record
        report["error"] = f"{type(exc).__name__}: {exc}"[:300]
    report["solve_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["trace"] = tracer.export()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
