"""Outside-in benchmark of lexenum: seeded workloads, end-to-end metrics and
a traced run that splits the work by module.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dense-cross --seed 1 --seconds 20 --trace 0

lexenum is imported from the checkout's ``src/``. One client works in a
closed loop: a single thread runs one iteration (a whole workload, from input
text in hand to the last word) at a time, and repeats it until ``--seconds``
have passed and at least MIN_GAPS gaps between words have been timed. Every
word is checked against a reference that does not come from the enumerator.

``--trace 0`` reports the end-to-end metrics (medians over the iterations);
``--trace 1`` reports the per-layer metrics from traced iterations, and
writes their spans and counts under ``perfbench/out/``. The last line of
stdout is one JSON object; the lines before it list the metrics for people.
The exit code is 1 if any check failed and 2 if the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Delay percentiles are reported only over at least this many gaps.
MIN_GAPS = 1000
# Gaps are kept from this many iterations at most (see Loop).
MAX_GAP_ROWS = 15

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "words_per_s": "words/s",
    "delay_p50_us": "us",
    "delay_p99_us": "us",
    "peak_rss_mb": "MB",
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Loop:
    """Closed-loop client: iterations one after another, failures tallied.

    Every iteration replays the same input, so the gap before word ``i`` is
    the same work each time. Only a summary of each iteration is kept, plus
    its gaps for the first MAX_GAP_ROWS iterations, so the harness's memory
    does not grow with the number of iterations a faster program fits in.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.crashed = False
        self.gap_count = 0
        self.gap_rows: list[array] = []

    def run(self, seconds: float, min_gaps: int = 0) -> list[dict]:
        done = []
        deadline = perf_counter() + seconds
        while not self.crashed and (
            not done or self.gap_count < min_gaps or perf_counter() < deadline
        ):
            gc.collect()
            try:
                it = self.workload.run_once()
            except Exception:
                # A run that raises counts as all of its words failed.
                traceback.print_exc()
                self.attempted += self.workload.expected
                self.failed += self.workload.expected
                self.crashed = True
                break
            self.attempted += it.checked
            self.failed += it.failed
            if it.failed:
                print(f"check failed: {it.failed} of {it.checked} words wrong", file=sys.stderr)
            if len(it.stamps) < 2:  # too few words to time; counted as failed above
                self.crashed = True
                break
            setup, wall, rate, gaps = it.scaled()
            self.gap_count += len(gaps)
            if len(self.gap_rows) < MAX_GAP_ROWS:
                self.gap_rows.append(array("d", gaps))
            done.append({"setup_s": setup, "wall_s": wall, "words_per_s": rate,
                         "raw": it.raw(), "probe": it.probe})
        return done


def end_to_end(loop: Loop, iterations: list[dict]) -> dict[str, float]:
    """Medians over iterations, at reference speed.

    The delay percentiles are taken over word positions, of the median gap
    at each position across iterations: host noise that hits one iteration
    drops out, the spread of cost between words stays.
    """
    gaps = sorted(statistics.median(column) for column in zip(*loop.gap_rows))
    raw = list(zip(*(it["raw"] for it in iterations)))
    print(f"{len(iterations)} iterations, {loop.gap_count} gaps timed, delay percentiles over "
          f"{len(gaps)} positions; unscaled "
          f"medians: setup {statistics.median(raw[0]):.6g} s, wall "
          f"{statistics.median(raw[1]):.6g} s, {statistics.median(raw[2]):.6g} words/s")
    return {
        "setup_s": statistics.median(it["setup_s"] for it in iterations),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "words_per_s": statistics.median(it["words_per_s"] for it in iterations),
        "delay_p50_us": _percentile(gaps, 0.50) * 1e6,
        "delay_p99_us": _percentile(gaps, 0.99) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def per_layer(loop: Loop, seconds: float, workload_name: str) -> dict[str, tuple[float, str]]:
    """Untraced iterations for half the run, traced ones for the other half.

    Times, at reference speed like the end-to-end ones, are medians over
    the traced iterations; counts are those of the last. The spans and counts
    of the last traced iteration are written to OUT.
    """
    import spans

    plain = loop.run(seconds / 2)
    walls, layers, over = [], [], 0
    deadline = perf_counter() + seconds / 2
    while not loop.crashed and (not layers or perf_counter() < deadline):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            done = loop.run(0)
        if done:
            last, scaled = tracer, done[0]["probe"].scaled
            walls.append(done[0]["wall_s"])
            layers.append(spans.layer_metrics(tracer, scaled))
            over += tracer.facts["over_delay_bound"]
    if not plain or not layers:
        return {}
    if over:
        print(f"check failed: {over} gaps cost more than DELAY_C*l*|delta| ops", file=sys.stderr)
        loop.attempted += over
        loop.failed += over

    metrics = {
        name: statistics.median(m[name] for m in layers) if name.endswith("_s") else value
        for name, value in layers[-1].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(walls) / statistics.median(it["wall_s"] for it in plain) - 1
    )
    OUT.mkdir(exist_ok=True)
    last.write_spans(OUT / f"{workload_name}.spans.csv.gz")
    counts = {
        "workload": workload_name,
        "iterations": {"untraced": len(plain), "traced": len(layers)},
        "spans": last.totals(scaled),
        "facts": dict(last.facts),
        "metrics": metrics,
    }
    (OUT / f"{workload_name}.counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    print(f"traced: {len(layers)} iterations, {len(last.start)} spans in the last; "
          f"untraced: {len(plain)} iterations")
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexenum" / "__init__.py").is_file():
        print(f"error: no lexenum sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    loop = Loop(workload)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        report = per_layer(loop, args.seconds, args.workload)
    else:
        iterations = loop.run(args.seconds, min_gaps=MIN_GAPS)
        report = {}
        if iterations:
            report = {name: (value, E2E_UNITS[name])
                      for name, value in end_to_end(loop, iterations).items()}
    if not report:
        print("error: no iteration completed", file=sys.stderr)
        return 1

    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    failed_frac = loop.failed / loop.attempted
    print(f"  {'failed_frac':32s} {failed_frac:>16.6g} ratio "
          f"({loop.failed} of {loop.attempted} words failed their check)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
