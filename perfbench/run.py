"""twigstore benchmark: one workload per call, or all four in a row.

    python3 perfbench/run.py --workload p2p-query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Runs from the root of a source checkout, using ``src/`` directly (nothing
is installed).  Prints a table of the workload's metrics with units,
sample counts and whether each is a wall time or an exact count, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones named
in ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones from
a traced run.  Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# end-to-end metric -> (sample key or None, quantile, scale, unit); the
# sample key "op" stands for the workload's primary operation below
END_TO_END = {
    "setup_s": ("setup", 0.5, 1.0, "s"),
    "op_p50_ms": ("op", 0.5, 1e3, "ms"),
    "op_p90_ms": ("op", 0.9, 1e3, "ms"),
    "get_p50_us": ("get", 0.5, 1e6, "us"),
    "restore_s": ("restore", 0.5, 1.0, "s"),
    "snapshot_bytes_per_input_byte": (None, 0, 1.0, "B/B"),
    "peak_rss_mb": (None, 0, 1.0, "MB"),
}
PRIMARY = {"p2p-query": "query", "central-query": "query",
           "p2p-ingest": "ingest", "cli-session": "cli"}
# the table printed before the result line: (name, sample key, quantile,
# scale, unit); a workload shows the rows it has samples for
TABLE = [
    ("setup_s", "setup", 0.5, 1.0, "s"),
    ("query_p50_ms", "query", 0.5, 1e3, "ms"),
    ("query_p95_ms", "query", 0.95, 1e3, "ms"),
    ("get_p50_us", "get", 0.5, 1e6, "us"),
    ("rdf_query_p50_ms", "rdf", 0.5, 1e3, "ms"),
    ("rdf_load_p50_ms", "rdf_load", 0.5, 1e3, "ms"),
    ("ingest_p50_ms", "ingest", 0.5, 1e3, "ms"),
    ("ingest_p95_ms", "ingest", 0.95, 1e3, "ms"),
    ("snapshot_s", "snapshot", 0.5, 1.0, "s"),
    ("restore_s", "restore", 0.5, 1.0, "s"),
    ("cli_op_p50_s", "cli", 0.5, 1.0, "s"),
]
EXACT_UNITS = {"query_bytes_per_op": "B", "query_msgs_per_op": "msg",
               "ingest_msgs_per_doc": "msg", "snapshot_bytes_per_input_byte": "B/B"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run) -> dict[str, dict]:
    from workloads import percentile

    out = {}
    for name, (key, q, scale, unit) in END_TO_END.items():
        if name == "peak_rss_mb":
            value = run.peak_rss_mb
        elif key is None:
            value = run.exact[name]
        else:
            key = PRIMARY[run.workload] if key == "op" else key
            value = percentile(run.values(key, normalized=True), q) * scale
        out[name] = {"value": value, "unit": unit}
    return out


def print_table(run, trace: bool) -> None:
    from workloads import K_REF, percentile

    print(f"== {run.workload}")
    if not trace:
        print("  end-to-end, as in the result line:")
        for name, metric in end_to_end(run).items():
            key = END_TO_END[name][0]
            key = PRIMARY[run.workload] if key == "op" else key
            count = f"n={len(run.samples[key])}" if key else ""
            print(f"  {name:32} {metric['value']:17.6g} {metric['unit']:5} {count}")
    print("  detail (wall: as measured; norm: speed-normalized):")
    for name, key, q, scale, unit in TABLE:
        if key in run.samples:
            wall, norm = (percentile(run.values(key, n), q) * scale for n in (False, True))
            print(f"  {name:32} wall {wall:12.6g} norm {norm:12.6g} {unit:5} "
                  f"n={len(run.samples[key])}")
    for name, value in run.exact.items():
        print(f"  {name:32} exact {value:11.6g} {EXACT_UNITS[name]:5} over the first pass")
    rss_of = "largest child" if run.workload == "cli-session" else "process"
    print(f"  {'peak_rss_mb':32} {run.peak_rss_mb:17.6g} {'MB':5} {rss_of}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_op_ratio':32} {ratio:17.6g} {'':5} n={run.attempted}")
    if run.cal_seconds:
        print(f"  {'calibration_kernel_ms':32} {statistics.median(run.cal_seconds) * 1e3:17.6g}"
              f" {'ms':5} n={len(run.cal_seconds)} (K_REF {K_REF * 1e3:g} ms)")
    for name, value in run.info.items():
        if isinstance(value, float):
            print(f"  {name:32} {value:17.6g}")
    for name, value in run.layers.items():
        print(f"  {name:32} {value:17.6g}")
    for error in run.errors:
        print(f"  FAILED {error}")


def result_line(run, trace: bool) -> dict:
    if trace:
        from layers import UNITS

        metrics = {n: {"value": run.layers[n], "unit": u} for n, u in UNITS.items()}
    else:
        metrics = end_to_end(run)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "twigstore" / "__init__.py").is_file():
        print(f"error: no twigstore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and its children: the calibration kernel
        # must run where the operations run, and CPUs here differ in speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    results = []
    for name in names:
        run = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(run, bool(args.trace))
        results.append((name, result_line(run, bool(args.trace))))
    if len(results) == 1:
        line = results[0][1]
    else:
        line = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{m}": v for name, r in results
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
