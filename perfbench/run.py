"""Benchmark of the weakfrenet CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from
`src/`.  Each run measures one workload in a fresh worker process (see
worker.py) and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  The line before it is an `info` object with the seed, input sizes,
every sample, wall_s and wall_s_tail in seconds, the raw ref_err and
fail_frac, versions and thread pinning.  `--workload all` runs the four
workloads untraced and prints a table.

Closed loop: one caller, one command at a time, BLAS/OpenMP pinned to at
most nproc threads.  Inputs are generated from --seed; the program only
sees the generated files and arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS
from workloads import NAMES as WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 2  # fresh interpreters timing the import, besides the worker's own
RUN_DEADLINE_S = 170.0
EPS = 2.0**-52  # ref_err floor: relative float64 rounding
IMPORT_PROBE = ("import time; t = time.perf_counter(); import weakfrenet.cli; "
                "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The run could not produce a result."""


def pinned_env():
    """Environment of every child: package path and pinned thread counts."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("FRENET_WEAK_THREADS", None)  # witness search stays single-threaded
    return env


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile that has
    at least ten samples beyond it.  With 20 samples or fewer that
    percentile is not above the median, so the slowest sample is reported
    instead (percentile 100, none beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (metrics by name, info, attempted, failed)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = pinned_env()
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup = []
    for _ in range(1 if tiny else SETUP_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True,
                               timeout=deadline - time.monotonic())
        if probe.returncode != 0:
            raise BenchError(f"import probe failed:\n{probe.stderr}")
        setup.append(float(probe.stdout))

    config = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "tiny": tiny, "workdir": workdir}
    result_path = os.path.join(workdir, "result.json")
    worker = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                             json.dumps(config), result_path], env=env, cwd=ROOT,
                            timeout=deadline - time.monotonic())
    if worker.returncode != 0:
        raise BenchError(f"worker exited with code {worker.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setup.append(result["setup_s"])

    commands = result["commands"]
    measured = [c for c in commands if not c["warmup"]]
    untraced = [c["seconds"] for c in measured if not c["traced"]]
    traced = [c["seconds"] for c in measured if c["traced"]]
    failed = sum(not c["ok"] for c in commands)
    ref_errs = [c["ref_err"] for c in measured]  # the warm-up input is tiny
    ref_err = math.nan if any(math.isnan(e) for e in ref_errs) else max(ref_errs)
    tail_value, tail_pct, tail_beyond = tail(untraced)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(untraced),
        "wall_ref": statistics.median(result["wall_ref"]),
        "wall_s_tail": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
        "ref_digits": 0.0 if math.isnan(ref_err) else -math.log10(max(ref_err, EPS)),
        "fail_frac": failed / len(commands),
        "ref_err": ref_err,
    }
    if trace:
        layer = result["trace"]
        metrics.update(layer)
        # Per-layer values are means over the traced commands, so these are too.
        metrics["trace.wall_s"] = statistics.mean(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.mean(untraced)
        metrics["trace.self_sum_s"] = sum(layer[f"{name}.self_s"] for name in LAYERS)
        metrics["cli.bytes_out"] = statistics.median(
            c["bytes_out"] for c in measured if c["traced"])

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": result["argv"], "inputs": result["inputs"],
        "loop": "closed: one caller, one command at a time",
        "wait_s": "none: no layer queues work",
        "wall_s": metrics["wall_s"],
        "samples": {"setup_s": setup, "wall_s": untraced, "wall_s_traced": traced,
                    "reference_s": result["reference_s"],
                    "warmup_tiny_s": commands[0]["seconds"]},
        "wall_s_tail": {"value": tail_value, "percentile": tail_pct,
                        "beyond": tail_beyond, "n": len(untraced)},
        "ref_err": ref_err, "ref_err_unit": result["ref_unit"],
        "fail_frac": metrics["fail_frac"],
        "failures": sorted({c["why"] for c in commands if not c["ok"]}),
        "nproc": len(os.sched_getaffinity(0)), "threads": env["OMP_NUM_THREADS"],
        "versions": result["versions"],
    }
    if trace:
        info["spans_file"] = os.path.relpath(result["spans_file"], ROOT)
    return metrics, info, len(commands), failed


def load_declared():
    """(end_to_end, per_layer) metric declarations from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def run_one(args):
    end_to_end, per_layer = load_declared()
    metrics, info, attempted, failed = measure(
        args.workload, args.seed, args.seconds, args.trace, args.tiny)
    declared = per_layer if args.trace else end_to_end
    out = {d["name"]: {"value": metrics.get(d["name"], 0.0), "unit": d["unit"]}
           for d in declared}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


SUMMARY = (("setup_s", "s"), ("wall_s", "s"), ("wall_s_tail", "s"), ("wall_ref", "ref"),
           ("peak_rss_mb", "MB"), ("fail_frac", "1"), ("ref_err", None))


def run_all(args):
    """All four workloads, untraced, with the summary metrics in a table."""
    table = {}
    for workload in WORKLOADS:
        metrics, info, _, _ = measure(workload, args.seed, args.seconds, 0, args.tiny)
        table[workload] = {name: {"value": metrics[name], "unit": unit or info["ref_err_unit"]}
                           for name, unit in SUMMARY}
        table[workload]["wall_s"]["samples"] = len(info["samples"]["wall_s"])
        print(f"{workload}:")
        for name, entry in table[workload].items():
            print(f"  {name:<12} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(table))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "weakfrenet", "cli.py")):
        print(f"no weakfrenet sources under {SRC}", file=sys.stderr)
        return 2
    try:
        (run_all if args.workload == "all" else run_one)(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
