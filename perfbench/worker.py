"""One workload in a fresh interpreter: time `import weakfrenet.cli`, make
the seeded inputs, run one warm-up command on the tiny inputs and then as
many full-size commands as fit in the run's seconds, checking every output.

Usage: python3 worker.py CONFIG_JSON RESULT_PATH

The CLI is called in-process through `cli.main(argv)` with stdout captured;
one command runs at a time (closed loop, one caller).  With trace on, the
measured commands alternate untraced and traced, so the run gives both the
untraced time and the tracing overhead.  The result is written as JSON to
RESULT_PATH.
"""

import sys
from time import perf_counter

# The package is imported first and timed: this is the set-up cost every CLI
# call pays.  numpy and scipy are imported only through it, never before.
_t0 = perf_counter()
import weakfrenet.cli as cli

SETUP_S = perf_counter() - _t0

import io
import json
import os
import platform
import resource
import statistics
from contextlib import redirect_stdout

import numpy
import scipy

import workloads
from tracer import Tracer


def _bytes_out(text, out_dir):
    total = len(text.encode())
    for entry in os.scandir(out_dir):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def reference_s():
    """Seconds for a fixed mix of the work the workloads are made of: numpy
    calls on 3-vectors, float formatting, and a batched Gram product.  Timed
    next to each command, it tracks how fast the host runs at the time.  It
    allocates under 1 MB, so it never sets the peak RSS."""
    u, w = numpy.array([0.3, -0.2, 0.9]), numpy.array([0.1, 0.7, -0.4])
    blocks = numpy.linspace(0.0, 1.0, 16 * 64 * 3).reshape(16, 64, 3)
    start = perf_counter()
    for _ in range(2700):
        numpy.linalg.norm(numpy.cross(u, w))
    for i in range(120_000):
        repr(i * 0.1)
    for _ in range(720):
        numpy.max(blocks @ blocks.transpose(0, 2, 1))
    return perf_counter() - start


def run_command(spec):
    """Run one CLI command; return (seconds, ok, ref_err, why, bytes out)."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(list(spec.argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed command
        return perf_counter() - start, False, float("nan"), repr(exc), 0
    seconds = perf_counter() - start
    text = buf.getvalue()
    ok, ref_err, why = spec.verify(rc, text)
    return seconds, ok, ref_err, why, _bytes_out(text, spec.out)


def main(config, result_path):
    workdir = config["workdir"]
    spec = workloads.make(config["workload"], config["seed"], workdir, tiny=config["tiny"])
    # The warm-up runs the same subcommand on the tiny inputs: that loads the
    # lazy imports and first-call caches without spending the run's seconds.
    warm = workloads.make(config["workload"], config["seed"],
                          os.path.join(workdir, "warmup"), tiny=True)
    tracer = Tracer() if config["trace"] else None
    commands = []  # dicts: seconds, ok, ref_err, why, bytes_out, traced, warmup

    def record(job, traced=False, warmup=False):
        if traced:
            with tracer.installed():
                row = run_command(job)
        else:
            row = run_command(job)
        keys = ("seconds", "ok", "ref_err", "why", "bytes_out")
        commands.append(dict(zip(keys, row), traced=traced, warmup=warmup))
        return row[0]

    record(warm, warmup=True)
    # One step is a command, or an untraced and a traced one with trace on.
    # Stop once the next step would end more than half its length past the
    # budget, so the measured time stays within that margin of it.
    # Each untraced command is also divided by the mean reference time taken
    # just before and just after its step, which cancels most of the host's
    # speed changes (see README.md, Steadiness).
    steps, reference, ratios = [], [reference_s()], []
    while not steps or sum(steps) + statistics.median(steps) / 2 <= config["seconds"]:
        untraced = record(spec)
        steps.append(untraced + (record(spec, traced=True) if tracer else 0.0))
        reference.append(reference_s())
        ratios.append(untraced / statistics.mean(reference[-2:]))

    result = {
        "setup_s": SETUP_S,
        "commands": commands,
        "reference_s": reference,
        "wall_ref": ratios,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": spec.inputs,
        "ref_unit": spec.ref_unit,
        "argv": spec.argv,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        n_traced = sum(c["traced"] for c in commands)
        result["trace"] = tracer.summary(n_traced)
        spans_path = os.path.join(config["workdir"], "spans.jsonl")
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
