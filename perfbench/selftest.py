"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints one result line
with every BENCHMARK.json metric by name and unit; that corrupted reports
fail the output checks; and that the benchmark refuses to run, without
printing a result, where the weakfrenet sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result_line(workload, trace, declared):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, proc.stdout)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    metrics = result["metrics"]
    assert list(metrics) == [d["name"] for d in declared], (workload, trace)
    for d in declared:
        entry = metrics[d["name"]]
        assert entry["unit"] == d["unit"], d["name"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def run_cli(spec):
    import weakfrenet.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(spec.argv))
    return rc, buf.getvalue()


CORRUPTIONS = {
    "converge_inflection": lambda r: r.update(tc=r["tc"] + 0.3),
    "forces_blowup": lambda r: r["torsion_force"].update(total_variation=1.0),
    "analyze_walk": lambda r: r.update(tc=r["tc"] * (1 + 1e-6)),
    "witness_search": lambda r: r.update(tat_inscribed=r["tat_inscribed"] + 1e-6),
}


def check_corrupted_reports():
    for name, corrupt in CORRUPTIONS.items():
        workdir = os.path.join(WORK, name)
        os.makedirs(workdir, exist_ok=True)
        spec = workloads.make(name, 3, workdir, tiny=True)
        rc, text = run_cli(spec)
        ok, _, why = spec.verify(rc, text)
        assert ok, (name, why)
        report = json.loads(text)
        corrupt(report)
        ok, _, why = spec.verify(rc, json.dumps(report))
        assert not ok, f"{name}: corrupted report passed the check"
        ok, _, _ = spec.verify(1, text)
        assert not ok, f"{name}: nonzero exit passed the check"


def check_refuses_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    check_corrupted_reports()
    check_refuses_without_sources()
    for name in workloads.NAMES:
        check_result_line(name, 0, bench["end_to_end"])
        check_result_line(name, 1, bench["per_layer"])
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest ok")


if __name__ == "__main__":
    main()
