"""The four benchmark workloads: seeded inputs, CLI argument lists and the
output checks that decide whether a command's result is correct.

Every check returns (ok, ref_err, why).  ref_err is the deviation from the
workload's reference: in radians for converge_inflection, relative for the
other three (Spec.ref_unit says which).  A command fails when it exits
nonzero, reports a status other than "ok", or its ref_err exceeds the
workload's tolerance.  The tolerances sit well above today's values (see
README.md) so that only a real accuracy loss trips them.

Only numpy and the standard library are used here: the reference values are
recomputed independently of the weakfrenet package.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Spec:
    """One workload instance: what to run, where, and how to check it."""

    name: str
    argv: list
    checker: object  # checker(spec, rc, stdout_text) -> (ok, ref_err, why)
    ref_tol: float
    inputs: dict
    reference: dict = field(default_factory=dict)  # check data, not reported
    ref_unit: str = "1"  # "rad" for absolute angles, "1" for relative errors
    out: str = ""

    def verify(self, rc, text):
        return self.checker(self, rc, text)


def _program_seed(seed, salt):
    """Seed handed to the program, derived from the benchmark seed."""
    return random.Random(f"{salt}:{seed}").randrange(2**31)


def make(name, seed, workdir, tiny=False):
    """Generate the inputs of workload `name` from `seed` under `workdir`
    and return its Spec.  `tiny` shrinks every size, for the self-test and
    the warm-up command."""
    os.makedirs(workdir, exist_ok=True)
    if name == "converge_inflection":
        levels, base_n = (5, 16) if tiny else (10, 64)
        tol = "0.5" if tiny else "0.05"
        spec = Spec(name, ["converge", "--model", "inflection", "--levels", str(levels),
                           "--base-n", str(base_n), "--tol-converge", tol],
                    check_converge, 0.25 if tiny else 0.05,
                    {"levels": levels, "base_n": base_n,
                     "finest_segments": base_n * 2 ** (levels - 1)}, ref_unit="rad")
    elif name == "forces_blowup":
        delta, levels = (0.05, 3) if tiny else (0.001, 8)
        prog_seed = _program_seed(seed, "forces")
        spec = Spec(name, ["forces", "--model", "blowup", "--params", f"delta={delta}",
                           "--levels", str(levels), "--seed", str(prog_seed)],
                    check_forces, 1e-2,
                    {"delta": delta, "levels": levels, "program_seed": prog_seed},
                    {"delta": delta})
    elif name == "analyze_walk":
        n = 500 if tiny else 50_000
        walk = np.cumsum(np.random.default_rng(seed).standard_normal((n, 3)), axis=0)
        path = os.path.join(workdir, "walk.txt")
        np.savetxt(path, walk, fmt="%.17g")
        spec = Spec(name, ["analyze", path], check_analyze, 1e-9,
                    {"walk_vertices": n, "walk_bytes": os.path.getsize(path)},
                    {"walk": walk})
    elif name == "witness_search":
        budget = 200 if tiny else 4000
        prog_seed = _program_seed(seed, "witness")
        spec = Spec(name, ["witness", "--seed", str(prog_seed), "--budget", str(budget)],
                    check_witness, 1e-9, {"budget": budget, "program_seed": prog_seed})
    else:
        raise KeyError(f"unknown workload {name!r}")
    spec.out = os.path.join(workdir, "out")
    spec.argv += ["--out", spec.out]
    return spec


NAMES = ("converge_inflection", "forces_blowup", "analyze_walk", "witness_search")


# ---------------------------------------------------------------------------
# independent reference computations
# ---------------------------------------------------------------------------


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _angle(a, b):
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))


def polygonal_totals(verts):
    """(TC, TAT, CT, length) of an open polygonal, summed exactly with fsum.

    Junctions whose tangents are parallel carry no binormal; a binormal
    pair that is parallel or antiparallel carries no torsion.
    """
    segs = np.diff(verts, axis=0)
    lens = np.linalg.norm(segs, axis=1)
    t = segs / lens[:, None]
    alpha = _angle(t[:-1], t[1:])
    cross = np.cross(t[:-1], t[1:])
    defined = np.linalg.norm(cross, axis=1) > 1e-12
    b = _unit(cross[defined])
    full = _angle(b[:-1], b[1:])
    twist = np.linalg.norm(np.cross(b[:-1], b[1:]), axis=1) > 1e-12
    folded = np.where(twist, np.minimum(full, np.pi - full), 0.0)
    return (math.fsum(alpha), math.fsum(folded), math.fsum(full), math.fsum(lens))


def _rel(value, ref):
    return abs(float(value) - ref) / max(abs(ref), 1e-300)


def _last_s(path):
    """First column of the last row of a CSV file."""
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(fh.tell() - 512, 0))
        last = fh.read().decode().strip().splitlines()[-1]
    return float(last.split(",")[0])


def _read_vertices(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return rows


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _load(rc, text):
    """Parsed report, or the reason it is not a successful one."""
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not one JSON report: {exc}"
    if not isinstance(report, dict):
        return None, "report is not a JSON object"
    if report.get("status") != "ok":
        return None, f"status {report.get('status')!r}"
    return report, ""


def _verdict(spec, ref_err):
    if not ref_err <= spec.ref_tol:
        return False, ref_err, f"ref_err {ref_err:.3e} above {spec.ref_tol:.0e}"
    return True, ref_err, ""


def check_converge(spec, rc, text):
    """Refinement limits of the inflection curve against TC = TAT = pi/sqrt2
    and CT = TC + pi, together with the three identity deviations."""
    report, why = _load(rc, text)
    if report is None:
        return False, math.nan, why
    limit = math.pi / math.sqrt(2.0)
    try:
        errs = [abs(report["tc"] - limit), abs(report["tat"] - limit),
                abs(report["ct"] - (limit + math.pi))]
        errs += [float(report["identities"][k])
                 for k in ("binormal_dev", "tantrix_dev", "normal_dev")]
        finest = report["levels"][-1]["segments"]
        weak_status = report["weak_status"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, math.nan, f"report field unusable: {exc}"
    if finest != spec.inputs["finest_segments"]:
        return False, math.nan, f"finest level has {finest} segments"
    if set(weak_status.values()) != {"ok"}:
        return False, math.nan, f"weak status {weak_status}"
    for name in ("weak_tantrix", "weak_binormal", "weak_normal"):
        if not os.path.isfile(os.path.join(spec.out, f"{name}.csv")):
            return False, math.nan, f"{name}.csv missing"
    return _verdict(spec, max(errs))


def check_forces(spec, rc, text):
    """Torsion-force total against -log(delta), binormal-variation total
    against 1 - delta (relative), and the first-variation pairing."""
    report, why = _load(rc, text)
    if report is None:
        return False, math.nan, why
    delta = spec.reference["delta"]
    try:
        ref_err = max(_rel(report["torsion_force"]["total_variation"], -math.log(delta)),
                      _rel(report["binormal_variation"]["total_variation"], 1.0 - delta))
        mismatch = float(report["pairing"]["max_mismatch"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, math.nan, f"report field unusable: {exc}"
    if not mismatch < 1e-3:
        return False, ref_err, f"pairing mismatch {mismatch}"
    return _verdict(spec, ref_err)


def check_analyze(spec, rc, text):
    """tc/tat/ct against an exact-sum recomputation from the walk, and the
    last arc-length parameter of each indicatrix CSV against its total."""
    report, why = _load(rc, text)
    if report is None:
        return False, math.nan, why
    walk = spec.reference["walk"]
    tc, tat, ct, _ = polygonal_totals(walk)
    try:
        if report["input"]["vertices"] != len(walk):
            return False, math.nan, "sanitize changed the vertex count"
        errs = [_rel(report["tc"], tc), _rel(report["tat"], tat), _rel(report["ct"], ct)]
        for name, ref in (("tantrix", tc), ("binormal", tat), ("normal", tc + tat)):
            errs.append(_rel(_last_s(report["files"][name]), ref))
    except (KeyError, TypeError, OSError, ValueError) as exc:
        return False, math.nan, f"report or file unusable: {exc}"
    return _verdict(spec, max(errs))


def check_witness(spec, rc, text):
    """Gap above 1e-3, TC and length not larger after inscription, inscribed
    vertices a subset of the parent's, and the reported torsion totals and
    lengths against a recomputation from the written vertex files."""
    report, why = _load(rc, text)
    if report is None:
        return False, math.nan, why
    try:
        rows = _read_vertices(report["files"]["P"])
        rows_in = _read_vertices(report["files"]["P_inscribed"])
        parent = polygonal_totals(np.array(rows, dtype=float))
        child = polygonal_totals(np.array(rows_in, dtype=float))
        errs = [_rel(report["tat"], parent[1]), _rel(report["tat_inscribed"], child[1]),
                _rel(report["length"], parent[3]),
                _rel(report["length_inscribed"], child[3]),
                _rel(report["gap"], child[1] - parent[1])]
        gap = float(report["gap"])
    except (KeyError, TypeError, OSError, ValueError) as exc:
        return False, math.nan, f"report or file unusable: {exc}"
    if not gap > 1e-3:
        return False, max(errs), f"gap {gap} not above 1e-3"
    if child[0] > parent[0] + 1e-9 or child[3] > parent[3] + 1e-9:
        return False, max(errs), "inscription increased TC or length"
    parent_rows = {tuple(r) for r in rows}
    if not all(tuple(r) in parent_rows for r in rows_in):
        return False, max(errs), "inscribed vertices are not the parent's"
    return _verdict(spec, max(errs))
