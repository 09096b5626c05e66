"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and match the contract of the package.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_polygonal
from weakfrenet import cli, forces, weak
from weakfrenet.curves import frenet_ode_curve, helix, inflection_curve, polyline_curve
from weakfrenet.polygonal import (
    discrete_frenet,
    normal_indicatrix,
    polar_curve,
    sanitize,
    turning_angle_at,
)

PI = np.pi
R2 = np.sqrt(2.0)


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def inflection_converge(tmp_path_factory):
    out = tmp_path_factory.mktemp("inflection")
    report_path = out / "report.json"
    t0 = time.perf_counter()
    code = cli.main(
        [
            "converge", "--model", "inflection", "--levels", "8", "--base-n", "64",
            "--tol-converge", "0.05", "--out", str(out),
            "--report", str(report_path),
        ]
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(report_path.read_text())
    return code, report, elapsed


@pytest.fixture(scope="module")
def helix_level8():
    c = helix(1.0, 2 * PI)
    return c, weak.refine(c, levels=8, base_n=64)


@pytest.fixture(scope="module")
def helix_tantrix_fine():
    c = helix(1.0, 2 * PI)
    seq = weak.refine(c, levels=2, base_n=32768)
    return c, weak.weak_tantrix(seq)


def test_01_inflection_totals(inflection_converge, capsys):
    code, report, elapsed = inflection_converge
    target = PI / R2
    tc_dev = abs(report["tc"] - target)
    tat_dev = abs(report["tat"] - target)

    c = inflection_curve()

    def kfun(s):
        return float(c.frame(np.asarray(s))[3])

    def taufun(s):
        return abs(float(c.frame(np.asarray(s))[4]))

    tc_quad = quad(kfun, -1, 1, points=[0.0], limit=200)[0]
    tat_quad = quad(taufun, -1, 1, points=[0.0], limit=200)[0]
    ok = (
        code == 0
        and tc_dev < 1e-2
        and tat_dev < 1e-2
        and abs(tc_quad - target) < 1e-8
        and abs(tat_quad - target) < 1e-8
        and elapsed < 10.0
    )
    with capsys.disabled():
        report_line(
            1,
            ok,
            f"inflection totals: |tc-pi/sqrt2|={tc_dev:.2e}, |tat-.|={tat_dev:.2e} "
            f"(tol 1e-2); quadrature devs {abs(tc_quad-target):.1e}/"
            f"{abs(tat_quad-target):.1e} (tol 1e-8); {elapsed:.1f}s < 10s",
        )


def test_02_helix_torsion_limit(capsys):
    t0 = time.perf_counter()
    c = helix(1.0, 2 * PI)
    seq = weak.refine(c, levels=8, base_n=32)  # finest level: 4096 segments
    elapsed = time.perf_counter() - t0
    target = PI * R2
    tats = [lv.tat for lv in seq.levels]
    rel = abs(tats[-1] - target) / target
    increasing = all(a < b for a, b in zip(tats, tats[1:]))
    ok = (
        seq.levels[-1].n_params == 4096
        and rel < 1e-3
        and increasing
        and elapsed < 10.0
    )
    with capsys.disabled():
        report_line(
            2,
            ok,
            f"helix TAT at n=4096: rel err {rel:.2e} (tol 1e-3), "
            f"levels increasing={increasing}, {elapsed:.1f}s < 10s",
        )


def test_03_complete_torsion_gap(inflection_converge, capsys):
    _, report, _ = inflection_converge
    target = PI / R2 + PI
    dev = abs(report["ct"] - target)
    ok = dev < 5e-2
    with capsys.disabled():
        report_line(3, ok, f"inflection CT limit: |ct-(pi/sqrt2+pi)|={dev:.2e} (tol 5e-2)")


def test_04_reparam_identities(helix_level8, capsys):
    c, seq = helix_level8
    rep = weak.verify_reparam_identities(
        c, weak.weak_tantrix(seq), weak.weak_binormal(seq), weak.weak_normal(seq),
        n_grid=64, tol=1e-2,
    )
    ok = rep.binormal_dev < 1e-2 and rep.tantrix_dev < 1e-2 and rep.normal_dev < 1e-2
    with capsys.disabled():
        report_line(
            4,
            ok,
            "helix identities on 64-grid: "
            f"binormal {rep.binormal_dev:.2e}, tantrix {rep.tantrix_dev:.2e}, "
            f"normal {rep.normal_dev:.2e} (tol 1e-2)",
        )


def test_05_normal_indicatrix_length_and_angles(capsys):
    rng = np.random.default_rng(101)
    worst_len = 0.0
    worst_angle = 0.0
    checked_angles = 0
    for _ in range(1000):
        P = random_polygonal(rng)
        fr = discrete_frenet(P)
        n = normal_indicatrix(P)
        worst_len = max(worst_len, abs(n.total_length - (fr.tc + fr.tat)))
        for param, (d_in, d_out) in zip(
            n.schedule_junctions, n.schedule_junction_durations
        ):
            if min(d_in, d_out) > 1e-7:
                turn = turning_angle_at(n, float(param))
                worst_angle = max(worst_angle, abs(turn - PI / 2))
                checked_angles += 1
    ok = worst_len < 1e-9 and worst_angle < 1e-6 and checked_angles > 1000
    with capsys.disabled():
        report_line(
            5,
            ok,
            f"normal indicatrix on 1000 random polygonals: max length dev "
            f"{worst_len:.2e} (tol 1e-9), max junction-angle dev {worst_angle:.2e} "
            f"(tol 1e-6, {checked_angles} junctions)",
        )


def test_06_polarity_inequality(capsys):
    rng = np.random.default_rng(202)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        P = random_polygonal(rng)
        fr = discrete_frenet(P)
        excess = polar_curve(P).turning_total() - fr.tc
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    ok = violations == 0
    with capsys.disabled():
        report_line(
            6,
            ok,
            f"polarity inequality on 1000 random polygonals: {violations} "
            f"violations beyond 1e-9 (worst excess {worst:.2e})",
        )


def test_07_nonmonotonicity_witness(tmp_path, capsys):
    report_path = tmp_path / "witness.json"
    t0 = time.perf_counter()
    code = cli.main(
        ["witness", "--seed", "0", "--out", str(tmp_path), "--report", str(report_path)]
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(report_path.read_text())
    P = cli.read_polygonal(report["files"]["P"])
    Q = cli.read_polygonal(report["files"]["P_inscribed"])
    frP = discrete_frenet(sanitize(P))
    frQ = discrete_frenet(sanitize(Q))
    subset = all(
        any(np.allclose(v, u, atol=1e-12) for u in P.vertices) for v in Q.vertices
    )
    ok = (
        code == 0
        and report["gap"] > 1e-3
        and frQ.tat - frP.tat > 1e-3
        and Q.vertices.shape[0] < P.vertices.shape[0]
        and subset
        and frQ.tc <= frP.tc + 1e-9
        and sanitize(Q).length <= sanitize(P).length + 1e-9
        and elapsed < 30.0
    )
    with capsys.disabled():
        report_line(
            7,
            ok,
            f"witness: TAT gap {report['gap']:.3f} > 1e-3 with L and TC not "
            f"increased, inscribed subset={subset}, {elapsed:.1f}s < 30s",
        )


def test_08_torsion_force_atom(capsys):
    c = inflection_curve()
    seq = weak.refine(c, levels=6, base_n=64)
    t_c = weak.weak_tantrix(seq)
    m = forces.torsion_force(c, t_c)
    b_c = weak.weak_binormal(seq)
    bv = forces.binormal_variation(c, b_c)
    n_atoms = len(m.atoms)
    if n_atoms == 1:
        param, w = m.atoms[0]
        loc_dev = abs(param - PI / (2 * R2))
        norm_dev = abs(float(np.linalg.norm(w)) - 2.0)
    else:
        loc_dev = norm_dev = np.inf
    ok = n_atoms == 1 and loc_dev < 1e-3 and norm_dev < 1e-6 and len(bv.atoms) == 0
    with capsys.disabled():
        report_line(
            8,
            ok,
            f"torsion-force atom: count={n_atoms}, location dev {loc_dev:.1e} "
            f"(tol 1e-3), norm dev {norm_dev:.1e} (tol 1e-6); binormal-variation "
            f"atoms={len(bv.atoms)} (expect 0)",
        )


def test_09_darboux_identities(helix_tantrix_fine, capsys):
    c, t_c = helix_tantrix_fine
    C = t_c.total_length
    ks = np.linspace(0.15 * C, 0.85 * C, 33)
    kg, kn = forces.darboux_curvatures(t_c, ks, h=0.01)
    kg_dev = float(np.max(np.abs(kg - 1.0)))  # tau/k = (K/2pi)/R = 1
    kn_dev = float(np.max(np.abs(kn + 1.0)))
    ok = kg_dev < 1e-4 and kn_dev < 1e-4
    with capsys.disabled():
        report_line(
            9,
            ok,
            f"Darboux curvatures of the helix tantrix: |kg-tau/k|={kg_dev:.2e}, "
            f"|kn+1|={kn_dev:.2e} (tol 1e-4)",
        )


def test_10_first_variation_pairing(helix_tantrix_fine, capsys):
    c, t_c = helix_tantrix_fine
    m = forces.torsion_force(c, t_c, n_density=16384)
    fields = forces.make_tangential_bumps(c, 5, seed=42, profile="sin")
    m512 = forces.first_variation_check(c, m, fields, n_quad=512).max_mismatch
    m1024 = forces.first_variation_check(c, m, fields, n_quad=1024).max_mismatch
    m2048 = forces.first_variation_check(c, m, fields, n_quad=2048).max_mismatch
    ok = m512 < 1e-3 and m512 >= 4.0 * m1024 and m1024 >= 4.0 * m2048
    with capsys.disabled():
        report_line(
            10,
            ok,
            f"pairing: mismatch {m512:.2e} at n=512 (tol 1e-3), shrink factors "
            f"{m512/m1024:.2f}, {m1024/m2048:.2f} (need >= 4)",
        )


def test_11_blowup_behavior(capsys):
    details = []
    ok = True
    for delta in (1e-2, 1e-3):
        c = frenet_ode_curve(
            lambda s: 1.0,
            lambda s: 1.0 / (1.0 - s),
            (0.0, 1.0 - delta),
            step=min(delta / 50.0, 2e-4),
        )
        seq = weak.refine(c, levels=8, base_n=64)
        tat = seq.levels[-1].tat
        tc = seq.levels[-1].tc
        tat_rel = abs(tat - (-np.log(delta))) / (-np.log(delta))
        tc_rel = abs(tc - (1.0 - delta)) / (1.0 - delta)
        ok = ok and tat_rel < 0.05 and tc_rel < 0.05
        details.append(f"delta={delta:g}: TAT rel {tat_rel:.3f}, TC rel {tc_rel:.4f}")
    with capsys.disabled():
        report_line(11, ok, "blow-up profile (tol 5%): " + "; ".join(details))


def test_12_fixed_point(staircase, capsys):
    fr = discrete_frenet(staircase)
    seq = weak.refine(polyline_curve(staircase), levels=5, base_n=4)
    settled = [lv for lv in seq.levels if lv.modulus < staircase.mesh / 2]
    devs = [abs(lv.tat - fr.tat) for lv in settled]
    ok = len(settled) >= 3 and all(d < 1e-12 for d in devs)
    with capsys.disabled():
        report_line(
            12,
            ok,
            f"fixed point: {len(settled)} levels with modulus < mesh/2 reproduce "
            f"the discrete TAT (max dev {max(devs) if devs else np.nan:.1e})",
        )
