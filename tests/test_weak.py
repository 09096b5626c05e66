import numpy as np
import pytest
from scipy.integrate import quad

from weakfrenet.curves import helix, inflection_curve, polyline_curve
from weakfrenet.errors import (
    AmbiguousReturnPoint,
    NotConverged,
    ZeroTorsion,
)
from weakfrenet.polygonal import (
    Polygonal3,
    binormal_indicatrix,
    discrete_frenet,
    normal_indicatrix,
    sanitize,
    tantrix,
)
from weakfrenet.sphere import proj_distance, sphere_distance, sup_distance
from weakfrenet.weak import (
    estimate_limit,
    refine,
    verify_reparam_identities,
    weak_binormal,
    weak_normal,
    weak_tantrix,
)

PI = np.pi
R2 = np.sqrt(2.0)


def identities(c, seq, **kwargs):
    """verify_reparam_identities on the three weak limits of seq."""
    try:
        b_c = weak_binormal(seq)
    except ZeroTorsion:
        b_c = None
    return verify_reparam_identities(
        c, weak_tantrix(seq), b_c, weak_normal(seq), **kwargs
    )


class TestRefine:
    def test_circle_torsion_free(self):
        seq = refine(helix(1.0, 0.0), levels=3, base_n=8)
        assert all(lv.tat == 0.0 for lv in seq.levels)

    def test_levels_shrink_and_nested(self):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=4, base_n=8)
        meshes = [lv.mesh for lv in seq.levels]
        moduli = [lv.modulus for lv in seq.levels]
        assert all(a > b for a, b in zip(meshes, meshes[1:]))
        assert all(a > b for a, b in zip(moduli, moduli[1:]))
        assert [lv.n_params for lv in seq.levels] == [8, 16, 32, 64]
        # uniform dyadic levels nest: every vertex reappears one level down
        prev, cur = (lv.inscription.polygonal.vertices for lv in seq.levels[-2:])
        assert np.array_equal(cur[::2], prev)

    def test_only_last_two_levels_keep_polygonals(self):
        seq = refine(helix(1.0, 2 * PI), levels=4, base_n=8)
        assert all(lv.inscription is None and lv.polygonal is None for lv in seq.levels[:-2])
        for lv in seq.levels[-2:]:
            assert lv.polygonal.n_segments == lv.n_params
            assert (lv.mesh, lv.modulus) == (lv.inscription.mesh, lv.inscription.modulus)

    def test_helix_tat_converges_to_torsion_integral(self):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=6, base_n=32)
        target = PI * R2
        errs = [abs(lv.tat - target) for lv in seq.levels]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # endpoint deficit of open inscriptions is ~2*mesh*tau
        assert errs[-1] < 3 * seq.levels[-1].mesh * 0.5

    def test_modulus_close_to_mesh_for_helix(self):
        seq = refine(helix(1.0, 2 * PI), levels=3, base_n=16)
        for lv in seq.levels:
            assert lv.mesh <= lv.modulus <= 2 * lv.mesh

    def test_one_frenet_pass_per_level(self, frenet_calls):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=3, base_n=16)
        verify_reparam_identities(
            c, weak_tantrix(seq), weak_binormal(seq), weak_normal(seq)
        )
        assert len(frenet_calls) == 3
        assert all(P is lv.polygonal for P, lv in zip(frenet_calls[-2:], seq.levels[-2:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            refine(helix(), levels=1, base_n=8)
        with pytest.raises(ValueError):
            refine(helix(), levels=2, base_n=2)


class TestEstimateLimit:
    def test_geometric_first_order(self):
        meshes = np.array([1 / 2**k for k in range(6)])
        values = 3.0 - 0.5 * meshes
        assert estimate_limit(values, meshes) == pytest.approx(3.0, abs=1e-12)

    def test_sqrt_order(self):
        meshes = np.array([1 / 2**k for k in range(6)])
        values = 2.0 - np.sqrt(meshes)
        assert estimate_limit(values, meshes) == pytest.approx(2.0, abs=1e-12)

    def test_short_sequences(self):
        assert estimate_limit([5.0], [1.0]) == 5.0
        assert np.isnan(estimate_limit([], []))


class TestWeakBinormal:
    def test_helix_matches_analytic_binormal(self):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=7, base_n=32)
        b_c = weak_binormal(seq)
        assert b_c.cauchy_gap <= 5e-3
        # Frenet oracle: b(s) with s the inverse of t = int |tau| (linear
        # here), so b_c(t) should equal [b(s_2(t))] after the constant-speed
        # rescaling of the discrete domain onto [0, TAT(c)]
        tau = 0.5
        t_grid = np.linspace(0.0, b_c.total_length, 200)
        s2 = c.domain[0] + t_grid / tau * (PI * R2 / b_c.total_length)
        _, _, b_ana, _, _ = c.frame(np.clip(s2, *c.domain))
        dev = np.max(proj_distance(b_c.eval(t_grid), b_ana))
        assert dev < 2e-2

    def test_planar_raises_zero_torsion(self):
        seq = refine(helix(1.0, 0.0), levels=2, base_n=16)
        with pytest.raises(ZeroTorsion):
            weak_binormal(seq)

    def test_not_converged_at_tight_tolerance(self):
        seq = refine(helix(1.0, 2 * PI), levels=2, base_n=8)
        assert weak_binormal(seq).cauchy_gap > 1e-9

    def test_planar_previous_level_not_converged(self, staircase, square):
        import dataclasses

        seq = refine(polyline_curve(staircase), levels=2, base_n=8)
        planar = dataclasses.replace(seq.levels[-2], polygonal=square)
        doctored = type(seq)(curve=seq.curve, levels=(planar, seq.final))
        with pytest.raises(NotConverged, match="previous level is planar"):
            weak_binormal(doctored)

    def test_inflection_binormal_has_no_corner(self):
        seq = refine(inflection_curve(), levels=7, base_n=32)
        b_c = weak_binormal(seq)
        mid = b_c.total_length / 2
        # probe junction turning angles near the inflection: folded into
        # projective classes they stay small (no corner)
        turns = b_c.curve.corners(min_arc=1e-12).turn
        assert turns[turns > 0.3].tolist() == []


class TestWeakTantrix:
    def test_circle_great_circle_unit_speed(self):
        # closed tantrices carry a half-cell phase between levels
        seq = refine(helix(1.0, 0.0), levels=4, base_n=32)
        t_c = weak_tantrix(seq)
        assert t_c.cauchy_gap <= 5e-2
        s = np.linspace(0, t_c.total_length, 100)
        pts = t_c.eval(s)
        assert np.allclose(pts[:, 2], 0.0, atol=1e-12)  # equatorial
        assert t_c.total_length == pytest.approx(2 * PI, abs=1e-2)

    def test_inflection_formula(self):
        seq = refine(inflection_curve(), levels=8, base_n=64)
        t_c = weak_tantrix(seq)
        ks = np.linspace(0.0, t_c.total_length, 257)
        pts = t_c.eval(ks)
        kk = ks * (PI / R2) / t_c.total_length
        ana = np.stack(
            [np.ones_like(kk), np.abs(np.cos(R2 * kk)), np.sin(R2 * kk)], axis=-1
        ) / R2
        assert float(np.max(sphere_distance(pts, ana))) < 2e-2

    def test_inflection_corner_angle_pi(self):
        seq = refine(inflection_curve(), levels=6, base_n=64)
        t_c = weak_tantrix(seq)
        turns = t_c.curve.corners(min_arc=1e-12).turn
        corners = turns[turns > 0.3]
        assert len(corners) == 1
        assert corners[0] == pytest.approx(PI, abs=1e-6)

    def test_speed_away_from_breakpoints(self):
        seq = refine(helix(1.0, 2 * PI), levels=4, base_n=32)
        t_c = weak_tantrix(seq)
        h = 1e-7
        rngl = np.random.default_rng(0)
        s0 = rngl.uniform(0.1, t_c.total_length - 0.1, 50)
        v = np.linalg.norm(t_c.eval(s0 + h) - t_c.eval(s0), axis=1) / h
        assert np.all(np.abs(v - 1.0) < 0.05)


class TestReturnPoints:
    def _needle(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        return polyline_curve(P)

    def test_requires_policy(self):
        seq = refine(self._needle(), levels=2, base_n=8)
        with pytest.raises(AmbiguousReturnPoint):
            weak_tantrix(seq)

    def test_policy_inserts_half_circle(self):
        seq = refine(self._needle(), levels=2, base_n=8)
        t_c = weak_tantrix(seq, return_dir=np.array([0.0, 0.0, 1.0]))
        assert t_c.total_length == pytest.approx(PI, abs=1e-12)
        mid = t_c.eval(t_c.total_length / 2)
        assert np.allclose(mid, [0, 0, 1], atol=1e-12)

    def test_policy_parallel_to_tangent_rejected(self):
        seq = refine(self._needle(), levels=2, base_n=8)
        with pytest.raises(AmbiguousReturnPoint):
            weak_tantrix(seq, return_dir=np.array([1.0, 0.0, 0.0]))

    def test_closed_polygonal_keeps_closing_arc(self):
        # turns pi/2, pi (return), pi/4 and, across the wrap, 3pi/4
        P = sanitize(
            Polygonal3([[0, 0, 0], [1, 0, 0], [1, 2, 0], [1, 1, 0]], closed=True)
        )
        assert P.return_points == (2,)
        seq = refine(polyline_curve(P), levels=3, base_n=8)
        t_c = weak_tantrix(seq, return_dir=np.array([0.0, 0.0, 1.0]))
        assert t_c.total_length == pytest.approx(5 * PI / 2, abs=1e-12)
        assert t_c.total_length >= 2 * PI  # Fenchel
        pts = t_c.curve.points
        assert np.allclose(pts[0], pts[-1], atol=1e-12)
        assert np.isclose(pts[:, 2], 1.0, atol=1e-12).sum() == 1


class TestWeakNormal:
    def test_planar_square_rotation(self):
        P = sanitize(
            Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], closed=True)
        )
        seq = refine(polyline_curve(P), levels=3, base_n=16)
        n_c = weak_normal(seq)
        assert n_c.cauchy_gap <= 1e-9
        assert n_c.total_length == pytest.approx(2 * PI, abs=1e-9)
        # projected in-plane normal rotation: n = +-e3 x t
        t_c = weak_tantrix(seq)
        s = np.linspace(0, 2 * PI, 100)
        expected = np.cross([0, 0, 1], t_c.eval(s))
        assert float(np.max(proj_distance(n_c.eval(s), expected))) < 1e-9

    def test_helix_length(self):
        seq = refine(helix(1.0, 2 * PI), levels=6, base_n=64)
        n_c = weak_normal(seq)
        assert n_c.cauchy_gap <= 5e-3
        est = estimate_limit(
            [lv.tc + lv.tat for lv in seq.levels], [lv.mesh for lv in seq.levels]
        )
        assert est == pytest.approx(2 * PI * R2, abs=1e-3)
        assert n_c.total_length == pytest.approx(2 * PI * R2, abs=5e-2)

    def test_warns_when_complete_torsion_keeps_growing(self, staircase):
        import dataclasses

        from weakfrenet.errors import UnboundedVariationWarning

        seq = refine(polyline_curve(staircase), levels=3, base_n=8)
        doctored = type(seq)(
            curve=seq.curve,
            levels=tuple(
                dataclasses.replace(lv, ct=float(2**i))
                for i, lv in enumerate(seq.levels)
            ),
        )
        with pytest.warns(UnboundedVariationWarning):
            n_c = weak_normal(doctored)
        assert "not settling" in n_c.warning


class TestFixedPoint:
    def test_polygonal_input_reproduces_discrete_objects(self, staircase):
        fr = discrete_frenet(staircase)
        seq = refine(polyline_curve(staircase), levels=4, base_n=4)
        settled = [lv for lv in seq.levels if lv.modulus < staircase.mesh / 2]
        assert settled
        for lv in settled:
            assert lv.tat == pytest.approx(fr.tat, abs=1e-12)
            assert lv.tc == pytest.approx(fr.tc, abs=1e-12)
        b_c = weak_binormal(seq)
        assert sup_distance(b_c.curve, binormal_indicatrix(staircase)) < 1e-9
        t_c = weak_tantrix(seq)
        assert sup_distance(t_c.curve, tantrix(staircase)) < 1e-9
        n_c = weak_normal(seq)
        assert sup_distance(n_c.curve, normal_indicatrix(staircase)) < 1e-9
        assert max(b_c.cauchy_gap, t_c.cauchy_gap, n_c.cauchy_gap) <= 1e-9


class TestLimitIndependence:
    def test_uniform_vs_randomized_schedules(self):
        c = helix(1.0, 2 * PI)
        uni = refine(c, levels=6, base_n=32)
        rnd = refine(c, levels=6, base_n=32, rng=np.random.default_rng(11))
        b_u = weak_binormal(uni)
        b_r = weak_binormal(rnd)
        gap_bound = 2 * max(b_u.cauchy_gap, b_r.cauchy_gap)
        assert sup_distance(b_u.curve, b_r.curve) <= gap_bound
        # both schedules approach the same total absolute torsion
        lvl_gap = abs(uni.levels[-1].tat - uni.levels[-2].tat)
        assert abs(uni.levels[-1].tat - rnd.levels[-1].tat) <= 2 * lvl_gap

    def test_tc_monotone_under_nesting(self):
        c = helix(1.0, 2 * PI)
        for rng_ in (None, np.random.default_rng(5)):
            seq = refine(c, levels=5, base_n=16, rng=rng_)
            tcs = [lv.tc for lv in seq.levels]
            assert all(a <= b + 1e-12 for a, b in zip(tcs, tcs[1:]))


class TestIdentities:
    def test_helix_identities(self):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=8, base_n=64)
        rep = identities(c, seq, tol=1e-2)
        assert rep.passed
        assert rep.binormal_dev < 1e-2
        assert rep.tantrix_dev < 1e-2
        assert rep.normal_dev < 1e-2
        d = rep.as_dict()
        assert set(d) == {"binormal_dev", "tantrix_dev", "normal_dev", "tol", "passed"}

    def test_circle_only_tantrix_identity(self):
        c = helix(1.0, 0.0)
        seq = refine(c, levels=6, base_n=64)
        rep = identities(c, seq, tol=1e-2)
        assert np.isnan(rep.binormal_dev)
        assert rep.tantrix_dev < 1e-2
        assert rep.passed

    def test_inflection_binormal_identity_across_flip(self):
        c = inflection_curve()
        seq = refine(c, levels=7, base_n=64)
        b_c = weak_binormal(seq)
        # identity check across s = 0: [b(s_2(t))] stays close to b_c,
        # including through the projective sign flip
        s_grid = np.linspace(-0.3, 0.3, 41)
        T = c.cum_abs_torsion(s_grid)
        _, _, b_ana, _, _ = c.frame(s_grid)
        total = c.cum_abs_torsion(c.domain[1])
        pts = b_c.eval_scaled(T, total)
        assert float(np.max(proj_distance(pts, b_ana))) < 2e-2

    def test_cumulative_integrals_match_closed_forms(self):
        # the closures the identities read, against quadrature of the frame
        c = inflection_curve()
        s = np.linspace(-0.9, 0.9, 11)
        a = c.domain[0]

        def integral(i, x):
            f = lambda y: abs(float(c.frame(np.asarray(y))[i]))
            return quad(f, a, x, points=[0.0] if x > 0 else None, limit=200)[0]

        K = [integral(3, x) for x in s]
        T = [integral(4, x) for x in s]
        assert np.allclose(K, c.cum_curvature(s), atol=1e-8)
        assert np.allclose(T, c.cum_abs_torsion(s), atol=1e-8)
