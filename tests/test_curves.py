import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weakfrenet.curves import (
    N_SUB_MODULUS,
    TURN_CERTIFIED,
    _quartic_arc,
    cell_integral,
    frenet_ode_curve,
    helix,
    inflection_curve,
    inscribe,
    make_curve,
    polyline_curve,
)
from weakfrenet.errors import BlowUp, EvalOutOfDomain, UnknownModel
from weakfrenet.polygonal import Polygonal3, discrete_frenet, sanitize
from weakfrenet.sphere import proj_distance

PI = np.pi
R2 = np.sqrt(2.0)


class TestHelix:
    def test_flat_circle(self):
        c = helix(1.0, 0.0)
        s = np.linspace(*c.domain, 200)
        _, _, _, k, tau = c.frame(s)
        assert np.allclose(tau, 0.0)
        assert np.allclose(k, 1.0)
        L = c.domain[1] - c.domain[0]
        assert L * k[0] == pytest.approx(2 * PI)

    def test_reference_values(self):
        c = helix(1.0, 2 * PI)
        v = R2
        L = c.domain[1] - c.domain[0]
        _, _, _, k, tau = c.frame(np.array(0.0))
        assert L * float(k) == pytest.approx(PI * R2)  # int k = 2 pi R / v
        assert L * float(tau) == pytest.approx(PI * R2)  # int |tau| = K / v
        t, n, b, _, _ = c.frame(np.array(0.0))
        assert np.allclose(t, [0.0, 1.0 / v, 2 * PI / (2 * PI) / v])
        assert np.allclose(n, [-1.0, 0.0, 0.0])
        assert np.allclose(b, [0.0, -1.0 / v, 1.0 / v])

    def test_unit_speed_and_derivative_consistency(self):
        c = helix(0.7, 3.0)
        h = 1e-6
        s = np.linspace(c.domain[0] + 2 * h, c.domain[1] - 2 * h, 50)
        assert np.allclose(np.linalg.norm(c.d1(s), axis=1), 1.0, atol=1e-12)
        fd = (c.eval(s + h) - c.eval(s - h)) / (2 * h)
        assert np.max(np.abs(fd - c.d1(s))) < 1e-9

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            helix(0.0, 1.0)

    @pytest.mark.parametrize("R, K, name", [
        (np.nan, 1.0, "R"), (np.inf, 1.0, "R"), (1.0, np.nan, "K"),
        (1.0, np.inf, "K"), (1.0, -np.inf, "K"),
    ])
    def test_rejects_nonfinite_parameters(self, R, K, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            helix(R, K)


class TestInflectionCurve:
    def test_totals_by_quadrature(self):
        c = inflection_curve()

        def kfun(s):
            return float(c.frame(np.asarray(s))[3])

        tc = quad(kfun, -1, 1, points=[0.0], limit=200)[0]
        assert tc == pytest.approx(PI / R2, abs=1e-8)

        def taufun(s):
            return abs(float(c.frame(np.asarray(s))[4]))

        tat = quad(taufun, -1, 1, points=[0.0], limit=200)[0]
        assert tat == pytest.approx(PI / R2, abs=1e-8)

    def test_frame_at_inflection(self):
        c = inflection_curve()
        t, n, b, k, tau = c.frame(np.array(0.0))
        assert np.allclose(t, [1 / R2, 0, 1 / R2])
        assert np.allclose(b, [-1 / R2, 0, 1 / R2])
        assert np.allclose(n, [0, 1, 0])

    def test_endpoint_frames(self):
        c = inflection_curve()
        _, n1, b1, _, _ = c.frame(np.array(1.0))
        assert np.allclose(n1, [0, 0, -1])
        assert np.allclose(b1, [-1 / R2, 1 / R2, 0])
        _, n0, b0, _, _ = c.frame(np.array(-1.0))
        assert np.allclose(n0, [0, 0, 1])
        assert np.allclose(b0, [1 / R2, -1 / R2, 0])

    def test_normal_flips_in_sphere_but_not_in_projective(self):
        c = inflection_curve()
        eps = 1e-4
        _, n_m, b_m, _, _ = c.frame(np.array(-eps))
        _, n_p, b_p, _, _ = c.frame(np.array(eps))
        assert float(np.dot(n_m, n_p)) < -0.99
        assert float(proj_distance(n_m, n_p)) < 1e-3
        assert float(proj_distance(b_m, b_p)) < 1e-3

    def test_eval_out_of_domain(self):
        with pytest.raises(EvalOutOfDomain):
            inflection_curve().eval(1.5)

    def test_unit_speed(self):
        c = inflection_curve()
        s = np.linspace(-0.999, 0.999, 101)
        h = 1e-6
        fd = (c.eval(s + h) - c.eval(s - h)) / (2 * h)
        assert np.allclose(np.linalg.norm(fd, axis=1), 1.0, atol=1e-8)


class TestCellIntegral:
    """_quartic_arc is F(w) = int_{-pi/2}^{w} cos^2 sqrt(1 + sin^2), from
    which the inflection's z coordinate is F(arcsin s) / sqrt(2)."""

    def test_matches_mpmath(self):
        import mpmath

        F = _quartic_arc()
        w = np.concatenate([[-PI / 2, PI / 2], F.edges[1:-1:256],
                            np.random.default_rng(0).uniform(-PI / 2, PI / 2, 40)])
        assert w.size >= 50

        def f(t):
            return mpmath.cos(t) ** 2 * mpmath.sqrt(1 + mpmath.sin(t) ** 2)

        with mpmath.workdps(30):
            lo = mpmath.mpf(-PI / 2)
            ref = np.array([float(mpmath.quad(f, [lo, mpmath.mpf(x)])) for x in w])
        assert np.max(np.abs(F(w) - ref)) <= 5e-13

    def test_cell_edges_return_table_values(self):
        F = _quartic_arc()
        assert F.edges[0] == -PI / 2 and F.edges.size == 4097
        assert np.array_equal(F(F.edges[:-1]), F.values[:-1])
        assert all(F(x) == v for x, v in zip(F.edges[:-1:512], F.values[:-1:512]))

    def test_shapes_and_exact_polynomial(self):
        # both rules are exact for a cubic, so only rounding remains
        F = cell_integral(lambda x: x**3, 0.0, 2.0, 4)
        x = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        assert F(x).shape == (3, 4) and np.shape(F(0.7)) == ()
        assert np.allclose(F(x), x**4 / 4, rtol=0, atol=1e-15)
        assert F(2.0) == pytest.approx(4.0, abs=1e-15)

    def test_position_matches_spline_of_table(self):
        from scipy.interpolate import CubicSpline

        F = _quartic_arc()
        spline = CubicSpline(F.edges, F.values)
        s = np.linspace(-1.0, 1.0, 4001)
        z = inflection_curve().position(s)[:, 2]
        assert np.max(np.abs(z - spline(np.arcsin(s)) / R2)) <= 5e-13


class TestFrenetOde:
    def test_straight_line(self):
        c = frenet_ode_curve(lambda s: 0.0, lambda s: 0.0, (0.0, 2.0))
        s = np.linspace(0, 2, 9)
        pts = c.eval(s)
        assert np.allclose(pts, np.stack([s, 0 * s, 0 * s], axis=-1), atol=1e-12)

    def test_unit_circle_closes(self):
        c = frenet_ode_curve(lambda s: 1.0, lambda s: 0.0, (0.0, 2 * PI))
        assert np.linalg.norm(c.eval(2 * PI) - c.eval(0.0)) < 1e-6

    def test_blowup_detected(self):
        with pytest.raises(BlowUp):
            frenet_ode_curve(lambda s: 1.0, lambda s: 1.0 / (1.0 - s), (0.0, 1.0))

    def test_interior_pole_raises_blowup(self):
        # s = 0.25 is a node of the 256-step start; a profile that divides
        # by zero there is a blow-up, not a ZeroDivisionError
        with pytest.raises(BlowUp):
            frenet_ode_curve(lambda s: 1.0, lambda s: 1.0 / (0.25 - s), (0.0, 1.0))

    @pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
    def test_step_must_be_finite_positive(self, step):
        with pytest.raises(ValueError, match="step"):
            frenet_ode_curve(lambda s: 1.0, lambda s: 0.5, (0.0, 1.0), step=step)

    def test_truncated_blowup_profile(self):
        delta = 1e-2
        c = frenet_ode_curve(
            lambda s: 1.0, lambda s: 1.0 / (1.0 - s), (0.0, 1.0 - delta), step=2e-4
        )
        # frame stays orthonormal along the run
        t, n, b, _, _ = c.frame(np.linspace(0, 1 - delta, 33))
        assert np.max(np.abs(np.sum(t * n, axis=1))) < 1e-8
        assert np.max(np.abs(np.linalg.norm(t, axis=1) - 1)) < 1e-8

    def test_helix_profiles_match_analytic_helix(self):
        R, K = 1.0, 2 * PI
        w = K / (2 * PI)
        v = np.hypot(R, w)
        ref = helix(R, K)
        a, b = ref.domain
        t0, n0, b0, _, _ = ref.frame(a)
        c = frenet_ode_curve(
            lambda s: R / v**2,
            lambda s: w / v**2,
            ref.domain,
            step=1e-3,
            start=(ref.eval(a), t0, n0, b0),
        )
        s = np.linspace(a, b, 1001)
        assert np.max(np.abs(c.eval(s) - ref.eval(s))) < 1e-9
        t, n, _, _, _ = c.frame(s)
        t_ref, n_ref, _, _, _ = ref.frame(s)
        assert np.max(np.abs(t - t_ref)) < 1e-7
        assert np.max(np.abs(n - n_ref)) < 1e-7
        assert np.max(np.abs(c.cum_curvature(s) - ref.cum_curvature(s))) < 1e-10
        assert np.max(np.abs(c.cum_abs_torsion(s) - ref.cum_abs_torsion(s))) < 1e-10

    def test_fourth_order_in_the_step(self):
        # varying k and tau make the Magnus commutator term matter
        def ends(n_steps):
            c = frenet_ode_curve(
                lambda s: 1.0 + s, lambda s: np.cos(3 * s), (0.0, 2.0), step=2.0 / n_steps
            )
            t, n, b, _, _ = c.frame(2.0)
            return np.concatenate([t[0], n[0], b[0], c.eval(2.0)])

        ref = ends(12800)
        errs = [np.max(np.abs(ends(n) - ref)) for n in (50, 100, 200)]
        assert errs[0] / errs[1] > 12 and errs[1] / errs[2] > 12

    def test_blowup_cumulative_torsion(self):
        c = make_curve("blowup", delta=1e-3)
        s = np.linspace(0.0, 0.999, 20001)
        err = np.abs(c.cum_abs_torsion(s) + np.log1p(-s))
        # linear interpolation between the nodes misses by 5e-9 on [0, 0.9]
        assert np.max(err[s <= 0.9]) < 1e-10
        assert np.max(err) < 1e-7


class TestProfileValues:
    """Frenet-ODE profiles are called once per array when they accept one."""

    @staticmethod
    def counted(fn):
        calls = []

        def profile(s):
            calls.append(np.shape(s))
            return fn(s)

        return profile, calls

    def test_array_profile_called_once_per_query(self):
        k, k_calls = self.counted(lambda s: 1.0 + s * s)
        tau, tau_calls = self.counted(lambda s: 1.0 / (1.5 - s))
        c = frenet_ode_curve(k, tau, (0.0, 1.0), step=1e-2)
        c.frame(np.linspace(0.0, 1.0, 257))
        # one call on the integrator's nodes and Gauss points, one per frame query
        assert k_calls == [(301,), (257,)]
        assert tau_calls == [(301,), (257,)]

    def test_array_and_pointwise_profiles_agree_bit_for_bit(self):
        # float() refuses an array, so the second curve takes the per-point path
        fast = frenet_ode_curve(lambda s: 1.0 + s * s, lambda s: 1.0 / (1.5 - s),
                                (0.0, 1.0), step=1e-2)
        slow = frenet_ode_curve(lambda s: 1.0 + float(s) ** 2,
                                lambda s: 1.0 / (1.5 - float(s)), (0.0, 1.0), step=1e-2)
        s = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(fast.eval(s), slow.eval(s))
        for a, b in zip(fast.frame(s), slow.frame(s)):
            assert np.array_equal(a, b)

    def test_python_branching_profile(self):
        step = frenet_ode_curve(lambda s: 1.0, lambda s: 0.0 if s < 0.5 else 1.0,
                                (0.0, 1.0), step=1e-2)
        _, _, _, k, tau = step.frame(np.array([0.25, 0.75]))
        assert k.tolist() == [1.0, 1.0]
        assert tau.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("tau", [lambda s: 1.0 / (1.0 - s), lambda s: np.log(1.0 - s)])
    def test_pole_raises_blowup_without_warnings(self, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp, match="not finite at s = 1.0"):
                frenet_ode_curve(lambda s: 1.0, tau, (0.0, 1.0))


class TestFrameAt:
    """The model `frame` closures at single parameters."""

    def test_helix_normal(self):
        c = helix(1.0, 2 * PI)
        _, n, _, k, tau = c.frame(np.array(0.0))
        assert np.allclose(n, [-1, 0, 0])
        assert float(k) == pytest.approx(0.5)
        assert float(tau) == pytest.approx(0.5)

    def test_inflection_regular_point(self):
        c = inflection_curve()
        _, _, _, k, tau = c.frame(np.array(0.5))
        assert float(k) == pytest.approx(R2 * 0.5 / np.sqrt(1 - 0.5**4), abs=1e-12)
        assert float(tau) == pytest.approx(-float(k), abs=1e-12)

    def test_frenet_closure_convergence_order(self):
        c = helix(1.0, 2 * PI)
        devs = []
        for h in (1e-2, 5e-3):
            s = np.linspace(-1.0, 1.0, 11)
            t_plus = c.d1(s + h)
            t_minus = c.d1(s - h)
            _, n, _, k, _ = c.frame(s)
            fd = (t_plus - t_minus) / (2 * h)
            devs.append(np.max(np.linalg.norm(fd - k[:, None] * n, axis=1)))
        order = np.log2(devs[0] / devs[1])
        assert order >= 0.9


def modulus_reference(c, params):
    """Largest distance over all pairs of the N_SUB_MODULUS samples of each
    cell, from coordinate differences, one cell at a time."""
    params = np.asarray(params, dtype=float)
    verts = c.eval(params)
    lam = np.linspace(0.0, 1.0, N_SUB_MODULUS)[1:-1]
    best = 0.0
    for i in range(len(params) - 1):
        inner = c.eval(params[i] + (params[i + 1] - params[i]) * lam)
        p = np.vstack([verts[i], inner, verts[i + 1]])
        d = p[:, None, :] - p[None, :, :]
        best = max(best, float(np.max(np.sqrt(np.sum(d * d, axis=-1)))))
    return best


@functools.cache
def blowup_curve():
    return make_curve("blowup", delta=1e-2)


@st.composite
def inscription_cases(draw):
    """Curves and params whose cells hit both the closure certificate and
    the all-pairs fallback: few-cell helices (turning too much to certify),
    helix cells turning by between TURN_CERTIFIED and pi/2, zigzags cut
    across their corners (no closure), Frenet-ODE blowup cells and nested
    inflection refinements."""
    kind = draw(st.sampled_from(["helix", "helix-band", "zigzag", "blowup", "inflection"]))
    if kind == "helix":
        c = helix(1.0, draw(st.floats(0.0, 2 * PI)))
        return c, np.linspace(*c.domain, draw(st.integers(1, 3)) + 1)
    if kind == "helix-band":
        c = helix(draw(st.floats(1.0, 3.0)), draw(st.floats(-2 * PI, 2 * PI)))
        a, b = c.domain
        turn = draw(st.floats(TURN_CERTIFIED, PI / 2, exclude_min=True, exclude_max=True))
        h = turn * (b - a) / float(c.cum_curvature(b))
        n = draw(st.integers(1, int((b - a) // h)))
        return c, a + h * np.arange(n + 1)
    if kind == "zigzag":
        m = draw(st.integers(2, 8))
        amp = draw(st.floats(0.2, 3.0))
        c = polyline_curve(
            Polygonal3([[i, amp * (i % 2), 0.0] for i in range(m + 1)])
        )
        a, b = c.domain
        cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
        return c, np.unique(np.concatenate([[a, b], a + (b - a) * np.array(cuts)]))
    if kind == "blowup":
        c = blowup_curve()
        return c, np.linspace(*c.domain, draw(st.integers(1, 64)) + 1)
    c = inflection_curve()
    params = list(c.domain)
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=30)):
        i = pick % (len(params) - 1)
        params.insert(i + 1, 0.5 * (params[i] + params[i + 1]))
    return c, np.array(params)


class TestInscribe:
    def test_single_segment(self):
        c = helix(1.0, 2 * PI)
        a, b = c.domain
        ins = inscribe(c, [a, b])
        assert ins.polygonal.n_segments == 1
        assert ins.mesh == pytest.approx(
            float(np.linalg.norm(c.eval(b) - c.eval(a)))
        )
        assert ins.modulus >= ins.mesh

    def test_modulus_within_cell_arc_length(self):
        # a sub-arc of a unit-speed curve is never wider than its length
        c = inflection_curve()
        params = np.linspace(*c.domain, 8193)
        ins = inscribe(c, params)
        assert ins.modulus <= np.max(np.diff(params)) + 1e-14
        assert ins.modulus >= ins.mesh

    def test_certified_cells_are_not_sampled(self):
        # every cell of a fine inflection level turns by less than
        # TURN_CERTIFIED, so only the vertices are evaluated
        c = inflection_curve()
        evaluated = []
        position = c.position

        def counted(s):
            evaluated.append(np.size(s))
            return position(s)

        c.position = counted
        ins = inscribe(c, np.linspace(*c.domain, 8193))
        assert evaluated == [8193]
        assert ins.modulus == ins.mesh

    @given(inscription_cases())
    @settings(max_examples=100, deadline=None)
    def test_modulus_matches_all_pairs_reference(self, case):
        c, params = case
        assert inscribe(c, params).modulus == modulus_reference(c, params)

    def test_circle_four_points_is_square(self):
        c = helix(1.0, 0.0)
        a, b = c.domain
        ins = inscribe(c, np.linspace(a, b, 5))
        P = sanitize(ins.polygonal)
        assert P.closed
        assert P.n_segments == 4
        fr = discrete_frenet(P)
        assert fr.tc == pytest.approx(2 * PI, abs=1e-12)

    def test_rejects_bad_params(self):
        c = helix(1.0, 0.0)
        with pytest.raises(ValueError):
            inscribe(c, [0.0, 0.0, 1.0])

    def test_helix_tat_trend(self):
        c = helix(1.0, 2 * PI)
        a, b = c.domain
        vals = []
        for n in (64, 128, 256):
            fr = discrete_frenet(sanitize(inscribe(c, np.linspace(a, b, n + 1)).polygonal))
            vals.append(fr.tat)
        target = PI * R2
        assert vals[0] < vals[1] < vals[2] < target
        assert abs(vals[2] - target) < abs(vals[0] - target) / 2


class TestRegistry:
    def test_known_models(self):
        assert make_curve("helix", R=2.0).name == "helix"
        assert make_curve("circle").name == "helix"
        assert make_curve("inflection").name == "inflection"

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            make_curve("klein-bottle")

    def test_blowup_model_validation(self):
        with pytest.raises(ValueError):
            make_curve("blowup", delta=2.0)

    def test_unknown_parameter_names(self):
        make_curve("helix", R=2.0, K=1.0)
        make_curve("blowup", delta=0.5, step=0.01)
        for model, params in [("helix", {"r": 3.0}), ("circle", {"K": 1.0}),
                              ("inflection", {"R": 1.0}), ("blowup", {"steps": 10.0})]:
            with pytest.raises(ValueError):
                make_curve(model, **params)

    def test_polyline_curve_roundtrip(self, staircase):
        c = polyline_curve(staircase)
        assert c.domain == (0.0, pytest.approx(3.0))
        assert np.allclose(c.eval(1.5), [1.0, 0.5, 0.0])
