import numpy as np
import pytest

from conftest import random_polygonal
from weakfrenet.curves import frenet_ode_curve, helix, inflection_curve
from weakfrenet.errors import UnboundedVariationWarning, ZeroTorsionDensity
from weakfrenet.forces import (
    TestField,
    binormal_variation,
    curvature_force,
    darboux_curvatures,
    first_variation_check,
    make_tangential_bumps,
    tc_star,
    torsion_force,
)
from weakfrenet.polygonal import Polygonal3, discrete_frenet, sanitize
from weakfrenet.weak import refine, weak_binormal, weak_tantrix

PI = np.pi
R2 = np.sqrt(2.0)


class TestCurvatureForce:
    def test_right_angle_atom(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0]]))
        m = curvature_force(P)
        assert len(m.atoms) == 1
        param, w = m.atoms[0]
        assert param == pytest.approx(1.0)
        assert np.linalg.norm(w) == pytest.approx(2 * np.sin(PI / 4), abs=1e-12)

    def test_straight_segment_zero_measure(self):
        P = sanitize(Polygonal3([[0, 0, 0], [2, 0, 0]]))
        m = curvature_force(P)
        assert m.atoms == ()
        assert m.total_variation == 0.0

    def test_circle_density(self):
        c = helix(1.0, 0.0)
        m = curvature_force(c, n_density=4096)
        norms = np.linalg.norm(m.density_values, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert m.total_variation == pytest.approx(2 * PI, abs=1e-9)

    def test_atom_norms_match_turning_angles(self, rng):
        for _ in range(20):
            P = random_polygonal(rng, closed=False)
            fr = discrete_frenet(P)
            m = curvature_force(P)
            for (param, w), alpha in zip(m.atoms, fr.turning_angles):
                assert np.linalg.norm(w) == pytest.approx(
                    2 * np.sin(alpha / 2), abs=1e-8
                )

    def test_piecewise_smooth_corner(self):
        # a smooth curve with an artificial corner list entry
        c = helix(1.0, 2 * PI)
        m = curvature_force(c, corners=(0.0,))
        assert len(m.atoms) == 1
        # tangent is continuous there, so the atom weight is ~0
        assert np.linalg.norm(m.atoms[0][1]) < 1e-6


class TestTcStar:
    def test_square(self):
        P = sanitize(
            Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], closed=True)
        )
        star, tc = tc_star(curvature_force(P))
        assert star == pytest.approx(4 * R2, abs=1e-12)
        assert tc == pytest.approx(2 * PI, abs=1e-12)
        assert star < tc

    def test_smooth_circle_equal(self):
        star, tc = tc_star(curvature_force(helix(1.0, 0.0), n_density=4096))
        assert star == pytest.approx(tc, abs=1e-12)
        assert tc == pytest.approx(2 * PI, abs=1e-9)

    def test_single_corner_ratio(self):
        for theta in (0.3, 1.0, 2.0):
            verts = [[0, 0, 0], [1, 0, 0], [1 + np.cos(theta), np.sin(theta), 0]]
            P = sanitize(Polygonal3(verts))
            star, tc = tc_star(curvature_force(P))
            assert star / tc == pytest.approx(2 * np.sin(theta / 2) / theta, abs=1e-12)
            assert star < tc


@pytest.fixture(scope="module")
def helix_tantrix():
    c = helix(1.0, 2 * PI)
    seq = refine(c, levels=5, base_n=64)
    return c, weak_tantrix(seq)


class TestTorsionForce:
    def test_helix_density(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=4096)
        norms = np.linalg.norm(m.density_values, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)  # tau/k = (K/2pi)/R = 1
        assert m.density_mass == pytest.approx(PI * R2, abs=1e-9)  # int |tau| = K/v
        assert m.atoms == ()

    def test_planar_convex_zero(self):
        c = helix(1.0, 0.0)
        seq = refine(c, levels=2, base_n=32)
        t_c = weak_tantrix(seq)
        m = torsion_force(c, t_c)
        assert m.atoms == ()
        assert m.total_variation == pytest.approx(0.0, abs=1e-12)

    def test_inflection_atom(self):
        c = inflection_curve()
        seq = refine(c, levels=5, base_n=64)
        t_c = weak_tantrix(seq)
        m = torsion_force(c, t_c)
        assert len(m.atoms) == 1
        param, w = m.atoms[0]
        assert param == pytest.approx(PI / (2 * R2), abs=1e-3)
        assert np.linalg.norm(w) == pytest.approx(2.0, abs=1e-6)

    def test_growth_warning(self, helix_tantrix):
        c, t_c = helix_tantrix
        with pytest.warns(UnboundedVariationWarning):
            torsion_force(c, t_c, level_turnings=[1.0, 2.0, 4.0])


class TestBinormalVariation:
    def test_helix_mass(self, helix_tantrix):
        c, _ = helix_tantrix
        seq = refine(c, levels=5, base_n=64)
        b_c = weak_binormal(seq)
        m = binormal_variation(c, b_c, n_density=4096)
        assert m.atoms == ()
        assert m.total_variation == pytest.approx(PI * R2, abs=1e-9)  # int k

    def test_planar_empty_domain(self):
        class Dummy:
            curve = None

        m = binormal_variation(helix(1.0, 0.0), Dummy())
        assert m.domain == (0.0, 0.0)
        assert m.total_variation == 0.0

    def test_torsion_vanishing_on_interval_rejected(self):
        half = frenet_ode_curve(
            lambda s: 1.0,
            lambda s: 0.0 if s < 1.0 else 1.0,
            (0.0, 2.0),
            step=1e-3,
        )

        class Dummy:
            curve = None

        with pytest.raises(ZeroTorsionDensity):
            binormal_variation(half, Dummy())

    def test_inflection_no_atoms(self):
        c = inflection_curve()
        seq = refine(c, levels=6, base_n=64)
        b_c = weak_binormal(seq)
        m = binormal_variation(c, b_c)
        assert m.atoms == ()
        assert m.total_variation == pytest.approx(PI / R2, abs=1e-6)


class TestFirstVariation:
    def test_zero_field(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=2048)
        zero = TestField(value=lambda k: np.zeros(np.atleast_1d(k).shape + (3,)))
        rep = first_variation_check(c, m, [zero], n_quad=256)
        assert rep.lhs[0] == 0.0
        assert rep.rhs[0] == 0.0

    def test_circle_sine_normal_field(self):
        # symbolic oracle on the unit circle: with xi = sin(s) n(s) both the
        # length variation int t . xi' ds and -<K, xi> equal 0 exactly
        c = helix(1.0, 0.0)
        m = curvature_force(c, n_density=4096)
        a = c.domain[0]

        def value(x):
            arr = np.atleast_1d(np.asarray(x, dtype=float))
            _, n, _, _, _ = c.frame(arr + a)
            return np.sin(arr + a)[:, None] * n

        rep = first_variation_check(c, m, [TestField(value=value)], n_quad=4096)
        assert abs(rep.lhs[0]) < 1e-4
        assert abs(rep.rhs[0]) < 1e-4

    def test_helix_random_tangential_bumps(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=16384)
        fields = make_tangential_bumps(c, 5, seed=3)
        rep = first_variation_check(c, m, fields, n_quad=4096)
        assert rep.max_mismatch < 1e-3

    def test_quadrature_refinement_order(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=16384)
        fields = make_tangential_bumps(c, 3, seed=5, profile="sin")
        m1 = first_variation_check(c, m, fields, n_quad=512).max_mismatch
        m2 = first_variation_check(c, m, fields, n_quad=1024).max_mismatch
        assert m1 / m2 >= 2.0  # order >= 1 under refinement

    def test_fd_fallback_derivative(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=8192)
        analytic = make_tangential_bumps(c, 1, seed=9)[0]
        fd_only = TestField(value=analytic.value)
        rep = first_variation_check(c, m, [fd_only], n_quad=1024)
        assert rep.max_mismatch < 1e-3

    @pytest.mark.parametrize("n_quad", [0, -4])
    def test_empty_quadrature_rejected(self, helix_tantrix, n_quad):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=2048)
        fields = make_tangential_bumps(c, 1, seed=9)
        with pytest.raises(ValueError, match="n_quad"):
            first_variation_check(c, m, fields, n_quad=n_quad)


class TestDarboux:
    def test_analytic_tantrix_identities(self):
        # oracle-grade check of the identities themselves: evaluate the
        # exact tantrix t(s1(k)) and difference it
        c = helix(1.0, 2 * PI)
        kconst = 0.5

        class Analytic:
            def eval(self, k):
                arr = np.atleast_1d(np.asarray(k, dtype=float))
                s = c.domain[0] + arr / kconst
                t, _, _, _, _ = c.frame(s)
                return t

        C = PI * R2
        ks = np.linspace(0.2 * C, 0.8 * C, 25)
        kg, kn = darboux_curvatures(Analytic(), ks, h=1e-3)
        assert np.max(np.abs(kg - 1.0)) < 1e-6  # tau/k = 1 for R=1, K=2pi
        assert np.max(np.abs(kn + 1.0)) < 1e-6

    def test_refined_tantrix_identities(self):
        c = helix(1.0, 2 * PI)
        seq = refine(c, levels=2, base_n=16384)
        t_c = weak_tantrix(seq)
        C = t_c.total_length
        ks = np.linspace(0.2 * C, 0.8 * C, 16)
        kg, kn = darboux_curvatures(t_c, ks, h=0.02)
        assert np.max(np.abs(kg - 1.0)) < 5e-4
        assert np.max(np.abs(kn + 1.0)) < 5e-4


class TestMeasureBookkeeping:
    def test_pair_combines_atoms_and_density(self):
        from weakfrenet.forces import VectorMeasure

        m = VectorMeasure(
            atoms=((0.5, np.array([1.0, 0.0, 0.0])),),
            density_params=np.array([0.25, 0.75]),
            density_values=np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]),
            density_steps=np.array([0.5, 0.5]),
            domain=(0.0, 1.0),
            kind="arclength",
        )
        const = lambda x: np.broadcast_to(
            np.array([1.0, 1.0, 1.0]), np.atleast_1d(x).shape + (3,)
        )
        assert m.pair(const) == pytest.approx(1.0 + 0.5 * 2 + 0.5 * 4)
        assert m.total_variation == pytest.approx(1.0 + 1.0 + 2.0)

    def test_roundtrip_masses(self, helix_tantrix):
        c, t_c = helix_tantrix
        m = torsion_force(c, t_c, n_density=2048)
        # |tau| integral bookkeeping within quadrature resolution
        assert m.density_mass == pytest.approx(PI * R2, rel=1e-6)
