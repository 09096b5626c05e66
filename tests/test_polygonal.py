import numpy as np
import pytest

from conftest import random_polygonal
from weakfrenet.curves import make_curve
from weakfrenet.errors import DegeneratePolygonal, SearchFailed, ZeroTorsion
from weakfrenet.forces import curvature_force
from weakfrenet import polygonal
from weakfrenet.polygonal import (
    Polygonal3,
    _fill_undefined_binormals,
    binormal_indicatrix,
    discrete_frenet,
    interleaved_pair,
    nonmonotonicity_witness,
    normal_indicatrix,
    polar_curve,
    polygonal_measures,
    sanitize,
    tantrix,
    turning_angle_at,
)
from weakfrenet.sphere import (
    fold_angle,
    lift_signs,
    proj_distance,
    slerp,
    sphere_distance,
    split_arcs,
    unit,
)
from weakfrenet.weak import refine

PI = np.pi


class TestSanitize:
    def test_merges_collinear_run(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0]]))
        assert np.allclose(P.vertices, [[0, 0, 0], [2, 0, 0], [2, 1, 0]])

    def test_idempotent_on_staircase(self, staircase):
        again = sanitize(staircase)
        assert np.array_equal(again.vertices, staircase.vertices)

    def test_reversal_kept_and_flagged(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        assert P.n_vertices == 3
        assert P.return_points == (1,)
        # closed: returns at the wrap vertex and at vertex 2, listed in order
        verts = [[0, 0, 0], [1, 0, 0], [1, 2, 0], [1, 1, 0], [0.5, 0, 0]]
        P = sanitize(Polygonal3(verts, closed=True))
        assert P.n_vertices == 5
        assert P.return_points == (0, 2)

    def test_zero_length_segments_dropped(self):
        P = sanitize(Polygonal3([[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]]))
        assert P.n_vertices == 3

    def test_too_few_vertices(self):
        with pytest.raises(DegeneratePolygonal):
            sanitize(Polygonal3([[0, 0, 0], [0, 0, 0]]))

    def test_closed_duplicate_endpoint_dropped(self):
        P = sanitize(
            Polygonal3(
                [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], closed=True
            )
        )
        assert P.n_vertices == 4


class TestDiscreteFrenet:
    def test_staircase_oracle(self, staircase):
        # hand evaluation: b1 = e1 x e2 = e3, b2 = e2 x e3 = e1,
        # sign((b1 x b2) . e2) = +1, so theta = +pi/2
        fr = discrete_frenet(staircase)
        assert np.allclose(fr.binormals, [[0, 0, 1], [1, 0, 0]])
        assert fr.torsion_angles == pytest.approx([PI / 2])
        assert fr.tat == pytest.approx(PI / 2, abs=1e-15)
        assert fr.tc == pytest.approx(PI, abs=1e-15)
        assert fr.ct == pytest.approx(PI / 2, abs=1e-15)

    def test_planar_zigzag(self, zigzag):
        fr = discrete_frenet(zigzag)
        assert fr.tat == 0.0
        assert fr.tc == pytest.approx(3 * PI / 2, abs=1e-12)
        # complete torsion counts pi at each planar inflection (binormal
        # sign flip), here two of them
        assert fr.ct == pytest.approx(2 * PI, abs=1e-12)

    def test_mirror_flips_torsion_sign(self, staircase):
        mirrored = sanitize(Polygonal3(staircase.vertices * np.array([1, 1, -1])))
        fr = discrete_frenet(mirrored)
        assert fr.torsion_angles == pytest.approx([-PI / 2])
        assert fr.tat == pytest.approx(PI / 2)

    def test_closed_square(self, square):
        fr = discrete_frenet(square)
        assert fr.tc == pytest.approx(2 * PI, abs=1e-12)
        assert fr.tat == 0.0
        assert fr.turning_angles.shape == (4,)
        assert fr.torsion_angles.shape == (4,)

    def test_return_point_rejected(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        with pytest.raises(DegeneratePolygonal):
            discrete_frenet(P)

    def test_cached_property_and_uncached_error(self, staircase):
        assert staircase.frenet is staircase.frenet
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        for _ in range(2):
            with pytest.raises(DegeneratePolygonal):
                P.frenet

    def test_one_pass_per_polygonal(self, frenet_calls, monkeypatch):
        P = sanitize(
            Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 1, 2]])
        )
        lifts, sums = [], []
        lift, cumsum = polygonal.lift_signs, np.cumsum
        monkeypatch.setattr(
            polygonal, "lift_signs", lambda *a, **kw: lifts.append(a) or lift(*a, **kw)
        )
        monkeypatch.setattr(
            np, "cumsum", lambda x, *a, **kw: sums.append(np.copy(x)) or cumsum(x, *a, **kw)
        )
        for _ in range(2):
            tantrix(P)
            binormal_indicatrix(P)
            polygonal_measures(P)
            normal_indicatrix(P)
            interleaved_pair(P)
            curvature_force(P)
        fr = P.frenet
        assert len(frenet_calls) == 1 and frenet_calls[0] is P
        assert len(lifts) == 1
        # one cumulative table each of int k and int |tau|, shared by the builders
        assert sum(np.array_equal(x, fr.turning_angles) for x in sums) == 1
        assert sum(np.array_equal(x, np.abs(fr.torsion_angles)) for x in sums) == 1
        assert tantrix(P).cum_length is fr.cum_turning
        assert np.shares_memory(polar_curve(P).cum_length, fr.cum_torsion)
        assert polar_curve(P).points is fr.lifted_binormals

    def test_segment_table_computed_once(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1, 1]]))
        # sanitize's last pass is the table the polygonal keeps
        assert {"segment_vectors", "segment_lengths"} <= set(vars(P))
        assert P.segment_vectors is P.segment_vectors
        assert P.tangents is P.tangents
        assert P.length == 4.0 and P.mesh == 2.0
        assert np.array_equal(P.arclength_of_vertices(), [0.0, 2.0, 3.0, 4.0])

    def test_tangents_at_a_return_point(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]]))
        assert P.return_points == (1,)
        assert np.array_equal(P.tangents, [[1, 0, 0], [-1, 0, 0], [0, 1, 0]])
        with pytest.raises(DegeneratePolygonal):
            P.frenet
        atoms = curvature_force(P).atoms
        assert atoms[0][0] == 1.0 and np.array_equal(atoms[0][1], [-2.0, 0.0, 0.0])

    @pytest.mark.parametrize("verts, binormals", [
        # leading run: the straight vertex 1 copies the first defined binormal
        ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1, 1]],
         [[0, 0, 1], [0, 0, 1], [1, 0, 0]]),
        # interior run: straight vertices 2 and 3 copy the one before them
        ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0], [1, 3, 1]],
         [[0, 0, 1], [0, 0, 1], [0, 0, 1], [1, 0, 0]]),
    ])
    def test_unsanitized_straight_through_vertices(self, verts, binormals):
        P = Polygonal3(verts)
        fr = discrete_frenet(P)
        assert np.array_equal(fr.binormals, binormals)
        assert fr.torsion_angles[-1] == pytest.approx(PI / 2)
        assert fr.tat == pytest.approx(discrete_frenet(sanitize(P)).tat)

    def test_fill_matches_loop_reference(self, rng):
        def loop_fill(binormals, defined):
            out = binormals.copy()
            first = int(np.flatnonzero(defined)[0])
            out[:first] = out[first]
            for i in range(first + 1, out.shape[0]):
                if not defined[i]:
                    out[i] = out[i - 1]
            return out

        for _ in range(200):
            n = int(rng.integers(1, 12))
            defined = rng.random(n) < rng.uniform(0.1, 0.9)
            b = rng.normal(size=(n, 3))
            if not np.any(defined):
                with pytest.raises(DegeneratePolygonal):
                    _fill_undefined_binormals(b, defined)
                continue
            assert np.array_equal(
                _fill_undefined_binormals(b, defined), loop_fill(b, defined)
            )


class TestTantrix:
    def test_right_angle_corner(self):
        P = sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0]]))
        t = tantrix(P)
        assert t.total_length == pytest.approx(PI / 2, abs=1e-15)
        assert t.n_arcs == 1

    def test_staircase(self, staircase):
        t = tantrix(staircase)
        assert t.total_length == pytest.approx(PI, abs=1e-15)
        assert t.n_arcs == 2

    def test_closed_square(self, square):
        t = tantrix(square)
        assert t.total_length == pytest.approx(2 * PI, abs=1e-12)
        assert np.allclose(t.points[0], t.points[-1])


class TestPolar:
    def test_planar_single_point(self, zigzag):
        p = polar_curve(zigzag)
        assert p.total_length == pytest.approx(0.0, abs=1e-15)
        assert np.all(proj_distance(p.points, p.points[0]) < 1e-12)

    def test_staircase_arc(self, staircase):
        p = polar_curve(staircase)
        assert p.total_length == pytest.approx(PI / 2, abs=1e-15)
        assert np.allclose(p.points[0], [0, 0, 1])
        assert proj_distance(p.points[-1], [1, 0, 0]) < 1e-12

    def test_opposite_binormals_contribute_zero(self, zigzag):
        fr = discrete_frenet(zigzag)
        assert np.dot(fr.binormals[0], fr.binormals[1]) == pytest.approx(-1.0)
        assert np.abs(fr.torsion_angles).max() == 0.0


class TestBinormalIndicatrix:
    def test_staircase_parameterization(self, staircase):
        b = binormal_indicatrix(staircase)
        assert b.total_length == pytest.approx(PI / 2, abs=1e-15)
        assert np.allclose(b.eval(0.0), [0, 0, 1])
        assert proj_distance(b.eval(PI / 2), [1, 0, 0]) < 1e-12
        # midpoint from the slerp oracle
        mid = slerp(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 0.5)
        assert proj_distance(b.eval(PI / 4), mid) < 1e-12

    def test_planar_raises(self, zigzag):
        with pytest.raises(ZeroTorsion):
            binormal_indicatrix(zigzag)

    def test_two_segments_raise_zero_torsion(self):
        # one binormal and no torsion angle: TAT = 0, as for planar input
        P = sanitize(Polygonal3(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0]])))
        assert P.frenet.tat == 0.0
        with pytest.raises(ZeroTorsion):
            polar_curve(P)
        with pytest.raises(ZeroTorsion):
            binormal_indicatrix(P)


class TestMeasures:
    def test_staircase(self, staircase):
        m = polygonal_measures(staircase)
        assert m.atom_vertices.size == 2
        assert m.atom_angles == pytest.approx([PI / 2, PI / 2])
        assert m.density_segments.size == 1
        assert (m.density_segments[0], m.density_lengths[0]) == (1, pytest.approx(1.0))
        assert m.densities[0] == pytest.approx(PI / 2)

    def test_planar_torsion_empty(self, zigzag):
        m = polygonal_measures(zigzag)
        assert m.density_segments.size == m.densities.size == m.density_lengths.size == 0

    def test_scaling(self, staircase):
        m1 = polygonal_measures(staircase)
        scaled = sanitize(Polygonal3(staircase.vertices * 2.0))
        m2 = polygonal_measures(scaled)
        assert np.array_equal(m2.atom_vertices, m1.atom_vertices)
        assert np.array_equal(m2.atom_angles, m1.atom_angles)
        assert m2.torsion_mass == pytest.approx(m1.torsion_mass, abs=1e-12)
        d1 = m1.densities[0]
        d2 = m2.densities[0]
        assert d2 == pytest.approx(d1 / 2.0, abs=1e-12)

    def test_masses_and_disjoint_supports(self, rng):
        for _ in range(30):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            m = polygonal_measures(P)
            assert m.curvature_mass == pytest.approx(fr.tc, abs=1e-9)
            assert m.torsion_mass == pytest.approx(fr.tat, abs=1e-9)
            # atoms sit at vertices, densities on open segments
            assert m.atom_vertices.dtype.kind == "i"
            assert m.density_segments.dtype.kind == "i"


class TestSchedule:
    def test_staircase(self, staircase):
        fr = staircase.frenet
        assert np.allclose(fr.cum_turning, [0, PI / 2, PI])
        assert np.allclose(fr.cum_torsion, [0, 0, PI / 2])
        assert fr.cum_turning[-1] + fr.cum_torsion[-1] == pytest.approx(3 * PI / 2)

    def test_planar_zigzag(self, zigzag):
        assert np.all(zigzag.frenet.cum_torsion == 0.0)

    def test_closed_square(self, square):
        fr = square.frenet
        assert np.allclose(fr.cum_turning, [0, PI / 2, PI, 3 * PI / 2, 2 * PI])
        assert np.all(fr.cum_torsion == 0.0)

    def test_monotone_with_stalls(self, rng):
        for _ in range(20):
            P = random_polygonal(rng)
            fr = P.frenet
            assert np.all(np.diff(fr.cum_turning) >= 0)
            assert np.all(np.diff(fr.cum_torsion) >= 0)
            ref = discrete_frenet(P)
            assert fr.cum_turning[-1] == pytest.approx(ref.tc, abs=1e-12)
            assert fr.cum_torsion[-1] == pytest.approx(ref.tat, abs=1e-12)


class TestInterleavedPair:
    def test_staircase_schedule(self, staircase):
        t_path, b_path = interleaved_pair(staircase)
        total = 3 * PI / 2
        assert (t_path.cum_length[0], t_path.total_length) == (0.0, pytest.approx(total))
        # [0, pi/2]: tangent moves along gamma_1, binormal constant (0,0,1)
        s = np.linspace(0.01, PI / 2 - 0.01, 9)
        assert np.all(proj_distance(b_path.eval(s), [0, 0, 1]) < 1e-12)
        assert np.allclose(t_path.eval(0.0), [1, 0, 0])
        assert proj_distance(t_path.eval(PI / 2), [0, 1, 0]) < 1e-12
        # [pi/2, pi]: binormal moves along Gamma_2, tangent constant t_2
        s = np.linspace(PI / 2 + 0.01, PI - 0.01, 9)
        assert np.all(proj_distance(t_path.eval(s), [0, 1, 0]) < 1e-12)
        # [pi, 3pi/2]: tangent moves along gamma_2, binormal constant (1,0,0)
        s = np.linspace(PI + 0.01, total - 0.01, 9)
        assert np.all(proj_distance(b_path.eval(s), [1, 0, 0]) < 1e-12)

    def test_planar_binormal_constant(self, zigzag):
        t_path, b_path = interleaved_pair(zigzag)
        s = np.linspace(0, t_path.total_length, 50)
        assert np.all(proj_distance(b_path.eval(s), b_path.eval(0.0)) < 1e-12)

    def test_orthogonality_and_domain(self, rng):
        for _ in range(25):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            t_path, b_path = interleaved_pair(P)
            assert t_path.total_length == pytest.approx(fr.tc + fr.tat, abs=1e-9)
            s = np.linspace(0, t_path.total_length, 101)
            dots = np.sum(t_path.eval(s) * b_path.eval(s), axis=1)
            assert np.max(np.abs(dots)) < 1e-9

    def test_one_moves_at_unit_speed(self, staircase):
        t_path, b_path = interleaved_pair(staircase)
        h = 1e-6
        for s0 in (0.3, 1.0, 2.0, 4.0):
            vt = np.linalg.norm(t_path.eval(s0 + h) - t_path.eval(s0)) / h
            vb = np.linalg.norm(b_path.eval(s0 + h) - b_path.eval(s0)) / h
            speeds = sorted([vt, vb])
            assert speeds[0] == pytest.approx(0.0, abs=1e-6)
            assert speeds[1] == pytest.approx(1.0, abs=1e-5)


class TestNormalIndicatrix:
    def test_staircase(self, staircase):
        n = normal_indicatrix(staircase)
        assert proj_distance(n.eval(0.0), [0, 1, 0]) < 1e-12
        assert n.total_length == pytest.approx(3 * PI / 2, abs=1e-12)
        assert turning_angle_at(n, PI / 2) == pytest.approx(PI / 2, abs=1e-9)
        assert turning_angle_at(n, PI) == pytest.approx(PI / 2, abs=1e-9)

    def test_planar_is_rotated_tantrix(self, zigzag):
        n = normal_indicatrix(zigzag)
        fr = discrete_frenet(zigzag)
        assert n.total_length == pytest.approx(fr.tc, abs=1e-12)
        # in-plane normal rotation: n = b x t with b = +-e3 constant
        t = tantrix(zigzag)
        s = np.linspace(0, fr.tc, 64)
        expected = np.cross([0, 0, 1], t.eval(s))
        assert np.max(proj_distance(n.eval(s), expected)) < 1e-9

    def test_length_and_right_angles_random(self, rng):
        for _ in range(40):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            n = normal_indicatrix(P)
            assert n.total_length == pytest.approx(fr.tc + fr.tat, abs=1e-9)
            # numerical recheck via cum_length increments
            d = sphere_distance(n.points[:-1], n.points[1:])
            assert np.allclose(np.diff(n.cum_length), d, atol=1e-10)
            for param, (d_in, d_out) in zip(
                n.schedule_junctions, n.schedule_junction_durations
            ):
                if min(d_in, d_out) > 1e-7:
                    turn = turning_angle_at(n, float(param))
                    assert turn == pytest.approx(PI / 2, abs=1e-6)


def per_builder_tables(P):
    """The builders' arrays by the formulas each builder used when it
    derived its own tables: segments and tangents from the vertex ring,
    every cumulative sum and binormal lift redone per builder."""
    fr = P.frenet
    alpha, theta, S = fr.turning_angles, fr.torsion_angles, fr.torsion_segments
    verts = np.vstack([P.vertices, P.vertices[:1]]) if P.closed else P.vertices
    segs = np.diff(verts, axis=0)
    lens = np.linalg.norm(segs, axis=1)
    t = segs / lens[:, None]
    j, nxt = P.junctions()
    C = np.concatenate([[0.0], np.cumsum(alpha)])
    out = {"tangents": [t], "lengths": [lens], "tantrix": [t[np.r_[0, nxt]], C]}
    if P.n_segments >= 3:
        reps = fr.binormals[np.r_[S[0] - 1, S]]
        out["polar"] = [lift_signs(reps, on_ambiguous="keep"),
                        np.concatenate([[0.0], np.cumsum(np.abs(theta))])]
    stalls = np.zeros(t.shape[0] - alpha.size + 1)
    out["schedule"] = [C, np.concatenate([stalls, np.cumsum(np.abs(theta))])]
    twisted = theta != 0.0
    out["measures"] = [nxt, alpha, S[twisted], theta[twisted] / lens[S[twisted]],
                       lens[S[twisted]]]
    skip = t.shape[0] - j.size
    tor = np.zeros(t.shape[0])
    tor[S] = np.abs(theta)
    dur = np.column_stack([tor[j], alpha]).ravel()[skip:]
    if float(np.sum(dur)) > 0:
        t_pts = np.repeat(t[np.r_[0, nxt]], 2, axis=0)[:-1][skip:]
        B = lift_signs(fr.binormals[np.r_[skip - 1, j]], on_ambiguous="keep")
        b_pts = np.repeat(B, 2, axis=0)[1:][skip:]
        params = np.concatenate([[0.0], np.cumsum(dur)])
        out["pair"] = [t_pts, params, b_pts, params]
        pts, cum = split_arcs(unit(np.cross(b_pts, t_pts)), 1.5, dur, params)
        inner = (dur[:-1] > 0.0) & (dur[1:] > 0.0)
        out["normal"] = [pts, cum, np.cumsum(dur)[:-1][inner],
                         np.column_stack([dur[:-1][inner], dur[1:][inner]])]
    return out


def builder_tables(P):
    """The same arrays from the builders."""
    out = {"tangents": [P.tangents], "lengths": [P.segment_lengths]}
    tx = tantrix(P)
    out["tantrix"] = [tx.points, tx.cum_length]
    if P.n_segments >= 3:
        polar = polar_curve(P)
        out["polar"] = [polar.points, polar.cum_length]
    out["schedule"] = [P.frenet.cum_turning, P.frenet.cum_torsion]
    m = polygonal_measures(P)
    out["measures"] = [m.atom_vertices, m.atom_angles, m.density_segments, m.densities,
                       m.density_lengths]
    if P.frenet.tc + P.frenet.tat > 0:
        tp, bp = interleaved_pair(P)
        out["pair"] = [tp.points, tp.cum_length, bp.points, bp.cum_length]
        n = normal_indicatrix(P)
        out["normal"] = [n.points, n.cum_length, n.schedule_junctions,
                         n.schedule_junction_durations]
    else:
        with pytest.raises(DegeneratePolygonal, match="TC \\+ TAT vanishes"):
            normal_indicatrix(P)
    return out


class TestTablesBitIdentical:
    """The shared tables give every builder array bit for bit as the
    per-builder formulas did."""

    EDGES = [
        ([[0, 0, 0], [1, 0, 0]], False),  # 1 segment: TC + TAT = 0
        ([[0, 0, 0], [1, 0, 0], [1, 1, 0]], False),  # 2 segments, no torsion
        ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]], False),  # 3 segments
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], True),  # closed, 3 segments
        ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]], True),
        ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1, 1]], False),
    ]

    @staticmethod
    def assert_same_bits(P):
        ref, got = per_builder_tables(P), builder_tables(P)
        assert ref.keys() == got.keys()
        for key in ref:
            for a, b in zip(ref[key], got[key], strict=True):
                a, b = np.asarray(a), np.asarray(b)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), key
                assert a.tobytes() == b.tobytes(), key

    @pytest.mark.parametrize("verts, closed", EDGES)
    def test_edges(self, verts, closed):
        self.assert_same_bits(sanitize(Polygonal3(verts, closed=closed)))

    @pytest.mark.parametrize("closed", [False, True])
    def test_random(self, rng, closed):
        checked = 0
        for _ in range(300):
            m = int(rng.integers(2, 10))
            verts = rng.uniform(-1.0, 1.0, (m, 3))
            if rng.random() < 0.3:
                verts = np.round(verts)  # coplanar runs, aligned and straight junctions
            try:
                P = sanitize(Polygonal3(verts, closed=closed))
            except DegeneratePolygonal:
                continue
            if not P.return_points:
                self.assert_same_bits(P)
                checked += 1
        assert checked > 150


class TestWholeFamilyInvariants:
    def test_tat_equals_folded_tantrix_junction_angles(self, rng):
        for _ in range(40):
            P = random_polygonal(rng, closed=False)
            fr = discrete_frenet(P)
            t = tantrix(P)
            c = t.corners()
            folded = fold_angle(c.turn[c.arc_out == c.arc_in + 1])
            assert np.sum(folded) == pytest.approx(fr.tat, abs=1e-9)

    def test_rigid_motion_invariance(self, rng):
        from scipy.spatial.transform import Rotation

        for _ in range(20):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            rot = Rotation.random(random_state=int(rng.integers(1 << 31))).as_matrix()
            shift = rng.normal(size=3)
            Q = sanitize(Polygonal3(P.vertices @ rot.T + shift, closed=P.closed))
            fq = discrete_frenet(Q)
            assert fq.tc == pytest.approx(fr.tc, abs=1e-9)
            assert fq.tat == pytest.approx(fr.tat, abs=1e-9)
            assert fq.ct == pytest.approx(fr.ct, abs=1e-9)

    def test_reflection_flips_each_torsion_sign(self, rng):
        for _ in range(20):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            Q = sanitize(Polygonal3(P.vertices * np.array([1, 1, -1]), closed=P.closed))
            fq = discrete_frenet(Q)
            assert fq.tc == pytest.approx(fr.tc, abs=1e-9)
            assert fq.tat == pytest.approx(fr.tat, abs=1e-9)
            assert fq.ct == pytest.approx(fr.ct, abs=1e-9)
            assert np.allclose(fq.torsion_angles, -fr.torsion_angles, atol=1e-9)

    @pytest.mark.parametrize("closed", [False, True])
    def test_reversal_invariance(self, rng, closed):
        for _ in range(20):
            P = random_polygonal(rng, closed=closed)
            fr = discrete_frenet(P)
            fq = discrete_frenet(sanitize(Polygonal3(P.vertices[::-1], closed=closed)))
            assert fq.tc == pytest.approx(fr.tc, abs=1e-9)
            assert fq.tat == pytest.approx(fr.tat, abs=1e-9)
            assert fq.ct == pytest.approx(fr.ct, abs=1e-9)

    def test_closed_equals_open_unrolling(self, rng):
        # the unrolling v_0..v_{n-1}, v_0, v_1 has the closed junctions in
        # the same order; its torsion misses the wrap segment 0
        for _ in range(40):
            P = random_polygonal(rng, closed=True)
            v = P.vertices
            fr = P.frenet
            fq = Polygonal3(np.vstack([v, v[:2]])).frenet
            assert np.array_equal(fq.turning_angles, fr.turning_angles)
            assert np.array_equal(fq.binormals, fr.binormals)
            assert np.array_equal(fq.torsion_angles, fr.torsion_angles[1:])

    def test_cyclic_relabelling_rolls_closed_data(self, rng):
        for _ in range(40):
            P = random_polygonal(rng, closed=True)
            k = int(rng.integers(1, P.n_vertices))
            fr = P.frenet
            fq = Polygonal3(np.roll(P.vertices, -k, axis=0), closed=True).frenet
            assert np.array_equal(fq.turning_angles, np.roll(fr.turning_angles, -k))
            assert np.array_equal(fq.torsion_angles, np.roll(fr.torsion_angles, -k))
            assert np.array_equal(fq.binormals, np.roll(fr.binormals, -k, axis=0))
            assert fq.tc == pytest.approx(fr.tc, abs=1e-12)
            assert fq.tat == pytest.approx(fr.tat, abs=1e-12)
            assert fq.ct == pytest.approx(fr.ct, abs=1e-12)

    def test_fenchel_closed(self, rng):
        for _ in range(40):
            P = random_polygonal(rng, closed=True)
            assert discrete_frenet(P).tc >= 2 * PI - 1e-12

    @pytest.mark.parametrize("closed", [False, True])
    def test_milnor_inscribed_subset(self, rng, closed):
        # Milnor (1950): an inscribed polygonal turns no more than P
        for _ in range(100):
            P = random_polygonal(rng, closed=closed)
            keep = rng.random(P.n_vertices) < 0.6
            if not closed:
                keep[[0, -1]] = True  # an open inscription keeps both endpoints
            try:
                Q = sanitize(Polygonal3(P.vertices[keep], closed=closed))
            except DegeneratePolygonal:
                continue
            if Q.return_points:
                continue
            assert discrete_frenet(Q).tc <= discrete_frenet(P).tc + 1e-12

    @pytest.mark.parametrize("model", ["helix", "inflection", "blowup"])
    def test_milnor_nested_refinement(self, model):
        # uniform levels of refine are nested, so TC never decreases
        seq = refine(make_curve(model), levels=7, base_n=64)
        tc = np.array([lv.tc for lv in seq.levels])
        assert np.all(np.diff(tc) >= -1e-12), np.diff(tc)

    def test_scale_invariance(self, rng):
        for _ in range(20):
            P = random_polygonal(rng)
            lam = float(rng.uniform(0.2, 5.0))
            fr = discrete_frenet(P)
            fq = discrete_frenet(sanitize(Polygonal3(P.vertices * lam, closed=P.closed)))
            assert fq.tc == pytest.approx(fr.tc, abs=1e-9)
            assert fq.tat == pytest.approx(fr.tat, abs=1e-9)
            assert fq.ct == pytest.approx(fr.ct, abs=1e-9)

    def test_polarity_inequality(self, rng):
        for _ in range(60):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            polar = polar_curve(P)
            assert polar.turning_total() <= fr.tc + 1e-9

    def test_planarity_iff_zero_torsion(self, rng):
        # constructed planar inputs have TAT exactly 0
        for _ in range(10):
            m = int(rng.integers(5, 9))
            pts2d = rng.uniform(-1, 1, (m, 2))
            basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            verts = pts2d @ basis[:2] + rng.normal(size=3)
            try:
                P = sanitize(Polygonal3(verts))
            except DegeneratePolygonal:
                continue
            if P.return_points or P.n_segments < 3:
                continue
            assert discrete_frenet(P).tat == pytest.approx(0.0, abs=1e-9)
        # perturbing a planar polygonal out of plane makes TAT > 0
        base = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 2, 0]], float)
        for _ in range(10):
            bump = base.copy()
            bump[2, 2] += float(rng.uniform(0.05, 0.5))
            fr = discrete_frenet(sanitize(Polygonal3(bump)))
            assert fr.tat > 1e-6

    def test_ct_dominates_tat(self, rng):
        for _ in range(40):
            P = random_polygonal(rng)
            fr = discrete_frenet(P)
            assert fr.ct >= fr.tat - 1e-12
            prev = fr.binormals[:-1] if not P.closed else np.roll(fr.binormals, 1, axis=0)
            cur = fr.binormals[1:] if not P.closed else fr.binormals
            has_reversal = bool(np.any(np.sum(prev * cur, axis=1) < 0))
            assert (fr.ct > fr.tat + 1e-9) == has_reversal


class TestWitness:
    def test_witness_contract(self):
        w = nonmonotonicity_witness(seed=0, budget=800)
        assert w.gap > 1e-3
        assert w.tat_inscribed == pytest.approx(w.tat + w.gap)
        frP = discrete_frenet(w.polygonal)
        frQ = discrete_frenet(w.inscribed)
        assert frQ.tat > frP.tat
        assert frQ.tc <= frP.tc + 1e-9
        assert w.inscribed.length <= w.polygonal.length + 1e-9
        # inscribed vertices are a subset of the parent's
        for v in w.inscribed.vertices:
            assert any(np.allclose(v, u, atol=1e-12) for u in w.polygonal.vertices)

    def test_deterministic_given_seed(self):
        w1 = nonmonotonicity_witness(seed=7, budget=400)
        w2 = nonmonotonicity_witness(seed=7, budget=400)
        assert np.array_equal(w1.polygonal.vertices, w2.polygonal.vertices)
        assert w1.tat == w2.tat

    def test_search_failure(self):
        with pytest.raises(SearchFailed):
            nonmonotonicity_witness(seed=0, budget=4, min_gap=100.0)
        with pytest.raises(SearchFailed):
            nonmonotonicity_witness(seed=0, budget=4, min_gap=np.inf)

    @pytest.mark.parametrize("kwargs", [
        {"budget": 0}, {"budget": -3}, {"min_gap": np.nan}, {"min_gap": -1e-3},
    ])
    def test_meaningless_input_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            nonmonotonicity_witness(seed=0, **kwargs)
