import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfrenet.errors import AmbiguousLift, AntipodalPair, DegenerateArc
from weakfrenet.sphere import (
    GeodesicPolyline,
    arc_tangent,
    canon_rep,
    fold_angle,
    lift_projective_polyline,
    lift_signs,
    proj_distance,
    slerp,
    sphere_distance,
    split_arcs,
    sup_distance,
    unit,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def unit_vectors(draw_scale=1.0):
    comp = st.floats(-draw_scale, draw_scale, allow_nan=False, allow_infinity=False)
    return (
        st.tuples(comp, comp, comp)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(unit)
    )


class TestDistances:
    def test_sphere_distance_examples(self):
        assert sphere_distance(E1, E1) == 0.0
        assert sphere_distance(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)
        assert sphere_distance(E1, -E1) == pytest.approx(np.pi, abs=1e-15)

    def test_proj_distance_examples(self):
        assert proj_distance(E1, E1) == 0.0
        assert proj_distance(E1, -E1) == 0.0
        assert proj_distance(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)

    @given(unit_vectors(), unit_vectors())
    def test_proj_distance_is_folded_sphere_distance(self, a, b):
        d = float(sphere_distance(a, b))
        assert float(proj_distance(a, b)) == pytest.approx(
            min(d, np.pi - d), abs=1e-12
        )


class TestCanonicalization:
    @given(unit_vectors())
    def test_idempotent_and_sign_blind(self, v):
        c = canon_rep(v)
        assert np.array_equal(canon_rep(c), c)
        assert np.array_equal(canon_rep(-v), canon_rep(v))

    def test_antipodal_poles_share_rep(self):
        # first two components zero: the sign comes from the third
        assert np.array_equal(canon_rep(-E3), E3)
        assert canon_rep(-E3).tobytes() == canon_rep(E3).tobytes()

    def test_fallback_component(self):
        # first component below threshold: sign taken from the second
        v = unit([1e-12, -0.6, 0.8])
        c = canon_rep(v)
        assert c[1] > 0


class TestSlerp:
    def test_endpoint_and_identity(self):
        a = unit([0.3, -0.5, 0.8])
        assert np.allclose(slerp(a, a, 0.7), a)
        b = unit([0.1, 0.9, 0.2])
        assert np.allclose(slerp(a, b, 0.0), a)
        assert np.allclose(slerp(a, b, 1.0), b, atol=1e-15)

    def test_quarter_arc_midpoint(self):
        assert np.allclose(slerp(E1, E2, 0.5), unit([1, 1, 0]))

    def test_third_of_quarter_arc_matches_rotation(self):
        # oracle: rotate e1 by lambda * pi/2 in the xy-plane
        lam = 1.0 / 3.0
        ang = lam * np.pi / 2
        rot = np.array([np.cos(ang), np.sin(ang), 0.0])
        assert np.allclose(slerp(E1, E2, lam), rot, atol=1e-15)

    def test_antipodal_raises(self):
        with pytest.raises(AntipodalPair):
            slerp(E1, -E1, 0.5)

    @given(unit_vectors(), unit_vectors())
    @settings(max_examples=60)
    def test_constant_speed(self, a, b):
        d = float(sphere_distance(a, b))
        if d > np.pi - 1e-3 or d < 1e-6:
            return
        h = 1e-5
        lam = np.array([0.2, 0.5, 0.8])
        p0 = slerp(a, b, lam)
        p1 = slerp(a, b, lam + h)
        speed = np.linalg.norm(p1 - p0, axis=1) / h
        assert np.all(np.abs(speed - d) < 1e-6 * max(d, 1.0) + 1e-6)


class TestJunctionAngles:
    @staticmethod
    def turn(prev_start, mid, next_end):
        """Turn at mid between the sphere arcs prev_start -> mid -> next_end,
        read off the corner table with every arc live (a zero-length arc
        raises DegenerateArc)."""
        path = GeodesicPolyline([prev_start, mid, next_end], "sphere")
        return float(path.corners(min_arc=-np.inf).turn[0])

    def test_same_great_circle(self):
        mid = unit([1, 1, 0])
        assert self.turn(E1, mid, E2) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_axes(self):
        # oracle: explicit tangents of the two quarter arcs at e2
        t_in = (np.cos(np.pi / 2) * E2 - E1) / np.sin(np.pi / 2)
        t_out = (E3 - np.cos(np.pi / 2) * E2) / np.sin(np.pi / 2)
        expected = float(np.arccos(np.clip(np.dot(t_in, t_out), -1, 1)))
        assert expected == pytest.approx(np.pi / 2, abs=1e-12)
        assert self.turn(E1, E2, E3) == pytest.approx(expected, abs=1e-12)

    def test_backtracking(self):
        mid = unit([1, 1, 0])
        assert self.turn(E1, mid, E1) == pytest.approx(np.pi, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateArc):
            self.turn(E1, E1, E2)


class TestLifts:
    def test_single_point(self):
        v = unit([0.2, -0.9, 0.4])
        out = lift_signs(np.array([canon_rep(v)]), seed=v)
        assert np.allclose(out[0], v)

    def test_nearest_choice_forced(self):
        p = canon_rep(unit([1, 1, 0]))
        out = lift_signs(np.array([E1, -p]), seed=E1)
        assert np.allclose(out[1], p)

    def test_ambiguous_raises(self):
        with pytest.raises(AmbiguousLift):
            lift_signs(np.array([E1, E2]))

    def test_keep_mode_continues(self):
        out = lift_signs(np.array([E1, E2]), on_ambiguous="keep")
        assert np.allclose(out[1], E2)

    def test_square_polar_lift_constant(self):
        # the polar of a planar square's tantrix is a single projective
        # point; its lift is constant and closes on the + sheet
        from weakfrenet.polygonal import Polygonal3, polar_curve, sanitize

        sq = sanitize(
            Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], closed=True)
        )
        polar = polar_curve(sq)
        assert polar.total_length == pytest.approx(0.0, abs=1e-12)
        lifted, closure = lift_projective_polyline(polar, seed=polar.points[0])
        assert closure == 1
        assert np.allclose(lifted.points, lifted.points[0])

    def test_bad_seed_rejected(self):
        curve = GeodesicPolyline.from_projective_points(np.array([E1, unit([1, 1, 0])]))
        with pytest.raises(ValueError):
            lift_projective_polyline(curve, seed=E2)


class TestPolyline:
    def test_cum_length_matches_distances(self):
        pts = np.array([E1, unit([1, 1, 0]), E2, unit([0, 1, 1])])
        c = GeodesicPolyline(pts, "sphere")
        d = sphere_distance(pts[:-1], pts[1:])
        assert np.allclose(np.diff(c.cum_length), d, atol=1e-10)

    def test_eval_endpoints_and_interior(self):
        pts = np.array([E1, E2])
        c = GeodesicPolyline(pts, "sphere")
        assert np.allclose(c.eval(0.0), E1)
        assert np.allclose(c.eval(c.total_length), E2, atol=1e-15)
        assert np.allclose(c.eval(c.total_length / 2), unit([1, 1, 0]))

    def test_eval_vectorized_matches_scalar(self):
        rngl = np.random.default_rng(3)
        pts = unit(rngl.normal(size=(6, 3)))
        c = GeodesicPolyline(pts, "sphere")
        s = np.linspace(0, c.total_length, 17)
        batch = c.eval(s)
        single = np.array([c.eval(float(x)) for x in s])
        assert np.allclose(batch, single)

    def test_split_long_arcs(self):
        pts = np.array([E1, -unit([1, 0.05, 0.0])])
        lengths = sphere_distance(pts[:-1], pts[1:])
        out, _ = split_arcs(pts, np.pi / 2, lengths, np.concatenate([[0.0], np.cumsum(lengths)]))
        d = sphere_distance(out[:-1], out[1:])
        assert np.all(d <= np.pi / 2 + 1e-12)
        assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])

    def test_projective_invariant_after_lift(self):
        rngl = np.random.default_rng(5)
        reps = canon_rep(unit(rngl.normal(size=(8, 3))))
        c = GeodesicPolyline.from_projective_points(reps)
        d = proj_distance(c.points[:-1], c.points[1:])
        assert np.allclose(np.diff(c.cum_length), d, atol=1e-10)

    def test_sup_distance_zero_for_same_curve(self):
        pts = np.array([E1, unit([1, 1, 0]), E2])
        c = GeodesicPolyline(pts, "sphere")
        assert sup_distance(c, c) == 0.0

    def test_fold_angle(self):
        assert fold_angle(0.3) == pytest.approx(0.3)
        assert fold_angle(np.pi - 0.3) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# corner table and arc splitter against per-junction / per-arc references
# ---------------------------------------------------------------------------


def corner_reference(poly, min_arc):
    """Per-junction scalar loop over consecutive live arcs:
    rows (arc_in, arc_out, param, t_in, t_out, turn)."""
    seg = np.diff(poly.cum_length)
    live = [i for i in range(len(seg)) if seg[i] > min_arc]
    rows = []
    for prev, cur in zip(live[:-1], live[1:]):
        t_in = arc_tangent(poly.points[prev], poly.points[prev + 1], at_end=True)
        t_out = arc_tangent(poly.points[cur], poly.points[cur + 1])
        turn = float(sphere_distance(t_in, t_out))
        if poly.space == "projective":
            turn = min(turn, np.pi - turn)
        rows.append((prev, cur, float(poly.cum_length[cur]), t_in, t_out, turn))
    return rows


def split_reference(points, max_len, lengths):
    """Per-arc slerp loop: (points, cum_length) with long arcs cut into
    ceil(length / max_len) equal pieces."""
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    out, out_cum = [points[0]], [cum[0]]
    for i, length in enumerate(lengths):
        if length > max_len:
            pieces = int(np.ceil(length / max_len))
            lam = np.arange(1, pieces) / pieces
            out.extend(slerp(points[i], points[i + 1], lam))
            out_cum.extend(cum[i] + lam * length)
        out.append(points[i + 1])
        out_cum.append(cum[i + 1])
    return np.array(out), np.array(out_cum)


@st.composite
def polylines(draw):
    """Sphere or projective polylines; some breakpoints are repeated, which
    makes zero-length (stall) arcs."""
    pts = draw(st.lists(unit_vectors(), min_size=1, max_size=10))
    stalls = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    rows = [p for p, stall in zip(pts, stalls) for p in ([p, p] if stall else [p])]
    space = draw(st.sampled_from(["sphere", "projective"]))
    if space == "projective":
        rows = lift_signs(rows, on_ambiguous="keep")
    return GeodesicPolyline(np.array(rows), space)


class TestCornerTable:
    @given(polylines(), st.sampled_from([1e-12, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_junction_reference(self, poly, min_arc):
        try:
            ref = corner_reference(poly, min_arc)
        except DegenerateArc:
            with pytest.raises(DegenerateArc):
                poly.corners(min_arc)
            return
        c = poly.corners(min_arc)
        assert c.arc_in.tolist() == [r[0] for r in ref]
        assert c.arc_out.tolist() == [r[1] for r in ref]
        assert c.params.tolist() == [r[2] for r in ref]
        assert np.array_equal(c.t_in, np.reshape([r[3] for r in ref], (-1, 3)))
        assert np.array_equal(c.t_out, np.reshape([r[4] for r in ref], (-1, 3)))
        assert c.turn.tolist() == [r[5] for r in ref]
        total = sum(r[5] for r in ref)
        assert poly.turning_total(min_arc) == pytest.approx(total, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize(
        "points, cum",
        [
            ([E1, -E1, E2], None),  # live antipodal arc
            ([E1, E1, E2], [0.0, 1.0, 2.0]),  # live by length, coincident points
        ],
    )
    def test_degenerate_live_arc_raises(self, points, cum):
        with pytest.raises(DegenerateArc):
            GeodesicPolyline(points, "sphere", cum).corners()

    def test_projective_turn_is_folded(self):
        mid = unit([1, 1, 0])
        sphere = GeodesicPolyline([E1, mid, E1], "sphere")
        proj = GeodesicPolyline([E1, mid, E1], "projective")
        assert sphere.corners().turn[0] == pytest.approx(np.pi, abs=1e-12)
        assert proj.corners().turn[0] == pytest.approx(0.0, abs=1e-12)


class TestSplitLongArcs:
    @given(
        st.lists(unit_vectors(), min_size=1, max_size=8),
        st.sampled_from([0.3, 1.5, np.pi / 2]),
        st.one_of(st.none(), st.floats(0.5, 3.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_arc_slerp(self, pts, max_len, stretch):
        points = np.array(pts)
        lengths = sphere_distance(points[:-1], points[1:])
        if stretch is not None:  # lengths other than sphere distances
            lengths = lengths * stretch
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        try:
            ref_pts, ref_cum = split_reference(points, max_len, lengths)
        except AntipodalPair:
            with pytest.raises(AntipodalPair):
                split_arcs(points, max_len, lengths, cum)
            return
        out, out_cum = split_arcs(points, max_len, lengths, cum)
        assert np.array_equal(out, ref_pts)
        assert np.array_equal(out_cum, ref_cum)

    def test_antipodal_long_arc_raises(self):
        with pytest.raises(AntipodalPair):
            split_arcs(np.array([E1, -E1]), np.pi / 2, np.array([np.pi]), np.array([0.0, np.pi]))
