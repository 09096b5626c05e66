"""Discrete Frenet data of polygonal space curves.

Implements the discrete binormal construction, signed torsion angles, total
curvature / total absolute torsion / complete torsion, the polar curve and
binormal indicatrix in the projective plane, curvature and torsion measures,
the interleaved tangent/binormal schedule, and the normal indicatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePolygonal, SearchFailed, ZeroTorsion
from .sphere import (
    GeodesicPolyline,
    fold_angle,
    lift_signs,
    split_arcs,
    unit,
)

EPS_ALIGN = 1e-12
BREAKPOINT_ATOL = 1e-9  # parameter match, and shortest live arc, of turning_angle_at


def _junctions(n_rows, closed):
    """The junction rule of a polygonal's rows (its vertices or its segments):
    junction j joins row j to row nxt[j] = (j + 1) % n_rows.  A closed
    polygonal has n_rows junctions, an open one n_rows - 1.  For segment
    rows nxt[j] is also the vertex where junction j sits.  Returns (j, nxt),
    two windows on one ring 0, 1, ..., n_rows - 1, 0."""
    ring = np.arange(n_rows + 1)
    ring[-1] = 0
    n_junc = n_rows if closed else n_rows - 1
    return ring[:n_junc], ring[1 : n_junc + 1]


@dataclass(frozen=True)
class Polygonal3:
    """Ordered vertex list in 3-space.

    Closed polygonals store each vertex once (no repeated first vertex);
    segment i is vertex junction i, from vertex i to vertex nxt[i].
    return_points lists vertex indices where the direction reverses exactly;
    sanitize() fills it in.  Vertices are never written in place, so the
    segment table (segment_vectors, segment_lengths, tangents) and the
    discrete Frenet data are each computed once, on first access.
    """

    vertices: np.ndarray
    closed: bool = False
    return_points: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", np.atleast_2d(np.asarray(self.vertices, dtype=float))
        )

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_segments(self):
        return _junctions(self.n_vertices, self.closed)[0].size

    def junctions(self):
        """(j, nxt) of the segments: junction j joins segment j to segment
        nxt[j], at vertex nxt[j]."""
        return _junctions(self.n_segments, self.closed)

    def vertex_ring(self):
        """The vertices in order along P, the first one again at the end
        when P is closed: segment i runs from row i to row i + 1."""
        return self.vertices[np.r_[0, _junctions(self.n_vertices, self.closed)[1]]]

    @cached_property
    def segment_vectors(self):
        return np.diff(self.vertex_ring(), axis=0)

    @cached_property
    def segment_lengths(self):
        return np.linalg.norm(self.segment_vectors, axis=1)

    @cached_property
    def tangents(self):
        """Unit segment directions, points of return included."""
        lens = self.segment_lengths
        if np.any(lens <= 0):
            raise DegeneratePolygonal("zero-length segment; sanitize first")
        return self.segment_vectors / lens[:, None]

    @property
    def length(self):
        return float(np.sum(self.segment_lengths))

    @property
    def mesh(self):
        return float(np.max(self.segment_lengths))

    def arclength_of_vertices(self):
        """Arc length along P at each row of vertex_ring()."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    @cached_property
    def frenet(self):
        """discrete_frenet of this polygonal.  An exception is not cached,
        so a polygonal with return points raises DegeneratePolygonal on
        every access."""
        return discrete_frenet(self)


def _row_products(rows, a, b):
    """Cross products, their norms and dot products of rows[a], rows[b]."""
    u, w = rows[a], rows[b]
    cross = np.cross(u, w)
    return cross, np.linalg.norm(cross, axis=1), np.sum(u * w, axis=1)


def sanitize(P):
    """Drop zero-length segments, merge runs of aligned same-direction
    segments, and flag exact reversals as points of return.  The segment
    table of the last pass is the returned polygonal's own."""
    verts = P.vertices
    closed = P.closed
    scale = max(float(np.max(np.ptp(verts, axis=0), initial=0.0)), 1.0)
    eps_len = 1e-12 * scale

    for _ in range(verts.shape[0] + 1):
        # drop vertices that repeat their predecessor
        if verts.shape[0] >= 2:
            lens = np.linalg.norm(np.diff(verts, axis=0), axis=1)
            keep = np.concatenate([[True], lens > eps_len])
            verts = verts[keep]
        if closed and verts.shape[0] >= 2 and (
            np.linalg.norm(verts[0] - verts[-1]) <= eps_len
        ):
            verts = verts[:-1]
        min_verts = 3 if closed else 2
        if verts.shape[0] < min_verts:
            raise DegeneratePolygonal(
                "fewer than %d vertices survive sanitation" % min_verts
            )
        # segments aligned at junction j (vertex nxt[j]) merge when they
        # run the same way; otherwise nxt[j] is a point of return
        out = Polygonal3(verts, closed=closed)
        j, nxt = out.junctions()
        _, cr, dots = _row_products(out.segment_vectors, j, nxt)
        lens = out.segment_lengths
        aligned = cr <= EPS_ALIGN * (lens[j] * lens[nxt])
        merge = nxt[aligned & (dots > 0)]
        if not merge.size:
            break
        verts = np.delete(verts, merge, axis=0)
    else:
        raise DegeneratePolygonal("sanitation did not stabilize")

    returns = tuple(sorted(nxt[aligned & (dots <= 0)].tolist()))
    return Polygonal3(verts, closed=closed, return_points=returns) if returns else out


@dataclass(frozen=True)
class DiscreteFrenetData:
    """Binormals, turning and torsion angles and the three totals of a
    sanitized polygonal, and its cumulative tables, computed on first use.

    Index conventions (0-based; m segments, n_junc junctions, and
    (j, nxt) = P.junctions(), the segment junctions of _junctions):
      * binormals[j] and turning_angles[j] belong to junction j, which joins
        segments j and nxt[j] at vertex nxt[j];
      * torsion_angles[k] sits on segment S[k] of torsion_segments
        S = arange(skip, n_junc) (open: 1..m-2; closed: 0..m-1) and pairs
        binormals S[k] - 1 and S[k], the junctions at its two ends.
    """

    binormals: np.ndarray
    turning_angles: np.ndarray
    torsion_angles: np.ndarray
    torsion_segments: np.ndarray
    binormal_gaps: np.ndarray  # full sphere distance between paired binormals
    skip: int  # m - n_junc: 1 open (segment 0 has no binormal before it), 0 closed

    @property
    def tc(self):
        return float(np.sum(self.turning_angles))

    @property
    def tat(self):
        return float(np.sum(np.abs(self.torsion_angles)))

    @property
    def ct(self):
        return float(np.sum(self.binormal_gaps))

    @cached_property
    def cum_turning(self):
        """C: cumulative turning, the tantrix's cum_length; C[-1] = TC."""
        return np.concatenate([[0.0], np.cumsum(self.turning_angles)])

    @cached_property
    def cum_torsion(self):
        """T, indexed like C: cumulative unsigned torsion, at 0 until an open
        polygonal's first torsion angle; T[skip:] is the polar's cum_length."""
        tor = np.cumsum(np.abs(self.torsion_angles))
        return np.concatenate([np.zeros(self.skip + 1), tor])

    @cached_property
    def lifted_binormals(self):
        """The binormals S[0] - 1, S[0], ..., S[-1] that the torsion angles
        pair, lifted continuously to S^2: the polar's vertices."""
        rows = np.arange(self.skip - 1, self.binormals.shape[0])
        return lift_signs(self.binormals[rows], on_ambiguous="keep")


def discrete_frenet(P):
    """Discrete Frenet data of a sanitized polygonal with no return points."""
    if P.return_points:
        raise DegeneratePolygonal(
            "return points present; use the weak-limit geodesic-choice path"
        )
    t = P.tangents
    j, nxt = P.junctions()
    cross, cross_norm, dots = _row_products(t, j, nxt)
    alpha = np.arctan2(cross_norm, dots)

    binormals = np.zeros((j.size, 3))
    defined = cross_norm > EPS_ALIGN
    if np.any(~defined & (dots < 0)):
        raise DegeneratePolygonal("exact reversal junction; sanitize first")
    binormals[defined] = cross[defined] / cross_norm[defined, None]
    if not np.all(defined):
        binormals = _fill_undefined_binormals(binormals, defined)

    skip = t.shape[0] - j.size
    S = np.arange(skip, j.size)
    cb, cb_norm, d = _row_products(binormals, S - 1, S)
    full = np.arctan2(cb_norm, d)
    sign = np.sign(np.sum(cb * t[S], axis=1))
    theta = np.where(cb_norm > EPS_ALIGN, sign * fold_angle(full), 0.0)

    return DiscreteFrenetData(
        binormals=binormals,
        turning_angles=alpha,
        torsion_angles=theta,
        torsion_segments=S,
        binormal_gaps=full,
        skip=skip,
    )


def _fill_undefined_binormals(binormals, defined):
    """Coplanar-run fallback: an undefined binormal copies the last defined
    one before it; a leading run copies the first defined binormal."""
    idx = np.flatnonzero(defined)
    if idx.size == 0:
        raise DegeneratePolygonal("no junction defines a binormal")
    source = np.where(defined, np.arange(defined.size), idx[0])
    return binormals[np.maximum.accumulate(source)]


def tantrix(P):
    """Tangent indicatrix: spherical polyline through the segment directions.
    Its length is the total curvature of P."""
    cum = P.frenet.cum_turning
    return GeodesicPolyline(P.tangents[np.r_[0, P.junctions()[1]]], "sphere", cum)


def polar_curve(P):
    """Polar of the tangent indicatrix: the projective polyline through the
    consecutive binormal classes.  Its length is the total absolute torsion."""
    fr = P.frenet
    if P.n_segments < 3:
        # at most one binormal: no torsion angle, TAT = 0
        raise ZeroTorsion("fewer than 3 segments: the polar degenerates to a point")
    return GeodesicPolyline(fr.lifted_binormals, "projective", fr.cum_torsion[fr.skip:])


def binormal_indicatrix(P):
    """Arc-length parameterization of the polar; undefined for planar input."""
    curve = polar_curve(P)
    if curve.total_length < 1e-12:
        raise ZeroTorsion("planar polygonal: the polar degenerates to a point")
    return curve


@dataclass(frozen=True)
class PolygonalMeasures:
    """Atomic curvature measure and segment-density torsion measure of a
    polygonal; mutually singular by construction.

    Curvature atom j sits at vertex atom_vertices[j] with mass
    atom_angles[j]; torsion density j is densities[j] (signed torsion angle
    over segment length) on segment density_segments[j] of length
    density_lengths[j].  Segments without torsion carry no density.
    """

    atom_vertices: np.ndarray
    atom_angles: np.ndarray
    density_segments: np.ndarray
    densities: np.ndarray
    density_lengths: np.ndarray

    @property
    def curvature_mass(self):
        return float(sum(self.atom_angles.tolist()))

    @property
    def torsion_mass(self):
        return float(sum((np.abs(self.densities) * self.density_lengths).tolist()))


def polygonal_measures(P):
    fr = P.frenet
    twisted = fr.torsion_angles != 0.0
    segments = fr.torsion_segments[twisted]
    lengths = P.segment_lengths[segments]
    return PolygonalMeasures(
        atom_vertices=P.junctions()[1],
        atom_angles=fr.turning_angles,
        density_segments=segments,
        densities=fr.torsion_angles[twisted] / lengths,
        density_lengths=lengths,
    )


# arc pieces are kept clearly below pi/2 so projective invariants hold
_MAX_PIECE = 1.5


def _interleave_arrays(P):
    """(durations, params, t_pts, b_pts) of the interleaved schedule: the
    alternating event durations, the parameters [0, cumsum(durations)] of
    the event boundaries, and the orthogonal tangent/binormal values there,
    read from the tantrix's and the polar's vertices.  Junction j gives two
    events: Gamma_j on segment j (the binormal turns into b_j), then gamma_j
    at the junction (the tangent turns to t_nxt[j]).  An open polygonal's
    Gamma_0 has no binormal before it; it is empty and dropped.  Raises
    DegeneratePolygonal when TC + TAT vanishes."""
    fr = P.frenet
    if fr.tc + fr.tat <= 0:
        raise DegeneratePolygonal("TC + TAT vanishes")
    tor = np.concatenate([np.zeros(fr.skip), np.abs(fr.torsion_angles)])
    dur = np.column_stack([tor, fr.turning_angles]).ravel()[fr.skip:]
    # the tangent holds through each Gamma_j, the binormal through each gamma_j
    t_pts = np.repeat(tantrix(P).points, 2, axis=0)[:-1][fr.skip:]
    b_pts = np.repeat(fr.lifted_binormals, 2, axis=0)[1 - fr.skip:]
    return dur, np.concatenate([[0.0], np.cumsum(dur)]), t_pts, b_pts


def interleaved_pair(P):
    """The pair of projective paths on [0, TC + TAT]: exactly one of them
    moves at unit speed at a.e. parameter, and their representatives stay
    orthogonal.  Stored through sphere lifts, with the schedule parameters
    (stalls included) as cum_length."""
    _, params, t_pts, b_pts = _interleave_arrays(P)
    return (GeodesicPolyline(t_pts, "projective", params),
            GeodesicPolyline(b_pts, "projective", params))


def normal_indicatrix(P):
    """Normal indicatrix: pointwise cross product of the interleaved pair, a
    projective polyline of length TC(P) + TAT(P).

    The returned polyline carries `schedule_junctions`: the parameters of the
    construction vertices whose two adjoining schedule arcs are both
    nondegenerate (where the turning angle is pi/2).
    """
    dur, params, t_pts, b_pts = _interleave_arrays(P)
    pts, cum = split_arcs(unit(np.cross(b_pts, t_pts)), _MAX_PIECE, dur, params)
    curve = GeodesicPolyline(pts, "projective", cum)
    inner = (dur[:-1] > 0.0) & (dur[1:] > 0.0)
    curve.schedule_junctions = params[1:-1][inner]
    curve.schedule_junction_durations = np.column_stack(
        [dur[:-1][inner], dur[1:][inner]]
    )
    return curve


def turning_angle_at(curve, param):
    """Turn of a polyline at the breakpoint with parameter `param`, measured
    between the nearest nontrivial arcs on each side: the row of the corner
    table there, so folded into [0, pi/2] on RP^2."""
    idx = int(np.argmin(np.abs(curve.cum_length - param)))
    if abs(curve.cum_length[idx] - param) > BREAKPOINT_ATOL:
        raise ValueError("no breakpoint at the requested parameter")
    c = curve.corners(min_arc=BREAKPOINT_ATOL)
    row = int(np.searchsorted(c.arc_out, idx))  # first live arc starting at or after idx
    if row == c.arc_out.size or c.arc_in[row] >= idx:
        raise ValueError("no nontrivial arc on one side of the breakpoint")
    return float(c.turn[row])


# ---------------------------------------------------------------------------
# non-monotonicity witness (inscribed polygonal with larger torsion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    polygonal: Polygonal3
    inscribed: Polygonal3
    tat: float
    tat_inscribed: float

    @property
    def gap(self):
        return self.tat_inscribed - self.tat


def _rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _two_plane_polygonal(params):
    """Six-segment polygonal whose first three segments lie in the xy-plane
    and last three in a plane tilted about the x-axis."""
    phi2, phi3, psi4, psi5, psi6, dihedral = params

    def d(a):
        return np.array([np.cos(a), np.sin(a), 0.0])

    R = _rot_x(dihedral)
    dirs = [d(0.0), d(phi2), d(phi3), R @ d(psi4), R @ d(psi5), R @ d(psi6)]
    verts = [np.zeros(3)]
    for u in dirs:
        verts.append(verts[-1] + u)
    return Polygonal3(np.array(verts))


def _witness_gap(params):
    try:
        P = sanitize(_two_plane_polygonal(params))
        if P.n_segments != 6:
            return None
        Pp = sanitize(Polygonal3(np.delete(P.vertices, 3, axis=0)))
        if Pp.n_segments != 5:
            return None
        frP = P.frenet
        frPp = Pp.frenet
    except DegeneratePolygonal:
        return None
    if frPp.tc > frP.tc + 1e-9 or Pp.length > P.length + 1e-9:
        return None
    return frPp.tat - frP.tat, P, Pp, frP.tat, frPp.tat


def _witness_samples(rng, n):
    """Construction angles: increasing corner angles within each plane, free
    phase of the second plane, and the dihedral between the planes."""
    phi2 = rng.uniform(0.05, 1.2, n)
    phi3 = phi2 + rng.uniform(0.05, 1.2, n)
    psi4 = rng.uniform(0.0, 2 * np.pi, n)
    psi5 = psi4 + rng.uniform(0.05, 1.2, n)
    psi6 = psi5 + rng.uniform(0.05, 1.2, n)
    dih = rng.uniform(0.05, np.pi - 0.05, n)
    return np.column_stack([phi2, phi3, psi4, psi5, psi6, dih])


def nonmonotonicity_witness(seed=0, budget=2000, min_gap=1e-3):
    """Search the two-plane family for an inscribed polygonal with strictly
    larger total absolute torsion than its parent.

    Coarse seeded sampling over the construction angles, then Gaussian
    perturbation around the running best.  Deterministic given the seed.
    A budget below 1 or a NaN or negative min_gap raises ValueError.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not min_gap >= 0:
        raise ValueError(f"min_gap must be a non-negative number, got {min_gap}")
    rng = np.random.default_rng(seed)

    best = None
    best_params = None
    n_coarse = max(budget // 2, 1)
    coarse = _witness_samples(rng, n_coarse)
    for row in coarse:
        res = _witness_gap(row)
        if res is not None and (best is None or res[0] > best[0]):
            best, best_params = res, row

    remaining = budget - n_coarse
    scale = 0.15
    while remaining > 0 and best is not None:
        n_local = min(remaining, 200)
        remaining -= n_local
        local = best_params + rng.normal(0.0, scale, size=(n_local, 6))
        for row in local:
            res = _witness_gap(row)
            if res is not None and res[0] > best[0]:
                best, best_params = res, row
        scale *= 0.7

    if best is None or best[0] <= min_gap:
        raise SearchFailed("no inscribed pair with a torsion gap was found")
    gap, P, Pp, tat, tatp = best
    return Witness(P, Pp, tat, tatp)
