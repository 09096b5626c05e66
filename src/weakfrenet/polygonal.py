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
    ScheduledPath,
    fold_angle,
    lift_signs,
    split_long_arcs,
    unit,
)

EPS_ALIGN = 1e-12
BREAKPOINT_ATOL = 1e-9  # parameter match, and shortest live arc, of turning_angle_at


@dataclass(frozen=True)
class Polygonal3:
    """Ordered vertex list in 3-space.

    Closed polygonals store each vertex once (no repeated first vertex);
    segment i runs from vertex i to vertex i+1 (mod n when closed).
    return_points lists vertex indices where the direction reverses exactly;
    sanitize() fills it in.  Vertices are never written in place, so the
    discrete Frenet data is computed once, on first access to `frenet`.
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
        return self.n_vertices if self.closed else self.n_vertices - 1

    def segment_vectors(self):
        if self.closed:
            return np.roll(self.vertices, -1, axis=0) - self.vertices
        return np.diff(self.vertices, axis=0)

    def segment_lengths(self):
        return np.linalg.norm(self.segment_vectors(), axis=1)

    @property
    def length(self):
        return float(np.sum(self.segment_lengths()))

    @property
    def mesh(self):
        return float(np.max(self.segment_lengths()))

    def arclength_of_vertices(self):
        """Arc length along P at each vertex (closed: plus the total at the
        wrap, so the array has n_segments + 1 entries)."""
        lens = self.segment_lengths()
        return np.concatenate([[0.0], np.cumsum(lens)])

    @cached_property
    def frenet(self):
        """discrete_frenet of this polygonal.  An exception is not cached,
        so a polygonal with return points raises DegeneratePolygonal on
        every access."""
        return discrete_frenet(self)


def _junction_flags(verts, closed):
    """Per interior vertex: 0 bend, 1 aligned same-direction, -1 reversal.
    For closed input the flag at index i refers to vertex i (all vertices
    are interior); for open input to vertex i+1."""
    if closed:
        seg = np.roll(verts, -1, axis=0) - verts
        u, w = np.roll(seg, 1, axis=0), seg
    else:
        seg = np.diff(verts, axis=0)
        u, w = seg[:-1], seg[1:]
    cr = np.linalg.norm(np.cross(u, w), axis=1)
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
    dots = np.sum(u * w, axis=1)
    flags = np.zeros(u.shape[0], dtype=int)
    aligned = cr <= EPS_ALIGN * norms
    flags[aligned & (dots > 0)] = 1
    flags[aligned & (dots <= 0)] = -1
    return flags


def sanitize(P):
    """Drop zero-length segments, merge runs of aligned same-direction
    segments, and flag exact reversals as points of return."""
    verts = np.atleast_2d(np.asarray(P.vertices, dtype=float))
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
        flags = _junction_flags(verts, closed)
        merge = flags == 1
        if not np.any(merge):
            break
        if closed:
            keep = ~merge
        else:
            keep = np.concatenate([[True], ~merge, [True]])
        verts = verts[keep]
    else:
        raise DegeneratePolygonal("sanitation did not stabilize")

    if closed:
        returns = tuple(int(i) for i in np.where(flags == -1)[0])
    else:
        returns = tuple(int(i) + 1 for i in np.where(flags == -1)[0])
    return Polygonal3(verts, closed=closed, return_points=returns)


@dataclass(frozen=True)
class DiscreteFrenetData:
    """Tangents, binormals and the three torsion/curvature totals of a
    sanitized polygonal.

    Index conventions (0-based, m = number of segments):
      * tangents[i] is the direction of segment i;
      * binormals[j] belongs to the junction of segments j, j+1
        (open: j = 0..m-2; closed: j = 0..m-1, wrapping);
      * turning_angles[j] is the angle at the same junction;
      * torsion_angles pair binormals (j-1, j) and sit on the segment listed
        in torsion_segments (open: segments 1..m-2; closed: all m).
    """

    tangents: np.ndarray
    binormals: np.ndarray
    turning_angles: np.ndarray
    torsion_angles: np.ndarray
    torsion_segments: np.ndarray
    binormal_gaps: np.ndarray  # full sphere distance between paired binormals
    closed: bool

    @property
    def tc(self):
        return float(np.sum(self.turning_angles))

    @property
    def tat(self):
        return float(np.sum(np.abs(self.torsion_angles)))

    @property
    def ct(self):
        return float(np.sum(self.binormal_gaps))


def discrete_frenet(P):
    """Discrete Frenet data of a sanitized polygonal with no return points."""
    if P.return_points:
        raise DegeneratePolygonal(
            "return points present; use the weak-limit geodesic-choice path"
        )
    segs = P.segment_vectors()
    lens = np.linalg.norm(segs, axis=1)
    if np.any(lens <= 0):
        raise DegeneratePolygonal("zero-length segment; sanitize first")
    t = segs / lens[:, None]
    m = t.shape[0]

    if P.closed:
        ta, tb = t, np.roll(t, -1, axis=0)
    else:
        ta, tb = t[:-1], t[1:]
    cross = np.cross(ta, tb)
    cross_norm = np.linalg.norm(cross, axis=1)
    dots = np.sum(ta * tb, axis=1)
    alpha = np.arctan2(cross_norm, dots)

    n_junc = cross.shape[0]
    binormals = np.zeros((n_junc, 3))
    defined = cross_norm > EPS_ALIGN
    reversal = (~defined) & (dots < 0)
    if np.any(reversal):
        raise DegeneratePolygonal("exact reversal junction; sanitize first")
    binormals[defined] = cross[defined] / cross_norm[defined, None]
    if not np.all(defined):
        binormals = _fill_undefined_binormals(binormals, defined)

    if P.closed:
        seg_idx = np.arange(m)
        prev_b = np.roll(binormals, 1, axis=0)
        cur_b = binormals
        seg_dirs = t
    else:
        if m < 3:
            seg_idx = np.arange(0)
            prev_b = np.zeros((0, 3))
            cur_b = np.zeros((0, 3))
            seg_dirs = np.zeros((0, 3))
        else:
            seg_idx = np.arange(1, m - 1)
            prev_b = binormals[:-1]
            cur_b = binormals[1:]
            seg_dirs = t[1:-1]

    cb = np.cross(prev_b, cur_b)
    cb_norm = np.linalg.norm(cb, axis=1)
    d = np.sum(prev_b * cur_b, axis=1)
    full = np.arctan2(cb_norm, d)
    folded = fold_angle(full)
    sign = np.sign(np.sum(cb * seg_dirs, axis=1))
    theta = np.where(cb_norm > EPS_ALIGN, sign * folded, 0.0)

    return DiscreteFrenetData(
        tangents=t,
        binormals=binormals,
        turning_angles=alpha,
        torsion_angles=theta,
        torsion_segments=seg_idx,
        binormal_gaps=full,
        closed=P.closed,
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
    fr = P.frenet
    pts = fr.tangents
    if P.closed:
        pts = np.vstack([pts, pts[:1]])
    cum = np.concatenate([[0.0], np.cumsum(fr.turning_angles)])
    return GeodesicPolyline(pts, "sphere", cum)


def polar_curve(P):
    """Polar of the tangent indicatrix: the projective polyline through the
    consecutive binormal classes.  Its length is the total absolute torsion."""
    fr = P.frenet
    if P.n_segments < 3:
        raise DegeneratePolygonal("polar needs >= 3 segments")
    if P.closed:
        reps = np.vstack([fr.binormals[-1:], fr.binormals])
    else:
        reps = fr.binormals
    cum = np.concatenate([[0.0], np.cumsum(np.abs(fr.torsion_angles))])
    return GeodesicPolyline(lift_signs(reps, on_ambiguous="keep"), "projective", cum)


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
    lengths = P.segment_lengths()[segments]
    return PolygonalMeasures(
        atom_vertices=(np.arange(fr.turning_angles.size) + 1) % P.n_vertices,
        atom_angles=fr.turning_angles,
        density_segments=segments,
        densities=fr.torsion_angles[twisted] / lengths,
        density_lengths=lengths,
    )


@dataclass(frozen=True)
class ScheduleTable:
    """Cumulative curvature (C) and torsion (T) lengths, indexed as in the
    interleaved construction; C[-1] = TC(P), T[-1] = TAT(P)."""

    C: np.ndarray
    T: np.ndarray
    closed: bool

    @property
    def total(self):
        return float(self.C[-1] + self.T[-1])


def normal_schedule(P):
    fr = P.frenet
    alpha = fr.turning_angles
    theta = np.abs(fr.torsion_angles)
    C = np.concatenate([[0.0], np.cumsum(alpha)])
    if P.closed:
        T = np.concatenate([[0.0], np.cumsum(theta)])
    else:
        # torsion starts on the second segment, so both first entries stall
        T = np.concatenate([[0.0, 0.0], np.cumsum(theta)])
    return ScheduleTable(C=C, T=T, closed=P.closed)


# arc pieces are kept clearly below pi/2 so projective invariants hold
_MAX_PIECE = 1.5


def _interleave_arrays(P):
    """Breakpoint tables of the interleaved schedule.

    Returns (durations, t_pts, b_pts): the alternating event durations and
    the tangent/binormal values at the event boundaries (one more breakpoint
    than events).  At each boundary the two values are orthogonal.
    """
    fr = P.frenet
    t = fr.tangents
    alpha = fr.turning_angles
    theta = np.abs(fr.torsion_angles)
    m = t.shape[0]
    if P.closed:
        chain = np.vstack([fr.binormals[-1:], fr.binormals])
        B = lift_signs(chain, on_ambiguous="keep")
        dur = np.empty(2 * m)
        dur[0::2] = theta  # Gamma_j on segment j
        dur[1::2] = alpha  # gamma_j at the following vertex
        t_pts = np.empty((2 * m + 1, 3))
        t_pts[0] = t[0]
        t_pts[1::2] = t  # after Gamma_j the tangent is still t_j
        t_pts[2::2] = np.roll(t, -1, axis=0)  # after gamma_j it is t_{j+1}
        b_pts = np.empty((2 * m + 1, 3))
        b_pts[0] = B[0]
        b_pts[1::2] = B[1:]
        b_pts[2::2] = B[1:]
    else:
        if m < 2:
            raise DegeneratePolygonal("need >= 2 segments")
        B = lift_signs(fr.binormals, on_ambiguous="keep")
        dur = np.empty(2 * m - 3)
        dur[0::2] = alpha
        dur[1::2] = theta
        t_pts = np.empty((2 * m - 2, 3))
        t_pts[0] = t[0]
        t_pts[1::2] = t[1:]
        t_pts[2::2] = t[1 : m - 1]
        b_pts = np.empty((2 * m - 2, 3))
        b_pts[0] = B[0]
        b_pts[1::2] = B
        b_pts[2::2] = B[1:]
    return dur, t_pts, b_pts


def interleaved_pair(P):
    """The pair of projective paths on [0, TC + TAT]: exactly one of them
    moves at unit speed at a.e. parameter, and their representatives stay
    orthogonal.  Stored through sphere lifts."""
    dur, t_pts, b_pts = _interleave_arrays(P)
    total = float(np.sum(dur))
    if total <= 0:
        raise DegeneratePolygonal("TC + TAT vanishes")
    params = np.concatenate([[0.0], np.cumsum(dur)])
    t_path = ScheduledPath(t_pts, params, "projective")
    b_path = ScheduledPath(b_pts, params, "projective")
    return t_path, b_path


def normal_indicatrix(P):
    """Normal indicatrix: pointwise cross product of the interleaved pair, a
    projective polyline of length TC(P) + TAT(P).

    The returned polyline carries `schedule_junctions`: the parameters of the
    construction vertices whose two adjoining schedule arcs are both
    nondegenerate (where the turning angle is pi/2).
    """
    dur, t_pts, b_pts = _interleave_arrays(P)
    if float(np.sum(dur)) <= 0:
        raise DegeneratePolygonal("TC + TAT vanishes")
    pts, cum = split_long_arcs(unit(np.cross(b_pts, t_pts)), _MAX_PIECE, dur)
    curve = GeodesicPolyline(pts, "projective", cum)
    inner = (dur[:-1] > 0.0) & (dur[1:] > 0.0)
    curve.schedule_junctions = np.cumsum(dur)[:-1][inner]
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
