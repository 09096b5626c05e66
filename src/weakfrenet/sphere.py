"""Geometry kernel for the Gauss sphere and the projective plane.

Unit vectors are plain numpy arrays of shape (..., 3).  A point of RP^2 is
represented by a unit vector up to sign; `canon_rep` fixes the sign
deterministically.  All angles are radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousLift, AntipodalPair, DegenerateArc

EPS_UNIT = 1e-12
EPS_CANON = 1e-9
EPS_ANTIPODAL = 1e-9

N_SUP_GRID = 1024  # uniform grid of sup_distance


def unit(v):
    """Normalize v (shape (..., 3)); raises on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < EPS_UNIT):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def sphere_distance(a, b):
    """Geodesic distance on S^2, in [0, pi].

    Uses atan2(|a x b|, a . b), which stays well-conditioned near 0 and pi
    where the clamped-arccos form loses half the digits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.cross(a, b)
    return np.arctan2(np.linalg.norm(cross, axis=-1), np.sum(a * b, axis=-1))


def proj_distance(p, q):
    """Quotient distance on RP^2: min of the two sphere distances, in [0, pi/2]."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    cross = np.cross(a, b)
    dot = np.sum(a * b, axis=-1)
    return np.arctan2(np.linalg.norm(cross, axis=-1), np.abs(dot))


def fold_angle(theta):
    """Fold an angle in [0, pi] into [0, pi/2] (unoriented-plane angle)."""
    theta = np.asarray(theta, dtype=float)
    return np.minimum(theta, np.pi - theta)


def canon_rep(v):
    """Canonical representative of [v]: the first component whose magnitude
    exceeds EPS_CANON is made positive.  canon(v) == canon(-v) exactly."""
    v = np.asarray(v, dtype=float)
    sign = np.zeros(v.shape[:-1])
    for k in range(3):
        comp = v[..., k]
        pick = (sign == 0) & (np.abs(comp) > EPS_CANON)
        sign = np.where(pick, np.sign(comp), sign)
    sign = np.where(sign == 0, 1.0, sign)
    return v * sign[..., None] + 0.0  # adding 0.0 maps -0.0 to +0.0


def _geodesic_point(a, b, theta, lam):
    """Point at fraction lam of the geodesic arc a -> b of length theta; an
    arc whose sin(theta) is at most EPS_ANTIPODAL (trivial, or antipodal
    with no unique geodesic) gives a."""
    sin_t = np.sin(theta)
    trivial = sin_t <= EPS_ANTIPODAL
    safe = np.where(trivial, 1.0, sin_t)[..., None]
    out = (np.sin((1.0 - lam) * theta)[..., None] * a
           + np.sin(lam * theta)[..., None] * b) / safe
    return np.where(trivial[..., None], a, out)


def slerp(a, b, lam):
    """Constant-speed point(s) on the minimal geodesic arc from a to b.

    a and b have shape (..., 3) and broadcast with lam (scalar or array);
    the result has the broadcast shape + (3,).  Raises AntipodalPair when an
    arc is not unique.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = sphere_distance(a, b)
    if np.any(theta > np.pi - EPS_ANTIPODAL):
        raise AntipodalPair("slerp between (nearly) antipodal points")
    return _geodesic_point(a, b, theta, np.asarray(lam, dtype=float))


def arc_tangent(a, b, at_end=False):
    """Unit tangent(s), in the direction of travel, of the geodesic arc(s)
    a -> b (shape (..., 3)); evaluated at a by default, at b with at_end=True."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = sphere_distance(a, b)
    if np.any((theta < EPS_ANTIPODAL) | (theta > np.pi - EPS_ANTIPODAL)):
        raise DegenerateArc("arc too short or antipodal to carry a direction")
    cos_t, sin_t = np.cos(theta)[..., None], np.sin(theta)[..., None]
    if at_end:
        return (cos_t * b - a) / sin_t
    return (b - cos_t * a) / sin_t


def _eval_piecewise(points, params, s):
    """Evaluate a piecewise-geodesic path with breakpoints `points` at
    parameters `params` (nondecreasing).  Intervals of zero point motion but
    positive parameter width are stalls (constant value)."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(np.clip(s, params[0], params[-1]))
    n_arcs = points.shape[0] - 1
    if n_arcs == 0:
        out = np.broadcast_to(points[0], s.shape + (3,)).copy()
        return out[0] if scalar else out
    idx = np.searchsorted(params, s, side="right") - 1
    idx = np.clip(idx, 0, n_arcs - 1)
    a = points[idx]
    b = points[idx + 1]
    width = params[idx + 1] - params[idx]
    lam = np.where(width > 0, (s - params[idx]) / np.where(width > 0, width, 1.0), 0.0)
    out = _geodesic_point(a, b, sphere_distance(a, b), lam)
    return out[0] if scalar else out


class GeodesicPolyline:
    """Piecewise-geodesic curve on S^2 or RP^2 over the parameter table
    cum_length: constant-speed on each arc, constant on an arc of zero point
    motion but positive parameter width (a stall).

    ``points`` are unit vectors; for the projective plane they form a
    continuous lift to S^2.  For the indicatrices cum_length is arc length,
    and each projective arc is at most pi/2 long, so that cum_length
    increments equal the quotient distance between breakpoints.  For the
    interleaved tangent/binormal pair it is the schedule parameter, with
    stalls.
    """

    def __init__(self, points, space, cum_length=None):
        self.space = space  # 'sphere' | 'projective'
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if cum_length is None:
            d = sphere_distance(self.points[:-1], self.points[1:])
            cum_length = np.concatenate([[0.0], np.cumsum(d)])
        self.cum_length = np.asarray(cum_length, dtype=float)
        if self.cum_length.shape[0] != self.points.shape[0]:
            raise ValueError("cum_length must match breakpoints")

    @classmethod
    def from_projective_points(cls, reps, seed=None):
        """Build from projective representatives with a continuous lift (each
        successive sign is the one nearer the previous lifted point)."""
        return cls(lift_signs(reps, seed=seed), "projective")

    @property
    def total_length(self):
        return float(self.cum_length[-1])

    @property
    def n_arcs(self):
        return self.points.shape[0] - 1

    def eval(self, s):
        """Point(s) at arc length s, clipped to the domain.  Projective
        polylines return lifted representatives; `canon_rep` for display."""
        return _eval_piecewise(self.points, self.cum_length, s)

    def arc_lengths(self):
        return np.diff(self.cum_length)

    def corners(self, min_arc=1e-9):
        """Corner table: one row per pair of consecutive live arcs (arcs
        longer than min_arc; the stalls between them are skipped).

        The turn is the angle between the incoming and outgoing unit
        tangents.  On RP^2 one-sided derivatives are compared as projective
        classes, so the turn is folded into [0, pi/2]: a reversal of the
        lift is not a corner.  Raises DegenerateArc when a live arc is too
        short or antipodal to carry a direction.
        """
        live = np.flatnonzero(self.arc_lengths() > min_arc)
        arc_in, arc_out = live[:-1], live[1:]
        t_in = arc_tangent(self.points[arc_in], self.points[arc_in + 1], at_end=True)
        t_out = arc_tangent(self.points[arc_out], self.points[arc_out + 1])
        turn = sphere_distance(t_in, t_out)
        if self.space == "projective":
            turn = fold_angle(turn)
        return Corners(arc_in, arc_out, self.cum_length[arc_out], t_in, t_out, turn)

    def turning_total(self, min_arc=1e-9):
        """Total turning: sum of the corner turns (stalls contribute a single
        turn).  This is the discrete total curvature of the polyline in its
        own space."""
        return float(np.sum(self.corners(min_arc).turn))


@dataclass(frozen=True)
class Corners:
    """Corner table of a GeodesicPolyline; row j joins live arc arc_in[j]
    to the next live arc arc_out[j]."""

    arc_in: np.ndarray
    arc_out: np.ndarray
    params: np.ndarray  # cum_length at the start of arc_out
    t_in: np.ndarray  # (m, 3) unit tangent at the end of arc_in
    t_out: np.ndarray  # (m, 3) unit tangent at the start of arc_out
    turn: np.ndarray  # in [0, pi]; [0, pi/2] on RP^2


def lift_signs(reps, seed=None, on_ambiguous="raise"):
    """Continuous lift of a sequence of projective representatives: each
    successive sign is the one nearer the previous lifted point.

    seed, when given, must be +-(first rep); it selects the branch.  When
    consecutive points are (numerically) at distance pi/2 both signs are
    equidistant: with on_ambiguous='raise' this raises AmbiguousLift, with
    'keep' the stored orientation continues the path (tie-break used by the
    polar constructions).
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    first_sign = 1.0
    if seed is not None:
        seed = np.asarray(seed, dtype=float)
        d = float(np.dot(seed, reps[0]))
        if abs(abs(d) - 1.0) > 1e-6:
            raise ValueError("seed is not a representative of the first breakpoint")
        first_sign = np.sign(d)
    if reps.shape[0] == 1:
        return reps * first_sign
    dots = np.sum(reps[:-1] * reps[1:], axis=1)
    ambiguous = np.abs(dots) < EPS_CANON
    if np.any(ambiguous) and on_ambiguous == "raise":
        i = int(np.argmax(ambiguous)) + 1
        raise AmbiguousLift(f"both lifts of breakpoint {i} are equidistant")
    steps = np.where(ambiguous, 1.0, np.sign(dots))
    signs = first_sign * np.concatenate([[1.0], np.cumprod(steps)])
    return reps * signs[:, None]


def lift_projective_polyline(curve, seed):
    """Continuous lift of a projective polyline into S^2 from a chosen seed.

    Returns (sphere polyline, closure_sign).  closure_sign is +1/-1 when the
    input is projectively closed (last breakpoint equals the first); it
    records whether the lift returns to +seed or -seed.  None for open input.
    """
    if curve.space != "projective":
        raise ValueError("expected a projective polyline")
    lifted = lift_signs(curve.points, seed=seed)
    closure = None
    if float(proj_distance(curve.points[0], curve.points[-1])) < 1e-9:
        closure = int(np.sign(np.dot(lifted[0], lifted[-1])))
    return GeodesicPolyline(lifted, "sphere", curve.cum_length.copy()), closure


def split_arcs(points, max_len, lengths, cum):
    """Insert slerp points so that no arc is longer than max_len; returns
    (points, cum_length).

    `lengths` are the arc lengths and cum = [0, cumsum(lengths)].  An arc of
    length L > max_len is cut into ceil(L / max_len) pieces of equal length,
    and cum is interpolated linearly across it.  Needed before projecting a
    sphere polyline to RP^2: a projective arc longer than pi/2 is not the
    minimal geodesic between its endpoints.
    """
    extra = np.where(lengths > max_len, np.ceil(lengths / max_len) - 1, 0).astype(int)
    arc = np.repeat(np.arange(extra.size), extra)  # split arc of each new point
    first = np.repeat(np.cumsum(extra) - extra, extra)  # its first new point
    lam = (np.arange(arc.size) - first + 1) / (extra[arc] + 1)
    new = slerp(points[arc], points[arc + 1], lam)
    return (np.insert(points, arc + 1, new, axis=0),
            np.insert(cum, arc + 1, cum[arc] + lam * lengths[arc]))


def sup_distance(curve_a, curve_b):
    """Sup over a uniform grid of pointwise distance between two curves, each
    evaluated with constant speed over its own domain."""
    s = np.linspace(0.0, 1.0, N_SUP_GRID)
    pa = curve_a.eval(s * curve_a.total_length)
    pb = curve_b.eval(s * curve_b.total_length)
    if curve_a.space == "projective" or curve_b.space == "projective":
        d = proj_distance(pa, pb)
    else:
        d = sphere_distance(pa, pb)
    return float(np.max(d))
