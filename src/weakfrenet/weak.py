"""Refinement limits: weak tantrix, weak binormal, weak normal.

Inscribed polygonal sequences with shrinking modulus are built level by
level; the indicatrices of the levels, reparameterized to constant speed on
a common domain, are compared on a fixed grid.  The returned limit object is
the finest level's curve together with the observed Cauchy gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .curves import Inscription, inscribe
from .errors import (
    AmbiguousReturnPoint,
    DegeneratePolygonal,
    NotConverged,
    UnboundedVariationWarning,
    ZeroTorsion,
)
from .polygonal import (
    Polygonal3,
    binormal_indicatrix,
    normal_indicatrix,
    sanitize,
    tantrix,
)
from .sphere import (
    GeodesicPolyline,
    proj_distance,
    sphere_distance,
    sup_distance,
    unit,
)

N_FIT_LEVELS = 5  # finest levels the limit fit of estimate_limit uses


@dataclass(frozen=True)
class RefinementLevel:
    """One refinement level.  Only the last two levels of a sequence, the
    ones the weak limits read, keep their inscription and sanitized
    polygonal; earlier levels hold None there."""

    n_params: int
    mesh: float
    modulus: float
    tc: float
    tat: float
    ct: float
    inscription: Inscription | None = None
    polygonal: Polygonal3 | None = None  # sanitized


@dataclass(frozen=True)
class RefinementSequence:
    curve: object
    levels: tuple

    @property
    def final(self):
        return self.levels[-1]

    def table(self):
        return [
            {
                "level": i,
                "segments": lv.n_params,
                "mesh": lv.mesh,
                "modulus": lv.modulus,
                "tc": lv.tc,
                "tat": lv.tat,
                "ct": lv.ct,
            }
            for i, lv in enumerate(self.levels)
        ]


def _level_params(curve, n, rng=None, parent=None):
    a, b = curve.domain
    if rng is None or parent is None:
        return np.linspace(a, b, n + 1)
    # randomized nested refinement: keep the parent's params, split each cell
    # at a random interior point
    mids = parent[:-1] + np.diff(parent) * rng.uniform(0.35, 0.65, size=len(parent) - 1)
    return np.sort(np.concatenate([parent, mids]))


def refine(curve, levels, base_n, rng=None):
    """Inscribe `levels` nested polygonals with base_n * 2^h uniform cells
    (or randomized nested cells when rng is given) and tabulate TC/TAT/CT."""
    if levels < 2 or base_n < 4:
        raise ValueError("need levels >= 2 and base_n >= 4")
    out = []
    params = None
    for h in range(levels):
        if len(out) >= 2:
            out[-2] = replace(out[-2], inscription=None, polygonal=None)
        n = base_n * 2**h
        params = _level_params(curve, n, rng=rng, parent=params)
        ins = inscribe(curve, params)
        P = sanitize(ins.polygonal)
        # return points block the discrete data; record lengths only
        fr = P.frenet if not P.return_points else None
        totals = (np.nan,) * 3 if fr is None else (fr.tc, fr.tat, fr.ct)
        out.append(RefinementLevel(n, ins.mesh, ins.modulus, *totals, ins, P))
    return RefinementSequence(curve=curve, levels=tuple(out))


def estimate_limit(values, meshes):
    """Limit estimate of a refinement sequence by least squares against
    1 + sqrt(mesh) + mesh.

    Inscribed totals converge like O(mesh) for curves with bounded curvature
    and like O(sqrt(mesh)) when the curvature blows up at an endpoint; the
    two-term model covers both.  Falls back to the last value when fewer
    than three levels are available.
    """
    values = np.asarray(values, dtype=float)
    meshes = np.asarray(meshes, dtype=float)
    good = np.isfinite(values) & np.isfinite(meshes)
    values, meshes = values[good], meshes[good]
    if values.size < 3:
        return float(values[-1]) if values.size else float("nan")
    v = values[-N_FIT_LEVELS:]
    m = meshes[-N_FIT_LEVELS:]
    basis = np.column_stack([np.ones_like(m), np.sqrt(m), m])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    est = float(coef[0])
    # reject wild extrapolations (non-settling sequences)
    if not np.isfinite(est) or abs(est - v[-1]) > 10 * abs(v[-1] - v[0]) + 1e-12:
        return float(v[-1])
    return est


@dataclass(frozen=True)
class WeakIndicatrix:
    """Constant-speed limit curve of a refinement sequence.

    `curve` is the finest level's indicatrix (arc-length parameterized) and
    `cauchy_gap` its sup distance to the previous level's; judging the gap
    is left to the caller.  eval_scaled maps any domain [0, total] onto the
    curve with constant speed.
    """

    curve: GeodesicPolyline
    cauchy_gap: float
    warning: str = ""

    @property
    def total_length(self):
        return self.curve.total_length

    @property
    def space(self):
        return self.curve.space

    def eval(self, s):
        return self.curve.eval(s)

    def eval_scaled(self, s, total):
        s = np.asarray(s, dtype=float)
        if total <= 0:
            raise ValueError("total must be positive")
        return self.curve.eval(s * (self.curve.total_length / total))

    def resolution_params(self, n):
        """Parameters j * L / n (L the total length, j = 0..n) of the
        coarsest of the nested grids n, 2n, 4n, ... whose geodesic polyline
        through the limit's samples stays within cauchy_gap / 10 of the limit
        at every breakpoint; None when no grid with fewer intervals than the
        limit has breakpoints does."""
        c = self.curve
        dist = proj_distance if c.space == "projective" else sphere_distance
        while n < c.cum_length.size:
            s = np.arange(n + 1) * c.total_length / n
            grid = GeodesicPolyline(c.eval(s), c.space, s)
            if np.max(dist(grid.eval(c.cum_length), c.points)) <= self.cauchy_gap / 10:
                return s
            n *= 2
        return None


def _limit(prev, final, warning=""):
    return WeakIndicatrix(final, sup_distance(prev, final), warning)


def weak_binormal(seq):
    """Weak binormal: constant-speed limit of the binormal indicatrices."""
    curves = []
    for lv in seq.levels[-2:]:
        try:
            curves.append(binormal_indicatrix(lv.polygonal))
        except ZeroTorsion:
            curves.append(None)
    if curves[-1] is None or seq.final.tat < 1e-12:
        raise ZeroTorsion("final level has (numerically) zero total torsion")
    if curves[0] is None:
        raise NotConverged("previous level is planar; refine further")
    return _limit(*curves)


def _tantrix_with_policy(P, return_dir):
    """Tangent indicatrix that inserts a chosen half-great-circle at each
    point of return: the geodesic runs through the normalized component of
    return_dir orthogonal to the incoming tangent."""
    if not P.return_points:
        return tantrix(P)
    t = P.tangents
    j, nxt = P.junctions()
    ta, tb = t[j], t[nxt]
    ret = np.flatnonzero(np.isin(nxt, P.return_points))
    u = unit(np.asarray(return_dir, dtype=float))
    w = u - (ta[ret] @ u)[:, None] * ta[ret]
    w_norm = np.linalg.norm(w, axis=1)
    if np.any(w_norm < 1e-9):
        raise AmbiguousReturnPoint(
            "return direction is parallel to the tangent at a return point"
        )
    # a return junction's arc is two quarter circles through w
    arcs = sphere_distance(ta, tb)
    arcs[ret] = np.pi / 2
    cum = np.concatenate([[0.0], np.cumsum(np.insert(arcs, ret, np.pi / 2))])
    pts = np.insert(np.vstack([t[:1], tb]), ret + 1, w / w_norm[:, None], axis=0)
    return GeodesicPolyline(pts, "sphere", cum)


def weak_tantrix(seq, return_dir=None):
    """Weak tantrix: constant-speed limit of the tangent indicatrices.

    Inputs with points of return need an explicit geodesic-choice direction
    (Remark: the limit is unique only up to that choice).
    """
    curves = []
    for lv in seq.levels[-2:]:
        if lv.polygonal.return_points:
            if return_dir is None:
                raise AmbiguousReturnPoint(
                    "points of return present; pass return_dir to fix the geodesic"
                )
            curves.append(_tantrix_with_policy(lv.polygonal, return_dir))
        else:
            curves.append(tantrix(lv.polygonal))
    if curves[-1].total_length < 1e-12:
        raise DegeneratePolygonal("final level has zero total curvature")
    return _limit(*curves)


def weak_normal(seq):
    """Weak normal: constant-speed limit of the normal indicatrices.

    Emits (with a warning recorded on the result) even when the complete
    torsion keeps growing across levels; a finite complete torsion is what
    guarantees a well-behaved limit, so the result is then unreliable.
    """
    curves = [normal_indicatrix(lv.polygonal) for lv in seq.levels[-2:]]
    if curves[-1].total_length <= 0:
        raise DegeneratePolygonal("TC + TAT vanishes at the final level")
    warning = ""
    cts = [lv.ct for lv in seq.levels if np.isfinite(lv.ct)]
    if len(cts) >= 3:
        gaps = np.abs(np.diff(cts))
        if gaps[-1] > 1e-9 and gaps[-1] >= gaps[-2] >= 1e-9:
            warning = "complete torsion not settling; weak normal unreliable"
            warnings.warn(warning, UnboundedVariationWarning)
    return _limit(*curves, warning)


# ---------------------------------------------------------------------------
# reparameterization identities for curves with an analytic frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Max deviations of the three reparameterization identities on a grid."""

    binormal_dev: float
    tantrix_dev: float
    normal_dev: float
    tol: float

    @property
    def passed(self):
        devs = [self.binormal_dev, self.tantrix_dev, self.normal_dev]
        return all(np.isnan(d) or d < self.tol for d in devs)

    def as_dict(self):
        def _clean(x):
            return None if np.isnan(x) else float(x)

        return {
            "binormal_dev": _clean(self.binormal_dev),
            "tantrix_dev": _clean(self.tantrix_dev),
            "normal_dev": _clean(self.normal_dev),
            "tol": self.tol,
            "passed": bool(self.passed),
        }


def verify_reparam_identities(curve, t_c, b_c, n_c, n_grid=64, tol=1e-2):
    """Check b_c(t(s)) = [b(s)], t_c(k(s)) = t(s), n_c(rho(s)) = [n(s)] on an
    interior s-grid, with t, k, rho the cumulative |tau|, k, k + |tau| read
    from the curve's cum_abs_torsion / cum_curvature closures.  The limits
    are WeakIndicatrix objects of the curve's refinement; a limit given as
    None reports a NaN deviation."""
    if not curve.has_frame:
        raise ValueError("identities need an analytic frame")
    a, b = curve.domain
    pad = (b - a) * 1e-3
    s_grid = np.linspace(a + pad, b - pad, n_grid)
    K = curve.cum_curvature(s_grid)
    T = curve.cum_abs_torsion(s_grid)
    # constant-speed matching needs the whole-domain totals, not the values
    # at the padded grid end
    K_total = float(curve.cum_curvature(b))
    T_total = float(curve.cum_abs_torsion(b))
    t_ana, n_ana, b_ana, _, _ = curve.frame(s_grid)

    def deviation(limit, cum, total, ana, dist):
        if limit is None:
            return float("nan")
        return float(np.max(dist(limit.eval_scaled(cum, max(total, 1e-300)), ana)))

    return IdentityReport(
        binormal_dev=deviation(b_c, T, T_total, b_ana, proj_distance),
        tantrix_dev=deviation(t_c, K, K_total, t_ana, sphere_distance),
        normal_dev=deviation(n_c, K + T, K_total + T_total, n_ana, proj_distance),
        tol=tol,
    )
