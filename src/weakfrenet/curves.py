"""Parametric curve sources with analytic Frenet data.

The two reference models are the helicoidal curve (constant curvature and
torsion) and a unit-speed curve with a genuine inflection point, whose frame
closure gives the generalized frame there.  Curves can also be generated by
integrating curvature/torsion profiles through the Frenet-Serret system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DegeneratePolygonal, EvalOutOfDomain, UnknownModel
from .polygonal import Polygonal3


@dataclass
class ParamCurve:
    """Curve s -> R^3 on a closed interval, assumed unit-speed.

    position and the optional d1 (first derivative) and frame callables are
    vectorized over the last axis being the 3-vector.  frame(s) returns
    (t, n, b, k, tau).
    Every curve with a frame also carries cum_curvature and cum_abs_torsion,
    the cumulative integrals of k and |tau| from the domain start.
    """

    name: str
    domain: tuple
    position: callable
    d1: callable = None
    frame: callable = None
    closed: bool = False  # geometrically closed loop (endpoints identified)
    cum_curvature: callable = None
    cum_abs_torsion: callable = None

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        a, b = self.domain
        slack = 1e-9 * max(abs(a), abs(b), 1.0)
        if np.any(s < a - slack) or np.any(s > b + slack):
            raise EvalOutOfDomain(f"parameter outside [{a}, {b}]")
        return self.position(np.clip(s, a, b))

    @property
    def has_frame(self):
        return self.frame is not None


def helix(R=1.0, K=2 * np.pi):
    """Helicoidal curve of radius R whose pitch over one turn is K, in
    arc-length parameterization on [-L/2, L/2] with L = 2*pi*v.

    Curvature and torsion are the constants R/v^2 and (K/2pi)/v^2, with
    v = sqrt(R^2 + (K/2pi)^2); their integrals are 2*pi*R/v and K/v.
    """
    if not (np.isfinite(R) and R > 0):
        raise ValueError(f"R must be finite and positive, got {R}")
    if not np.isfinite(K):
        raise ValueError(f"K must be finite, got {K}")
    w = K / (2 * np.pi)
    v = float(np.hypot(R, w))
    L = 2 * np.pi * v

    def position(s):
        u = np.asarray(s, dtype=float) / v
        return np.stack([R * np.cos(u), R * np.sin(u), w * u], axis=-1)

    def d1(s):
        u = np.asarray(s, dtype=float) / v
        return np.stack(
            [-R / v * np.sin(u), R / v * np.cos(u), np.full_like(u, w / v)], axis=-1
        )

    def frame(s):
        u = np.asarray(s, dtype=float) / v
        z = np.zeros_like(u)
        t = np.stack([-R / v * np.sin(u), R / v * np.cos(u), np.full_like(u, w / v)], axis=-1)
        n = np.stack([-np.cos(u), -np.sin(u), z], axis=-1)
        b = np.stack([w / v * np.sin(u), -w / v * np.cos(u), np.full_like(u, R / v)], axis=-1)
        k = np.full_like(u, R / v**2)
        tau = np.full_like(u, w / v**2)
        return t, n, b, k, tau

    kconst = R / v**2
    tauconst = abs(w) / v**2
    return ParamCurve(
        name="helix",
        domain=(-L / 2, L / 2),
        position=position,
        d1=d1,
        frame=frame,
        closed=(K == 0.0),
        cum_curvature=lambda s: kconst * (np.asarray(s, dtype=float) + L / 2),
        cum_abs_torsion=lambda s: tauconst * (np.asarray(s, dtype=float) + L / 2),
    )


CELL_NODES = 12  # Gauss-Legendre nodes per cell of a CellIntegral table
_GAUSS = 0.5 - np.sqrt(3.0) / 6.0  # first Gauss point of a unit step


@dataclass(frozen=True)
class CellIntegral:
    """x -> int_lo^x f, for lo = edges[0] <= x <= edges[-1].

    `values[i]` is the integral of f over the first i uniform cells between
    `edges`: each cell is a CELL_NODES-point Gauss-Legendre sum and the
    cells are accumulated by cumsum.  A query adds to the value at its
    cell's start the 2-point Gauss-Legendre sum over the partial cell, so
    lo and every interior cell edge return their table value exactly.  For
    a profile analytic on the cells, the partial rule errs by O(h^5) per
    cell, well below the table's own rounding.  f must map arrays
    pointwise; queries may have any shape.
    """

    f: callable
    edges: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        last = self.edges.size - 2
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, last)
        start = self.edges[idx]
        d = x - start
        return self.values[idx] + 0.5 * d * (
            self.f(start + _GAUSS * d) + self.f(x - _GAUSS * d)
        )


def cell_integral(f, lo, hi, n_cells):
    """The CellIntegral of the profile f over n_cells uniform cells of
    [lo, hi]."""
    edges = np.linspace(lo, hi, n_cells + 1)
    nodes, weights = np.polynomial.legendre.leggauss(CELL_NODES)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    cells = np.sum(f(mid[:, None] + half * nodes) * weights, axis=1) * half
    return CellIntegral(f, edges, np.concatenate([[0.0], np.cumsum(cells)]))


def _quartic_profile(w):
    return np.cos(w) ** 2 * np.sqrt(1.0 + np.sin(w) ** 2)


@functools.cache
def _quartic_arc():
    """F(w) = int_{-pi/2}^{w} cos^2 sqrt(1+sin^2); then
    int_{-1}^{s} sqrt(1-l^4) dl = F(arcsin s).  The substituted integrand is
    analytic, so the CellIntegral of 4,096 cells is accurate to about
    2e-13.  Built on first use, so that importing the package does no work
    for it."""
    return cell_integral(_quartic_profile, -np.pi / 2, np.pi / 2, 4096)


def inflection_curve():
    """Unit-speed curve on [-1, 1] with an order-3 inflection at s = 0.

    The derivative is (1, s^2, sqrt(1 - s^4))/sqrt(2); the position is its
    integral from s = -1.  Curvature sqrt(2)|s|/sqrt(1-s^4) and torsion
    -sqrt(2) s/sqrt(1-s^4) are integrable with TC = TAT = pi/sqrt(2).
    """
    r2 = np.sqrt(2.0)
    quartic_arc = _quartic_arc()

    def zpart(s):
        s = np.asarray(s, dtype=float)
        return quartic_arc(np.arcsin(np.clip(s, -1.0, 1.0)))

    def position(s):
        s = np.asarray(s, dtype=float)
        x = (s + 1.0) / r2
        y = (s**3 + 1.0) / (3.0 * r2)
        z = zpart(s) / r2
        return np.stack([x, y, z], axis=-1)

    def d1(s):
        s = np.asarray(s, dtype=float)
        root = np.sqrt(np.clip(1.0 - s**4, 0.0, None))
        return np.stack([np.ones_like(s), s**2, root], axis=-1) / r2

    def frame(s):
        s = np.asarray(s, dtype=float)
        sg = np.where(s >= 0, 1.0, -1.0)
        quart = np.clip(1.0 - s**4, 0.0, None)
        root = np.sqrt(quart)
        t = np.stack([np.ones_like(s), s**2, root], axis=-1) / r2
        n = sg[..., None] * np.stack([np.zeros_like(s), root, -(s**2)], axis=-1)
        b = sg[..., None] * np.stack([-np.ones_like(s), s**2, root], axis=-1) / r2
        with np.errstate(divide="ignore"):
            k = np.where(root > 0, r2 * np.abs(s) / np.where(root > 0, root, 1.0), np.inf)
            tau = np.where(root > 0, -r2 * s / np.where(root > 0, root, 1.0), -sg * np.inf)
        return t, n, b, k, tau

    def cum_curvature(s):
        s = np.asarray(s, dtype=float)
        sg = np.where(s >= 0, 1.0, -1.0)
        return (np.pi / 2 + sg * np.arcsin(np.clip(s, -1, 1) ** 2)) / r2

    return ParamCurve(
        name="inflection",
        domain=(-1.0, 1.0),
        position=position,
        d1=d1,
        frame=frame,
        cum_curvature=cum_curvature,
        cum_abs_torsion=cum_curvature,  # |tau| = k for this curve
    )


def polyline_curve(P):
    """A polygonal as a unit-speed ParamCurve (fixed point of refinement)."""
    if np.any(P.segment_lengths <= 0):
        raise DegeneratePolygonal("zero-length segment")
    verts = P.vertex_ring()
    knots = P.arclength_of_vertices()

    def position(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.interp(s, knots, verts[:, k]) for k in range(3)], axis=-1)

    return ParamCurve(
        name="polyline",
        domain=(0.0, float(knots[-1])),
        position=position,
        closed=P.closed,
    )


# ---------------------------------------------------------------------------
# Frenet-Serret integration
# ---------------------------------------------------------------------------

ENDPOINT_TOL = 1e-8  # endpoint shift that ends step halving when step=None
MAX_HALVINGS = 10


def frenet_ode_curve(k_profile, tau_profile, domain, step=None, start=None):
    """Generate a unit-speed curve by integrating dc = t together with the
    Frenet-Serret system for the frame (t, n, b).

    Each step rotates the frame about its Darboux vector tau t + k b by the
    fourth-order Magnus exponential built from the two Gauss points of the
    step, so the frame is a product of rotations and stays orthonormal by
    construction.  The position advances by the corrected trapezoid rule
    h/2 (t_i + t_{i+1}) + h^2/12 (k_i n_i - k_{i+1} n_{i+1}).  The curve
    carries cum_curvature / cum_abs_torsion closures built from the same
    Gauss-point values of the profiles.

    A given step must be finite and positive.  With step=None the step is
    halved (from 256 steps, at most MAX_HALVINGS times) until the endpoint
    moves by less than ENDPOINT_TOL under one further halving.  Profiles are
    scalar callables and must be finite at every node and Gauss point;
    otherwise BlowUp is raised (truncate the domain below the singularity).
    """
    a, b = float(domain[0]), float(domain[1])
    if not (b > a):
        raise ValueError("empty domain")
    if start is None:
        start = (np.zeros(3), np.eye(3))
    else:
        start = (np.asarray(start[0], dtype=float), np.array(start[1:], dtype=float))

    if step is not None:
        if not (np.isfinite(step) and step > 0):
            raise ValueError(f"step must be a finite positive number, got {step}")
        return _integrate_frenet(k_profile, tau_profile, a, b, step, start)

    n_steps = 256
    prev = _integrate_frenet(k_profile, tau_profile, a, b, (b - a) / n_steps, start)
    for _ in range(MAX_HALVINGS):
        n_steps *= 2
        cur = _integrate_frenet(k_profile, tau_profile, a, b, (b - a) / n_steps, start)
        shift = float(np.linalg.norm(cur.position(b) - prev.position(b)))
        prev = cur
        if shift < ENDPOINT_TOL:
            return cur
    raise BlowUp("endpoint did not stabilize; profile may be too singular")


def _profile_values(fn, s):
    """fn at every entry of the array s; a pole, an overflow or a non-finite
    value raises BlowUp.  fn is called once on the whole array when it
    answers with an array of that shape or a scalar; a profile that branches
    in Python on its argument is called point by point."""
    s = np.asarray(s, dtype=float)
    vals = np.empty(s.shape)
    try:
        try:
            with np.errstate(all="ignore"):
                whole = np.asarray(fn(s), dtype=float)
            if whole.shape not in ((), s.shape):
                raise ValueError("profile does not map arrays pointwise")
            vals[...] = whole
        except (TypeError, ValueError):
            vals.flat = [fn(x) for x in s.ravel().tolist()]
    except (ZeroDivisionError, OverflowError) as exc:
        raise BlowUp(f"profile is not finite on the domain ({exc}); truncate it") from exc
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise BlowUp(f"profile is not finite at s = {s[bad][0]}; truncate the domain")
    return vals


def _rotations(w):
    """Rotation exp(hat(w)) for each row of w, built in one (m, 3, 3) array
    as cos(theta) I + sinc(theta) hat(w) + (1 - cos(theta))/theta^2 w w^T."""
    theta = np.sqrt(np.einsum("ij,ij->i", w, w))
    c1 = np.sinc(theta / np.pi)
    c2 = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    out = np.einsum("i,ij,ik->ijk", c2, w, w)
    cw = c1[:, None] * w
    cos = np.cos(theta)
    # hat(w)[k, j] = w_l = -hat(w)[j, k] for (j, k, l) cyclic
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[:, j, j] += cos
        out[:, k, j] += cw[:, l]
        out[:, j, k] -= cw[:, l]
    return out


def _integrate_frenet(k_profile, tau_profile, a, b, step, start):
    n_steps = max(int(np.ceil((b - a) / step)), 1)
    h = (b - a) / n_steps
    s_nodes = np.linspace(a, b, n_steps + 1)
    s_all = np.concatenate([s_nodes, s_nodes[:-1] + _GAUSS * h, s_nodes[1:] - _GAUSS * h])
    cuts = [n_steps + 1, 2 * n_steps + 1]
    k_nodes, k1, k2 = np.split(_profile_values(k_profile, s_all), cuts)
    # the node values of tau are only checked for finiteness
    _, tau1, tau2 = np.split(_profile_values(tau_profile, s_all), cuts)

    # Magnus step Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1], where
    # A = hat(-(tau, 0, k)) acts on the rows (t, n, b) of the frame matrix
    magnus = np.stack(
        [
            -0.5 * h * (tau1 + tau2),
            np.sqrt(3.0) / 12.0 * h**2 * (k2 * tau1 - tau2 * k1),
            -0.5 * h * (k1 + k2),
        ],
        axis=-1,
    )
    # frames[i] = E_{i-1} ... E_0 frames[0]: prefix products by doubling
    prods = _rotations(magnus)
    lag = 1
    while lag < n_steps:
        prods[lag:] = prods[lag:] @ prods[:-lag]
        lag *= 2
    frames = np.concatenate([start[1][None], prods @ start[1]])
    t_nodes, n_nodes = frames[:, 0], frames[:, 1]
    kn = k_nodes[:, None] * n_nodes
    moves = 0.5 * h * (t_nodes[:-1] + t_nodes[1:]) + h**2 / 12.0 * (kn[:-1] - kn[1:])
    c_nodes = start[0] + np.concatenate([np.zeros((1, 3)), np.cumsum(moves, axis=0)])
    # cubic Hermite of each step in powers of u, from its end positions and
    # tangents
    chords = np.diff(c_nodes, axis=0)
    m0, m1 = h * t_nodes[:-1], h * t_nodes[1:]
    cubic = (c_nodes[:-1], m0, 3.0 * chords - 2.0 * m0 - m1, m0 + m1 - 2.0 * chords)

    def cell(s_query):
        sq = np.atleast_1d(np.clip(np.asarray(s_query, dtype=float), a, b))
        x = (sq - a) / h
        idx = np.minimum(x.astype(np.intp), n_steps - 1)
        return sq, idx, x - idx

    def position(s_query):
        _, idx, u = cell(s_query)
        u = u[:, None]
        out = cubic[3][idx]
        for coef in cubic[2::-1]:  # Horner, in place
            out *= u
            out += coef[idx]
        return out[0] if np.ndim(s_query) == 0 else out

    def frame(s_query):
        # inside a step the frame turns by the same fraction of its rotation
        sq, idx, u = cell(s_query)
        fr = _rotations(u[:, None] * magnus[idx]) @ frames[idx]
        k = _profile_values(k_profile, sq)
        tau = _profile_values(tau_profile, sq)
        return fr[:, 0], fr[:, 1], fr[:, 2], k, tau

    def cumulative(f1, f2):
        # each step integrates the line through its two Gauss-point values,
        # so the node values are the Gauss-Legendre sums
        at_nodes = np.concatenate([[0.0], np.cumsum(0.5 * h * (f1 + f2))])
        slope = np.sqrt(3.0) * (f2 - f1)

        def closure(s_query):
            _, idx, u = cell(s_query)
            out = at_nodes[idx] + h * u * (f1[idx] + slope[idx] * (0.5 * u - _GAUSS))
            return out[0] if np.ndim(s_query) == 0 else out

        return closure

    return ParamCurve(
        name="frenet_ode",
        domain=(a, b),
        position=position,
        frame=frame,
        cum_curvature=cumulative(k1, k2),
        cum_abs_torsion=cumulative(np.abs(tau1), np.abs(tau2)),
    )


# ---------------------------------------------------------------------------
# inscription
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inscription:
    """Inscribed polygonal together with its mesh (longest chord) and its
    modulus (largest sub-arc diameter).

    Any two tangents of a sub-arc turning by less than pi/2 are less than
    pi/2 apart, so distances grow along it and its diameter is its chord
    (Milnor 1950).  A cell with a positive chord whose turn, by the curve's
    cum_curvature closure, is below TURN_CERTIFIED is certified unsampled.
    Other cells, and all cells of a curve without a closure, take the exact
    maximum over all pairs of N_SUB_MODULUS samples whose end samples are
    the cell's vertices, so mesh <= modulus holds exactly.
    """

    polygonal: Polygonal3
    mesh: float
    modulus: float


N_SUB_MODULUS = 64
# well below pi/2, because a closure carries its own quadrature error
TURN_CERTIFIED = np.pi / 4


def inscribe(c, params):
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.size < 2 or np.any(np.diff(params) <= 0):
        raise ValueError("params must be strictly increasing with >= 2 entries")
    verts = c.eval(params)
    chords = np.linalg.norm(np.diff(verts, axis=0), axis=1)
    mesh = float(np.max(chords))

    turn = np.inf if c.cum_curvature is None else np.diff(c.cum_curvature(params))
    sampled = np.flatnonzero(~((chords > 0) & (turn < TURN_CERTIFIED)))
    max_d2 = 0.0
    if sampled.size:
        lam = np.linspace(0.0, 1.0, N_SUB_MODULUS)[1:-1]
        sub = params[sampled, None] + np.diff(params)[sampled, None] * lam[None, :]
        inner = c.eval(sub.reshape(-1)).reshape(sub.shape + (3,))
        pts = np.concatenate([verts[sampled, None], inner, verts[sampled + 1, None]], axis=1)
        # exact all-pairs maximum, one sample lag at a time
        for lag in range(1, N_SUB_MODULUS):
            d = pts[:, lag:] - pts[:, :-lag]
            max_d2 = max(max_d2, float(np.max(np.sum(d * d, axis=-1))))
    modulus = max(mesh, float(np.sqrt(max_d2)))

    scale = max(float(np.max(np.abs(verts))), 1.0)
    closed = bool(
        c.closed and np.linalg.norm(verts[0] - verts[-1]) <= 1e-9 * scale
    )
    if closed:
        verts = verts[:-1]
    return Inscription(Polygonal3(verts, closed=closed), mesh, modulus)


# ---------------------------------------------------------------------------
# model registry (CLI surface)
# ---------------------------------------------------------------------------


_MODEL_PARAMS = {
    "helix": ("R", "K"),
    "circle": ("R",),
    "inflection": (),
    "blowup": ("delta", "step"),
}


def make_curve(model, **params):
    """Build a curve from a model name and a parameter map.  A parameter
    name the model does not take raises ValueError."""
    if model not in _MODEL_PARAMS:
        raise UnknownModel(f"unknown curve model {model!r}")
    unknown = sorted(set(params) - set(_MODEL_PARAMS[model]))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for model {model!r}; "
            f"accepted: {', '.join(_MODEL_PARAMS[model]) or 'none'}"
        )
    if model == "helix":
        return helix(R=params.get("R", 1.0), K=params.get("K", 2 * np.pi))
    if model == "circle":
        return helix(R=params.get("R", 1.0), K=0.0)
    if model == "inflection":
        return inflection_curve()
    # blowup
    delta = params.get("delta", 1e-2)
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    step = params.get("step", min(delta / 50.0, 1e-3))
    return frenet_ode_curve(
        lambda s: 1.0, lambda s: 1.0 / (1.0 - s), (0.0, 1.0 - delta), step=step
    )
