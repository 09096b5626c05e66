"""Curvature force and torsion force as finite vector measures.

A measure is stored as a finite atom list plus a piecewise-constant density
on a quadrature grid; that is all the pairing formulas and total-variation
bookkeeping need.  The torsion force lives on the cumulative-curvature
domain [0, TC]; its absolutely continuous part is the push-forward of
tau * b ds, with density (tau/k)(s1(k)) b(s1(k)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnboundedVariationWarning, ZeroTorsionDensity
from .polygonal import Polygonal3
from .sphere import unit

CORNER_THRESHOLD = 0.3  # rad; refinement junctions stay far below this


@dataclass(frozen=True)
class VectorMeasure:
    """Finite vector measure on an interval: atoms plus sampled density."""

    atoms: tuple  # ((param, weight 3-vector), ...)
    density_params: np.ndarray
    density_values: np.ndarray
    density_steps: np.ndarray
    domain: tuple
    kind: str  # 'arclength' | 'cum_curvature' | 'cum_torsion'

    @property
    def atom_mass(self):
        return float(sum(np.linalg.norm(w) for _, w in self.atoms))

    @property
    def density_mass(self):
        if self.density_params.size == 0:
            return 0.0
        return float(
            np.sum(np.linalg.norm(self.density_values, axis=1) * self.density_steps)
        )

    @property
    def total_variation(self):
        return self.atom_mass + self.density_mass

    def pair(self, fn):
        """<measure, xi> = sum_atoms w . xi(p) + int density . xi, for a
        vectorized field fn: (m,) -> (m, 3)."""
        total = 0.0
        if self.atoms:
            ps = np.array([p for p, _ in self.atoms])
            ws = np.array([w for _, w in self.atoms])
            total += float(np.sum(ws * np.atleast_2d(fn(ps))))
        if self.density_params.size:
            vals = np.atleast_2d(fn(self.density_params))
            total += float(
                np.sum(np.sum(self.density_values * vals, axis=1) * self.density_steps)
            )
        return total


def _empty_measure(domain, kind):
    return VectorMeasure(
        atoms=(),
        density_params=np.zeros(0),
        density_values=np.zeros((0, 3)),
        density_steps=np.zeros(0),
        domain=domain,
        kind=kind,
    )


def _midpoint_grid(a, b, n):
    step = (b - a) / n
    return a + step * (np.arange(n) + 0.5), step


def curvature_force(obj, n_density=2048, corners=()):
    """Distributional derivative of the tangent: atoms t_{i+1} - t_i at the
    corners, density k n on smooth arcs.

    Polygonal input gives a purely atomic measure on the arc-length domain;
    a ParamCurve with an analytic frame gives the sampled density, plus one
    atom per entry of `corners` (parameters of tangent jumps of a piecewise
    smooth curve, with one-sided tangents from the first derivative).
    """
    if isinstance(obj, Polygonal3):
        fr = obj.frenet
        cum = obj.arclength_of_vertices()
        # junction j joins segments j and j + 1 (mod m when closed)
        n_junc = fr.turning_angles.size
        jumps = np.roll(fr.tangents, -1, axis=0)[:n_junc] - fr.tangents[:n_junc]
        return VectorMeasure(
            atoms=tuple(zip(cum[1 : n_junc + 1].tolist(), jumps)),
            density_params=np.zeros(0),
            density_values=np.zeros((0, 3)),
            density_steps=np.zeros(0),
            domain=(0.0, float(cum[-1])),
            kind="arclength",
        )

    curve = obj
    if not curve.has_frame:
        raise ValueError("need a Polygonal3 or a ParamCurve with a frame")
    a, b = curve.domain
    params, step = _midpoint_grid(a, b, n_density)
    t, n, _, k, _ = curve.frame(params)
    values = k[:, None] * n
    atoms = []
    eps = 1e-8 * (b - a)
    for s in corners:
        t_minus = unit(curve.d1(s - eps))
        t_plus = unit(curve.d1(s + eps))
        atoms.append((float(s - a), t_plus - t_minus))
    return VectorMeasure(
        atoms=tuple(atoms),
        density_params=params - a,
        density_values=values,
        density_steps=np.full(n_density, step),
        domain=(0.0, b - a),
        kind="arclength",
    )


def tc_star(measure):
    """(TC*, TC): chordal vs spherical total variation of a curvature force.
    Atoms count 2 sin(theta/2) chordally but theta spherically; TC* < TC
    exactly when an atom exists."""
    tc_star_val = measure.total_variation
    tc_val = measure.density_mass
    for _, w in measure.atoms:
        half = np.clip(np.linalg.norm(w) / 2.0, -1.0, 1.0)
        tc_val += 2.0 * float(np.arcsin(half))
    return tc_star_val, tc_val


# ---------------------------------------------------------------------------
# cumulative reparameterizations
# ---------------------------------------------------------------------------


def _cumulative_table(curve, which, n_dense=4096):
    """Monotone table (s_grid, cumulative integral) for k or |tau|, from the
    curve's cum_curvature / cum_abs_torsion closure."""
    a, b = curve.domain
    s_grid = np.linspace(a, b, n_dense + 1)
    closure = curve.cum_curvature if which == "k" else curve.cum_abs_torsion
    return s_grid, np.asarray(closure(s_grid), dtype=float)


def _corner_atoms(polyline, total, threshold):
    """Atoms t_out - t_in at the corners of `polyline` that turn by more than
    threshold; trivial arcs are skipped.  Corner parameters are rescaled from
    the discrete curve's domain [0, C_h] onto the limit domain [0, total]
    (constant-speed matching)."""
    c = polyline.corners(min_arc=1e-12)
    big = c.turn > threshold
    length = polyline.total_length
    params = c.params[big] * (total / length if length > 0 else 1.0)
    return tuple(zip(params.tolist(), c.t_out[big] - c.t_in[big]))


def torsion_force(
    curve,
    t_c,
    n_density=4096,
    corner_threshold=CORNER_THRESHOLD,
    level_turnings=None,
):
    """Torsion force on [0, TC]: tangential part of the derivative of the
    weak tantrix velocity.

    Absolutely continuous part: density (tau/k)(s1(k)) b(s1(k)) dk, the
    push-forward of tau b ds through the cumulative curvature.  Singular
    part: one atom per corner of t_c, weight = jump of the one-sided unit
    tangents (norm 2 sin(theta/2)).
    """
    if level_turnings is not None and len(level_turnings) >= 2:
        if level_turnings[-1] > 1.25 * level_turnings[0]:
            warnings.warn(
                "variation of the tantrix derivative grows across levels; "
                "the torsion force may not be a finite measure",
                UnboundedVariationWarning,
            )
    s_grid, cum = _cumulative_table(curve, "k")
    total = float(cum[-1])
    params, step = _midpoint_grid(0.0, total, n_density)
    s1 = np.interp(params, cum, s_grid)
    _, _, bvec, k, tau = curve.frame(s1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(k) > 1e-300, tau / k, 0.0)
    values = ratio[:, None] * bvec

    poly = t_c.curve if hasattr(t_c, "curve") else t_c
    return VectorMeasure(
        atoms=_corner_atoms(poly, total, corner_threshold),
        density_params=params,
        density_values=values,
        density_steps=np.full(n_density, step),
        domain=(0.0, total),
        kind="cum_curvature",
    )


def binormal_variation(
    curve,
    b_c,
    n_density=4096,
    corner_threshold=CORNER_THRESHOLD,
    zero_fraction=0.05,
):
    """Tangential variation measure of the weak binormal, on [0, TAT].

    Density sgn(tau) (k/|tau|)(s2(t)) n(s2(t)) in the lifted chart, with
    total mass int k ds; atoms at corners of b_c.  Torsion vanishing on a
    set of positive measure leaves the density undefined there.
    """
    s_grid, cum = _cumulative_table(curve, "tau")
    total = float(cum[-1])
    if total < 1e-12:
        # planar input: the binormal never moves, the measure lives nowhere
        return _empty_measure((0.0, 0.0), "cum_torsion")
    a, b = curve.domain
    probe = np.linspace(a, b, 4097)
    _, _, _, _, tau_probe = curve.frame(probe)
    frac = float(np.mean(np.abs(tau_probe) < 1e-12))
    if frac > zero_fraction:
        raise ZeroTorsionDensity(
            f"torsion vanishes on about {frac:.0%} of the domain"
        )
    params, step = _midpoint_grid(0.0, total, n_density)
    s2 = np.interp(params, cum, s_grid)
    _, nvec, _, k, tau = curve.frame(s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(tau) > 1e-12, np.sign(tau) * k / np.abs(tau), 0.0)
    values = ratio[:, None] * nvec

    poly = b_c.curve if hasattr(b_c, "curve") else b_c
    return VectorMeasure(
        atoms=_corner_atoms(poly, total, corner_threshold),
        density_params=params,
        density_values=values,
        density_steps=np.full(n_density, step),
        domain=(0.0, total),
        kind="cum_torsion",
    )


# ---------------------------------------------------------------------------
# first-variation pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestField:
    """Lipschitz test field xi on the measure's domain, vanishing at the
    endpoints; derivative falls back to central differences when absent."""

    __test__ = False  # not a pytest class

    value: callable
    derivative: callable = None

    def deriv(self, x, h):
        if self.derivative is not None:
            return self.derivative(x)
        return (self.value(x + h) - self.value(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class PairingReport:
    lhs: tuple
    rhs: tuple
    mismatch: tuple  # relative

    @property
    def max_mismatch(self):
        return max(self.mismatch) if self.mismatch else 0.0


def first_variation_check(curve, measure, fields, n_quad=4096):
    """Check delta_xi(length) = -<measure, xi> for each test field.

    For an arc-length measure the left side is the quadrature of t . xi';
    for a cumulative-curvature measure it is the quadrature of
    dt_c/dk . xi' = n(s1(k)) . xi'(k) (tangential fields).
    """
    if n_quad < 1:
        raise ValueError(f"n_quad must be at least 1, got {n_quad}")
    a, b = measure.domain
    grid = np.linspace(a, b, n_quad + 1)
    h_fd = (b - a) * 1e-7

    if measure.kind == "arclength":
        ca, _ = curve.domain
        t, _, _, _, _ = curve.frame(grid + ca)
        speed = t
    elif measure.kind == "cum_curvature":
        s_grid, cum = _cumulative_table(curve, "k")
        s1 = np.interp(grid, cum, s_grid)
        _, nvec, _, _, _ = curve.frame(s1)
        speed = nvec
    else:
        raise ValueError(f"no pairing rule for measures of kind {measure.kind!r}")

    trapz = getattr(np, "trapezoid", None) or np.trapz
    lhs, rhs, mism = [], [], []
    for f in fields:
        xdot = np.atleast_2d(f.deriv(grid, h_fd))
        integrand = np.sum(speed * xdot, axis=1)
        left = float(trapz(integrand, grid))
        right = -measure.pair(f.value)
        scale = max(abs(left), abs(right), 1e-12)
        lhs.append(left)
        rhs.append(right)
        mism.append(abs(left - right) / scale)
    return PairingReport(tuple(lhs), tuple(rhs), tuple(mism))


def make_tangential_bumps(curve, count, seed=0, profile="sin2"):
    """Random smooth fields xi(k) = phi(k) * (w - (w.t)t) along the tantrix
    of a smooth curve: tangential, vanishing at the endpoints, with analytic
    derivatives via the chain rule.

    profile 'sin2' (default) gives sin^2(pi k/C), whose flat ends make the
    trapezoid pairing superconvergent; 'sin' gives sin(pi k/C) with the
    classical O(n^-2) quadrature error, useful for observing the rate.
    """
    s_grid, cum = _cumulative_table(curve, "k")
    C = float(cum[-1])
    rng = np.random.default_rng(seed)
    if profile == "sin2":
        phi_fn = lambda a: np.sin(np.pi * a / C) ** 2
        dphi_fn = lambda a: np.sin(2.0 * np.pi * a / C) * np.pi / C
    elif profile == "sin":
        phi_fn = lambda a: np.sin(np.pi * a / C)
        dphi_fn = lambda a: np.cos(np.pi * a / C) * np.pi / C
    else:
        raise ValueError(f"unknown profile {profile!r}")
    fields = []
    for _ in range(count):
        w = rng.normal(size=3)

        def value(kk, w=w):
            scalar = np.ndim(kk) == 0
            arr = np.atleast_1d(np.asarray(kk, dtype=float))
            s1 = np.interp(arr, cum, s_grid)
            t, _, _, _, _ = curve.frame(s1)
            out = phi_fn(arr)[:, None] * (w - np.sum(w * t, axis=1)[:, None] * t)
            return out[0] if scalar else out

        def derivative(kk, w=w):
            scalar = np.ndim(kk) == 0
            arr = np.atleast_1d(np.asarray(kk, dtype=float))
            s1 = np.interp(arr, cum, s_grid)
            t, n, _, _, _ = curve.frame(s1)
            wt = np.sum(w * t, axis=1)[:, None]
            wn = np.sum(w * n, axis=1)[:, None]
            # dt/dk along the tantrix is the principal normal
            out = dphi_fn(arr)[:, None] * (w - wt * t) + phi_fn(arr)[:, None] * (
                -(wn * t) - wt * n
            )
            return out[0] if scalar else out

        fields.append(TestField(value=value, derivative=derivative))
    return fields


# ---------------------------------------------------------------------------
# Darboux curvatures of the tantrix by finite differences
# ---------------------------------------------------------------------------


def darboux_curvatures(t_c, k_values, h):
    """Geodesic and normal curvature of the (weak) tantrix at the given
    parameters, from central second differences with step h.

    For the tantrix of a smooth curve these equal tau/k and -1.
    """
    poly = t_c.curve if hasattr(t_c, "curve") else t_c
    k_values = np.asarray(k_values, dtype=float)
    p0 = poly.eval(k_values)
    pp = poly.eval(k_values + h)
    pm = poly.eval(k_values - h)
    second = (pp - 2.0 * p0 + pm) / h**2
    nrm = p0
    tvec = (pp - pm) / (2.0 * h)
    tvec = unit(tvec - np.sum(tvec * nrm, axis=-1, keepdims=True) * nrm)
    conormal = np.cross(nrm, tvec)
    kg = np.sum(second * conormal, axis=-1)
    kn = np.sum(second * nrm, axis=-1)
    return kg, kn
