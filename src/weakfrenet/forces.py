"""Curvature force and torsion force as finite vector measures.

A measure is stored as a finite atom list plus a piecewise-constant density
on a quadrature grid; that is all the pairing formulas and total-variation
bookkeeping need.  The torsion force lives on the cumulative-curvature
domain [0, TC]; its absolutely continuous part is the push-forward of
tau * b ds, with density (tau/k)(s1(k)) b(s1(k)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import UnboundedVariationWarning, ZeroTorsionDensity
from .polygonal import Polygonal3
from .sphere import unit

CORNER_THRESHOLD = 0.3  # rad; refinement junctions stay far below this
# share of the domain on which the torsion may vanish before the binormal
# variation density counts as undefined
ZERO_TORSION_FRACTION = 0.05
N_REPARAM = 4096  # cells of the table a cumulative closure is inverted on


@dataclass(frozen=True)
class VectorMeasure:
    """Finite vector measure on an interval: atoms plus sampled density."""

    domain: tuple
    kind: str  # 'arclength' | 'cum_curvature' | 'cum_torsion'
    atoms: tuple = ()  # ((param, weight 3-vector), ...)
    density_params: np.ndarray = field(default_factory=lambda: np.zeros(0))
    density_values: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    density_steps: np.ndarray = field(default_factory=lambda: np.zeros(0))

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


def _midpoint_grid(a, b, n):
    step = (b - a) / n
    return a + step * (np.arange(n) + 0.5), step


def curvature_force(obj, n_density=2048, corners=()):
    """Distributional derivative of the tangent: atoms t_{i+1} - t_i at the
    corners, density k n on smooth arcs.

    Polygonal input gives a purely atomic measure on the arc-length domain,
    from its tangents (a point of return gets -2t, of norm 2 sin(pi/2));
    a ParamCurve with an analytic frame gives the sampled density, plus one
    atom per entry of `corners` (parameters of tangent jumps of a piecewise
    smooth curve, with one-sided tangents from the first derivative).
    """
    if isinstance(obj, Polygonal3):
        t = obj.tangents
        cum = obj.arclength_of_vertices()
        # junction j sits at vertex nxt[j], arc length cum[j + 1]
        j, nxt = obj.junctions()
        jumps = t[nxt] - t[j]
        return VectorMeasure(
            (0.0, float(cum[-1])),
            "arclength",
            atoms=tuple(zip(cum[j + 1].tolist(), jumps)),
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
        (0.0, b - a),
        "arclength",
        atoms=tuple(atoms),
        density_params=params - a,
        density_values=values,
        density_steps=np.full(n_density, step),
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
# push-forward through a cumulative reparameterization
# ---------------------------------------------------------------------------


def _reparam(curve, which):
    """(total, s_of): the whole-domain total of the curve's cum_curvature
    ('k') or cum_abs_torsion ('tau') closure, and its inverse x -> s by
    linear interpolation in a table of N_REPARAM cells."""
    a, b = curve.domain
    s_grid = np.linspace(a, b, N_REPARAM + 1)
    closure = curve.cum_curvature if which == "k" else curve.cum_abs_torsion
    cum = np.asarray(closure(s_grid), dtype=float)
    return float(cum[-1]), lambda x: np.interp(x, cum, s_grid)


def _pushforward(curve, reparam, limit, n_density, kind, density):
    """Measure on [0, total] of the reparameterization x -> s(x).

    Density: density(t, n, b, k, tau) of the frame at s(x) on a midpoint
    grid.  Atoms: t_out - t_in at each corner of limit.curve that turns by
    more than CORNER_THRESHOLD (trivial arcs skipped), its parameter
    rescaled from the discrete curve's domain [0, C_h] onto [0, total]
    (constant-speed matching).
    """
    total, s_of = reparam
    params, step = _midpoint_grid(0.0, total, n_density)
    frame = curve.frame(s_of(params))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = density(*frame)
    c = limit.curve.corners(min_arc=1e-12)
    big = c.turn > CORNER_THRESHOLD
    length = limit.total_length
    at = c.params[big] * (total / length if length > 0 else 1.0)
    return VectorMeasure(
        (0.0, total),
        kind,
        atoms=tuple(zip(at.tolist(), c.t_out[big] - c.t_in[big])),
        density_params=params,
        density_values=values,
        density_steps=np.full(n_density, step),
    )


def torsion_force(curve, t_c, n_density=4096, level_turnings=None):
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

    def density(t, n, b, k, tau):
        ratio = np.where(np.abs(k) > 1e-300, tau / k, 0.0)
        return ratio[:, None] * b

    return _pushforward(
        curve, _reparam(curve, "k"), t_c, n_density, "cum_curvature", density
    )


def binormal_variation(curve, b_c, n_density=4096):
    """Tangential variation measure of the weak binormal, on [0, TAT].

    Density sgn(tau) (k/|tau|)(s2(t)) n(s2(t)) in the lifted chart, with
    total mass int k ds; atoms at corners of b_c.  Torsion vanishing on
    more than ZERO_TORSION_FRACTION of the domain leaves the density
    undefined there and raises ZeroTorsionDensity.
    """
    total, s_of = _reparam(curve, "tau")
    if total < 1e-12:
        # planar input: the binormal never moves, the measure lives nowhere
        return VectorMeasure((0.0, 0.0), "cum_torsion")
    _, _, _, _, tau_probe = curve.frame(np.linspace(*curve.domain, N_REPARAM + 1))
    frac = float(np.mean(np.abs(tau_probe) < 1e-12))
    if frac > ZERO_TORSION_FRACTION:
        raise ZeroTorsionDensity(
            f"torsion vanishes on about {frac:.0%} of the domain"
        )

    def density(t, n, b, k, tau):
        ratio = np.where(np.abs(tau) > 1e-12, np.sign(tau) * k / np.abs(tau), 0.0)
        return ratio[:, None] * n

    return _pushforward(curve, (total, s_of), b_c, n_density, "cum_torsion", density)


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
        _, s_of = _reparam(curve, "k")
        _, nvec, _, _, _ = curve.frame(s_of(grid))
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
    C, s_of = _reparam(curve, "k")
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
            t, _, _, _, _ = curve.frame(s_of(arr))
            out = phi_fn(arr)[:, None] * (w - np.sum(w * t, axis=1)[:, None] * t)
            return out[0] if scalar else out

        def derivative(kk, w=w):
            scalar = np.ndim(kk) == 0
            arr = np.atleast_1d(np.asarray(kk, dtype=float))
            t, n, _, _, _ = curve.frame(s_of(arr))
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
    k_values = np.asarray(k_values, dtype=float)
    p0 = t_c.eval(k_values)
    pp = t_c.eval(k_values + h)
    pm = t_c.eval(k_values - h)
    second = (pp - 2.0 * p0 + pm) / h**2
    nrm = p0
    tvec = (pp - pm) / (2.0 * h)
    tvec = unit(tvec - np.sum(tvec * nrm, axis=-1, keepdims=True) * nrm)
    conormal = np.cross(nrm, tvec)
    kg = np.sum(second * conormal, axis=-1)
    kn = np.sum(second * nrm, axis=-1)
    return kg, kn
