"""Force-measure experiment: torsion force of the helix and the inflection
curve, the Darboux curvatures of the helix tantrix, and the first-variation
pairing residuals under quadrature refinement.

    python3 scripts/force_tables.py
"""

import numpy as np

from weakfrenet import forces, weak
from weakfrenet.curves import helix, inflection_curve


def main():
    c = helix(1.0, 2 * np.pi)
    seq = weak.refine(c, levels=6, base_n=64)
    t_c = weak.weak_tantrix(seq)

    print("=== helix R=1, K=2pi ===")
    T = forces.torsion_force(c, t_c, n_density=8192)
    norms = np.linalg.norm(T.density_values, axis=1)
    print(f"torsion-force density norm: {norms.min():.6f} .. {norms.max():.6f} "
          f"(tau/k = 1)")
    print(f"total mass {T.density_mass:.8f}   int |tau| = {np.pi*np.sqrt(2):.8f}")
    print(f"atoms: {len(T.atoms)}")

    ks = np.linspace(0.2 * t_c.total_length, 0.8 * t_c.total_length, 9)
    kg, kn = forces.darboux_curvatures(t_c, ks, h=0.02)
    print(f"geodesic curvature of the tantrix: {kg.mean():.6f} (tau/k = 1)")
    print(f"normal curvature of the tantrix:  {kn.mean():.6f} (-1)")

    fields = forces.make_tangential_bumps(c, 5, seed=42, profile="sin")
    print("pairing residuals under quadrature refinement:")
    for n in (256, 512, 1024, 2048):
        rep = forces.first_variation_check(c, T, fields, n_quad=n)
        print(f"  n={n:5d}: max relative mismatch {rep.max_mismatch:.3e}")

    print("\n=== inflection curve ===")
    ci = inflection_curve()
    seqi = weak.refine(ci, levels=6, base_n=64)
    ti = weak.weak_tantrix(seqi)
    Ti = forces.torsion_force(ci, ti)
    for param, w in Ti.atoms:
        print(f"torsion-force atom at k = {param:.6f} "
              f"(pi/(2 sqrt 2) = {np.pi/(2*np.sqrt(2)):.6f}), "
              f"norm {np.linalg.norm(w):.9f} (2)")
    bi = weak.weak_binormal(seqi)
    BV = forces.binormal_variation(ci, bi)
    print(f"binormal-variation atoms: {len(BV.atoms)} (no corner points)")
    print(f"binormal-variation mass {BV.total_variation:.8f}   "
          f"int k = {np.pi/np.sqrt(2):.8f}")


if __name__ == "__main__":
    main()
