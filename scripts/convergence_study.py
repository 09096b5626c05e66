"""Convergence tables for the reference curves.

Prints per-level mesh/modulus/TC/TAT/CT for the helix and the inflection
curve, together with the extrapolated limits and the reparameterization
identity deviations.  Run from the repository root:

    python3 scripts/convergence_study.py [--levels 8] [--base-n 64]
"""

import argparse

import numpy as np

from weakfrenet import weak
from weakfrenet.curves import helix, inflection_curve


def study(name, curve, levels, base_n, targets):
    print(f"\n=== {name} (levels={levels}, base_n={base_n}) ===")
    seq = weak.refine(curve, levels=levels, base_n=base_n)
    header = f"{'n':>7} {'mesh':>11} {'modulus':>11} {'TC':>12} {'TAT':>12} {'CT':>12}"
    print(header)
    for lv in seq.levels:
        print(
            f"{lv.n_params:>7} {lv.mesh:>11.3e} {lv.modulus:>11.3e} "
            f"{lv.tc:>12.8f} {lv.tat:>12.8f} {lv.ct:>12.8f}"
        )
    meshes = [lv.mesh for lv in seq.levels]
    for key, target in targets.items():
        vals = [getattr(lv, key) for lv in seq.levels]
        est = weak.estimate_limit(vals, meshes)
        print(
            f"{key.upper():>4} limit estimate {est:.8f}   target {target:.8f}   "
            f"dev {abs(est - target):.2e}"
        )
    rep = weak.verify_reparam_identities(
        curve, weak.weak_tantrix(seq), weak.weak_binormal(seq), weak.weak_normal(seq)
    )
    print(
        "identity deviations: "
        f"binormal {rep.binormal_dev:.2e}  tantrix {rep.tantrix_dev:.2e}  "
        f"normal {rep.normal_dev:.2e}"
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--levels", type=int, default=8)
    parser.add_argument("--base-n", type=int, default=64)
    args = parser.parse_args()

    pi_r2 = np.pi * np.sqrt(2.0)
    study(
        "helix R=1, K=2pi",
        helix(1.0, 2 * np.pi),
        args.levels,
        args.base_n,
        {"tc": pi_r2, "tat": pi_r2, "ct": pi_r2},
    )
    half = np.pi / np.sqrt(2.0)
    study(
        "inflection curve",
        inflection_curve(),
        args.levels,
        args.base_n,
        {"tc": half, "tat": half, "ct": half + np.pi},
    )


if __name__ == "__main__":
    main()
