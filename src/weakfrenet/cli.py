"""Command-line front door: analyze polygonal files, run convergence
studies on curve models, dump force-measure tables, search for the torsion
non-monotonicity witness, and lift projective polylines.

Reports are JSON (schema 1) on stdout; polylines are CSV files for
plotting.  Exit codes: 0 ok, 2 parse/validation or any other package error,
3 non-convergence, 4 search failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import forces, weak
from .curves import make_curve
from .errors import (
    AmbiguousReturnPoint,
    NotConverged,
    ParseError,
    SearchFailed,
    WeakFrenetError,
    ZeroTorsion,
)
from .polygonal import (
    Polygonal3,
    binormal_indicatrix,
    nonmonotonicity_witness,
    normal_indicatrix,
    polygonal_measures,
    sanitize,
    tantrix,
)
from .sphere import canon_rep

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CONVERGED = 3
EXIT_SEARCH_FAILED = 4

# uniform samples of an indicatrix CSV besides its breakpoints, and the
# coarsest grid of a converge CSV
N_UNIFORM = 512
CSV_BLOCK = 8192  # CSV rows formatted at once


# ---------------------------------------------------------------------------
# input/output helpers
# ---------------------------------------------------------------------------


def read_polygonal(path):
    """Polygonal from a plain-text vertex list ("x y z" per line, blank
    lines ignored, '#' comments) or a JSON record {"vertices": ..,
    "closed": bool}."""
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if path.endswith(".json"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", line=exc.lineno)
        if not isinstance(record, dict) or "vertices" not in record:
            raise ParseError('JSON polygonal needs a "vertices" field')
        verts = record["vertices"]
        closed = record.get("closed", False)
        if not isinstance(closed, bool):
            raise ParseError('"closed" must be a JSON boolean (true or false)')
    else:
        verts = _parse_vertex_text(text)
        closed = False
    arr = np.asarray(verts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 2:
        raise ParseError("need at least two 3-vectors")
    if not np.all(np.isfinite(arr)):
        raise ParseError("non-finite coordinate")
    return Polygonal3(arr, closed=closed)


def _parse_vertex_text(text):
    """Vertex rows of the text format.  Input without comments whose
    non-blank lines all hold three tokens is converted in one call; anything
    else goes line by line, so that a ParseError names its line."""
    lines = text.splitlines()
    if "#" not in text and set(map(len, map(str.split, lines))) <= {0, 3}:
        try:
            return np.array(list(map(float, text.split()))).reshape(-1, 3)
        except ValueError:
            pass  # a token float() rejects: the loop below names its line
    verts = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(f"expected 3 coordinates, got {len(parts)}", line=lineno)
        try:
            verts.append([float(x) for x in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno)
    return verts


def _write_csv(path, header, columns, sep=","):
    """Write `header`, then one line per row of the equal-length `columns`,
    each value the repr of its Python scalar (floats round-trip, ints stay
    ints).  Rows are formatted a column and CSV_BLOCK rows at a time, which
    bounds the Python objects alive at once.  Creates the parent directory;
    returns path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    columns = [np.asarray(c) for c in columns]
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, CSV_BLOCK):
            block = [map(repr, c[start:start + CSV_BLOCK].tolist()) for c in columns]
            fh.write("\n".join(map(sep.join, zip(*block))) + "\n")
    return path


def write_polygonal(path, P):
    return _write_csv(path, "# x y z", P.vertices.T, sep=" ")


def write_indicatrix_csv(path, curve, s=None):
    """CSV polyline: s,x,y,z (canonical representative) at the parameters s,
    by default at every breakpoint and N_UNIFORM uniform parameters;
    projective curves get an extra "sheet" column (+-1, lift relative to the
    canonical rep)."""
    if s is None:
        s = np.linspace(0.0, curve.total_length, N_UNIFORM)
        s = np.unique(np.concatenate([s, curve.cum_length]))
    pts = curve.eval(s)
    if curve.space != "projective":
        return _write_csv(path, "s,x,y,z", [s, *pts.T])
    canon = canon_rep(pts)
    sheet = np.where(np.sum(pts * canon, axis=1) >= 0, 1, -1)
    return _write_csv(path, "s,x,y,z,sheet", [s, *canon.T, sheet])


def write_density_csv(path, measure):
    return _write_csv(
        path, "param,vx,vy,vz,step",
        [measure.density_params, *measure.density_values.T, measure.density_steps],
    )


def _atom_table(measure):
    return [{"param": p, "weight": w.tolist(), "norm": float(np.linalg.norm(w))}
            for p, w in measure.atoms]


def _finite_numbers(values):
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def _mark_diverging(node):
    """Replace, in place, every non-finite float in the dicts and lists under
    `node` by "diverging".  A list of finite numbers, or of dicts of finite
    numbers (a row table), is cleared in one pass."""
    if isinstance(node, list) and (
        _finite_numbers(node)
        or set(map(type, node)) == {dict}
        and _finite_numbers([v for row in node for v in row.values()])
    ):
        return
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, float):
            if not math.isfinite(value):
                node[key] = "diverging"
        elif isinstance(value, (dict, list)):
            _mark_diverging(value)


def _publish(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _scalar_texts(values):
    """JSON text of each scalar in the non-empty list `values`, from one
    call of the C encoder (which runs only without `indent`).  A newline is
    a safe separator: JSON text escapes every newline inside a string."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


def _item_texts(values, depth):
    """JSON text of each item of the list `values`, nested `depth` deep:
    all scalars go through the C encoder at once, anything else one by one."""
    if set(map(type, values)) <= _SCALARS:
        return _scalar_texts(values)
    return [_to_json(v, depth) for v in values]


def _row_texts(rows, keys, depth):
    """JSON text of each dict in `rows`, all with the key set `keys`, nested
    `depth` deep: each key's column is encoded at once and the rows are
    filled into one template."""
    keys = sorted(keys)
    if not all(isinstance(k, str) for k in keys):
        raise TypeError("report keys must be strings")
    inner = ",\n" + "  " * (depth + 1)
    template = ("{" + inner[1:]
                + inner.join(k.replace("%", "%%") + ": %s" for k in _scalar_texts(keys))
                + "\n" + "  " * depth + "}")
    columns = [_item_texts([row[k] for row in rows], depth + 1) for k in keys]
    return list(map(template.__mod__, zip(*columns)))


def _to_json(node, depth=0):
    """The text json.dumps gives for `node` with indent=2 and sort_keys=True,
    with the scalars encoded by the C encoder a list at a time.  Keys must
    be strings.  A list of dicts that share one key set (the row tables of
    a report) is encoded a column at a time."""
    if isinstance(node, dict):
        return _row_texts([node], node, depth)[0] if node else "{}"
    if not isinstance(node, (list, tuple)):
        return json.dumps(node)
    if not node:
        return "[]"
    first = node[0]
    if (set(map(type, node)) == {dict} and first
            and all(map(first.keys().__eq__, map(dict.keys, node)))):
        items = _row_texts(node, first, depth + 1)
    else:
        items = _item_texts(node, depth + 1)
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def emit_report(report, path=None):
    """Print the report as indented JSON (json.dumps with indent=2 and
    sort_keys, byte for byte), and write it to `path` when given.
    Non-finite values are written as "diverging"."""
    _mark_diverging(report)
    _publish(_to_json(report), path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args, report):
    P = sanitize(read_polygonal(args.input))
    report["input"] = {
        "path": args.input,
        "vertices": int(P.n_vertices),
        "closed": P.closed,
        "return_points": list(P.return_points),
        "length": P.length,
        "mesh": P.mesh,
    }
    if P.return_points:
        report["status"] = "return-points"
        return EXIT_OK
    fr = P.frenet
    report.update(tc=fr.tc, tat=fr.tat, ct=fr.ct)
    meas = polygonal_measures(P)
    report["measures"] = {
        "curvature_atoms": [
            {"vertex": i, "angle": a}
            for i, a in zip(meas.atom_vertices.tolist(), meas.atom_angles.tolist())
        ],
        "torsion_density": [
            {"segment": i, "density": d, "length": l}
            for i, d, l in zip(meas.density_segments.tolist(), meas.densities.tolist(),
                               meas.density_lengths.tolist())
        ],
        "curvature_mass": meas.curvature_mass,
        "torsion_mass": meas.torsion_mass,
    }
    report["schedule"] = {"C": fr.cum_turning.tolist(), "T": fr.cum_torsion.tolist()}
    # build every indicatrix before writing any, so a failure leaves no file
    curves = {"tantrix": tantrix(P)}
    try:
        curves["binormal"] = binormal_indicatrix(P)
    except ZeroTorsion:
        report["binormal"] = "planar: polar degenerates to a point"
    if fr.tc + fr.tat > 0:
        curves["normal"] = normal_indicatrix(P)
    else:
        report["normal"] = "straight: TC + TAT vanishes"
    report["files"] = {name: write_indicatrix_csv(os.path.join(args.out, f"{name}.csv"), c)
                       for name, c in curves.items()}
    return EXIT_OK


def _parse_params(items):
    out = {}
    for item in items or []:
        for piece in item.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise ParseError(f"bad parameter {piece!r}; expected name=value")
            key, val = piece.split("=", 1)
            out[key.strip()] = float(val)
    return out


def cmd_converge(args, report):
    for flag, tol in (("--tol-converge", args.tol_converge),
                      ("--tol-identity", args.tol_identity)):
        if not tol >= 0:
            raise ValueError(f"{flag} must be a non-negative number, got {tol}")
    params = _parse_params(args.params)
    curve = make_curve(args.model, **params)
    seq = weak.refine(curve, levels=args.levels, base_n=args.base_n)
    table = seq.table()
    meshes = [row["mesh"] for row in table]
    report["input"] = {"model": args.model, "params": params,
                       "levels": args.levels, "base_n": args.base_n}
    report["levels"] = table
    for key in ("tc", "tat", "ct"):
        report[key] = weak.estimate_limit([row[key] for row in table], meshes)

    statuses = report["weak_status"] = {}
    files = report["files"] = {}

    def attempt(name, builder):
        """Build one limit and judge its Cauchy gap.  A limit over the
        tolerance is still returned, for the identities."""
        try:
            obj = builder(seq)
        except ZeroTorsion:
            statuses[name] = "zero-torsion"
            return None
        except AmbiguousReturnPoint:
            statuses[name] = "ambiguous-return-point"
            return None
        except NotConverged as exc:
            statuses[name] = f"not-converged: {exc}"
            return None
        if obj.cauchy_gap > args.tol_converge:
            statuses[name] = (f"not-converged: cauchy gap {obj.cauchy_gap:.3e} "
                              f"exceeds tol {args.tol_converge:.1e}")
            return obj
        statuses[name] = "ok"
        files[name] = write_indicatrix_csv(os.path.join(args.out, f"{name}.csv"), obj.curve,
                                           obj.resolution_params(N_UNIFORM))
        report[f"{name}_gap"] = obj.cauchy_gap
        if obj.warning:
            statuses[name] = f"warning: {obj.warning}"
        return obj

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_c = attempt("weak_tantrix", weak.weak_tantrix)
        b_c = attempt("weak_binormal", weak.weak_binormal)
        n_c = attempt("weak_normal", weak.weak_normal)

    if curve.has_frame:
        ident = weak.verify_reparam_identities(curve, t_c, b_c, n_c, tol=args.tol_identity)
        report["identities"] = ident.as_dict()
    if any(s.startswith("not-converged") for s in statuses.values()):
        report["status"] = "not-converged"
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _parse_vec(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ParseError("expected three comma-separated components")
    return np.array(parts)


def _curvature_force_block(K):
    star, tc = forces.tc_star(K)
    return {"atoms": _atom_table(K), "tc_star": star, "tc": tc}


def cmd_forces(args, report):
    if args.input:
        P = sanitize(read_polygonal(args.input))
        report["input"] = {"path": args.input}
        report["curvature_force"] = _curvature_force_block(forces.curvature_force(P))
        return EXIT_OK

    params = _parse_params(args.params)
    curve = make_curve(args.model, **params)
    if not curve.has_frame:
        raise WeakFrenetError("force tables for curve models need a frame")
    report["input"] = {"model": args.model, "params": params}
    files = report["files"] = {}
    K = forces.curvature_force(curve)
    files["curvature_density"] = write_density_csv(
        os.path.join(args.out, "curvature_density.csv"), K
    )
    report["curvature_force"] = _curvature_force_block(K)
    seq = weak.refine(curve, levels=args.levels, base_n=args.base_n)
    t_c = weak.weak_tantrix(seq)
    T = forces.torsion_force(curve, t_c)
    files["torsion_density"] = write_density_csv(
        os.path.join(args.out, "torsion_density.csv"), T
    )
    report["torsion_force"] = {
        "atoms": _atom_table(T),
        "total_variation": T.total_variation,
        "density_mass": T.density_mass,
    }
    try:
        b_c = weak.weak_binormal(seq)
        BV = forces.binormal_variation(curve, b_c)
        files["binormal_density"] = write_density_csv(
            os.path.join(args.out, "binormal_density.csv"), BV
        )
        report["binormal_variation"] = {
            "atoms": _atom_table(BV),
            "total_variation": BV.total_variation,
        }
    except WeakFrenetError as exc:
        report["binormal_variation"] = str(exc)
    fields = forces.make_tangential_bumps(curve, 5, seed=args.seed)
    pairing = forces.first_variation_check(curve, T, fields, n_quad=args.quad)
    report["pairing"] = {
        "max_mismatch": pairing.max_mismatch,
        "mismatch": list(pairing.mismatch),
    }
    return EXIT_OK


def cmd_witness(args, report):
    try:
        w = nonmonotonicity_witness(
            seed=args.seed, budget=args.budget, min_gap=args.min_gap
        )
    except SearchFailed as exc:
        report["status"] = f"search-failed: {exc}"
        return EXIT_SEARCH_FAILED
    report["files"] = {
        "P": write_polygonal(os.path.join(args.out, "witness_P.txt"), w.polygonal),
        "P_inscribed": write_polygonal(
            os.path.join(args.out, "witness_P_inscribed.txt"), w.inscribed
        ),
    }
    report.update(tat=w.tat, tat_inscribed=w.tat_inscribed, gap=w.gap,
                  length=w.polygonal.length, length_inscribed=w.inscribed.length)
    return EXIT_OK


def read_points_csv(path):
    rows = []
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body:
            continue
        parts = body.split(",")
        try:
            vals = [float(x) for x in parts]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise ParseError("non-numeric row", line=lineno)
        if len(vals) == 3:
            rows.append(vals)
        elif len(vals) >= 4:
            rows.append(vals[1:4])  # s,x,y,z
        else:
            raise ParseError("need x,y,z columns", line=lineno)
    if len(rows) < 1:
        raise ParseError("no points found")
    return np.asarray(rows, dtype=float)


def cmd_lift(args, report):
    from .sphere import GeodesicPolyline, lift_projective_polyline, unit

    pts = unit(read_points_csv(args.input))
    curve = GeodesicPolyline.from_projective_points(pts)
    seed = _parse_vec(args.seed_dir) if args.seed_dir else curve.points[0]
    lifted, closure = lift_projective_polyline(curve, unit(seed))
    path = _write_csv(os.path.join(args.out, "lifted.csv"), "s,x,y,z",
                      [lifted.cum_length, *lifted.points.T])
    report["input"] = {"path": args.input, "points": int(pts.shape[0])}
    report["closure_sign"] = closure
    report["length"] = lifted.total_length
    report["files"] = {"lifted": path}
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakfrenet",
        description="Weak Frenet data of polygonal and non-smooth space curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="directory for emitted files")
        p.add_argument("--report", default=None, help="also write the JSON report here")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="discrete Frenet data of a polygonal file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("converge", help="inscribed-refinement convergence study")
    p.add_argument("--model", required=True, help="helix | circle | inflection | blowup")
    p.add_argument("--params", action="append", help="name=value[,name=value...]")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--base-n", type=int, default=64)
    p.add_argument("--tol-converge", type=float, default=1e-3)
    p.add_argument("--tol-identity", type=float, default=1e-2)
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("forces", help="curvature/torsion force measures")
    p.add_argument("--input", default=None, help="polygonal file (atoms only)")
    p.add_argument("--model", default=None)
    p.add_argument("--params", action="append")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--base-n", type=int, default=64)
    p.add_argument("--quad", type=int, default=4096)
    common(p)
    p.set_defaults(func=cmd_forces)

    p = sub.add_parser("witness", help="inscribed polygonal with larger total torsion")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--min-gap", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("lift", help="continuous sphere lift of a projective CSV polyline")
    p.add_argument("input")
    p.add_argument("--seed-dir", default=None, help="x,y,z representative of the first point")
    common(p)
    p.set_defaults(func=cmd_lift)
    return parser


def main(argv=None):
    """Parse argv, let the subcommand fill in the report, and emit it.  A
    package or validation error replaces the report by a compact error
    record, printed and written to --report alike."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "forces" and not (args.input or args.model):
        parser.error("forces needs --input or --model")
    report = {"schema": 1, "command": args.command, "seed": args.seed,
              "timestamp": datetime.now(timezone.utc).isoformat(), "status": "ok"}
    try:
        code = args.func(args, report)
    except (WeakFrenetError, ValueError) as exc:
        error = {"schema": 1, "status": "error", "error": str(exc)}
        _publish(json.dumps(error), args.report)
        return EXIT_PARSE
    emit_report(report, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
