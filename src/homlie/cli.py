"""Command-line interface.

Exit codes: 0 on success, 1 on validation problems (bad arguments,
unreadable files, preconditions not met), 2 on numerical failure
(blow-up or step underflow during flow integration).  Output is plain
text or CSV and is deterministic for fixed arguments.
"""

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import brackets as br
from . import classify as cl
from . import coordinates as co
from . import curvature as cu
from . import flow as fl

def _fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_json(path, doc):
    """Write doc as indented JSON plus a newline to path, or to stdout."""
    out = open(path, "w") if path else sys.stdout
    try:
        json.dump(doc, out, indent=1)
        out.write("\n")
    finally:
        if path:
            out.close()


def _print_report(rep):
    print(f"q = {rep.q}, n = {rep.n}, tol = {rep.tol!r}")
    print(f"jacobi residual      : {rep.h1_jacobi_residual!r}")
    print(f"subspace residual    : {rep.h1_subspace_residual!r}")
    print(f"isotropy closedness  : {rep.h2_status}")
    print(f"skewness residual    : {rep.h3_residual!r}")
    print(f"isotropy kernel dim  : {rep.h4_kernel_dim}")
    print(f"membership           : {'PASS' if rep.passed else 'FAIL'}")


def cmd_check(args):
    mu = br.read_bracket(args.bracket)
    tol = args.tol
    _print_report(br.check_membership(mu, tol=tol))
    return 0


def cmd_curvature(args):
    mu = br.read_bracket(args.bracket)
    br.require_member(mu)
    data = cu.curvature_data(mu)
    eigs = data.ricci_eigenvalues
    print("ricci endomorphism:")
    for row in data.ricci:
        print("  " + " ".join(repr(float(v)) for v in row))
    print("ricci eigenvalues (descending): " + " ".join(repr(float(v)) for v in eigs))
    print("scalar invariants f_k: " + " ".join(repr(float(v)) for v in data.invariants))
    if args.output:
        _write_json(args.output, data.to_dict())
    return 0


def cmd_invariants(args):
    mu = br.read_bracket(args.bracket)
    br.require_member(mu)
    fs = cu.scalar_invariants(mu)
    fp = cu.fingerprint(mu, args.order)
    print("scalar invariants f_k: " + " ".join(repr(float(v)) for v in fs))
    for k, t in enumerate(fp.tensors):
        print(f"|nabla^{k} Riem|^2 : {float(np.sum(t * t))!r}")
    if args.output:
        _write_json(args.output, fp.to_dict())
    return 0


def cmd_distance(args):
    mu = br.read_bracket(args.bracket)
    lam = br.read_bracket(args.other)
    if mu.n != lam.n:
        return _fail("tangent dimensions differ")
    print(f"{cu.invariant_distance(mu, lam, order=args.order)!r}")
    return 0


def cmd_jet(args):
    mu = br.read_bracket(args.bracket)
    br.require_member(mu)
    _write_json(args.output, co.metric_jet(mu, args.degree).to_dict())
    return 0


def _constants_columns(dim):
    return [(i, j, k) for i in range(dim) for j in range(i + 1, dim)
            for k in range(dim)]


def _read_trajectory_sample(path):
    """Last recorded state of a trajectory CSV written with --constants."""
    with open(path, newline="") as fh:
        meta = fh.readline().strip()
        rows = list(csv.reader(fh))
    try:
        parts = dict(tok.split("=") for tok in meta[2:].split())
        q, n = int(parts["q"]), int(parts["n"])
    except (KeyError, ValueError):
        raise ValueError(
            f"{path} starts with {meta!r}, not '# q=.. n=..'; resume needs a "
            "trajectory written with --constants") from None
    if q < 0 or n < 1 or q + n > br.MAX_DIM:
        raise ValueError(f"{path}: need q >= 0, n >= 1 and q + n <= {br.MAX_DIM}, "
                         f"got q = {q}, n = {n}")
    if len(rows) < 2:
        raise ValueError(f"{path} has no trajectory rows to resume from")
    header, last = rows[0], rows[-1]
    if len(last) != len(header):
        raise ValueError(f"{path}: the last row has {len(last)} fields, "
                         f"the header {len(header)}")
    dim = q + n
    c = np.zeros((dim, dim, dim))
    for i, j, k in _constants_columns(dim):
        try:
            col = header.index(f"c_{i}_{j}_{k}")
        except ValueError:
            raise ValueError(f"{path} is missing the c_{i}_{j}_{k} column")
        c[i, j, k] = float(last[col])
        c[j, i, k] = -c[i, j, k]
    return br.Bracket(q, n, c), float(last[header.index("t")])


def cmd_flow(args):
    if args.resume:
        mu, t_offset = _read_trajectory_sample(args.bracket)
    else:
        mu = br.read_bracket(args.bracket)
        t_offset = 0.0
    traj = fl.integrate(mu, args.t_end, normalized=args.normalized,
                        rtol=args.rtol, max_steps=args.max_steps,
                        record_stride=args.stride)
    index = tuple(zip(*_constants_columns(mu.dim)))
    rows = []
    for s in traj.samples:
        row = [t_offset + s.t, s.norm, s.residual]
        row.extend(s.ricci_eigenvalues)
        if args.constants:
            row.extend(s.bracket.c[index])
        rows.append(row)
    header = ["t", "norm", "soliton_residual"] + [f"ric_{i+1}" for i in range(mu.n)]
    if args.constants:
        header.extend(f"c_{i}_{j}_{k}" for i, j, k in _constants_columns(mu.dim))
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        if args.constants:
            out.write(f"# q={mu.q} n={mu.n}\n")
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])
    finally:
        if args.output:
            out.close()
    print(f"status: {traj.status}", file=sys.stderr)
    if traj.status in ("blow_up_detected", "step_underflow"):
        return 2
    return 0


def _parse_params(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if "/" in tok:
                out.append(Fraction(tok))
            elif tok.lstrip("+-").isdigit():
                out.append(int(tok))
            else:
                out.append(float(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameter {tok!r} in {text!r}") from None
    return out


def _parse_pair(text):
    """An integer pair written p:q."""
    try:
        p, q = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"expected an integer pair p:q, got {text!r}") from None
    return p, q


def cmd_family(args):
    try:
        ctor = cl.FAMILY_CONSTRUCTORS[args.name]
    except KeyError:
        return _fail(f"unknown family {args.name!r}; choose from "
                     + ", ".join(sorted(cl.FAMILY_CONSTRUCTORS)))
    params = _parse_params(args.params)
    try:
        if args.irrational:
            mu = ctor(*params, rational_ratio=False)
        else:
            mu = ctor(*params)
    except (TypeError, ValueError) as exc:
        return _fail(f"cannot build family member: {exc}")
    _print_report(br.check_membership(mu))
    if args.output:
        br.write_bracket(args.output, mu)
    return 0


def cmd_aw(args):
    try:
        rep = cl.aw_equivalence(args.p, args.q, args.pt, args.qt)
    except ValueError as exc:
        return _fail(str(exc))
    for key, value in rep.to_dict().items():
        print(f"{key}: {value}")
    return 0


def _write_rows(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    finally:
        if path:
            out.close()


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_sequence(args):
    limit = br.read_bracket(args.limit)
    params_seq = [tuple(_parse_params(p)) for p in args.params_list.split(";") if p.strip()]
    pairs = None
    limit_pair = None
    if args.pairs:
        pairs = [_parse_pair(p) for p in args.pairs.split(";") if p.strip()]
    if args.limit_pair:
        limit_pair = _parse_pair(args.limit_pair)
    try:
        rows = cl.sequence_diagnostics(args.family, params_seq, limit,
                                       topology_pairs=pairs, limit_pair=limit_pair)
    except ValueError as exc:
        return _fail(str(exc))
    keys = sorted({k for row in rows for k in row}, key=lambda k: (k != "index", k))
    _write_rows(args.output, keys,
                [[_fmt(row.get(k)) for k in keys] for row in rows])
    return 0


# ---------------------------------------------------------------------------
# canned experiments
# ---------------------------------------------------------------------------

def _reproduce_berger(outdir):
    rows = []
    mu_round = br.milnor_bracket(1.0, 1.0, 1.0)
    for k in (1, 2, 4, 8, 16, 32, 64):
        rk = math.sqrt(k)
        for sign in (1, -1):
            mu = br.milnor_bracket(sign / rk, rk, rk)
            eigs = np.sort(np.linalg.eigvalsh(cu.ricci_operator(mu)))[::-1]
            expect = sorted([1.0 / (2 * k), sign - 1.0 / (2 * k),
                             sign - 1.0 / (2 * k)], reverse=True)
            row = [k, sign] + [float(v) for v in eigs] + expect
            if sign == 1:
                h = np.diag([1.0, rk, rk])
                conj = br.gl_action(h, mu_round)
                scaled = br.milnor_bracket(1.0 / k, 1.0, 1.0)
                row.append(float(np.max(np.abs(conj.c - scaled.c))))
            else:
                row.append(None)
            rows.append(row)
    header = (["k", "sign", "ric_1", "ric_2", "ric_3",
               "expected_1", "expected_2", "expected_3", "rescaling_residual"])
    _write_rows(outdir and f"{outdir}/berger.csv",
                header, [[_fmt(v) for v in r] for r in rows])


def _reproduce_heisenberg(outdir):
    limit = br.milnor_bracket(1.0, 0.0, 0.0)
    params = [(1.0, 1.0 / k, 1.0 / k) for k in range(2, 65)]
    rows = cl.sequence_diagnostics("milnor", params, limit)
    header = ["k", "bracket_distance", "f1", "f2", "f3",
              "gap1", "gap2", "gap3", "scaled_gap1"]
    out = []
    for k, row in zip(range(2, 65), rows):
        out.append([k, row["bracket_distance"], row["f1"], row["f2"], row["f3"],
                    row["gap1"], row["gap2"], row["gap3"], k * row["gap1"]])
    _write_rows(outdir and f"{outdir}/heisenberg_limit.csv",
                header, [[_fmt(v) for v in r] for r in out])


def _reproduce_hyperbolic(outdir):
    rows = []
    for k in (4, 16, 64, 256):
        rk = math.sqrt(k)
        mu = br.circle_isotropy3(-1.0 / rk, -1.0 + 1.0 / rk, 1.0, 1.0)
        twin = br.milnor_bracket(-1.0 / rk, rk, rk)
        verdict = cl.isometry_test(mu, twin, order=1)
        dist = cu.invariant_distance(mu, twin, order=1)
        eigs = np.sort(np.linalg.eigvalsh(cu.ricci_operator(mu)))[::-1]
        rows.append([k, verdict, dist] + [float(v) for v in eigs])
    limit = br.circle_isotropy3(0.0, -1.0, 1.0, 1.0)
    rep = br.check_membership(limit)
    eigs = np.sort(np.linalg.eigvalsh(cu.ricci_operator(limit)))[::-1]
    rows.append(["limit", f"membership={rep.passed}", None] + [float(v) for v in eigs])
    header = ["k", "isometry_verdict", "invariant_distance", "ric_1", "ric_2", "ric_3"]
    _write_rows(outdir and f"{outdir}/hyperbolic_limit.csv",
                header, [[_fmt(v) for v in r] for r in rows])


def _reproduce_aw_sequence(outdir):
    limit = br.aloff_wallach_bracket(1, 1, 1.0, 1.0, 1.0, 1.0)
    rows = []
    for k in range(1, 21):
        mu = br.aloff_wallach_bracket(1.0, (k + 1.0) / k, 1.0, 1.0, 1.0, 1.0)
        diff = mu.as_float() - limit.as_float()
        dist = float(np.sqrt(np.sum(diff * diff)))
        rep = cl.aw_equivalence(k, k + 1, 1, 1)
        rows.append([k, k + 1, dist, rep.r, rep.s,
                     rep.homotopy_equivalent, rep.homeomorphic])
    header = ["p", "q", "bracket_distance_to_limit", "r", "s",
              "homotopy_equivalent_to_limit", "homeomorphic_to_limit"]
    _write_rows(outdir and f"{outdir}/aloff_wallach_sequence.csv",
                header, [[_fmt(v) for v in r] for r in rows])


def _collapse_rationals(count):
    # continued-fraction convergents of sqrt(2): 1, 3/2, 7/5, 17/12, ...
    vals = []
    num, den = 1, 1
    for _ in range(count):
        vals.append(Fraction(num, den))
        num, den = num + 2 * den, num + den
    return vals


def _reproduce_collapse(outdir):
    rows = []
    for pk in _collapse_rationals(8):
        p = float(pk)
        mu = br.circle_isotropy5(p, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0)
        rep = br.check_membership(mu)
        eigs = np.sort(np.linalg.eigvalsh(cu.ricci_operator(mu)))[::-1]
        expect = sorted([1.0, p - 0.5, p - 0.5, 0.5, 0.5], reverse=True)
        rows.append([f"{pk.numerator}/{pk.denominator}", rep.passed]
                    + [float(v) for v in eigs] + expect)
    s2 = math.sqrt(2.0)
    lam = br.circle_isotropy5(s2, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0,
                              rational_ratio=False)
    rep = br.check_membership(lam)
    resplit = br.resplit(lam, 2)
    rep2 = br.check_membership(resplit)
    eigs2 = np.sort(np.linalg.eigvalsh(cu.ricci_operator(resplit)))[::-1]
    rows.append(["limit", f"q1_member={rep.passed},q2_member={rep2.passed}"]
                + [float(v) for v in eigs2] + [None, None, None, None, None])
    header = (["p", "member"] + [f"ric_{i+1}" for i in range(5)]
              + [f"expected_{i+1}" for i in range(5)])
    _write_rows(outdir and f"{outdir}/collapse.csv",
                header, [[_fmt(v) for v in r] for r in rows])


REPRODUCE = {
    "berger": _reproduce_berger,
    "heisenberg-limit": _reproduce_heisenberg,
    "hyperbolic-limit": _reproduce_hyperbolic,
    "aloff-wallach-sequence": _reproduce_aw_sequence,
    "collapse": _reproduce_collapse,
}


def cmd_reproduce(args):
    try:
        fn = REPRODUCE[args.experiment]
    except KeyError:
        return _fail(f"unknown experiment {args.experiment!r}; choose from "
                     + ", ".join(sorted(REPRODUCE)))
    fn(args.output)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    ap = argparse.ArgumentParser(prog="homlie",
                                 description="homogeneous spaces as varying Lie brackets")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership report for a bracket file")
    p.add_argument("bracket")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("curvature", help="curvature data at the base point")
    p.add_argument("bracket")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("invariants", help="scalar invariants and fingerprint norms")
    p.add_argument("bracket")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("distance", help="orbit distance between fingerprints")
    p.add_argument("bracket")
    p.add_argument("other")
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("jet", help="metric Taylor coefficients")
    p.add_argument("bracket")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_jet)

    p = sub.add_parser("flow", help="integrate the bracket flow, emit CSV")
    p.add_argument("bracket")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--max-steps", type=int, default=100000)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--constants", action="store_true",
                   help="append structure-constant columns (enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="treat BRACKET as a trajectory CSV and continue from "
                        "its last row")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("family", help="build a family member, report membership")
    p.add_argument("name")
    p.add_argument("--params", required=True,
                   help="comma-separated numbers, fractions allowed")
    p.add_argument("--irrational", action="store_true",
                   help="tag the (p, q) ratio as irrational")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("aw", help="topology comparison of integer pairs")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("pt", type=int)
    p.add_argument("qt", type=int)
    p.set_defaults(fn=cmd_aw)

    p = sub.add_parser("sequence", help="convergence diagnostics CSV")
    p.add_argument("family")
    p.add_argument("--params-list", "--sweep", dest="params_list",
                   required=True, help="semicolon-separated comma tuples")
    p.add_argument("--limit", required=True)
    p.add_argument("--pairs", help="semicolon-separated p:q integer pairs")
    p.add_argument("--limit-pair", help="p:q")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("reproduce", help="rerun a canned experiment")
    p.add_argument("experiment")
    p.add_argument("--output", help="directory for CSV output (default stdout)")
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
