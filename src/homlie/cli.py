"""Command-line interface.

Exit codes: 0 on success, 1 on validation problems (bad arguments,
unreadable files, preconditions not met), 2 on numerical failure
(blow-up or step underflow during flow integration).  Output is plain
text or CSV and is deterministic for fixed arguments.
"""

import argparse
import contextlib
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


@contextlib.contextmanager
def _output(path):
    """The file path opened for writing, or stdout when path is empty."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as out:
        yield out


def _fmt(v):
    """One CSV cell: floats by repr, Fractions p/q, tuples by element, None empty."""
    if type(v) is float:
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_fmt, v)) + ")"
    if isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


def _write_rows(path, header, rows, preamble=""):
    """preamble, then header and rows as CSV cells by _fmt, to path or stdout."""
    with _output(path) as out:
        out.write(preamble)
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(map(_fmt, row) for row in rows)


def _write_json(path, doc):
    """Write doc as indented JSON plus a newline to path, or to stdout."""
    with _output(path) as out:
        json.dump(doc, out, indent=1)
        out.write("\n")


def _ricci_spectrum(mu):
    """Eigenvalues of the Ricci endomorphism, descending, as floats."""
    return np.sort(np.linalg.eigvalsh(cu.ricci_operator(mu)))[::-1].tolist()


def _print_report(rep):
    print(f"q = {rep.q}, n = {rep.n}, tol = {rep.tol!r}")
    print(f"jacobi residual      : {rep.h1_jacobi_residual!r}")
    print(f"subspace residual    : {rep.h1_subspace_residual!r}")
    print(f"isotropy closedness  : {rep.h2_status}")
    print(f"skewness residual    : {rep.h3_residual!r}")
    print(f"isotropy kernel dim  : {rep.h4_kernel_dim}")
    print(f"membership           : {'PASS' if rep.passed else 'FAIL'}")


def cmd_check(args):
    _print_report(br.check_membership(br.read_bracket(args.bracket), tol=args.tol))
    return 0


def cmd_curvature(args):
    mu = br.read_bracket(args.bracket)
    br.require_member(mu)
    data = cu.curvature_data(mu)
    print("ricci endomorphism:")
    for row in data.ricci:
        print("  " + " ".join(map(_fmt, row)))
    print("ricci eigenvalues (descending): " + " ".join(map(_fmt, data.ricci_eigenvalues)))
    print("scalar invariants f_k: " + " ".join(map(_fmt, data.invariants)))
    if args.output:
        _write_json(args.output, data.to_dict())
    return 0


def cmd_invariants(args):
    mu = br.read_bracket(args.bracket)
    fp = cu.fingerprint(mu, args.order)
    invariants, norms_sq = cu.scalar_invariants(mu), fp.norms_sq()
    print("scalar invariants f_k: " + " ".join(map(_fmt, invariants)))
    for k, norm_sq in enumerate(norms_sq):
        print(f"|nabla^{k} Riem|^2 : {norm_sq!r}")
    if args.output:
        _write_json(args.output, fp.to_dict())
    return 0


def cmd_distance(args):
    mu = br.read_bracket(args.bracket)
    lam = br.read_bracket(args.other)
    print(f"{cu.invariant_distance(mu, lam, order=args.order)!r}")
    return 0


def cmd_jet(args):
    mu = br.read_bracket(args.bracket)
    _write_json(args.output, co.metric_jet(mu, args.degree).to_dict())
    return 0


def _constant_names(dim):
    """The c_i_j_k columns of a --constants CSV: i < j, then k."""
    return [f"c_{i}_{j}_{k}" for i in range(dim) for j in range(i + 1, dim)
            for k in range(dim)]


def _read_trajectory_sample(path):
    """Last recorded state of a trajectory CSV written with --constants.

    Its c_i_j_k cells go to bracket_from_dict as a bracket document, so
    a resumed state passes the same bounds as a bracket file.
    """
    with open(path, newline="") as fh:
        meta = fh.readline().strip()
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(f"{path} is not a trajectory CSV: {exc}") from None
    try:
        parts = dict(tok.split("=") for tok in meta[2:].split())
        q, n = int(parts["q"]), int(parts["n"])
    except (KeyError, ValueError):
        raise ValueError(
            f"{path} starts with {meta!r}, not '# q=.. n=..'; resume needs a "
            "trajectory written with --constants") from None
    if len(rows) < 2:
        raise ValueError(f"{path} has no trajectory rows to resume from")
    header, last = rows[0], rows[-1]
    if len(last) != len(header):
        raise ValueError(f"{path}: the last row has {len(last)} fields, "
                         f"the header {len(header)}")
    cells = dict(zip(header, last))
    entries = [[*name.split("_")[1:], float(value)]
               for name, value in cells.items() if name.startswith("c_")]
    mu = br.bracket_from_dict({"q": q, "n": n, "entries": entries})
    for name in ["t"] + _constant_names(mu.dim):
        if name not in cells:
            raise ValueError(f"{path} is missing the {name} column")
    t = float(cells["t"])
    if not math.isfinite(t):
        raise ValueError(f"{path}: the last row has t = {t}, not a finite time")
    return mu, t


def cmd_flow(args):
    if args.resume:
        mu, t_offset = _read_trajectory_sample(args.bracket)
    else:
        mu = br.read_bracket(args.bracket)
        t_offset = 0.0
    traj = fl.integrate(mu, args.t_end, normalized=args.normalized,
                        rtol=args.rtol, max_steps=args.max_steps,
                        record_stride=args.stride)
    upper = np.triu_indices(mu.dim, 1)
    header = (["t", "norm", "soliton_residual"] + [f"ric_{i+1}" for i in range(mu.n)]
              + (_constant_names(mu.dim) if args.constants else []))
    rows = ([float(t_offset + s.t), s.norm, s.residual] + s.ricci_eigenvalues.tolist()
            + (s.bracket.c[upper].ravel().tolist() if args.constants else [])
            for s in traj.samples)
    _write_rows(args.output, header, rows,
                f"# q={mu.q} n={mu.n}\n" if args.constants else "")
    print(f"status: {traj.status}", file=sys.stderr)
    return 2 if traj.status in ("blow_up_detected", "step_underflow") else 0


def _parse_params(text):
    """Comma-separated numbers: p/q a Fraction, digits an int, else a float.

    An int or Fraction token passes the digit bound of bracket files first.
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        exact = "/" in tok or tok.lstrip("+-").isdigit()
        if exact:
            br._bounded_digits(tok)
        try:
            out.append((Fraction if "/" in tok else int)(tok) if exact else float(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameter {br._shown(tok)!r} in {br._shown(text)!r}") from None
    return out


def _parse_pair(text):
    """An integer pair written p:q."""
    try:
        p, q = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"expected an integer pair p:q, got {text!r}") from None
    return p, q


def cmd_family(args):
    mu = br.family_member(args.name, _parse_params(args.params), args.irrational)
    _print_report(br.check_membership(mu))
    if args.output:
        _write_json(args.output, br.bracket_to_dict(mu))
    return 0


def cmd_aw(args):
    rep = cl.aw_equivalence(args.p, args.q, args.pt, args.qt)
    for key, value in rep.to_dict().items():
        print(f"{key}: {value}")
    return 0


def cmd_sequence(args):
    limit = br.read_bracket(args.limit)
    params_seq = [tuple(_parse_params(p)) for p in args.params_list.split(";") if p.strip()]
    pairs = ([_parse_pair(p) for p in args.pairs.split(";") if p.strip()]
             if args.pairs else None)
    limit_pair = _parse_pair(args.limit_pair) if args.limit_pair else None
    rows = cl.sequence_diagnostics(args.family, params_seq, limit,
                                   topology_pairs=pairs, limit_pair=limit_pair)
    keys = sorted({k for row in rows for k in row}, key=lambda k: (k != "index", k))
    _write_rows(args.output, keys, ([row.get(k) for k in keys] for row in rows))
    return 0


# ---------------------------------------------------------------------------
# canned experiments: each returns (header, rows)
# ---------------------------------------------------------------------------

def _reproduce_berger():
    rows = []
    mu_round = br.milnor_bracket(1.0, 1.0, 1.0)
    for k in (1, 2, 4, 8, 16, 32, 64):
        rk = math.sqrt(k)
        for sign in (1, -1):
            mu = br.milnor_bracket(sign / rk, rk, rk)
            expect = sorted([1.0 / (2 * k), sign - 1.0 / (2 * k),
                             sign - 1.0 / (2 * k)], reverse=True)
            row = [k, sign] + _ricci_spectrum(mu) + expect
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
    return header, rows


def _reproduce_heisenberg():
    limit = br.milnor_bracket(1.0, 0.0, 0.0)
    params = [(1.0, 1.0 / k, 1.0 / k) for k in range(2, 65)]
    rows = cl.sequence_diagnostics("milnor", params, limit)
    header = ["k", "bracket_distance", "f1", "f2", "f3",
              "gap1", "gap2", "gap3", "scaled_gap1"]
    return header, [[k, row["bracket_distance"], row["f1"], row["f2"], row["f3"],
                     row["gap1"], row["gap2"], row["gap3"], k * row["gap1"]]
                    for k, row in zip(range(2, 65), rows)]


def _reproduce_hyperbolic():
    rows = []
    for k in (4, 16, 64, 256):
        rk = math.sqrt(k)
        mu = br.circle_isotropy3(-1.0 / rk, -1.0 + 1.0 / rk, 1.0, 1.0)
        twin = br.milnor_bracket(-1.0 / rk, rk, rk)
        verdict = cl.isometry_test(mu, twin, order=1)
        dist = cu.invariant_distance(mu, twin, order=1)
        rows.append([k, verdict, dist] + _ricci_spectrum(mu))
    limit = br.circle_isotropy3(0.0, -1.0, 1.0, 1.0)
    rep = br.check_membership(limit)
    rows.append(["limit", f"membership={rep.passed}", None] + _ricci_spectrum(limit))
    return ["k", "isometry_verdict", "invariant_distance", "ric_1", "ric_2", "ric_3"], rows


def _reproduce_aw_sequence():
    limit = br.aloff_wallach_bracket(1, 1, 1.0, 1.0, 1.0, 1.0)
    rows = []
    for k in range(1, 21):
        mu = br.aloff_wallach_bracket(1.0, (k + 1.0) / k, 1.0, 1.0, 1.0, 1.0)
        rep = cl.aw_equivalence(k, k + 1, 1, 1)
        rows.append([k, k + 1, cl._bracket_distance(mu, limit), rep.r, rep.s,
                     rep.homotopy_equivalent, rep.homeomorphic])
    header = ["p", "q", "bracket_distance_to_limit", "r", "s",
              "homotopy_equivalent_to_limit", "homeomorphic_to_limit"]
    return header, rows


def _collapse_rationals(count):
    # continued-fraction convergents of sqrt(2): 1, 3/2, 7/5, 17/12, ...
    vals = []
    num, den = 1, 1
    for _ in range(count):
        vals.append(Fraction(num, den))
        num, den = num + 2 * den, num + den
    return vals


def _reproduce_collapse():
    rows = []
    for pk in _collapse_rationals(8):
        p = float(pk)
        mu = br.circle_isotropy5(p, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0)
        rep = br.check_membership(mu)
        expect = sorted([1.0, p - 0.5, p - 0.5, 0.5, 0.5], reverse=True)
        rows.append([f"{pk.numerator}/{pk.denominator}", rep.passed]
                    + _ricci_spectrum(mu) + expect)
    s2 = math.sqrt(2.0)
    lam = br.circle_isotropy5(s2, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0,
                              rational_ratio=False)
    rep = br.check_membership(lam)
    resplit = br.resplit(lam, 2)
    rep2 = br.check_membership(resplit)
    ric = _ricci_spectrum(resplit)                      # n = 4 after the resplit
    rows.append(["limit", f"q1_member={rep.passed},q2_member={rep2.passed}"]
                + ric + [None] * (5 - len(ric)) + [None] * 5)
    header = (["p", "member"] + [f"ric_{i+1}" for i in range(5)]
              + [f"expected_{i+1}" for i in range(5)])
    return header, rows


REPRODUCE = {
    "berger": _reproduce_berger,
    "heisenberg-limit": _reproduce_heisenberg,
    "hyperbolic-limit": _reproduce_hyperbolic,
    "aloff-wallach-sequence": _reproduce_aw_sequence,
    "collapse": _reproduce_collapse,
}


def cmd_reproduce(args):
    name = args.experiment
    if name not in REPRODUCE:
        return _fail(f"unknown experiment {name!r}; choose from "
                     + ", ".join(sorted(REPRODUCE)))
    header, rows = REPRODUCE[name]()
    _write_rows(args.output and f"{args.output}/{name.replace('-', '_')}.csv", header, rows)
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
