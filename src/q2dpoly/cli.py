"""Command-line front end: evaluation, verification sweeps, orthogonality
audits, zeros, asymptotics, and positivity checks as reproducible batch runs.

Exit status: 0 when every check in the run passed, 1 on verification failure,
2 on configuration errors.  Reports are deterministic given identical flags
(the only randomness is the optional --seed for sample points, which is
recorded in the report).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from .context import GaussianRational, MissingSqrtError, QContext, TruncationPolicy
from .polyfamilies import coeffs, eval_poly, poly_to_json
from .reports import VerificationReport, reports_all_pass, reports_to_json, scalar_str

F = Fraction

FAMILY_MAP = {"H": "Hq", "h": "hq", "p": "pq", "Hc": "H_classical", "C": "C_disk"}


def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


def _parse_point(text: str):
    """Scalar point: 're' or 're,im' with rational components."""
    if "," in text:
        re_, im_ = text.split(",", 1)
        return GaussianRational(Fraction(re_), Fraction(im_))
    return Fraction(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--q", default="1/2", help="base q as a rational 'num/den' or decimal")
    p.add_argument("--sqrt-q", default=None,
                   help="square root of q (rational, or 'auto' on the float backend)")
    p.add_argument("--backend", choices=("exact", "float"), default=None)
    p.add_argument("--precision-bits", type=int, default=160)
    p.add_argument("--max-terms", type=int, default=400)
    p.add_argument("--tail-tol", type=float, default=1e-32)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for random Gaussian-rational sample points")
    p.add_argument("--config", default=None,
                   help="JSON file with flag defaults (explicit flags win)")


def _load_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        for key, val in doc.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and (attr not in args._explicit):
                setattr(args, attr, val)


def _ctx_from(args, backend_default="exact") -> QContext:
    """The run's context; a float context without --sqrt-q takes s = sqrt(q)."""
    q = _parse_rational(str(args.q))
    backend = args.backend or backend_default
    trunc = TruncationPolicy(max_terms=args.max_terms, tail_tol=args.tail_tol)
    sq = args.sqrt_q
    if sq not in (None, "auto"):
        sq = Fraction(sq)
    elif backend == "float":
        sq = "auto"
    return QContext(q, sqrt_q=sq, backend=backend,
                    precision_bits=args.precision_bits, default_trunc=trunc)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_reports(args, reports: List[VerificationReport]) -> int:
    if args.format == "json":
        _emit(args, reports_to_json(reports))
    elif args.format == "csv":
        lines = ["id,mode,residual,tail_bound,pass"]
        for r in reports:
            lines.append(f"{r.id},{r.mode},{r.residual},{float(r.tail_bound)!r},{int(r.passed)}")
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(f"{mark} {r.id:18s} mode={r.mode:16s} residual={r.residual}"
                         f" tail={float(r.tail_bound):.2e}{note}")
        _emit(args, "\n".join(lines))
    return 0 if reports_all_pass(reports) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    ctx = _ctx_from(args)
    fam = FAMILY_MAP[args.family]
    P = coeffs(ctx, fam, args.m, args.n,
               b=_parse_rational(args.b) if args.b else None,
               nu=_parse_rational(args.nu) if args.nu else None)
    val = eval_poly(P, _parse_point(args.z1), _parse_point(args.z2))
    _emit(args, scalar_str(val))
    return 0


def cmd_coeffs(args) -> int:
    ctx = _ctx_from(args)
    fam = FAMILY_MAP[args.family]
    P = coeffs(ctx, fam, args.m, args.n,
               b=_parse_rational(args.b) if args.b else None,
               nu=_parse_rational(args.nu) if args.nu else None)
    if args.format == "csv":
        lines = ["i,j,re,im"]
        for (i, j) in sorted(P.coeffs):
            c = P.coeffs[(i, j)]
            if isinstance(c, GaussianRational):
                lines.append(f"{i},{j},{c.re},{c.im}")
            else:
                lines.append(f"{i},{j},{c},0")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, poly_to_json(P))
    return 0


def cmd_verify(args) -> int:
    from .identities import (REGISTRY, exact_ids, exact_series_ids,
                             list_identities, numeric_ids, sweep)

    if args.all_exact:
        ids = exact_ids() + exact_series_ids()
        backend = "exact"
    elif args.all_numeric:
        ids = numeric_ids()
        backend = "float"
    elif args.id:
        ids = args.id
        modes = {e.id: e.mode for e in list_identities()}
        backend = "exact" if all(modes.get(i, "").startswith("EXACT") for i in ids) else "float"
    else:
        print("verify: need --id, --all-exact or --all-numeric", file=sys.stderr)
        return 2
    ctx = _ctx_from(args, backend_default=backend)
    if args.all_exact and ctx.s is None:
        skipped = [i for i in ids if REGISTRY[i].needs_sqrt]
        if skipped:
            print(f"note: skipping entries needing q**(1/2) at q={ctx.q_fraction} "
                  f"(pass --sqrt-q or a square q): {', '.join(skipped)}",
                  file=sys.stderr)
            ids = [i for i in ids if not REGISTRY[i].needs_sqrt]
    grid = {}
    if args.max_m is not None:
        grid["max_m"] = args.max_m
    if args.max_n is not None:
        grid["max_n"] = args.max_n
    if args.b:
        grid["b"] = _parse_rational(args.b)
    if args.c:
        grid["c"] = _parse_rational(args.c)
    if args.seed is not None:
        rng = random.Random(args.seed)
        grid["mult_a"] = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        grid["mult_b"] = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        grid["z1"] = GaussianRational(Fraction(rng.randint(1, 12), 8), Fraction(rng.randint(1, 8), 8))
        grid["z2"] = GaussianRational(Fraction(rng.randint(1, 12), 8), Fraction(-rng.randint(1, 8), 8))
    reports = sweep(ctx, ids, grid, tol=args.tolerance)
    if args.seed is not None:
        for r in reports:
            r.extra["seed"] = args.seed
    return _emit_reports(args, reports)


def cmd_ortho(args) -> int:
    from .measures import ortho_csv, ortho_table

    ctx = _ctx_from(args, backend_default="float")
    table, worst_diag, worst_off = ortho_table(
        ctx, FAMILY_MAP[args.family], args.max_index,
        b=_parse_rational(args.b) if args.b else None, K=args.K)
    _emit(args, ortho_csv(table))
    ok = worst_diag <= args.tolerance and worst_off <= args.tolerance
    print(f"# worst diagonal rel_error {worst_diag!r}; worst off-diagonal |value| {worst_off!r}; "
          f"{'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_zeros(args) -> int:
    from .zeros import radial_zeros

    ctx = _ctx_from(args, backend_default="float")
    fam = FAMILY_MAP[args.family]
    zs = radial_zeros(ctx, fam, args.m, args.n,
                      b=_parse_rational(args.b) if args.b else None,
                      precision=args.root_precision)
    doc = zs.to_dict()
    if args.count:
        doc["radii"] = doc["radii"][: args.count]
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


def cmd_aqzeros(args) -> int:
    from .zeros import aq_zeros

    ctx = _ctx_from(args, backend_default="float")
    zs = aq_zeros(ctx, args.count, precision=args.root_precision)
    import mpmath

    _emit(args, json.dumps({"q": str(ctx.q_fraction),
                            "zeros": [mpmath.nstr(z, 17) for z in zs]}, sort_keys=True))
    return 0


def cmd_asym(args) -> int:
    from .zeros import asymptotic_report, zero_limit_report

    args.backend = "float"  # the limits and theta_4 are float computations
    ctx = _ctx_from(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.target in ("limH", "limh", "limp"):
        rep = zero_limit_report(ctx, args.target, args.j, sizes,
                                b=_parse_rational(args.b) if args.b else None)
    else:
        pt = {}
        if args.z1:
            pt["z1"] = _parse_point(args.z1)
        if args.z2:
            pt["z2"] = _parse_point(args.z2)
        if args.b:
            pt["b"] = _parse_rational(args.b)
        rep = asymptotic_report(ctx, args.target, sizes, pt)
    if args.format == "csv":
        _emit(args, rep.to_csv())
    else:
        _emit(args, json.dumps({"target": rep.target, "sizes": rep.sizes,
                                "errors": [repr(e) for e in rep.errors],
                                "monotone": rep.monotone,
                                "final_error": repr(rep.final_error)}, sort_keys=True))
    return 0 if rep.monotone else 1


def cmd_gram(args) -> int:
    from .measures import gram_positivity

    ctx = _ctx_from(args, backend_default="exact")
    rep = gram_positivity(ctx, args.kind, args.N, _parse_point(args.z))
    return _emit_reports(args, [rep])


class _TrackingParser(argparse.ArgumentParser):
    """Remembers which destinations were explicitly given (for --config)."""

    def parse_args(self, argv=None, namespace=None):  # type: ignore[override]
        ns = super().parse_args(argv, namespace)
        explicit = set()
        argv = sys.argv[1:] if argv is None else argv
        for a in argv:
            if a.startswith("--"):
                explicit.add(a.lstrip("-").split("=")[0].replace("-", "_"))
        ns._explicit = explicit
        return ns


def build_parser() -> argparse.ArgumentParser:
    ap = _TrackingParser(prog="q2dpoly",
                         description="2D q-orthogonal polynomials: evaluation and verification")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate a family member at a point")
    p.add_argument("--family", choices=FAMILY_MAP, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("coeffs", help="print the exact coefficient map")
    p.add_argument("--family", choices=FAMILY_MAP, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--nu", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--id", action="append", default=None)
    p.add_argument("--all-exact", action="store_true")
    p.add_argument("--all-numeric", action="store_true")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--c", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ortho", help="orthogonality audit (CSV table)")
    p.add_argument("--family", choices=("H", "h", "p"), required=True)
    p.add_argument("--max-index", type=int, default=3)
    p.add_argument("--b", default=None)
    p.add_argument("--K", type=int, default=80)
    _add_common(p)
    p.set_defaults(fn=cmd_ortho)

    p = sub.add_parser("zeros", help="certified radial zeros")
    p.add_argument("--family", choices=("H", "h", "p"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--root-precision", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("aqzeros", help="certified zeros of the Ramanujan function")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--root-precision", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=cmd_aqzeros)

    p = sub.add_parser("asym", help="limit / asymptotic convergence reports")
    p.add_argument("--target", required=True,
                   choices=("limH", "limh", "limp", "Hm_inf", "Hn_inf", "Hmn_inf",
                            "p_inf", "PR_h", "theta4_scaled"))
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--b", default=None)
    p.add_argument("--z1", default=None)
    p.add_argument("--z2", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_asym)

    p = sub.add_parser("gram", help="exact positivity of the section-9 Gram matrices")
    p.add_argument("--kind", choices=("doH", "doh"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--z", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_gram)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _load_config(args)
        return args.fn(args)
    except (ValueError, KeyError, MissingSqrtError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
