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

from .context import (GaussianRational, MissingSqrtError, QContext, TruncationPolicy,
                      parse_rational)
from .polyfamilies import coeffs, eval_poly, poly_to_json
from .reports import VerificationReport, reports_to_json, scalar_str

FAMILY_MAP = {"H": "Hq", "h": "hq", "p": "pq", "Hc": "H_classical", "C": "C_disk"}


def _rational(text) -> Optional[Fraction]:
    """An optional rational flag: None when absent."""
    return parse_rational(text) if text else None


def _parse_point(text: str):
    """Scalar point: 're' or 're,im' with rational components."""
    if "," in text:
        re_, im_ = text.split(",", 1)
        return GaussianRational(parse_rational(re_), parse_rational(im_))
    return parse_rational(text)


# the options a subcommand may declare besides --q, --format, --output and
# --config; each declares only the ones its handler reads
_OPTIONS = {
    "sqrt-q": dict(default=None,
                   help="square root of q: rational, or 'auto' (sqrt(q) on the float "
                        "backend, the root of a square q on the exact one)"),
    "backend": dict(choices=("exact", "float"), default=None),
    "precision-bits": dict(type=int, default=160),
    "max-terms": dict(type=int, default=400),
    "tail-tol": dict(type=float, default=1e-32),
    "tolerance": dict(type=float, default=1e-10),
    "seed": dict(type=int, default=None, help="seed for random Gaussian-rational sample points"),
}


def _add_options(p: argparse.ArgumentParser, *names: str, formats=()):
    """--q, the named _OPTIONS, --format over `formats` (the first is the
    default), --output and --config."""
    p.add_argument("--q", default="1/2", help="base q as a rational 'num/den' or decimal")
    for name in names:
        p.add_argument("--" + name, **_OPTIONS[name])
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (explicit flags win)")


def _trunc(args) -> TruncationPolicy:
    return TruncationPolicy(max_terms=args.max_terms, tail_tol=args.tail_tol)


def _ctx_from(args, backend: str, sqrt_q=None, trunc=None) -> QContext:
    """The run's context at --q and --precision-bits; a float context
    without a rational sqrt_q takes s = sqrt(q)."""
    if sqrt_q not in (None, "auto"):
        sqrt_q = parse_rational(sqrt_q)
    elif backend == "float":
        sqrt_q = "auto"
    return QContext(str(args.q), sqrt_q=sqrt_q, backend=backend,
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
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_MEMBER_PARAMS = {"b": "p", "nu": "C"}


def _member(args):
    """The --family member; --b is p's parameter and --nu C's, and another
    family given one is a configuration error."""
    params = {name: _rational(getattr(args, name)) for name in _MEMBER_PARAMS}
    for name, family in _MEMBER_PARAMS.items():
        if params[name] is not None and args.family != family:
            raise ValueError(f"--{name} is a parameter of --family {family} only, "
                             f"not of --family {args.family}")
    ctx = _ctx_from(args, args.backend or "exact")
    return coeffs(ctx, FAMILY_MAP[args.family], args.m, args.n, **params)


def cmd_eval(args) -> int:
    _emit(args, scalar_str(eval_poly(_member(args), _parse_point(args.z1),
                                     _parse_point(args.z2))))
    return 0


def cmd_coeffs(args) -> int:
    P = _member(args)
    if args.format == "csv":
        lines = ["i,j,re,im"]
        for (i, j), c in sorted(P.coeffs.items()):
            re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
            lines.append(f"{i},{j},{re},{im}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, poly_to_json(P))
    return 0


def cmd_verify(args) -> int:
    """Each entry runs on the backend of its mode: EXACT entries on the exact
    context, NUMERIC ones on the float context (s = sqrt(q) unless --sqrt-q
    is given); the reports come in (id, grid point) order."""
    from .identities import exact_ids, exact_series_ids, get_entry, numeric_ids, sweep

    if args.all_exact:
        ids = exact_ids() + exact_series_ids()
    elif args.all_numeric:
        ids = numeric_ids()
    elif args.id:
        ids = args.id
    else:
        print("verify: need --id, --all-exact or --all-numeric", file=sys.stderr)
        return 2
    groups = {}  # backend -> ids
    for i in ids:
        groups.setdefault("exact" if get_entry(i).mode.startswith("EXACT") else "float",
                          []).append(i)
    ctxs = {backend: _ctx_from(args, backend, args.sqrt_q, _trunc(args)) for backend in groups}
    if args.all_exact and ctxs["exact"].s is None:
        skipped = [i for i in ids if get_entry(i).needs_sqrt]
        if skipped:
            print(f"note: skipping entries needing q**(1/2) at q={ctxs['exact'].q_fraction} "
                  f"(pass --sqrt-q or a square q): {', '.join(skipped)}",
                  file=sys.stderr)
            groups["exact"] = [i for i in ids if i not in skipped]
    grid = {}
    if args.max_m is not None:
        grid["max_m"] = args.max_m
    if args.max_n is not None:
        grid["max_n"] = args.max_n
    if args.b:
        grid["b"] = parse_rational(args.b)
    if args.c:
        grid["c"] = parse_rational(args.c)
    if args.seed is not None:
        rng = random.Random(args.seed)
        grid["mult_a"] = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        grid["mult_b"] = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        grid["z1"] = GaussianRational(Fraction(rng.randint(1, 12), 8), Fraction(rng.randint(1, 8), 8))
        grid["z2"] = GaussianRational(Fraction(rng.randint(1, 12), 8), Fraction(-rng.randint(1, 8), 8))
    reports = sorted((r for backend, group in groups.items()
                      for r in sweep(ctxs[backend], group, grid, tol=args.tolerance)),
                     key=lambda r: r.id)
    if args.seed is not None:
        for r in reports:
            r.extra["seed"] = args.seed
    return _emit_reports(args, reports)


def cmd_ortho(args) -> int:
    from .measures import ortho_csv, ortho_table

    ctx = _ctx_from(args, args.backend or "float", trunc=_trunc(args))
    table, worst_diag, worst_off = ortho_table(
        ctx, FAMILY_MAP[args.family], args.max_index, b=_rational(args.b), K=args.K)
    _emit(args, ortho_csv(table))
    ok = worst_diag <= args.tolerance and worst_off <= args.tolerance
    print(f"# worst diagonal rel_error {worst_diag!r}; worst off-diagonal |value| {worst_off!r}; "
          f"{'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_zeros(args) -> int:
    from .zeros import radial_zeros

    if args.count is not None and args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    zs = radial_zeros(QContext(str(args.q)), FAMILY_MAP[args.family], args.m, args.n,
                      b=_rational(args.b), precision=args.root_precision)
    doc = zs.to_dict()
    if args.count is not None:
        doc["radii"] = doc["radii"][: args.count]
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


def cmd_aqzeros(args) -> int:
    import mpmath

    from .zeros import aq_zeros

    ctx = QContext(str(args.q))
    zs = aq_zeros(ctx, args.count, precision=args.root_precision)
    _emit(args, json.dumps({"q": str(ctx.q_fraction),
                            "zeros": [mpmath.nstr(z, 17) for z in zs]}, sort_keys=True))
    return 0


def cmd_asym(args) -> int:
    from .zeros import asymptotic_report, zero_limit_report

    # the limits and theta_4 are float computations, whatever q is
    ctx = _ctx_from(args, "float", args.sqrt_q, _trunc(args))
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.target in ("limH", "limh", "limp"):
        rep = zero_limit_report(ctx, args.target, args.j, sizes, b=_rational(args.b))
    else:
        pt = {}
        if args.z1:
            pt["z1"] = _parse_point(args.z1)
        if args.z2:
            pt["z2"] = _parse_point(args.z2)
        if args.b:
            pt["b"] = parse_rational(args.b)
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

    rep = gram_positivity(QContext(str(args.q)), args.kind, args.N, _parse_point(args.z))
    return _emit_reports(args, [rep])


def _add_member(p: argparse.ArgumentParser):
    """The flags of _member, which eval and coeffs read."""
    p.add_argument("--family", choices=FAMILY_MAP, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--nu", default=None)


def _declare_eval(p):
    _add_member(p)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    _add_options(p, "backend", "precision-bits")


def _declare_coeffs(p):
    _add_member(p)
    _add_options(p, "backend", "precision-bits", formats=("json", "csv"))


def _declare_verify(p):
    p.add_argument("--id", action="append", default=None)
    p.add_argument("--all-exact", action="store_true")
    p.add_argument("--all-numeric", action="store_true")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--c", default=None)
    _add_options(p, "sqrt-q", "precision-bits", "max-terms", "tail-tol", "tolerance", "seed",
                 formats=("pretty", "json", "csv"))


def _declare_ortho(p):
    p.add_argument("--family", choices=("H", "h", "p"), required=True)
    p.add_argument("--max-index", type=int, default=3)
    p.add_argument("--b", default=None)
    p.add_argument("--K", type=int, default=80)
    _add_options(p, "backend", "precision-bits", "max-terms", "tail-tol", "tolerance")


def _declare_zeros(p):
    p.add_argument("--family", choices=("H", "h", "p"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--count", type=int, default=None,
                   help="print the first N radii (0: none; default: all)")
    p.add_argument("--root-precision", type=int, default=20)
    _add_options(p)


def _declare_aqzeros(p):
    p.add_argument("--count", type=int, default=3, help="print the first N zeros (0: none)")
    p.add_argument("--root-precision", type=int, default=20)
    _add_options(p)


def _declare_asym(p):
    p.add_argument("--target", required=True,
                   choices=("limH", "limh", "limp", "Hm_inf", "Hn_inf", "Hmn_inf",
                            "p_inf", "PR_h", "theta4_scaled"))
    p.add_argument("--sizes", required=True, help="two or more comma-separated sizes")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--b", default=None)
    p.add_argument("--z1", default=None)
    p.add_argument("--z2", default=None)
    _add_options(p, "sqrt-q", "precision-bits", "max-terms", "tail-tol",
                 formats=("json", "csv"))


def _declare_gram(p):
    p.add_argument("--kind", choices=("doH", "doh"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--z", required=True)
    _add_options(p, formats=("pretty", "json", "csv"))


# name -> (help, handler, declaration of its options), in the order of the
# full parser's help
SUBCOMMANDS = {
    "eval": ("evaluate a family member at a point", cmd_eval, _declare_eval),
    "coeffs": ("print the exact coefficient map", cmd_coeffs, _declare_coeffs),
    "verify": ("run identity checks", cmd_verify, _declare_verify),
    "ortho": ("orthogonality audit (CSV table)", cmd_ortho, _declare_ortho),
    "zeros": ("certified radial zeros", cmd_zeros, _declare_zeros),
    "aqzeros": ("certified zeros of the Ramanujan function", cmd_aqzeros, _declare_aqzeros),
    "asym": ("limit / asymptotic convergence reports", cmd_asym, _declare_asym),
    "gram": ("exact positivity of the section-9 Gram matrices", cmd_gram, _declare_gram),
}


def build_parser(cmd: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when `cmd` names one, of that one
    alone: it parses that subcommand's command lines as the full parser does
    (errors included), and its usage line names all eight."""
    ap = argparse.ArgumentParser(prog="q2dpoly",
                                 description="2D q-orthogonal polynomials: evaluation and verification")
    names = [cmd] if cmd in SUBCOMMANDS else list(SUBCOMMANDS)
    # with all eight declared, argparse spells this metavar from the choices
    # (and names the argument "cmd" in its errors); one alone needs it given
    metavar = "{" + ",".join(SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name in names:
        help_, fn, declare = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        declare(p)
        p.set_defaults(fn=fn)
    return ap


def _config_value_ok(action: argparse.Action, val) -> bool:
    """A config value is a string (converted as the flag's text would be)
    or of the option's type: a bool for a switch, a list of strings for an
    appending flag, an int for type=int, an int or float for type=float; and
    one of the option's choices, if it has any."""
    if action.nargs == 0:
        return isinstance(val, bool)
    if isinstance(action, argparse._AppendAction):
        return isinstance(val, list) and all(isinstance(v, str) for v in val)
    types = {int: (int,), float: (int, float)}.get(action.type, ())
    typed = isinstance(val, str) or (not isinstance(val, bool) and isinstance(val, types))
    return typed and (action.choices is None or val in action.choices)


def _with_config(ap: argparse.ArgumentParser, argv, args: argparse.Namespace):
    """args, or with --config argv parsed again with the file's values as
    the defaults of the subcommand's own options, so explicit flags win
    (abbreviated ones too; an appending flag, verify --id, extends the
    file's list).  A file that is not a JSON object, or that gives an option
    the subcommand lacks or a value of the wrong type, is a configuration error."""
    if not args.config:
        return args
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{args.config}: expected a JSON object of option defaults")
    doc = {key.replace("-", "_"): val for key, val in doc.items()}
    p = next(a for a in ap._actions if a.dest == "cmd").choices[args.cmd]
    actions = {a.dest: a for a in p._actions if a.dest != "help"}
    unknown = sorted(set(doc) - set(actions))
    if unknown:
        raise ValueError(f"{args.config}: {args.cmd} has no option {', '.join(unknown)}")
    for key, val in doc.items():
        if not _config_value_ok(actions[key], val):
            raise ValueError(f"{args.config}: {val!r} is not a value of --{key.replace('_', '-')}")
    p.set_defaults(**doc)
    return ap.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Runs one command line (`sys.argv[1:]` when argv is None), building the
    parser of its subcommand only."""
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = _with_config(ap, argv, ap.parse_args(argv))
        return args.fn(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, KeyError, MissingSqrtError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a certification failure, DivergenceError, PoleError
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
