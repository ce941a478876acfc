"""The benchmark's four workloads, built against q2dpoly's public API.

Each workload is a list of checks.  A check is one unit of timed work with
the verdict it must produce:

* ``exact-sweep``: one (entry, grid point) of every EXACT-POLY entry at
  0 <= m, n <= 8 with the acceptance-1 parameters, plus every EXACT-SERIES
  entry at order 10 (q = 9/25, s = 3/5, j, k <= 2).  Residual must be "0".
* ``numeric-sweep``: one (entry, grid point) of every NUMERIC entry at the
  tier-1 parameters (q = 1/2, 160 bits, TruncationPolicy(400, 1e-34),
  tol 1e-9).  CIRCLE, AR-EXP and AR-EXP2 run at q = 1/5, J = 8, tol 1e-6
  (acceptance 7), and so does RAM-GEN-C, which takes about 20 s at q = 1/2.
  Left out, to keep a pass near 9 s so that a run holds two: RAM-GEN-LAG
  (about 170 s a point), GF-SHIFT-p (about 10 s at its one point (1, 1);
  RAM-GEN-C keeps float coeffs + eval_poly in the pass), CIRCLE2 (about
  11 s; AR-EXP2 covers the same radial route), and the alternative forms
  RAM-GEN-C-ALT and RAM-GEN-h-ALT (2.6 s and 0.9 s), which run the same
  code as RAM-GEN-C and RAM-GEN-h.  QKS1, RAM-GEN-h and RAM-GEN-C check
  misprinted forms and must fail with a residual far above the tolerance
  and the tail bound; every other entry must pass.
* ``audit``: one library call of acceptance criteria 3-5 and 8-10, cut to
  about 10 s: Hq inner products (q = 1/4, 128 bits, m, n, s, t <= 5), pq
  with b = 1/4 (<= 2), hq from a cold moment cache (q = 1/2, the pairs of
  m, n <= 1 except (1, 1), so that the moments are computed twice, not
  three times),
  radial zeros up to degree 8, limH over sizes 10, 15, 20, limh, the four
  asymptotic targets, Gram positivity and the orthonormal sequences.  The
  thresholds are those of tests/test_acceptance.py.  The checks run in a
  seeded order, except that the hq calls keep the acceptance order among
  themselves, since the moment cache makes their cost order-dependent.
* ``cli-cold``: a stream of 280 README-style commands run in-process
  through ``q2dpoly.cli.main``: 40 of each of the README's CLI example
  subcommands eval, coeffs, verify, zeros, aqzeros, gram and asym.  The
  weights are equal because nothing in the repo says how often each is
  used; ``ortho``, the README's eighth, is left out, since its inner
  products are the audit workload's.  q, m, n, family and points are drawn from
  the seed, so almost no two commands share a context.  The draws are
  stratified, so that every seed asks for about the same work: each
  subcommand's q values come one from each of 40 equal slices of
  ``Q_VALUES``; its main choice (family, entry id, count, N or target) takes
  its values in turn along the increasing q, so that each value meets q
  from the whole range; and its other sizes and choices cycle through their
  ranges in a seeded order.  Every command must
  exit 0, except the ``asym`` commands at the (target, q) points of
  ``ASYM_MUST_FAIL``, which must exit 1; eval/coeffs output must equal the
  library's.

The seed fixes every input: the order of the checks and the cli stream.
numeric-sweep alone runs in registry order whatever the seed: with only 24
checks, the entry that first fills a shared context's caches would
otherwise move its latency percentiles from seed to seed.
Checks call q2dpoly through module attributes, so the tracer's rebinding
sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from collections import namedtuple
from fractions import Fraction as F

from q2dpoly import cli, context, measures, polyfamilies, reports, zeros
from q2dpoly import identities as ident

# run() is timed; verify(result) -> bool runs after the timed loop
Check = namedtuple("Check", "label run verify")


# ---------------------------------------------------------------------------
# exact-sweep
# ---------------------------------------------------------------------------

def _exact_ok(rep):
    return rep.passed and rep.residual == "0"


def exact_sweep(seed, max_mn=8, series=True):
    gr = context.GaussianRational
    z = {"z1": gr(F(3, 2), F(1, 2)), "z2": gr(F(3, 2), F(-1, 2))}
    ctx = context.QContext(F(2, 5))
    base = dict(z, b=F(1, 3), c=F(1, 5))
    checks = []
    for id_ in ident.exact_ids():
        if ident.get_entry(id_).grid_kind == "mn":
            pts = [(m, n) for m in range(max_mn + 1) for n in range(max_mn + 1)]
        else:
            pts = [(m, m) for m in range(max_mn + 1)]
        for m, n in pts:
            params = dict(base, m=m, n=n)
            checks.append(Check(f"{id_}@{m},{n}",
                                lambda i=id_, p=params: ident.check_identity(ctx, i, p),
                                _exact_ok))
    if series:
        ctxs = context.QContext(F(9, 25), sqrt_q=F(3, 5))
        for id_ in ident.exact_series_ids():
            if ident.get_entry(id_).grid_kind == "jk":
                pts = [{"j": j, "k": k} for j in range(3) for k in range(3)]
            else:
                pts = [{}]
            for pt in pts:
                params = dict(z, order=10, **pt)
                checks.append(Check(f"{id_}@{pt}",
                                    lambda i=id_, p=params: ident.check_identity(ctxs, i, p),
                                    _exact_ok))
    random.Random(seed).shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# numeric-sweep
# ---------------------------------------------------------------------------

NUMERIC_LEFT_OUT = ("RAM-GEN-LAG", "GF-SHIFT-p", "CIRCLE2", "RAM-GEN-C-ALT", "RAM-GEN-h-ALT")
NUMERIC_AT_Q5 = {"CIRCLE": ({"J": 8}, 1e-6), "AR-EXP": ({"J": 8}, 1e-6),
                 "AR-EXP2": ({"J": 8}, 1e-6), "RAM-GEN-C": ({}, 1e-9)}
NUMERIC_MUST_FAIL = ("QKS1", "RAM-GEN-h", "RAM-GEN-C")


def _printed_form_fails(rep, tol):
    """A flagged entry fails as a misprint does: its residual is far above
    both the tolerance and the truncation tail bound, so a truncation
    shortfall does not pass for the expected failure."""
    far = 1e3 * max(tol, float(rep.tail_bound))
    return not rep.passed and bool(rep.note) and float(rep.residual) > far


def numeric_sweep(seed):
    qc, tp = context.QContext, context.TruncationPolicy
    ctx = qc(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
             default_trunc=tp(max_terms=400, tail_tol=1e-34))
    ctx5 = qc(F(1, 5), sqrt_q="auto", backend="float", precision_bits=160,
              default_trunc=tp(max_terms=500, tail_tol=1e-36))
    checks = []
    for id_ in ident.numeric_ids():
        if id_ in NUMERIC_LEFT_OUT:
            continue
        if id_ in NUMERIC_AT_Q5:
            c, (params, tol) = ctx5, NUMERIC_AT_Q5[id_]
            pts = [params]
        else:
            c, tol = ctx, 1e-9
            kind = ident.get_entry(id_).grid_kind
            pts = [{"s": s} for s in range(5)] if kind == "s_range" else [{}]
        if id_ in NUMERIC_MUST_FAIL:
            verify = lambda rep, t=tol: _printed_form_fails(rep, t)
        else:
            verify = lambda rep: rep.passed
        for pt in pts:
            checks.append(Check(f"{id_}@{pt}",
                                lambda c=c, i=id_, p=pt, t=tol: ident.check_identity(c, i, p, tol=t),
                                verify))
    return checks


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def audit(seed):
    qc, tp, gr = context.QContext, context.TruncationPolicy, context.GaussianRational
    tr = tp(max_terms=500, tail_tol=1e-36)

    def fctx(q, bits):
        return qc(q, sqrt_q="auto", backend="float", precision_bits=bits, default_trunc=tr)

    checks = []

    # criteria 3 and 4: discrete-measure inner products
    c4 = fctx(F(1, 4), 128)
    for fam, N, b in (("Hq", 5, None), ("pq", 2, F(1, 4))):
        for m in range(N + 1):
            for n in range(N + 1):
                for s in range(N + 1):
                    for t in range(N + 1):
                        checks.append(Check(
                            f"inner_product {fam} {(m, n)} {(s, t)}",
                            lambda f=fam, mn=(m, n), st=(s, t), b=b:
                                measures.inner_product(c4, f, mn, st, b=b, K=80),
                            (lambda r: r.rel_error <= 1e-10) if (m, n) == (s, t)
                            else (lambda r: c4.mag(r.value) <= 1e-10)))

    # criterion 8: certified zeros and their limits
    grid = (1, 2, 3, 5, 8)
    for q in (F(1, 4), F(1, 2)):
        cz = fctx(q, 160)
        for fam, b in (("Hq", None), ("hq", None), ("pq", F(1, 4)), ("pq", 0)):
            for m in grid:
                for n in (grid if fam == "Hq" and q == F(1, 4) else (1, 8)):
                    checks.append(Check(
                        f"radial_zeros {q} {fam} {b} {m},{n}",
                        lambda cz=cz, f=fam, m=m, n=n, b=b:
                            zeros.radial_zeros(cz, f, m, n, b=b, precision=12),
                        lambda zs, k=min(m, n): len(zs.radii) == k))
    cl = fctx(F(1, 4), 160)
    checks.append(Check(
        "zero_limit_report limH",
        lambda: zeros.zero_limit_report(cl, "limH", 1, [10, 15, 20], precision=14),
        lambda r: r.monotone and r.final_error <= 5e-2))
    checks.append(Check(
        "zero_limit_report limh",
        lambda: zeros.zero_limit_report(cl, "limh", 1, [5, 10, 20], precision=14),
        lambda r: r.monotone))

    # criterion 9: asymptotic regimes
    ca = fctx(F(1, 2), 200)
    for target, sizes, pt in (
            ("Hmn_inf", [8, 16, 32, 64], {"z1": 2, "z2": 2}),
            ("PR_h", [8, 16, 32, 64], {"w1": 1, "w2": 1}),
            ("p_inf", [8, 16, 32, 64], {"z1": 2, "z2": 2, "b": F(1, 4)}),
            ("theta4_scaled", [5, 9, 17, 33], {"z1": 1.1, "z2": 0.9})):
        checks.append(Check(f"asymptotic_report {target}",
                            lambda t=target, s=sizes, p=pt: zeros.asymptotic_report(ca, t, s, p),
                            lambda r: r.monotone))

    # criterion 10: exact positivity and orthonormal sequences
    for q in (F(2, 5), F(1, 2)):
        ce = qc(q)
        for z in (1, gr(1, 1), 2):
            for kind in ("doH", "doh"):
                checks.append(Check(f"gram_positivity {q} {kind} {z}",
                                    lambda ce=ce, k=kind, z=z: measures.gram_positivity(ce, k, 8, z),
                                    lambda r: r.passed))
    c2 = fctx(F(1, 2), 160)
    for kind in ("do7", "do8"):
        for j in range(5):
            for k in range(5):
                checks.append(Check(f"orthonormal_seq_check {kind} {j},{k}",
                                    lambda kd=kind, j=j, k=k:
                                        measures.orthonormal_seq_check(c2, kd, j, k, 1.5),
                                    lambda r: r.passed and float(r.residual) <= 1e-8))

    # criterion 5: hq from a cold moment cache, kept in acceptance order
    hq = []
    N = 1
    for m, n in ((0, 0), (0, 1), (1, 0)):
        for st, ok in (((m, n), lambda r: r.rel_error <= 1e-8),
                       (((m + 1) % (N + 1), n), lambda r: c2.mag(r.value) <= 1e-6)):
            hq.append(Check(f"inner_product hq {(m, n)} {st}",
                            lambda mn=(m, n), st=st: measures.inner_product(c2, "hq", mn, st),
                            ok))

    rng = random.Random(seed)
    rng.shuffle(checks)
    slots = set(rng.sample(range(len(checks) + len(hq)), len(hq)))
    rest, hq = iter(checks), iter(hq)
    return [next(hq) if i in slots else next(rest) for i in range(len(checks) + len(slots))]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_KINDS = ("eval", "coeffs", "verify", "zeros", "aqzeros", "gram", "asym")
CLI_PER_KIND = 40
_EVAL_FAMILIES = ("H", "h", "p", "Hc", "C")

# The q values of Q_VALUES at which `asym` reports a non-monotone sequence
# and exits 1, found by running every such q through the commands
# cli_commands builds.  theta4_scaled fails for q in about (0.46, 0.49) and
# at 5/7; PR_h at four more points.  Hmn_inf and p_inf pass everywhere.
ASYM_MUST_FAIL = {
    "theta4_scaled": {F(7, 15), F(15, 32), F(8, 17), F(17, 36), F(9, 19), F(19, 40),
                      F(10, 21), F(11, 23), F(12, 25), F(13, 27), F(14, 29), F(15, 31),
                      F(16, 33), F(17, 35), F(5, 7)},
    "PR_h": {F(5, 37), F(5, 36), F(23, 32), F(18, 25)},
}


# every q a command may get: p/d with 5 <= d <= 40 and d/8 <= p <= 3d/4
Q_VALUES = sorted({F(num, den) for den in range(5, 41)
                   for num in range(math.ceil(den / 8), (3 * den) // 4 + 1)})


def _strata_q(rng, k=CLI_PER_KIND):
    """k increasing q values, one drawn from each of k equal slices of Q_VALUES."""
    return [rng.choice(Q_VALUES[i * len(Q_VALUES) // k:(i + 1) * len(Q_VALUES) // k])
            for i in range(k)]


def _rotation(rng, values, k=CLI_PER_KIND):
    """k items that go through `values` in turn from a seeded start.  Zipped
    with _strata_q's increasing q, each value gets q from the whole range."""
    start = rng.randrange(len(values))
    return [values[(start + i) % len(values)] for i in range(k)]


def _cycle(rng, values, k=CLI_PER_KIND):
    """k items that go through `values` as evenly as k allows, in a seeded order."""
    values = list(values)
    rng.shuffle(values)
    out = (values * (k // len(values) + 1))[:k]
    rng.shuffle(out)
    return out


def _rand_point(rng):
    re = F(rng.randint(-12, 12), rng.randint(1, 8))
    if rng.random() < 0.5:
        return re, str(re)
    im = F(rng.randint(1, 12), rng.randint(1, 8))
    return (re, im), f"{re},{im}"


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_commands(rng, exact_ids):
    """(argv, expected-output spec) pairs of one pass, in a seeded order.

    The spec is None when exit code 0 is all a command must give, ("asym",
    must_fail) for asym, and the inputs of the answer otherwise.
    """
    cmds = []
    for kind in CLI_KINDS:
        qs = _strata_q(rng)
        if kind in ("eval", "coeffs"):
            top = 8 if kind == "eval" else 10
            fams = _rotation(rng, _EVAL_FAMILIES)
            ms, ns = _cycle(rng, range(top + 1)), _cycle(rng, range(top + 1))
            for q, fam, m, n in zip(qs, fams, ms, ns):
                b = F(rng.randint(1, 9), rng.randint(10, 19)) if fam == "p" else None
                nu = F(rng.randint(1, 7), 2) if fam == "C" else None
                argv = [kind, "--q", str(q), "--family", fam, "--m", str(m), "--n", str(n)]
                argv += ["--b", str(b)] if b is not None else []
                argv += ["--nu", str(nu)] if nu is not None else []
                spec = (kind, q, fam, m, n, b, nu)
                if kind == "eval":
                    z1, s1 = _rand_point(rng)
                    z2, s2 = _rand_point(rng)
                    argv += [f"--z1={s1}", f"--z2={s2}"]
                    spec += (z1, z2)
                cmds.append((argv, spec))
        elif kind == "verify":
            for q, id_ in zip(qs, _rotation(rng, exact_ids)):
                cmds.append(([kind, "--q", str(q), "--id", id_, "--max-m", "2", "--max-n", "2"],
                             None))
        elif kind == "zeros":
            fams = _rotation(rng, ("H", "h", "p"))
            ms, ns = _cycle(rng, range(1, 9)), _cycle(rng, range(1, 9))
            for q, fam, m, n in zip(qs, fams, ms, ns):
                argv = [kind, "--q", str(q), "--family", fam, "--m", str(m), "--n", str(n)]
                if fam == "p":
                    argv += ["--b", str(F(rng.randint(1, 9), rng.randint(10, 19)))]
                cmds.append((argv, None))
        elif kind == "aqzeros":
            for q, count in zip(qs, _rotation(rng, (1, 2, 3))):
                cmds.append(([kind, "--q", str(q), "--count", str(count)], None))
        elif kind == "gram":
            gram = zip(qs, _cycle(rng, ("doH", "doh")), _rotation(rng, range(2, 7)),
                       _cycle(rng, ("1", "1,1", "2", "3/2", "1/2,1")))
            for q, gkind, N, z in gram:
                cmds.append(([kind, "--q", str(q), "--kind", gkind, "--N", str(N), "--z", z],
                             None))
        else:
            targets = _rotation(rng, ("Hmn_inf", "PR_h", "p_inf", "theta4_scaled"))
            for q, target in zip(qs, targets):
                argv = [kind, "--q", str(q), "--target", target]
                if target == "theta4_scaled":
                    argv += ["--sizes", "5,9,17", "--z1", "11/10", "--z2", "9/10"]
                else:
                    argv += ["--sizes", "8,16,32"]
                if target in ("Hmn_inf", "p_inf"):
                    argv += ["--z1", "2", "--z2", "2"]
                if target == "p_inf":
                    argv += ["--b", "1/4"]
                cmds.append((argv, ("asym", q in ASYM_MUST_FAIL.get(target, ()))))
    rng.shuffle(cmds)
    return cmds


def _cli_expected(spec):
    """The library's own rendering of an eval/coeffs command's answer."""
    kind, q, fam, m, n, b, nu = spec[:7]
    ctx = context.QContext(q)
    P = polyfamilies.coeffs(ctx, cli.FAMILY_MAP[fam], m, n, b=b, nu=nu)
    if kind == "coeffs":
        return polyfamilies.poly_to_json(P)
    z1, z2 = (context.GaussianRational(*z) if isinstance(z, tuple) else z for z in spec[7:])
    return reports.scalar_str(polyfamilies.eval_poly(P, z1, z2))


def cli_cold(seed):
    checks = []
    for argv, spec in cli_commands(random.Random(seed), ident.exact_ids()):
        if spec is None:
            verify = lambda r: r[0] == 0
        elif spec[0] == "asym":
            verify = lambda r, code=int(spec[1]): r[0] == code
        else:
            verify = lambda r, s=spec: r[0] == 0 and r[1].rstrip("\n") == _cli_expected(s)
        checks.append(Check(" ".join(argv), lambda a=argv: _run_cli(a), verify))
    return checks


def acceptance_1(seed):
    """The acceptance-1 grid (EXACT-POLY, m, n <= 6); used by the self-test."""
    return exact_sweep(seed, max_mn=6, series=False)


BUILDERS = {"exact-sweep": exact_sweep, "numeric-sweep": numeric_sweep,
            "audit": audit, "cli-cold": cli_cold, "acceptance-1": acceptance_1}
