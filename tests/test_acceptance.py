"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, directly from the contract; nothing is
deferred to later calibration.  Criterion 1 additionally enforces its
single-threaded runtime budget.
"""

import time
from fractions import Fraction as F

import mpmath
import pytest

from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.identities import check_identity, exact_ids
from q2dpoly.measures import (gram_positivity, inner_product,
                              orthonormal_seq_check)
from q2dpoly.zeros import (aq_zeros, asymptotic_report, radial_zeros,
                           zero_limit_report)

TR = TruncationPolicy(max_terms=500, tail_tol=1e-36)
Z1 = GR(F(3, 2), F(1, 2))
Z2 = GR(F(3, 2), F(-1, 2))


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_identity_suite():
    """Every EXACT-POLY entry: residual exactly 0 for 0 <= m,n <= 6 at
    q = 2/5, b = 1/3, c = 1/5; under two minutes single-threaded."""
    ctx = QContext(F(2, 5))
    t0 = time.time()
    failures = []
    params = {"max_m": 6, "max_n": 6, "b": F(1, 3), "c": F(1, 5),
              "z1": Z1, "z2": Z2}
    ids = exact_ids()
    for id_ in ids:
        rep = check_identity(ctx, id_, dict(params))
        if not (rep.passed and rep.residual == "0"):
            failures.append(id_)
    elapsed = time.time() - t0
    _report(1, not failures and elapsed < 120,
            f"{len(ids)} EXACT-POLY entries, residual 0, {elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_exact_series_suite():
    """The five generating functions exactly to total order 8 at q = 9/25
    (s = 3/5), shift offsets j,k <= 2."""
    ctx = QContext(F(9, 25), sqrt_q=F(3, 5))
    failures = []
    for id_ in ("H-GF", "h-GF", "GF-SHIFT-H", "GF-SHIFT-h", "DISK-GF"):
        rep = check_identity(ctx, id_, {"order": 8, "max_j": 2, "max_k": 2,
                                        "z1": Z1, "z2": Z2})
        if not (rep.passed and rep.residual == "0"):
            failures.append(id_)
    _report(2, not failures, "order 8, q = 9/25, s = 3/5"
            + (f"; failures: {failures}" if failures else ""))


def _ortho_grid(ctx, family, N, b, diag_tol, off_tol):
    worst_diag = 0.0
    worst_off = 0.0
    values = {}
    for m in range(N + 1):
        for n in range(N + 1):
            for s in range(N + 1):
                for t in range(N + 1):
                    r = inner_product(ctx, family, (m, n), (s, t), b=b)
                    values[(m, n, s, t)] = r.value
                    if (m, n) == (s, t):
                        worst_diag = max(worst_diag, r.rel_error)
                    else:
                        worst_off = max(worst_off, ctx.mag(r.value))
    return worst_diag, worst_off, values


def test_criterion_3_and_4_H_and_p_orthogonality():
    """(3) First family at q = 1/4, >= 128 bits, m,n,s,t <= 5:
    diagonal rel error <= 1e-10, off-diagonal <= 1e-10.
    (4) Disk family, same grid, b = 1/4, rel error <= 1e-10; and b = 0
    reproduces the first family's values to 1e-12."""
    ctx = QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=128,
                   default_trunc=TR)
    d3, o3, valsH = _ortho_grid(ctx, "Hq", 5, None, 1e-10, 1e-10)
    _report(3, d3 <= 1e-10 and o3 <= 1e-10,
            f"diag rel {d3:.2e}, off-diag {o3:.2e}")
    d4, o4, valsP = _ortho_grid(ctx, "pq", 5, F(1, 4), 1e-10, 1e-10)
    ok4 = d4 <= 1e-10 and o4 <= 1e-10
    _, _, valsP0 = _ortho_grid(ctx, "pq", 5, 0, 1e-10, 1e-10)
    drift = max(ctx.mag(valsP0[k] - valsH[k]) for k in valsH)
    _report(4, ok4 and drift <= 1e-12,
            f"diag rel {d4:.2e}, off-diag {o4:.2e}, b=0 drift {drift:.2e}")


def test_criterion_5_h_orthogonality():
    """Second family, m,n <= 4 at q = 1/2, closed-form radial moments:
    diagonal matches pi log(1/q) (q;q)_m (q;q)_n q^{-(m-n)^2/2-(m+n)/2} to
    rel error <= 1e-8."""
    ctx = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TR)
    worst = 0.0
    worst_off = 0.0
    for m in range(5):
        for n in range(5):
            r = inner_product(ctx, "hq", (m, n), (m, n))
            worst = max(worst, r.rel_error)
            off = inner_product(ctx, "hq", (m, n), ((m + 1) % 5, n))
            worst_off = max(worst_off, ctx.mag(off.value))
    _report(5, worst <= 1e-8 and worst_off <= 1e-6,
            f"diag rel {worst:.2e}, off-diag {worst_off:.2e}")


def test_criterion_6_aqgf2_and_gis():
    """eqAqgf2 to 1e-10 for |cd| <= 1/4 and |c z1|, |d z2| <= 1/4 at q = 1/2;
    eqhasPGF for the calibrated range s = 0..4 to 1e-10."""
    ctx = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TR)
    worst = 0.0
    for (c, d, z1, z2) in [
        (F(1, 8), F(1, 9), Z1, Z2),
        (F(1, 4), F(-1, 5), F(1, 2), F(1, 3)),
        (F(-1, 6), F(1, 7), 1, 1),
    ]:
        rep = check_identity(ctx, "COR19-AQ2",
                             {"c": c, "d": d, "z1": z1, "z2": z2}, tol=1e-10)
        worst = max(worst, float(rep.residual))
        assert rep.passed, (c, d, rep.residual)
    worst_gis = 0.0
    for s in range(5):
        rep = check_identity(ctx, "GIS-PGF", {"s": s}, tol=1e-10)
        worst_gis = max(worst_gis, float(rep.residual))
        assert rep.passed, (s, rep.residual)
    _report(6, worst <= 1e-10 and worst_gis <= 1e-10,
            f"eqAqgf2 worst {worst:.2e}, GIS-PGF worst {worst_gis:.2e} (s = 0..4)")


def test_criterion_7_multisum_identities():
    """eq:circle and eq:askeyroy with free parameters of magnitude <= 1/8,
    index caps J = 8: agreement within 1e-6 + reported tail bound."""
    ctx = QContext(F(1, 5), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TR)
    rep_c = check_identity(ctx, "CIRCLE", {"J": 8}, tol=1e-6)
    rep_a = check_identity(ctx, "AR-EXP", {"J": 8}, tol=1e-6)
    _report(7, rep_c.passed and rep_a.passed,
            f"circle residual {rep_c.residual} (tail {rep_c.tail_bound:.1e}), "
            f"askey-roy residual {rep_a.residual} (tail {rep_a.tail_bound:.1e})")


def test_criterion_8_zeros():
    """radial_zeros returns exactly min(m,n) certified roots (m,n sampled up
    to 25 for all three families, q in {1/4, 1/2}, b in {0, 1/4});
    limH(j=1, q=1/4) monotone over (10,10) -> (40,40) with final error
    <= 5e-2; limh matches 1/sqrt(i_1(q)) with monotone error decrease."""
    grid = (1, 2, 3, 5, 8, 13, 20, 25)
    ok_counts = True
    for qv in (F(1, 4), F(1, 2)):
        ctx = QContext(qv, sqrt_q="auto", backend="float", precision_bits=160,
                       default_trunc=TR)
        for fam, b in (("Hq", None), ("hq", None), ("pq", F(1, 4)), ("pq", 0)):
            for m in grid:
                for n in (grid if fam == "Hq" and qv == F(1, 4) else (1, 8, 25)):
                    zs = radial_zeros(ctx, fam, m, n, b=b, precision=12)
                    if len(zs.radii) != min(m, n):
                        ok_counts = False
    ctx = QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TR)
    repH = zero_limit_report(ctx, "limH", 1, [10, 20, 40], precision=14)
    okH = repH.monotone and repH.final_error <= 5e-2
    reph = zero_limit_report(ctx, "limh", 1, [5, 10, 20], precision=14)
    okh = reph.monotone
    _report(8, ok_counts and okH and okh,
            f"counts ok={ok_counts}; limH final {repH.final_error:.1e} "
            f"monotone={repH.monotone}; limh final {reph.final_error:.1e} "
            f"monotone={reph.monotone}")


def test_criterion_9_asymptotics():
    """Hmn_inf, PR_h, p_inf, theta4_scaled: monotone |ratio - 1| decrease
    over three size doublings at interior points (property-based)."""
    ctx = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=200,
                   default_trunc=TR)
    reps = {
        "Hmn_inf": asymptotic_report(ctx, "Hmn_inf", [8, 16, 32, 64], {"z1": 2, "z2": 2}),
        "PR_h": asymptotic_report(ctx, "PR_h", [8, 16, 32, 64], {"w1": 1, "w2": 1}),
        "p_inf": asymptotic_report(ctx, "p_inf", [8, 16, 32, 64],
                                   {"z1": 2, "z2": 2, "b": F(1, 4)}),
        "theta4_scaled": asymptotic_report(ctx, "theta4_scaled", [5, 9, 17, 33],
                                           {"z1": 1.1, "z2": 0.9}),
    }
    bad = [k for k, r in reps.items() if not r.monotone]
    _report(9, not bad,
            "; ".join(f"{k} final {r.final_error:.1e}" for k, r in reps.items())
            + (f"; non-monotone: {bad}" if bad else ""))


def test_criterion_10_positivity():
    """gram_positivity exact for N <= 8, z in {1, 1+i, 2}, q in {2/5, 1/2};
    orthonormal-sequence sums match closed forms to 1e-8 for j,k <= 4."""
    ok_gram = True
    for qv in (F(2, 5), F(1, 2)):
        ctx = QContext(qv)
        for z in (1, GR(1, 1), 2):
            for kind in ("doH", "doh"):
                rep = gram_positivity(ctx, kind, 8, z)
                ok_gram = ok_gram and rep.passed
    ctx = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TR)
    worst = 0.0
    for kind in ("do7", "do8"):
        for j in range(5):
            for k in range(5):
                rep = orthonormal_seq_check(ctx, kind, j, k, 1.5)
                worst = max(worst, float(rep.residual))
                ok_gram = ok_gram and rep.passed
    _report(10, ok_gram and worst <= 1e-8,
            f"all leading minors > 0 (exact); orthonormal-seq worst {worst:.2e}")
