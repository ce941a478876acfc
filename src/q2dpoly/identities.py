"""Identity registry: every catalogued identity with its checker and modes.

Modes:

* ``EXACT-POLY``    -- LHS - RHS built as a bivariate polynomial at symbolic
                       coefficient level; pass iff it is the zero polynomial.
* ``EXACT-SERIES``  -- both sides as truncated (u, v) series with exact
                       coefficients; pass iff the maps agree exactly.
* ``NUMERIC-SERIES``, ``NUMERIC-MULTISUM``, ``NUMERIC-QSUM``
                    -- float-backend evaluation at parameter points;
                       pass iff |LHS - RHS| <= tol + tail bound.

``check_identity`` runs one entry over its (defaulted) grid and aggregates a
single report; ``sweep`` emits one report per grid point in deterministic
order.  Entries whose printed source is corrected or refuted carry a ``note``
-- the derivations are in their checkers' docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from . import identities_exact as ex
from . import identities_numeric as nm
from . import identities_series as se
from .context import MissingSqrtError, QContext
from .reports import VerificationReport, numeric_verdict, scalar_str

F = Fraction

__all__ = ["IdentityEntry", "list_identities", "get_entry", "check_identity",
           "sweep", "REGISTRY"]


@dataclass
class IdentityEntry:
    id: str
    anchor: str
    mode: str
    checker: Callable          # (ctx, point) -> residual (exact) or (residual, tail, info)
    needs_sqrt: bool = False
    grid_kind: str = "mn"      # "mn" | "m" | "jk" | "single"
    note: str = ""


def _entry_poly(id_, anchor, fn, grid_kind="mn", note=""):
    return IdentityEntry(id_, anchor, "EXACT-POLY", fn, grid_kind=grid_kind, note=note)


def _entry_series(id_, anchor, fn, needs_sqrt=False, grid_kind="jk", note=""):
    return IdentityEntry(id_, anchor, "EXACT-SERIES", fn,
                         needs_sqrt=needs_sqrt, grid_kind=grid_kind, note=note)


def _entry_num(id_, anchor, fn, mode="NUMERIC-SERIES", needs_sqrt=True,
               grid_kind="single", note=""):
    return IdentityEntry(id_, anchor, mode, fn, needs_sqrt=needs_sqrt,
                         grid_kind=grid_kind, note=note)


_T_MULT = 'printed trailing (q;q)_j is (ab)^j; re-derived from the GF (ledger)'
_T_MULT2 = 'printed form misses (-1)^j; re-derived from the GF (ledger)'
_T_SHIFT = 'printed q-power corrected from the GF derivation (ledger)'
_T_RAISE = 'printed statement swaps which variable raises which index (ledger)'
_T_SL = 'mixed-variable eigenform; printed same-variable form is not an eigen-equation (ledger)'
_T_CONN = 'printed inner exponent k(m+n-k) corrected to k(m+n-s) (ledger)'
_T_BWD = 'printed form misses the (1-b q^m)/(1-b) prefactor (ledger)'
_T_17B = 'printed RHS misses q^m on p_{m,n} (ledger)'
_T_17D = 'printed b q^{m+n} corrected to b q^{m+n-1} (ledger)'
_T_19 = 'printed relation fails at (1,0); re-derived three-term form (ledger)'
_T_20B = 'printed relation fails at (0,0); re-derived mixed-shift form (ledger)'
_T_22 = 'printed relation (and its phi-source) fail at (0,1); replaced by the derived double-dilation identity (ledger)'
_T_DO5 = 'printed form omits q^{m^2/2}; verified in the sqrt-free substituted variables (ledger)'
_T_CONV = 'printed convolution misses the binomial normalization (ledger)'


def _build_registry() -> Dict[str, IdentityEntry]:
    E: List[IdentityEntry] = []
    # --- first family -----------------------------------------------------
    E += [
        _entry_series("H-GF", "eqGFHq: 'satisfy the relations'",
                      lambda c, p: se.gf_shift_H(c, dict(p, j=0, k=0)), grid_kind="single"),
        _entry_poly("H-SHIFT-1", "eq:Hp18", lambda c, p: ex.h_shift(c, p, 1)),
        _entry_poly("H-SHIFT-2", "eq:Hp19", lambda c, p: ex.h_shift(c, p, 2)),
        _entry_poly("H-SHIFT-3", "eq:Hp20", lambda c, p: ex.h_shift_diag(c, p, 1)),
        _entry_poly("H-SHIFT-4", "eq:Hp21", lambda c, p: ex.h_shift_diag(c, p, 2)),
        _entry_poly("H-SYM-Q", "eqSym: 'imply the symmetry relation'", ex.h_sym_q),
        _entry_poly("H-TTR-a", "eqHmn3trr (z1)", lambda c, p: ex.h_ttr(c, p, 1)),
        _entry_poly("H-TTR-b", "eqHmn3trr (z2)", lambda c, p: ex.h_ttr(c, p, 2)),
        _entry_poly("H-LOWER-1", "'the lowering operator relations' (z1)",
                    lambda c, p: ex.h_lower(c, p, 1)),
        _entry_poly("H-LOWER-2", "'the lowering operator relations' (z2)",
                    lambda c, p: ex.h_lower(c, p, 2)),
        _entry_poly("H-ROD", "eqRodHmnq: 'satisfy the Rodrigues type formula'", ex.h_rod),
        _entry_poly("H-RAISE-1", "eqraisHm", lambda c, p: ex.h_raise(c, p, 1)),
        _entry_poly("H-RAISE-2", "eqraisHn", lambda c, p: ex.h_raise(c, p, 2)),
        _entry_poly("H-MULT", "eqMF1: 'have the multiplication formula'", ex.h_mult, note=_T_MULT),
        _entry_poly("H-OPREP", "eqoprepH: 'the operational representation'", ex.h_oprep),
        _entry_num("H-GF-AB", "eqHmnu+v: 'have the generating function'", nm.num_gf_H_ab,
                   needs_sqrt=False, note="statement's (a/u;q)_n index typo read as m"),
        _entry_poly("H-WALL", "eq:H2w: 'little q-Laguerre or Wall's'",
                    lambda c, p: ex.radial_expansion(c, p, "Hq")),
    ]
    # --- second family ----------------------------------------------------
    E += [
        _entry_series("h-GF", "eq:hp3 (thm9)", lambda c, p: se.gf_shift_h(c, dict(p, j=0, k=0)),
                      needs_sqrt=True, grid_kind="single"),
        _entry_poly("h-SHIFT-1", "eq:hp4", lambda c, p: ex.hh_shift(c, p, 1), note=_T_SHIFT),
        _entry_poly("h-SHIFT-2", "eq:hp5", lambda c, p: ex.hh_shift(c, p, 2), note=_T_SHIFT),
        _entry_poly("h-SHIFT-3", "eq:hp6", lambda c, p: ex.hh_shift_diag(c, p, 1), note=_T_SHIFT),
        _entry_poly("h-SHIFT-4", "eq:hp7", lambda c, p: ex.hh_shift_diag(c, p, 2), note=_T_SHIFT),
        _entry_poly("h-TTR-a", "eq:hp22", lambda c, p: ex.hh_ttr(c, p, 1)),
        _entry_poly("h-TTR-b", "eq:hp23", lambda c, p: ex.hh_ttr(c, p, 2)),
        _entry_poly("h-ROD", "eqRodhmn: 'the Rodrigues type formula'", ex.hh_rod),
        _entry_poly("h-OPREP", "eqhmnqop: 'the operational formula'", ex.hh_oprep),
        _entry_poly("h-LOWER-1", "eqlowerm", lambda c, p: ex.hh_lower(c, p, 1), note=_T_SHIFT),
        _entry_poly("h-LOWER-2", "eqlowern", lambda c, p: ex.hh_lower(c, p, 2), note=_T_SHIFT),
        _entry_poly("h-RAISE-1", "eqraisem", lambda c, p: ex.hh_raise(c, p, 1), note=_T_RAISE),
        _entry_poly("h-RAISE-2", "eqraisen", lambda c, p: ex.hh_raise(c, p, 2), note=_T_RAISE),
        _entry_poly("h-MULT", "eqMF2: 'multiplication formulas for the polynomials'",
                    ex.hh_mult, note=_T_MULT2),
        _entry_poly("h-SL-1", "eqqSLz1: 'q-Sturm-Liouville problems'",
                    lambda c, p: ex.hh_sl(c, p, 1), note=_T_SL),
        _entry_poly("h-SL-2", "eqqSLz2", lambda c, p: ex.hh_sl(c, p, 2), note=_T_SL),
        _entry_poly("h-QINV", "eqhvsH: 'transform to each other'", ex.hh_qinv),
        _entry_poly("h-LAG", "eq:h2l: 'We note the relation'",
                    lambda c, p: ex.radial_expansion(c, p, "hq")),
    ]
    # --- monomial expansions and connections -------------------------------
    E += [
        _entry_poly("MONO-H", "eqzzinH (lem:LinearCoefficientH1)", ex.mono_H),
        _entry_poly("MONO-h", "eqzzinh", ex.mono_h),
        _entry_poly("CONN-Hh", "fromhtoH (ceonnHh)", ex.conn_Hh, note=_T_CONN),
        _entry_poly("CONN-hH", "fromHtoh (ceonnHh)", ex.conn_hH),
    ]
    # --- q-disk family ------------------------------------------------------
    E += [
        _entry_num("p-GF", "eq:jp generating function",
                   lambda c, p: nm.num_gf_shift_p(c, dict(p, j=0, k=0)), needs_sqrt=False),
        _entry_poly("p-CONN-BC", "'connection relation between the q-2D ultraspherical'",
                    ex.p_conn_bc,
                    note="verified per coefficient after exact Euler resummation; "
                         "no square root needed (ledger)"),
        _entry_poly("p-CONN-H", "eq:jp p2H", ex.p_conn_H,
                    note="per-coefficient resummation; no square root needed (ledger)"),
        _entry_num("p-CONN-H-INV", "eqcinnhtop: 'the inverse relation'", nm.num_p_conn_H_inv),
        _entry_poly("p-FWD-1", "eq:jp forward 1", lambda c, p: ex.p_fwd(c, p, 1)),
        _entry_poly("p-FWD-2", "eq:jp forward 2", lambda c, p: ex.p_fwd(c, p, 2)),
        _entry_poly("p-BWD-1", "eq:jp backward 1", lambda c, p: ex.p_bwd(c, p, 1), note=_T_BWD),
        _entry_poly("p-BWD-2", "eq:jp backward 2", lambda c, p: ex.p_bwd(c, p, 2), note=_T_BWD),
        _entry_poly("p-PROP-17a", "eq:jp properties 17 a",
                    lambda c, p: ex.p_prop_17(c, p, 1, True)),
        _entry_poly("p-PROP-17b", "eq:jp properties 17 b",
                    lambda c, p: ex.p_prop_17(c, p, 1, False), note=_T_17B),
        _entry_poly("p-PROP-17c", "eq:jp properties 17 c",
                    lambda c, p: ex.p_prop_17(c, p, 2, False)),
        _entry_poly("p-PROP-17d", "eq:jp properties 17 d",
                    lambda c, p: ex.p_prop_17(c, p, 2, True), note=_T_17D),
        _entry_poly("p-PROP-18a", "eq:jp properties 18 a", lambda c, p: ex.p_prop_18(c, p, 1)),
        _entry_poly("p-PROP-18b", "eq:jp properties 18 b", lambda c, p: ex.p_prop_18(c, p, 2)),
        _entry_poly("p-PROP-19", "eq:jp properties 19", ex.p_prop_19, note=_T_19),
        _entry_poly("p-PROP-20a", "eq:jp properties 20 a", ex.p_prop_20a),
        _entry_poly("p-PROP-20b", "eq:jp properties 20 b", ex.p_prop_20b, note=_T_20B),
        _entry_poly("p-PROP-21", "eq:jp properties 21", ex.p_prop_21),
        _entry_poly("p-PROP-22", "eq:jp properties 22", ex.p_prop_22, note=_T_22),
        _entry_poly("p-QINV", "eqpmnq1/qsymm: 'essentially invariant under the quanta inversion'",
                    ex.p_qinv),
    ]
    # --- shifted generating functions ---------------------------------------
    E += [
        _entry_series("GF-SHIFT-H", "eqGFHplus: 'We have the generating functions'",
                      se.gf_shift_H),
        _entry_series("GF-SHIFT-h", "eqGFhplus", se.gf_shift_h, needs_sqrt=True,
                      note="re-derived closed form; printed prefactor is garbled (ledger)"),
        _entry_num("GF-SHIFT-p", "eq:eqGFpplus", nm.num_gf_shift_p, needs_sqrt=False,
                   grid_kind="jk"),
    ]
    # --- Corollary 19/20, GIS, Ramanujan-type --------------------------------
    E += [
        _entry_num("COR19-2PHI1", "eq2phi1gf (Cor. 19)", nm.num_cor19_2phi1,
                   note="1phi1 form: two printed minus signs restored (ledger); "
                        "analytic-continuation claim recorded untested"),
        _entry_num("COR19-AQ", "eqAqgf", nm.num_cor19_aq, needs_sqrt=False),
        _entry_num("COR19-AQ2", "eqAqgf2", nm.num_cor19_aq2, needs_sqrt=False),
        _entry_num("COR20-I2", "eqJqgf (Cor. 20)", nm.num_cor20_i2,
                   note="q^nu = -c d q^{-2}/b; sign lost in print (ledger)"),
        _entry_num("GIS-PGF", "eqhasPGF + eqGIS", nm.num_gis_pgf, needs_sqrt=False,
                   grid_kind="s_range",
                   note="Schur convention a_0 = 1, b_0 = 0 calibrated against the "
                        "Rogers-Ramanujan identities for s = 0..8"),
        _entry_num("RAM-GEN-H", "eq:ramHgen1 (thm:ram1)", nm.num_ram_gen_H,
                   note="closed form carries (q;q)inf/(abq;q)inf; omitted in print (ledger)"),
        _entry_num("RAM-GEN-h", "eq:ramhgen1", nm.num_ram_gen_h,
                   note="printed comma-reading checked literally and fails; "
                        "see RAM-GEN-h-ALT for the verified derived form"),
        _entry_num("RAM-GEN-h-ALT", "eq:ramhgen1 (derived variant)", nm.num_ram_gen_h_alt,
                   note="Gaussian-integral derivation; ledger"),
        _entry_num("RAM-GEN-C", "eq:ramhgen2", nm.num_ram_gen_C, needs_sqrt=False,
                   note="printed (-q^{a+b};q)inf checked literally and fails; "
                        "see RAM-GEN-C-ALT ((-1;q)inf) for the verified form"),
        _entry_num("RAM-GEN-C-ALT", "eq:ramhgen2 (derived variant)", nm.num_ram_gen_C_alt,
                   needs_sqrt=False, note="Abel (diagonal-paired) summation; ledger"),
        _entry_num("RAM-GEN-LAG", "eq:ramHgen2 / eq:ramhgen1-1 / eq:ramhgen2-1 (thm:ram2)",
                   nm.num_ram_gen_lag,
                   note="the three reductions evaluated through the radial route against "
                        "the derived closed forms"),
        _entry_num("BES-WALL", "eq:bessel2wall: 'by analytic continuation'", nm.num_bes_wall,
                   needs_sqrt=False,
                   note="printed bilateral GF premise refuted numerically; the certified "
                        "statement is the Wall-sum coefficient identity (ledger)"),
    ]
    # --- multisums and q-beta sums -------------------------------------------
    E += [
        _entry_num("CIRCLE", "eq:circle", lambda c, p: nm.num_circle(c, p, radial=False),
                   mode="NUMERIC-MULTISUM",
                   note="theta-weighted unconstrained reading; printed q^{(m1+n1)/2} "
                        "refuted at 1e-8 (ledger)"),
        _entry_num("CIRCLE2", "eq:circle2", lambda c, p: nm.num_circle(c, p, radial=True),
                   mode="NUMERIC-MULTISUM",
                   note="same sum with every family value routed through its radial reduction"),
        _entry_num("AR-EXP", "eq:askeyroy", lambda c, p: nm.num_askey_roy_exp(c, p, radial=False),
                   mode="NUMERIC-MULTISUM",
                   note="convergent block split with |uv| = lam^2 < 1; the printed split "
                        "pairs two h-blocks with reciprocal divergent ratios (ledger)"),
        _entry_num("AR-EXP2", "eq:askeyroy2", lambda c, p: nm.num_askey_roy_exp(c, p, radial=True),
                   mode="NUMERIC-MULTISUM",
                   note="radial-reduction route of AR-EXP"),
        _entry_num("QKS1", "eq:qks1", nm.num_qks1, mode="NUMERIC-MULTISUM",
                   note="checked as literally printed (u^{m3} restored); the e^{pi+2i psi} "
                        "factors are suspected typos and the check fails"),
        _entry_num("RAMBETA-Q1", "eq:rambeta1: 'extended the beta integral'",
                   lambda c, p: nm.num_rambeta(c, p, True),
                   mode="NUMERIC-QSUM", needs_sqrt=False),
        _entry_num("RAMBETA-Q3", "eq:rambeta3",
                   lambda c, p: nm.num_rambeta(c, p, False),
                   mode="NUMERIC-QSUM", needs_sqrt=False),
    ]
    # --- classical disk, basis expansions, binomial form ----------------------
    E += [
        _entry_series("DISK-GF", "eqGF2DU: 'whose proof is an exercise'", se.gf_disk,
                      grid_kind="single"),
        _entry_poly("DISK-CONN", "eqCmntoHmn: 'We claim that'", ex.disk_conn),
        _entry_poly("DISK-CONV", "'the convolution property'", ex.disk_conv, note=_T_CONV),
        _entry_poly("DO-EXP-1", "eq:do5 (Lemma, 'For z.zeta != 0')", ex.do_exp_1,
                    grid_kind="m", note=_T_DO5),
        _entry_poly("DO-EXP-2", "eq:do6", ex.do_exp_2, grid_kind="m"),
        _entry_poly("H-LIM-GF-FQB", "eqfqbinom: 'terminating q-binomial theorem'",
                    ex.fqbinom, grid_kind="m"),
    ]
    return {e.id: e for e in E}


REGISTRY: Dict[str, IdentityEntry] = _build_registry()


def list_identities() -> List[IdentityEntry]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def get_entry(id_: str) -> IdentityEntry:
    if id_ not in REGISTRY:
        raise KeyError(f"unknown identity id {id_!r}")
    return REGISTRY[id_]


def _check_bounds(params: Dict):
    """A negative grid bound or series order selects nothing to check, and a
    check over nothing must not pass: it is a ValueError."""
    for key in ("max_m", "max_n", "max_j", "max_k", "max_s", "order"):
        if int(params.get(key, 0)) < 0:
            raise ValueError(f"{key} must be >= 0, got {params[key]}")


def _default_grid(entry: IdentityEntry, params: Dict) -> List[Dict]:
    params = dict(params or {})
    _check_bounds(params)
    if "m" in params and entry.grid_kind == "mn" and "n" in params:
        return [params]
    if entry.grid_kind == "mn":
        mm = int(params.pop("max_m", 6))
        nn = int(params.pop("max_n", 6))
        return [dict(params, m=m, n=n) for m in range(mm + 1) for n in range(nn + 1)]
    if entry.grid_kind == "m":
        if "m" in params or "n" in params:
            return [params]
        mm = int(params.pop("max_m", 8))
        return [dict(params, m=m, n=m) for m in range(mm + 1)]
    if entry.grid_kind == "jk":
        if "j" in params and "k" in params:
            return [params]
        jj = int(params.pop("max_j", 2))
        kk = int(params.pop("max_k", 2))
        return [dict(params, j=j, k=k) for j in range(jj + 1) for k in range(kk + 1)]
    if entry.grid_kind == "s_range":
        if "s" in params:
            return [params]
        return [dict(params, s=s) for s in range(int(params.pop("max_s", 4)) + 1)]
    return [params]


def _run_point(ctx: QContext, entry: IdentityEntry, pt: Dict):
    """Run one grid point: (residual, tail, info).

    An exact checker returns its residual object (LHS - RHS as a BivarPoly,
    a TruncatedBiSeries for the series entries), never a float; it is
    reported as its largest coefficient, compared exactly by ctx.abs2, or
    None when it is exactly zero, i.e. stores no coefficient (a BivarPoly
    drops zero coefficients on construction), with tail 0.0.  A numeric residual is a
    float magnitude.
    """
    with ctx.workprec():
        if entry.mode.startswith("EXACT"):
            r = entry.checker(ctx, pt)
            return (max(r.coeffs.values(), key=ctx.abs2) if r.coeffs else None), 0.0, {}
        r, tail, info = entry.checker(ctx, pt)
    return float(r), float(tail), info


def _verdict(entry: IdentityEntry, worst, tail: float, tol: float):
    """The pass rule: (passed, residual string).  An exact entry passes iff
    its residual is exactly zero and then prints "0", else it prints its
    worst coefficient exactly; a numeric entry takes :func:`numeric_verdict`."""
    if entry.mode.startswith("EXACT"):
        return worst is None, ("0" if worst is None else scalar_str(worst))
    return numeric_verdict(worst, tol, tail)


def check_identity(ctx: QContext, id_: str, params: Optional[Dict] = None,
                   tol: float = 1e-10) -> VerificationReport:
    """Run one registry entry over its grid and aggregate a single report:
    it passes iff every grid point passes, and reports the worst residual
    and the largest tail, which may come from different points."""
    entry = get_entry(id_)
    if entry.needs_sqrt and ctx.s is None:
        raise MissingSqrtError(f"{id_} needs q**(1/2); set sqrt_q on the context")
    grid = _default_grid(entry, params or {})
    exact = entry.mode.startswith("EXACT")
    worst = None if exact else 0.0
    tails = 0.0
    passed = True
    info_all: Dict = {}
    for pt in grid:
        r, tail, info = _run_point(ctx, entry, pt)
        passed = _verdict(entry, r, tail, tol)[0] and passed
        if not exact:
            worst = max(worst, r)
        elif r is not None and (worst is None or ctx.abs2(r) > ctx.abs2(worst)):
            worst = r
        tails = max(tails, tail)
        info_all.update(info)
    residual = _verdict(entry, worst, tails, tol)[1]
    gridrep = dict(params or {})
    gridrep["points"] = len(grid)
    gridrep["q"] = scalar_str(ctx.q_fraction)
    return VerificationReport(
        id=id_, mode=entry.mode, grid=gridrep, residual=residual,
        tail_bound=tails, passed=passed, note=entry.note, extra=info_all)


def sweep(ctx: QContext, ids: Sequence[str], grid: Optional[Dict] = None,
          tol: float = 1e-10) -> List[VerificationReport]:
    """One report per (id, grid point); failures are isolated per entry and
    never abort the sweep, but a negative bound in grid raises ValueError
    before any entry runs.  Reports are ordered by (id, grid point)."""
    _check_bounds(grid or {})
    out: List[VerificationReport] = []
    for id_ in sorted(ids):
        entry = get_entry(id_)
        try:
            pts = _default_grid(entry, grid or {})
        except Exception as exc:  # bad grid spec
            out.append(VerificationReport(id_, entry.mode, dict(grid or {}), "nan",
                                          0.0, False, note=f"grid error: {exc}"))
            continue
        for pt in pts:
            gridrep = dict(sorted(pt.items()))
            try:
                if entry.needs_sqrt and ctx.s is None:
                    raise MissingSqrtError("needs sqrt_q")
                r, tail, info = _run_point(ctx, entry, pt)
                passed, residual = _verdict(entry, r, tail, tol)
                out.append(VerificationReport(
                    id_, entry.mode, gridrep, residual, tail, passed,
                    note=entry.note, extra=info))
            except Exception as exc:
                out.append(VerificationReport(
                    id_, entry.mode, gridrep, "nan", 0.0, False, note=f"error: {exc!r}"))
    return out


def exact_ids() -> List[str]:
    return [e.id for e in list_identities() if e.mode == "EXACT-POLY"]


def exact_series_ids() -> List[str]:
    return [e.id for e in list_identities() if e.mode == "EXACT-SERIES"]


def numeric_ids() -> List[str]:
    return [e.id for e in list_identities() if e.mode.startswith("NUMERIC")]
