"""Per-layer tracer for the benchmark.

The tracer wraps the public functions of each q2dpoly layer from outside the
package.  Several names are imported by value (``coeffs`` is bound in six
modules), so every wrapper is rebound in every ``q2dpoly.*`` namespace and
class that holds the original object; a call through any of those names is
seen.  Spans (name, start, end, parent) are kept in memory and written when
the traced pass ends.  ``self_s`` is a span's duration minus the time of its
child spans.  The hottest leaves (``QContext.qpow``/``qq``, ``zeros._horner``
and the summation terms) are counted without spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

# (metric name, module, owner attribute path) of every span-wrapped function
SPANNED = [
    ("qkernel.qpoch", "qkernel", "qpoch"),
    ("qkernel.qbinom", "qkernel", "qbinom"),
    ("qkernel.qpoch_inf", "qkernel", "qpoch_inf"),
    ("qkernel.phi_series", "qkernel", "phi_series"),
    ("qkernel.aq_function", "qkernel", "aq_function"),
    ("qkernel.theta4", "qkernel", "theta4"),
    ("series.TruncatedBiSeries.mul", "series", "TruncatedBiSeries.__mul__"),
    ("polyfamilies.BivarPoly.mul", "polyfamilies", "BivarPoly.__mul__"),
    ("polyfamilies.coeffs", "polyfamilies", "coeffs"),
    ("polyfamilies.eval_poly", "polyfamilies", "eval_poly"),
    ("polyfamilies.radial_reduce", "polyfamilies", "radial_reduce"),
    ("identities.check_identity", "identities", "check_identity"),
    ("identities.sum2d", "identities_numeric", "sum2d"),
    ("identities.paired_diagonal_sum", "identities_numeric", "paired_diagonal_sum"),
    ("identities.unity_filter_sum", "identities_numeric", "unity_filter_sum"),
    ("measures.inner_product", "measures", "inner_product"),
    ("measures.h_radial_moments_batch", "measures", "h_radial_moments_batch"),
    ("measures.gram_positivity", "measures", "gram_positivity"),
    ("zeros.radial_zeros", "zeros", "radial_zeros"),
    ("zeros.aq_zeros", "zeros", "aq_zeros"),
    ("zeros.zero_limit_report", "zeros", "zero_limit_report"),
    ("zeros.asymptotic_report", "zeros", "asymptotic_report"),
]

# (counter name, module, owner attribute path) of the count-only leaves
COUNTED = [
    ("context.qpow.calls", "context", "QContext.qpow"),
    ("context.qq.calls", "context", "QContext.qq"),
    ("zeros.horner_evals", "zeros", "_horner"),
]

CLI_COMMANDS = ("eval", "coeffs", "verify", "zeros", "aqzeros", "gram", "asym")

# sum helpers whose `term` callable is counted; the flag says whether a call
# that evaluates the whole capped quadrant counts as a budget hit
TERM_COUNTED = {"identities.sum2d": True, "identities.paired_diagonal_sum": False}


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for name, _, _ in SPANNED:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name == "polyfamilies.coeffs":
            names += [f"{name}.distinct", f"{name}.reuse"]
        if name in TERM_COUNTED:
            names.append(f"{name}.terms")
            if TERM_COUNTED[name]:
                names.append(f"{name}.budget_hits")
    names += [name for name, _, _ in COUNTED]
    for cmd in CLI_COMMANDS:
        names += [f"cli.main.{cmd}.calls", f"cli.main.{cmd}.self_s"]
    return names


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by child spans]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.coeff_keys = set()
        self._patches = []

    # -- wrappers --------------------------------------------------------------
    def _span(self, fn, name_of):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            nid = tracer._name_ids.get(name)
            if nid is None:
                nid = tracer._name_ids[name] = len(tracer.names)
                tracer.names.append(name)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.span_end[idx] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _coeffs_keyed(self, fn):
        keys = self.coeff_keys

        def wrapper(ctx, family, m, n, b=None, nu=None):
            keys.add((ctx.q_fraction, ctx.backend, ctx.precision_bits, family, m, n,
                      repr(b), repr(nu)))
            return fn(ctx, family, m, n, b=b, nu=nu)

        wrapper.__wrapped__ = fn
        return wrapper

    def _terms_counted(self, fn, name, budget):
        sig = inspect.signature(fn)
        counters = self.counters

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            term = bound.arguments["term"]
            seen = [0]

            def counted(m_, n_):
                seen[0] += 1
                return term(m_, n_)

            bound.arguments["term"] = counted
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                counters[f"{name}.terms"] += seen[0]
                if budget:
                    cap = bound.arguments["cap"]
                    if seen[0] >= (cap + 1) * (cap + 2) // 2:
                        counters[f"{name}.budget_hits"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------
    def _rebind(self, orig, wrapped):
        """Point every q2dpoly namespace and class attribute that holds `orig`
        at `wrapped`."""
        owners = [mod for key, mod in sorted(sys.modules.items())
                  if mod is not None and (key == "q2dpoly" or key.startswith("q2dpoly."))]
        owners += [val for mod in list(owners) for val in vars(mod).values()
                   if isinstance(val, type) and val.__module__.startswith("q2dpoly")]
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)

    def install(self):
        import importlib

        for sub in ("context", "qkernel", "series", "polyfamilies", "identities",
                    "identities_exact", "identities_numeric", "identities_series",
                    "measures", "zeros", "cli"):
            importlib.import_module(f"q2dpoly.{sub}")
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("q2dpoly.")}
        for key, modname, path in COUNTED:
            owner, attr = _resolve(mods[modname], path)
            orig = vars(owner)[attr]
            self._rebind(orig, self._counted(orig, key))
        for name, modname, path in SPANNED:
            owner, attr = _resolve(mods[modname], path)
            orig = vars(owner)[attr]
            inner = orig
            if name == "polyfamilies.coeffs":
                inner = self._coeffs_keyed(orig)
            elif name in TERM_COUNTED:
                inner = self._terms_counted(orig, name, TERM_COUNTED[name])
            self._rebind(orig, self._span(inner, lambda a, k, n=name: n))
        cli = mods["cli"]
        orig = cli.main

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0] if argv else 'none'}"

        self._rebind(orig, self._span(orig, cli_name))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------------
    def metrics(self):
        out = {}
        counted = {name for name, _, _ in COUNTED}
        for name in metric_names():
            base, stat = name.rsplit(".", 1)
            if name in counted or stat in ("terms", "budget_hits"):
                out[name] = self.counters.get(name, 0)
            elif stat == "calls":
                out[name] = self.calls.get(base, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            elif stat == "distinct":
                out[name] = len(self.coeff_keys)
            elif stat == "reuse":
                calls = self.calls.get(base, 0)
                out[name] = len(self.coeff_keys) / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """Write the spans as gzipped CSV: name,start_s,end_s,parent_index."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f},{self.span_parent[i]}\n")
        return len(self.span_start)
