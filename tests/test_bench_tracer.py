"""The benchmark's tracer (perfbench/tracer.py) wraps q2dpoly functions by
name; a refactor that deletes or renames one of them breaks the traced run
with a KeyError.  This guard installs and uninstalls the tracer."""

import os
import sys
from fractions import Fraction as F

import pytest

from q2dpoly import identities_exact, identities_numeric, polyfamilies, zeros
from q2dpoly.context import QContext

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_restores(tracer_module):
    coeffs, horner = polyfamilies.coeffs, zeros._horner
    tr = tracer_module.Tracer().install()
    try:
        assert polyfamilies.coeffs is not coeffs
        assert identities_exact.coeffs is polyfamilies.coeffs
    finally:
        tr.uninstall()
    assert polyfamilies.coeffs is coeffs
    assert identities_exact.coeffs is coeffs
    assert zeros._horner is horner


def test_tracer_counts_sum2d_terms_and_budget_hits(tracer_module):
    # the tracer binds sum2d's `term` and `cap` by name: a term that never
    # decays evaluates the whole capped quadrant, (cap+1)(cap+2)/2 terms,
    # which counts as one budget hit; a quickly decaying one is no hit
    ctx = QContext(F(1, 2), backend="float", precision_bits=64)
    tr = tracer_module.Tracer().install()
    try:
        identities_numeric.sum2d(ctx, lambda m, n: ctx.one(), cap=4)
        identities_numeric.sum2d(ctx, lambda m, n: ctx.zero(), cap=20)
        metrics = tr.metrics()
    finally:
        tr.uninstall()
    assert metrics["identities.sum2d.calls"] == 2
    assert metrics["identities.sum2d.terms"] == 15 + 10
    assert metrics["identities.sum2d.budget_hits"] == 1


def test_tracer_counts_each_product_in_its_own_layer(tracer_module):
    # a series product counts as series.TruncatedBiSeries.mul alone, and a
    # polynomial product as polyfamilies.BivarPoly.mul, whatever helper the
    # two share, so the per-layer counts stay comparable between runs
    from q2dpoly.polyfamilies import BivarPoly
    from q2dpoly.series import TruncatedBiSeries

    ctx = QContext(F(2, 5))
    S = TruncatedBiSeries(ctx, 4, {(0, 0): F(1), (1, 0): F(1, 3), (0, 2): F(2)})
    P = BivarPoly(ctx, {(1, 1): F(2, 7), (0, 0): F(-1)})
    tr = tracer_module.Tracer().install()
    try:
        S * S
        series_only = tr.metrics()
        P * P
        both = tr.metrics()
    finally:
        tr.uninstall()
    assert series_only["series.TruncatedBiSeries.mul.calls"] == 1
    assert series_only["polyfamilies.BivarPoly.mul.calls"] == 0
    assert both["series.TruncatedBiSeries.mul.calls"] == 1
    assert both["polyfamilies.BivarPoly.mul.calls"] == 1
