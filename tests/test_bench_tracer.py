"""The benchmark's tracer (perfbench/tracer.py) wraps q2dpoly functions by
name; a refactor that deletes or renames one of them breaks the traced run
with a KeyError.  This guard installs and uninstalls the tracer."""

import os
import sys

import pytest

from q2dpoly import identities_exact, polyfamilies, zeros

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
