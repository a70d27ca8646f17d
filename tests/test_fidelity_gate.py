"""Tests for the paper-fidelity gate's judgment (``tools/fidelity_gate``).

The full measurement takes ~7 s at scale 1.0 and runs as its own CI
step; here the pass/fail rule is pinned on crafted error figures.
"""

from tools.fidelity_gate import (
    TOLERANCE_PP,
    WWT_BASELINE_PCT,
    judge,
)


def errors(wwt, basic=35.27):
    return {"basic": basic, "pmi2": 35.0, "nbrtext": 34.0, "wwt": wwt}


def test_baseline_passes():
    assert judge(errors(WWT_BASELINE_PCT)) == []


def test_within_tolerance_passes():
    assert judge(errors(WWT_BASELINE_PCT + TOLERANCE_PP)) == []


def test_regression_beyond_tolerance_fails():
    failures = judge(errors(WWT_BASELINE_PCT + TOLERANCE_PP + 0.01))
    assert len(failures) == 1 and "exceeds the baseline" in failures[0]


def test_wwt_not_below_basic_fails():
    failures = judge(errors(wwt=20.0, basic=20.0))
    assert len(failures) == 1 and "not below Basic" in failures[0]
