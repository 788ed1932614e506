"""Acceptance suite: one test per criterion, at each check's default (full)
sample sizes.

Each test prints its criterion's pass/fail line (visible with ``pytest -s``
or on failure). The same checks back the ``mtlopt verify`` subcommand.
"""
import pytest

from mtlopt import verification as V


def _assert(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_gradient_exactness():
    result = V.check_gradient_exactness()
    _assert(result)
    assert result.seconds < 60.0, f"runtime {result.seconds:.1f}s exceeds 1 minute"


def test_criterion_2_strength_equations():
    _assert(V.check_strength_suite())


def test_criterion_3_projection_contract():
    _assert(V.check_projection_contract())


def test_criterion_4_priority_update_dominance():
    result = V.check_priority_update_dominance()
    _assert(result)
    assert result.seconds < 120.0, f"runtime {result.seconds:.1f}s exceeds 2 minutes"


def test_criterion_5_convergence():
    result = V.check_convergence()
    _assert(result)
    assert result.seconds < 300.0, f"runtime {result.seconds:.1f}s exceeds 5 minutes"


def test_criterion_6_phase_mixing():
    _assert(V.check_phase_mixing())


def test_criterion_7_phase1_alignment():
    _assert(V.check_phase1_alignment())


def test_criterion_8_end_to_end():
    result = V.check_end_to_end()
    _assert(result)
    assert result.seconds < 1800.0, f"runtime {result.seconds:.1f}s exceeds 30 minutes"


def test_criterion_9_loss_scaling():
    _assert(V.check_loss_scaling())


def test_criterion_10_determinism():
    _assert(V.check_determinism())
