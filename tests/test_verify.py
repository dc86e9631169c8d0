"""The verification suite itself: aggregation, determinism, fault injection."""

import json

import pytest

import dp3ring.ore as ore
import dp3ring.picard as picard
from dp3ring.cyclotomic import CycNum, ZETA
from dp3ring.ncpoly import NcPoly, WZX
from dp3ring.verify import (
    NOT_MACHINE_CHECKABLE,
    check_ample_criterion_box,
    check_cubic_veronese,
    check_defining_relations,
    check_generation_divisors,
    check_hexagon,
    check_rotation_eigensystem,
    check_rotation_isometry,
    matrix_rank,
    run_all,
)

EXPECTED_CHECK_NAMES = [
    "defining_relations",
    "graded_isomorphism",
    "hilbert_series",
    "dimension_match",
    "cubic_veronese",
    "anticanonical_cone",
    "generation",
    "generation_divisor_table",
    "hexagon",
    "rotation_order",
    "rotation_isometry",
    "rotation_eigensystem",
    "twist_divisor_table",
    "orbit_sum_identity",
    "euler_char_step",
    "twist_ampleness",
    "ample_criterion_box",
]


def test_run_all_passes_at_low_cap():
    report = run_all(6)
    assert report.all_passed
    assert [check.name for check in report.checks] == EXPECTED_CHECK_NAMES
    assert report.failures == []


def test_run_all_rejects_tiny_caps():
    with pytest.raises(ValueError):
        run_all(5)


def test_reports_are_deterministic():
    first = run_all(8)
    second = run_all(8)
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()


def test_monotonicity_of_passing_checks():
    large = run_all(12)
    small = run_all(6)
    passed_small = {check.name for check in small.checks if check.passed}
    for check in large.checks:
        if check.passed:
            assert check.name in passed_small


def test_not_machine_checkable_is_reported():
    report = run_all(6)
    assert report.not_machine_checkable == NOT_MACHINE_CHECKABLE
    assert "noetherianity" in NOT_MACHINE_CHECKABLE
    text = report.to_text()
    assert "not machine-checkable" in text
    for item in NOT_MACHINE_CHECKABLE:
        assert item in text


def test_json_shape_and_sorted_keys():
    report = run_all(6)
    payload = json.loads(report.to_json())
    assert set(payload) == {"max_degree", "all_passed", "checks", "not_machine_checkable"}
    assert payload["all_passed"] is True
    assert payload["max_degree"] == 6
    for entry in payload["checks"]:
        assert set(entry) == {"name", "passed", "detail", "witness"}
    # timing is kept out of the serialized form so output is stable
    timed = json.loads(report.to_json(include_timing=True))
    assert all("elapsed" in entry for entry in timed["checks"])


def test_corrupted_rotation_is_caught(monkeypatch):
    corrupted = ((2, -1, -1, -1), (1, -1, -1, 0), (1, 0, -1, -1), (1, -1, 0, 0))
    monkeypatch.setattr(picard, "ROTATION", corrupted)
    report = run_all(6)
    assert not report.all_passed
    by_name = {check.name: check for check in report.checks}
    isometry = by_name["rotation_isometry"]
    assert not isometry.passed
    assert isometry.witness.startswith("(1,0,0,0).(0,0,0,1)")  # a concrete pair
    assert not by_name["rotation_order"].passed
    assert not by_name["rotation_eigensystem"].passed


def test_individual_checks_pass():
    for check in (
        check_defining_relations(),
        check_cubic_veronese(),
        check_generation_divisors(),
        check_hexagon(),
        check_rotation_isometry(),
        check_rotation_eigensystem(),
        check_ample_criterion_box(),
    ):
        assert check.passed, check.name


def test_matrix_rank_on_known_matrices():
    one = CycNum(1)
    zero = CycNum(0)
    assert matrix_rank([]) == 0
    assert matrix_rank([[one, zero], [zero, one]]) == 2
    assert matrix_rank([[one, one], [one, one]]) == 1
    assert matrix_rank([[zero, zero], [zero, zero]]) == 0
    # rows over the field: (1, z), (z, z^2) are proportional
    assert matrix_rank([[one, ZETA], [ZETA, ZETA * ZETA]]) == 1
    assert matrix_rank([[one, ZETA], [ZETA, one]]) == 2


def test_veronese_kernel_dimension():
    check = check_cubic_veronese()
    assert check.passed
    assert "dimension 2" in check.detail


def test_cubic_veronese_reports_unordered_words(monkeypatch):
    # a normal form that leaves a word unordered fails the check, no raise
    real = ore.xy_to_pbw
    monkeypatch.setattr(ore, "xy_to_pbw", lambda p: real(p) + NcPoly.term(WZX, "xw"))
    check = check_cubic_veronese()
    assert not check.passed
    assert "(x^3)*(x^3) has the unordered word 'xw'" in check.witness


def test_iso_degree_thirteen_counts():
    from dp3ring import thcr

    count, images = thcr.word_image_exponents(13)
    assert count == 377
    assert len(images) == 21
    assert len(ore.pbw_basis(13)) == 21
