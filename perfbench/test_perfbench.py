"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools

import pytest

import run
import tracing
import workloads
from dp3ring import cox, picard, thcr, verify
from dp3ring.ncpoly import XY, parse
from dp3ring.picard import vanishing_criterion


def _first_ops(workload: str, count: int, seed: int = 3) -> list[workloads.Op]:
    return list(itertools.islice(workloads.stream(workload, seed), count))


def _corrupt(out: str) -> str:
    # one extra term: not zero, not ordered, not a monomial, not the report line
    return out.rstrip("\n") + " + x*w\n"


@pytest.mark.parametrize("workload, count", [("verify", 1), ("rewrite", 12), ("sections", 12)])
def test_checks_accept_real_outputs_and_reject_corrupted_ones(workload, count):
    for op in _first_ops(workload, count):
        code, out, _, _ = run.call(op.argv)
        assert op.check(code, out), op.argv
        assert not op.check(code, _corrupt(out)), op.argv
        assert not op.check(2, out), op.argv


def test_a_corrupted_output_counts_as_a_failure(monkeypatch):
    ops = _first_ops("sections", 6)
    real_main = run.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == ops[2].argv[0]:
            print("+ x*w")
        return code

    ran, latencies, failed = run.measure(iter(ops), float("inf"))
    assert (len(ran), len(latencies), failed) == (6, 6, 0)
    monkeypatch.setattr(run.cli, "main", corrupting_main)
    expected = sum(op.argv[0] == ops[2].argv[0] for op in ops)
    _, _, failed = run.measure(iter(ops), float("inf"))
    assert failed == expected >= 1


def test_same_seed_gives_same_inputs():
    for workload in ("rewrite", "sections"):
        first = [op.argv for op in _first_ops(workload, 300, seed=7)]
        again = [op.argv for op in _first_ops(workload, 300, seed=7)]
        other = [op.argv for op in _first_ops(workload, 300, seed=8)]
        assert first == again
        assert first != other


def test_rewrite_deals_every_word_of_a_degree_before_repeating_one():
    per_cycle = 2 * workloads.TWO_TERM_PER_CYCLE[9]
    population = set(workloads.xy_words(9))
    cycles = -(-len(population) // per_cycle)
    cycle_ops = sum(workloads.TWO_TERM_PER_CYCLE.values()) + sum(
        workloads.IDEAL_PER_CYCLE.values()
    ) + len(workloads.WZX_DEGREES)
    seen = set()
    for op in _first_ops("rewrite", cycles * cycle_ops):
        if op.check is workloads.check_ordered and op.argv[1] == "--":
            words = set(parse(op.argv[2], XY).terms)
            if all(len(w) + w.count("y") == 9 for w in words):
                seen |= words
    assert seen == population


def test_h0_classes_satisfy_the_vanishing_criterion():
    h0_ops = [op for op in _first_ops("sections", 580) if op.argv[0] == "h0"]
    assert len(h0_ops) == 10 * len(workloads.H0_BINS)
    for op in h0_ops:
        div = picard.DivisorClass(*(int(x) for x in op.argv[1:]))
        assert vanishing_criterion(div)


def test_tracer_wraps_names_where_they_are_looked_up():
    originals = (picard.is_ample, cox.enumerate_sections, picard.twist_divisor)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.is_ample is picard.is_ample is not originals[0]
        assert thcr.enumerate_sections is cox.enumerate_sections is not originals[1]
        assert thcr.twist_divisor is picard.twist_divisor is not originals[2]
        tracer.active = True
        result = verify.check_ample_criterion_box()
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (verify.is_ample, thcr.enumerate_sections, thcr.twist_divisor) == originals
    assert result.passed
    metrics = tracer.layer_metrics(1, [])
    assert metrics["picard.is_ample.calls"] == 15**4
    assert metrics["picard.vanishing_criterion.calls"] == 15**4


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        run.call(("divisor", "60"))
        tracer.active = False
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1, [])
    by_id = {span[0]: span for span in tracer.spans}
    (root,) = [span for span in tracer.spans if span[1] == -1]
    assert root[3] == "cli"
    children = sum(s[5] - s[4] for s in tracer.spans if s[1] == root[0])
    assert metrics["cli.self_s"] == pytest.approx((root[5] - root[4] - children) / 1e9)
    assert metrics["cox.enumerate_sections.calls"] == 1
    assert metrics["cox.enumerate_sections.monomials"] == picard.h0_formula(60)
    assert all(by_id[s[1]][3] == "cli" for s in tracer.spans if s[1] != -1)
