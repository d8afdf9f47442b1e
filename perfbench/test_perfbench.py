"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import copy
import time

import numpy as np
import pytest

import rbgroups as rb

import probe
import spans
import workloads
from inputs import build_inputs, relabelled_table, relabelling
from reference import REFERENCE


def test_self_time_of_nested_spans():
    spans_ = [["task", 0.0, 10.0, -1],
              ["a", 1.0, 5.0, 0],
              ["b", 2.0, 3.0, 1],
              ["c", 6.0, 9.0, 0],
              ["d", 7.0, 8.0, 3]]
    assert spans.self_times(spans_) == [3.0, 3.0, 1.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans_ = [["p", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 6.0, 0]]
    assert spans.self_times(spans_)[0] == 5.0


def test_layer_metrics_from_synthetic_spans():
    spans_ = [["setup", 0.0, 3.0, -1],
              ["catalog.named_group", 0.5, 2.0, 0],
              ["groups.from_table", 1.0, 1.5, 1],
              ["groups.from_table", 2.0, 2.5, 0],
              ["task x", 3.0, 9.0, -1],
              ["enumeration.classify_splitting", 3.0, 8.0, 4],
              ["rb.verify_rb", 4.0, 5.0, 5],
              ["rb.verify_rb", 6.0, 6.5, 5],
              ["groups.from_table", 7.0, 7.5, 5]]
    out = spans.layer_metrics(spans_, {"rb.pairs_checked": 7})
    assert out["enumeration.classify_splitting.self_s"] == 3.0
    assert out["enumeration.classify_splitting.calls"] == 1
    assert out["rb.verify_rb.self_s"] == 1.5
    assert out["rb.verify_rb.calls"] == 2
    assert out["catalog.named_group.s"] == 1.5
    # only set-up time counts towards the set-up layers
    assert out["groups.from_table.s"] == 1.0
    assert out["naming.structure_name.calls"] == 0
    assert out["rb.pairs_checked"] == 7


@pytest.mark.parametrize("ident", ["dihedral:8", "psl2:7"])
def test_relabelling_is_an_isomorphism_fixing_the_identity(ident):
    G = rb.named_group(ident)
    n = G.order
    p = relabelling(n, np.random.default_rng(5))
    assert p[0] == 0 and sorted(p) == list(range(n))
    assert (p != np.arange(n)).any()
    old = G.mul_block(np.arange(n), np.arange(n))
    new = relabelled_table(G, p)
    assert (new[np.ix_(p, p)] == p[old]).all()


def test_seed_zero_keeps_the_catalog_labelling():
    G = rb.named_group("paper16")
    H = build_inputs(rb, ["paper16"], 0)["paper16"]
    n = G.order
    assert (H.mul_block(np.arange(n), np.arange(n))
            == G.mul_block(np.arange(n), np.arange(n))).all()
    assert H.gens == G.gens


def test_inputs_repeat_for_a_seed_and_change_with_it():
    def table(seed):
        H = build_inputs(rb, ["cyclic:4", "symmetric:4"], seed)["symmetric:4"]
        return H.mul_block(np.arange(24), np.arange(24))
    assert (table(3) == table(3)).all()
    assert (table(3) != table(4)).any()


def _summary(label):
    return copy.deepcopy(REFERENCE[label])


def test_reference_summary_passes():
    check = workloads.Checker()
    workloads.check_summary(check, "table2 psl2:7", _summary("table2 psl2:7"),
                            REFERENCE["table2 psl2:7"])
    assert check.attempted == len(REFERENCE["table2 psl2:7"])
    assert check.failures == []


def test_s_off_by_one_is_a_failure():
    summary = _summary("table2 psl2:11")
    summary["s"] += 1
    check = workloads.Checker()
    workloads.check_summary(check, "table2 psl2:11", summary,
                            REFERENCE["table2 psl2:11"])
    assert len(check.failures) == 1 and "s:" in check.failures[0]


def test_flipped_is_rb_is_a_failure():
    summary = _summary("extension dihedral:8")
    summary["iff"] = [(True, True)] * 175 + [(False, True)] + [(False, False)] * 176
    check = workloads.Checker()
    workloads.check_summary(check, "extension dihedral:8", summary,
                            REFERENCE["extension dihedral:8"])
    assert check.attempted == len(REFERENCE["extension dihedral:8"]) + 352
    assert len(check.failures) == 1 and "datum 175" in check.failures[0]


def test_wrong_total_is_a_failure():
    summaries = {"extension cyclic:4": {"data": 22}, "index-2 dihedral:8":
                 {"instances": 1131}}
    check = workloads.Checker()
    workloads.check_totals(check, "small-groups", summaries)
    assert check.attempted == 2
    assert len(check.failures) == 1 and "extension data" in check.failures[0]


def test_raised_error_is_a_failure():
    class Broken:
        def __getattr__(self, name):
            def fail(*args, **kwargs):
                raise RuntimeError(f"{name} is broken")
            return fail

    groups = {ident: None for ident in workloads.input_ids("table2")}
    check = workloads.Checker()
    workloads.run_tasks(Broken(), "table2", groups, check,
                        lambda label: contextlib.nullcontext())
    assert check.attempted == len(workloads.WORKLOADS["table2"])
    assert len(check.failures) == check.attempted


def test_tail_percentile_keeps_ten_samples_above():
    import run
    assert run.tail_percentile(list(range(20))).startswith("p50 = 9.000 s")
    assert "no percentile" in run.tail_percentile([1.0] * 10)


def test_speed_is_reference_over_median_time_per_probe():
    ref = probe.REF_S
    samples = [("loop", ref["loop"]), ("loop", ref["loop"] / 2),
               ("loop", ref["loop"] / 4), ("lookup", ref["lookup"] * 2)]
    # loop's median time is half its reference (speed 2), lookup's is
    # twice its reference (speed 1/2); the probes weigh equally
    assert probe.speed(samples) == pytest.approx((2 + 1 / 2) / 2)
    assert probe.probe_seconds(samples) == pytest.approx(
        1.75 * ref["loop"] + 2 * ref["lookup"])
    with pytest.raises(ValueError):
        probe.speed([])


def test_sampler_runs_every_probe_while_started():
    sampler = probe.Sampler()
    sampler.start()
    try:
        t0 = time.process_time()
        while time.process_time() - t0 < 20 * probe.PERIOD_S:
            pass
    finally:
        sampler.stop()
    samples = sampler.take()
    assert {name for name, _ in samples} == set(probe.PROBES)
    assert sampler.take() == []
