"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

from metrics import (
    Tally,
    count_within,
    group_stats,
    latency_summary,
    module_self_times,
    self_times,
    tail_percentile,
)
from tracing import ModuleView, Patches, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 50.0),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (50, 75.0),
        (99, 75.0),
        (100, 90.0),
        (160, 90.0),
        (1860, 90.0),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 50, 100, 160, 1860])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    summary = latency_summary(range(1, n + 1))
    assert summary["samples"] == n
    assert sum(1 for v in range(1, n + 1) if v > summary["tail"]) >= 10
    assert summary["p50"] == pytest.approx((n + 1) / 2)


def test_latency_summary_rejects_no_samples():
    with pytest.raises(ValueError):
        latency_summary([])


# root A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
SPANS = [
    ["cli.main", -1, 0.0, 10.0],
    ["plate.energy", 0, 1.0, 4.0],
    ["plate.hess_energy", 0, 5.0, 9.0],
    ["fem.triple_product", 2, 6.0, 7.0],
]


def test_self_time_is_duration_minus_children():
    assert self_times(SPANS) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_module_self_times_add_up_to_the_root():
    selfs = module_self_times(SPANS)
    assert selfs == pytest.approx({"cli": 3.0, "plate": 6.0, "fem": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_group_busy_time_counts_nested_members_once():
    nested = [
        ["plate.hess_energy", -1, 0.0, 10.0],
        ["plate.hess_halfsqdist", 0, 2.0, 5.0],
        ["plate.hess_halfsqdist", -1, 11.0, 12.0],
    ]
    calls, busy = group_stats(nested, ("plate.hess_energy", "plate.hess_halfsqdist"))
    assert calls == 3
    assert busy == pytest.approx(11.0)
    assert group_stats(nested, ("plate.grad_energy",)) == (0, 0.0)


def test_count_within_follows_the_whole_ancestry():
    assert count_within(SPANS, ("fem.triple_product",), ("cli.main",)) == 1
    assert count_within(SPANS, ("fem.triple_product",), ("plate.energy",)) == 0


def test_tracer_records_parents_and_patches_are_undone():
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: 2 * owner.inner(x)
    original_inner, original_outer = owner.inner, owner.outer
    tracer = Tracer()
    with Patches() as patches:
        patches.set(owner, "inner", tracer.wrap("fem.inner", owner.inner))
        patches.set(owner, "outer", tracer.wrap("plate.outer", owner.outer))
        assert owner.outer(1) == 4
        owner.inner(0)
    assert owner.inner is original_inner and owner.outer is original_outer
    assert [(name, parent) for name, parent, _, _ in tracer.spans] == [
        ("plate.outer", -1),
        ("fem.inner", 0),
        ("fem.inner", -1),
    ]
    assert all(end >= start for _, _, start, end in tracer.spans)


def test_tracer_closes_spans_on_exceptions():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("flow.boom", boom)()
    tracer.wrap("flow.ok", lambda: None)()
    assert [parent for _, parent, _, _ in tracer.spans] == [-1, -1]


def test_module_view_overrides_one_attribute():
    module = types.SimpleNamespace(splu=lambda: "real", spsolve=lambda: "solve")
    view = ModuleView(module, splu=lambda: "traced")
    assert view.splu() == "traced" and view.spsolve() == "solve"
    assert module.splu() == "real"


def test_failed_share_counts_operations_gates_and_probes():
    tally = Tally()
    for _ in range(7):
        tally.record("operation", True)
    tally.record("operation", False, "StepFailure")
    tally.record("exit_code", True)
    tally.record("probe n1d=64", False, "stalled", probe=True)
    assert (tally.attempted, tally.failed) == (10, 2)
    assert tally.share == pytest.approx(0.2)
    assert tally.failed_outside_probes == 1 and not tally.correct
    assert tally.failures == ["operation: StepFailure", "probe n1d=64: stalled"]


def test_probe_failures_leave_outputs_correct():
    tally = Tally()
    tally.record("operation", True)
    tally.record("probe n1d=128", False, "stalled", probe=True)
    assert tally.correct and tally.share == pytest.approx(0.5)
    assert not Tally().correct


def test_record_operations_reads_the_clock_increments():
    sys.path.insert(0, str(ROOT / "src"))
    import run

    clock = types.SimpleNamespace(latencies=[0.1, 0.2, 0.3], failures=2)
    tally = Tally()
    run.record_operations(tally, clock, done_before=1, failed_before=1)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
