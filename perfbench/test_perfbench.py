"""Tests for the benchmark's own code.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pins  # noqa: E402
from spans import (  # noqa: E402
    REFERENCE_S,
    SpanRecorder,
    at_reference_speed,
    best_segments,
    check_metric_name,
    check_unit,
    digest,
    digest_diff,
    fast,
    tail_percentile,
)


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_nested_spans_split_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def inner():
        clock.tick(30)

    inner_span = rec.wrap("heap", "heap", inner)

    def outer():
        clock.tick(10)
        inner_span()
        clock.tick(5)
        inner_span()
        clock.tick(7)

    rec.wrap("scheduler", "scheduler.run", outer)()
    assert rec.self_ns == {"heap": 60, "scheduler": 22}
    assert rec.incl_ns == {"heap": 60, "scheduler.run": 82}
    assert rec.calls == {"heap": 2, "scheduler.run": 1}
    assert rec.total_self_ns() == 82


def test_reentrant_span_counts_inclusive_time_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    state = {"depth": 0}

    def park():
        state["depth"] += 1
        clock.tick(4)
        if state["depth"] == 1:
            park_span()  # park_on_timer -> park
        clock.tick(1)

    park_span = rec.wrap("scheduler", "scheduler.park", park)
    park_span()
    # Outer 4 + inner 5 + outer 1: inclusive is the outermost span only.
    assert rec.incl_ns["scheduler.park"] == 10
    assert rec.calls["scheduler.park"] == 2
    # Self time: inner 5, outer 10 - 5; same layer, so they add up.
    assert rec.self_ns["scheduler"] == 10


def test_three_levels_self_time_excludes_only_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    leaf = rec.wrap("goroutine", "goroutine", lambda: clock.tick(3))

    def mark():
        clock.tick(2)
        leaf()

    mark_span = rec.wrap("marking", "marking", mark)

    def collect():
        clock.tick(1)
        mark_span()
        clock.tick(1)

    rec.wrap("collector", "collector.collect", collect)()
    assert rec.self_ns == {"goroutine": 3, "marking": 2, "collector": 2}
    assert rec.incl_ns["collector.collect"] == 7


def test_span_stack_survives_exceptions_and_post_sees_duration():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    seen = []

    def boom():
        clock.tick(8)
        raise KeyError("x")

    failing = rec.wrap("channel", "channel", boom)
    ok = rec.wrap("heap", "heap", lambda n: clock.tick(n) or n,
                  post=lambda a, r, dt: seen.append((a, r, dt)))
    with pytest.raises(KeyError):
        failing()
    assert ok(3) == 3
    assert seen == [((3,), 3, 3)]
    assert rec.self_ns == {"channel": 8, "heap": 3}
    rec.reset()
    assert rec.self_ns == {"channel": 0, "heap": 0}
    ok(2)
    assert rec.calls == {"channel": 0, "heap": 1}


@pytest.mark.parametrize("n, expected_p", [
    (20, 50.0),     # p50 leaves exactly 10 beyond
    (100, 90.0),    # p95 would leave 5
    (1000, 99.0),   # p99 leaves exactly 10
    (11000, 99.9),  # p99.9 leaves 11
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    p, value = tail_percentile(range(1, n + 1))
    assert p == expected_p
    assert n - value >= 10
    assert sum(1 for v in range(1, n + 1) if v > value) >= 10


def test_tail_percentile_needs_twenty_samples():
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None


def test_tail_percentile_is_order_independent():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))


@pytest.mark.parametrize("name", [
    "wall_s", "daemon.check_ms_p50", "fleet.shard_wall_s_max",
    "trace.overhead_frac", "a", "9lives", "x-y_z.w", "n" * 64,
])
def test_metric_names_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", ".hidden", "_x", "-x", "wall s", "wall/s", "n" * 65, "é", None,
])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_units():
    for unit in ("s", "ms", "1/s", "count", "x", "MB", "B", "frac", "%"):
        assert check_unit(unit) == unit
    for unit in ("", "per second", "a" * 17):
        with pytest.raises(ValueError):
            check_unit(unit)


def test_digest_diff_reports_changed_missing_and_extra_keys():
    pinned = {"a": "1", "b": "2", "c": "3"}
    assert digest_diff(pinned, dict(pinned)) == []
    observed = {"a": "1", "b": "X", "d": "4"}
    assert digest_diff(pinned, observed) == ["b", "c", "d"]


def test_digest_is_stable_and_order_free():
    assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})
    assert len(digest({})) == 16


def test_pins_round_trip_and_key_set_change():
    digests = {"p|s0": "aaaaaaaa", "q|s0": "bbbbbbbb"}
    entry = pins.pack(digests)
    assert pins.unpack(entry, list(digests)) == digests
    changed = pins.unpack(entry, ["p|s0", "r|s0"])
    assert digest_diff(changed, {"p|s0": "aaaaaaaa", "r|s0": "cccccccc"}) \
        == ["p|s0", "r|s0"]


def test_at_reference_speed_rescales_by_the_mean_reference():
    r = REFERENCE_S
    assert at_reference_speed(1.0, r, r) == pytest.approx(1.0)
    # The host ran at half speed around the segment: half the time.
    assert at_reference_speed(2.0, 2 * r, 2 * r) == pytest.approx(1.0)
    assert at_reference_speed(3.0, r, 2 * r) == pytest.approx(2.0)


def test_best_segments_takes_each_segments_fastest_unit():
    # With up to ten units, the 10th percentile is the fastest.
    r = REFERENCE_S
    units = [
        [(1.0, r, r), (5.0, r, r), (2.0, r, r)],
        [(3.0, r, r), (4.0, r, r), (2.0, 2 * r, 2 * r)],
    ]
    assert best_segments(units) == pytest.approx([1.0, 4.0, 1.0])
    # A slow spell rescaled away: unit 1 at half speed throughout.
    slow = [[(2 * t, 2 * a, 2 * b) for t, a, b in units[0]]]
    assert best_segments(slow) == pytest.approx(best_segments(units[:1]))


def test_fast_ignores_one_outlier_past_ten_repeats():
    assert fast([5.0, 3.0, 4.0]) == 3.0
    assert fast([0.1] + [2.0 + i for i in range(19)]) == 2.0
    assert fast([0.1] + [2.0 + i for i in range(9)]) == 0.1


def test_best_segments_rejects_misaligned_units():
    r = REFERENCE_S
    with pytest.raises(ValueError):
        best_segments([[(1.0, r, r)], [(1.0, r, r), (1.0, r, r)]])
    with pytest.raises(ValueError):
        best_segments([])


def test_segment_clock_is_passive_and_splits_identically():
    import workloads

    wl = workloads.ControlledDaemon(0)
    wl.load()
    wl.DURATION_S = 1
    plain = wl.run_unit()
    assert plain.clock is None
    a = wl.run_unit(segments=True)
    b = wl.run_unit(segments=True)
    assert a.digests == b.digests == plain.digests
    segments = a.clock.segments()
    assert len(segments) == len(b.clock.segments()) > 2
    assert all(t >= 0 and ra > 0 and rb > 0 for t, ra, rb in segments)


def test_daemon_numbers_growth_and_window():
    from instrument import daemon_numbers, series_summary

    # 20 checks: host ms 1..20 at virtual seconds 1..20.
    checks = [(i * 1_000_000, i * 10**9) for i in range(1, 21)]
    out = daemon_numbers(checks)
    assert out["daemon.checks"] == 20
    assert out["daemon.check_ms_p50"] == 10.5
    assert out["daemon.check_ms_tail"] == 10.0  # p50, 10 beyond
    assert out["daemon.check_growth"] == pytest.approx(19.5 / 1.5)
    # Only checks before t=11 s count toward growth: ms 1..10.
    windowed = daemon_numbers(checks, until_ns=11 * 10**9)
    assert windowed["daemon.check_growth"] == 10.0
    assert series_summary(checks, 11 * 10**9) == [float(i)
                                                  for i in range(1, 11)]
    assert daemon_numbers(checks[:9])["daemon.check_growth"] == 0.0


def test_layer_trace_is_passive_complete_and_restores_originals():
    from instrument import LayerTrace
    import workloads
    from repro.runtime.scheduler import Scheduler

    original_run = Scheduler.run
    wl = workloads.RegistrySweep(0)
    wl.load()
    wl.programs = lambda: workloads.RegistrySweep.programs(wl)[:6]
    plain = wl.run_unit()
    trace = LayerTrace()
    trace.install()
    trace.begin_unit()
    traced = wl.run_unit(after_timing=trace.uninstall)
    assert Scheduler.run is original_run
    assert traced.digests == plain.digests
    numbers = trace.unit_numbers(int(traced.wall_s * 1e9))
    assert trace.reconcile(numbers) == []
    assert numbers["executor.calls"] == traced.instructions
    assert numbers["api.runtimes"] == 6
    assert numbers["collector.cycles"] > 0


def test_benchmark_json_declares_exactly_the_printed_metrics():
    import json

    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        check_metric_name(metric["name"])
        check_unit(metric["unit"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
