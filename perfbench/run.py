#!/usr/bin/env python3
"""End-to-end host-time benchmark over four paper workloads.

    python3 perfbench/run.py --workload production --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload production --seed 3 --seconds 20 --trace 1

``--trace 0`` runs units of the workload untraced for ``--seconds``
seconds, checks every unit's digests and oracles, then measures set-up
in fresh interpreters, and prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced units and prints the per-layer metrics,
the self-time table, the span-count reconciliations and the tracing
overhead.  The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import pins
from spans import (REFERENCE_S, at_reference_speed, best_segments,
                   check_metric_name, check_unit, digest_diff, percentile,
                   reference_s, tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> unit; printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "virtual_s_per_wall_s": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "program_p50_ms": "ms",
}

#: name -> unit; printed with --trace 1.
PER_LAYER = {
    "scheduler.self_s": "s", "scheduler.parks": "count",
    "scheduler.wakes": "count",
    "rng.draws": "count", "rng.s": "s",
    "executor.calls": "count", "executor.self_s": "s",
    "channel.ops": "count", "channel.s": "s",
    "goroutine.stack_scans": "count", "goroutine.stack_refs": "count",
    "goroutine.stack_scan_s": "s",
    "heap.allocs": "count", "heap.frees": "count", "heap.s": "s",
    "marking.calls": "count", "marking.work_units": "count",
    "marking.self_s": "s",
    "collector.cycles": "count", "collector.collect_s": "s",
    "collector.gc_steps": "count", "collector.gc_step_s": "s",
    "detector.detect_calls": "count", "detector.fixpoint_calls": "count",
    "detector.liveness_checks": "count", "detector.self_s": "s",
    "recovery.reclaimed": "count", "recovery.s": "s",
    "daemon.checks": "count", "daemon.check_ms_p50": "ms",
    "daemon.check_ms_tail": "ms", "daemon.check_growth": "x",
    "telemetry.hook_calls": "count", "telemetry.hook_s": "s",
    "telemetry.scrapes": "count", "telemetry.scrape_s": "s",
    "fleet.spawn_s": "s", "fleet.recv_wait_s": "s",
    "fleet.result_bytes": "B", "fleet.aggregate_s": "s",
    "fleet.shard_wall_s_max": "s", "fleet.shard_wall_s_min": "s",
    "api.runtimes": "count", "api.runtime_init_s": "s",
    "api.program_tail_ms": "ms",
    "unattributed_s": "s", "trace.overhead_frac": "frac",
}

#: Fewest units a run measures, however short ``--seconds`` is.
MIN_UNITS = 3
#: Fresh-interpreter set-up samples per run.
SETUP_SAMPLES = 9


def _quartiles(values):
    data = sorted(values)
    return percentile(data, 25), percentile(data, 75)


class Checker:
    """Exact-matches unit digests against one reference; counts failures.

    The reference is the pinned table when the seed is pinned, else the
    first unit of this run, so every unit must reproduce it.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.kind = pins.seed_kind(seed)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, unit, label: str) -> None:
        if unit is None:
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"{label}: raised")
            return
        if self.reference is None:
            pinned = pins.expected(self.workload, self.seed,
                                   list(unit.digests))
            self.reference = pinned if pinned is not None else unit.digests
        mismatched = digest_diff(self.reference, unit.digests)
        bad = set(mismatched)
        for failure in unit.failures:
            bad.add(failure.split(":", 1)[0])
        self.attempted += max(len(self.reference), len(unit.digests))
        self.failed += len(bad)
        self.messages += [f"{label}: digest {k}" for k in mismatched[:5]]
        self.messages += [f"{label}: {f}" for f in unit.failures[:5]]

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(message)

    def report(self) -> None:
        frac = self.failed / max(1, self.attempted)
        source = ("pinned digests" if self.kind != "unpinned"
                  else "the run's first unit (seed not pinned)")
        print(f"digests: {self.kind} seed, exact-matched against {source}")
        print(f"checked units: {self.attempted}, failed: {self.failed}, "
              f"failed_frac {frac:.6f}")
        for message in self.messages[:20]:
            print(f"  FAIL {message}")


def _run(wl, checker, label, mode=None, after_timing=None, segments=False):
    """One unit, checked; None if it raised.  ``mode=None`` runs the
    workload's in-process mode."""
    kwargs = {} if mode is None else {"mode": mode}
    try:
        unit = wl.run_unit(after_timing=after_timing, segments=segments,
                           **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        unit = None
    checker.check(unit, label)
    return unit


def _setup_samples(name: str, seed: int):
    """Set-up seconds at reference speed, one per fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(at_reference_speed(
            *map(float, out.stdout.split()[-3:])))
    return samples


def _reference_around(fn) -> tuple:
    """``(host s of fn(), reference s before, reference s after)``; each
    reference is the mean of a few loops."""
    before = sum(reference_s() for _ in range(5)) / 5
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    after = sum(reference_s() for _ in range(5)) / 5
    return elapsed, before, after


def untraced(wl, seconds: int):

    checker = Checker(wl.name, wl.seed)
    probe = None
    if wl.name == "fleet2":
        from instrument import FleetProbe

        probe = wl.probe = FleetProbe(wl.SHARDS, timed=False)
        probe.install()
    try:
        wl.warm()
        units = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(units) < MIN_UNITS):
            if probe is not None:
                probe.begin_unit()
            # Every unit starts from the same Python heap, so the
            # interpreter's own collections fall at the same points.
            gc.collect()
            units.append(_run(wl, checker, f"unit {len(units)}", wl.MODE,
                              segments=True))
        elapsed = time.perf_counter() - start
    finally:
        if probe is not None:
            probe.uninstall()
    good = [u for u in units if u is not None]
    if not good:
        raise RuntimeError("every unit raised")
    split = [u.clock.segments() for u in good]
    segments = len(split[0])
    for i, segs in enumerate(split):
        if len(segs) != segments:
            checker.fail(f"unit {i}: {len(segs)} segments, "
                         f"unit 0 has {segments}")
    aligned = [u for u, segs in zip(good, split) if len(segs) == segments]
    best = best_segments([segs for segs in split if len(segs) == segments])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += max(u.worker_rss_kb for u in good)
    setup = _setup_samples(wl.name, wl.seed)
    # Whole units in plain host seconds, reference loops left out.
    walls = [sum(seg[0] for seg in segs) for segs in split]
    reference = sorted(seg[1] * 1e3 for segs in split for seg in segs)
    wall = sum(best)
    program_ms = wl.program_ms(best, aligned)
    metrics = {
        "wall_s": wall,
        "sim_instr_per_s": median([u.instructions for u in aligned]) / wall,
        "virtual_s_per_wall_s": median(
            [u.virtual_ns for u in aligned]) / 1e9 / wall,
        "setup_s": median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "program_p50_ms": median(program_ms),
    }
    print(f"workload {wl.name}, seed {wl.seed}: {len(units)} units in "
          f"{elapsed:.1f} s, closed batch, untraced")
    checker.report()
    q1, q3 = _quartiles(walls)
    fastest = (f"sum over {segments} segments of the p10 (nearest rank) "
               f"of {len(aligned)} units at reference speed")
    samples = {
        "wall_s": f"{fastest}; whole units in host s: median "
                  f"{median(walls):.4f} q1 {q1:.4f} q3 {q3:.4f}",
        "sim_instr_per_s": "per wall_s",
        "virtual_s_per_wall_s": "per wall_s",
        "setup_s": "median of %d fresh interpreters at reference "
                   "speed: %s" % (len(setup),
                                  " ".join(f"{s:.4f}" for s in setup)),
        "peak_rss_mb": ("this process plus its workers" if probe
                        else "this process"),
        "program_p50_ms": f"median of {len(program_ms)} programs, each "
                          "its p10 run at reference speed",
    }
    for name, value in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {END_TO_END[name]:<6} "
              f"({samples[name]})")
    print(f"reference loop at {len(reference)} segment boundaries: fastest "
          f"{reference[0]:.4f} ms, q1 {percentile(reference, 25):.4f}, "
          f"median {percentile(reference, 50):.4f}, q3 "
          f"{percentile(reference, 75):.4f} (reference speed: "
          f"{REFERENCE_S * 1e3:.4f} ms)")
    return checker, metrics


def traced(wl, seconds: int):
    from instrument import LAYERS, FleetProbe, LayerTrace, series_summary

    checker = Checker(wl.name, wl.seed)
    trace = LayerTrace()
    fleet = wl.name == "fleet2"
    # Units run in-process: fleet shards in the sequential mode (same
    # work by the fleet equivalence oracle); the multiprocessing-only
    # steps are timed around the supervisor in units of their own.
    wl.warm()
    plain, spans_units, fleet_units = [], [], []
    #: Host ms per program run in untraced units (a fleet shard runs
    #: as a program only in its worker).
    plain_programs = []
    pairs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or pairs < 2:
        pairs += 1
        unit = _run(wl, checker, f"untraced {len(plain)}")
        if unit is not None:
            plain.append(unit)
            if not fleet:
                plain_programs += unit.program_ms

        trace.install()
        trace.begin_unit()
        unit = _run(wl, checker, f"traced {len(spans_units)}",
                    after_timing=trace.uninstall)
        if unit is None:
            trace.uninstall()
            continue
        numbers = trace.unit_numbers(int(unit.wall_s * 1e9),
                                     wl.growth_until_ns)
        for problem in trace.reconcile(numbers):
            checker.fail(f"traced {len(spans_units)}: {problem}")
        # Dead runtimes left reachable would slow the next unit's
        # cyclic garbage collection.
        trace.runtimes.clear()
        spans_units.append((unit, numbers, list(trace.checks)))

        if fleet:
            probe = wl.probe = FleetProbe(wl.SHARDS, timed=True)
            probe.install()
            probe.begin_unit()
            unit = _run(wl, checker, f"fleet {len(fleet_units)}",
                        "multiprocessing", probe.uninstall)
            probe.uninstall()  # also when the unit raised mid-run
            if unit is not None:
                fleet_units.append(probe.unit_numbers())
                plain_programs += unit.program_ms
    if not plain or not spans_units:
        raise RuntimeError("no complete traced/untraced pair")

    def med(key, rows):
        return median([row[key] for row in rows]) if rows else 0.0

    rows = [numbers for _, numbers, _ in spans_units]
    metrics = {name: med(name, rows) for name in PER_LAYER
               if name in rows[0]}
    for name in PER_LAYER:
        if name.startswith("fleet."):
            metrics[name] = med(name, fleet_units)
    tail = tail_percentile(plain_programs)
    metrics["api.program_tail_ms"] = (tail[1] if tail
                                      else max(plain_programs))
    plain_wall = median([u.wall_s for u in plain])
    traced_wall = median([u.wall_s for u, _, _ in spans_units])
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    print(f"workload {wl.name}, seed {wl.seed}: {len(plain)} untraced + "
          f"{len(spans_units)} traced units"
          + (f" + {len(fleet_units)} supervisor-timed" if fleet else "")
          + f" in {time.perf_counter() - start:.1f} s, closed batch")
    checker.report()
    print(f"traced wall {traced_wall:.4f} s vs untraced {plain_wall:.4f} s: "
          f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}")
    print("span counts reconcile with instructions_executed, num_gc, "
          "DaemonStats.checks and TSDB scrapes"
          if not [m for m in checker.messages if "!=" in m]
          else "span counts DO NOT reconcile (see FAIL lines)")
    print(f"\nself time per layer (median of {len(rows)} traced units):")
    print(f"  {'layer':<12} {'self_s':>10} {'share':>7}")
    for layer in LAYERS:
        own = median([row["self_s"][layer] for row in rows])
        print(f"  {layer:<12} {own:>10.4f} {own / traced_wall:>7.1%}")
    print(f"  {'unattributed':<12} {metrics['unattributed_s']:>10.4f} "
          f"{metrics['unattributed_s'] / traced_wall:>7.1%}")
    print("  (scheduler self time includes the workload's own generator "
          "bodies, which Scheduler.run resumes)")
    checks = spans_units[0][2]
    if checks:
        tail = tail_percentile([dt / 1e6 for dt, _ in checks])
        print(f"\ndaemon: {metrics['daemon.checks']:.0f} checks per unit, "
              f"p50 {metrics['daemon.check_ms_p50']:.3f} ms, "
              + (f"p{tail[0]:g} " if tail else "max ")
              + f"{metrics['daemon.check_ms_tail']:.3f} ms, "
              f"check_growth {metrics['daemon.check_growth']:.2f}x")
        window = ("checks before the load deadline" if wl.growth_until_ns
                  else "all checks")
        print(f"  mean host ms per check, by tenth of the run ({window}):")
        print("  " + " ".join(
            f"{ms:.3f}" for ms in series_summary(checks, wl.growth_until_ns)))
    print("\nper-layer metrics:")
    for name in PER_LAYER:
        print(f"  {name:<26} {metrics[name]:>14.6g} {PER_LAYER[name]}")
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark over four paper workloads.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        def build():
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed)
            wl.load()
            wl.build_until_first_instruction()

        print(" ".join(f"{x:.9f}" for x in _reference_around(build)))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.load()
    if args.trace:
        checker, values = traced(wl, args.seconds)
        units = PER_LAYER
    else:
        checker, values = untraced(wl, args.seconds)
        units = END_TO_END
    metrics = {check_metric_name(name): {"value": values[name],
                                         "unit": check_unit(unit)}
               for name, unit in units.items()}
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
