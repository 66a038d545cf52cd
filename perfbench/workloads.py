"""The four benchmark workloads, each a closed batch of identical units.

A *unit* is one whole run of the workload's paper program; the
benchmark runs units back to back, the next starting only after the
previous one finished.  Inputs come from the workload seed alone, so
every unit of one benchmark run does the same simulated work and only
host noise separates their timings.

Every unit yields digests of its deterministic outputs, one per
*checked unit* (the run itself, or one registry program, or one fleet
shard), plus the oracle failures it found.  Modules under test are
imported in :meth:`Workload.load`, so the set-up probe times them.

An untraced unit also splits at fixed points of its deterministic
work into *segments*, each doing the same simulated work in every unit
of a run, and times the reference loop at every split (see
:class:`SegmentClock` and ``spans.best_segments``).
"""

from __future__ import annotations

import collections
import json
import os
import time
from typing import Callable, Dict, List, Optional

from spans import at_reference_speed, digest, fast, reference_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SECOND = 1_000_000_000


class Unit:
    """What one unit measured and produced."""

    def __init__(self, segments: bool = False, refs: int = 1) -> None:
        self.wall_s = 0.0
        #: Simulated user instructions, summed over runtimes.
        self.instructions = 0
        #: Final virtual clocks, summed over runtimes, in ns.
        self.virtual_ns = 0
        #: Checked-unit key -> digest of its deterministic outputs.
        self.digests: Dict[str, str] = {}
        #: ``key: reason`` for checked units an oracle rejected.
        self.failures: List[str] = []
        #: Host ms per simulated program run.
        self.program_ms: List[float] = []
        #: Peak RSS of worker processes, summed, in KiB.
        self.worker_rss_kb = 0.0
        #: Splits the unit into segments; None in traced units.
        self.clock = SegmentClock(refs) if segments else None

    def boundary(self) -> None:
        if self.clock is not None:
            self.clock.boundary()


class SegmentClock:
    """Splits a unit into segments of identical simulated work.

    :meth:`boundary` ends one segment and starts the next, timing the
    reference loop in between, so each segment knows how fast the host
    ran just before and just after it; ``refs`` loops, averaged, where
    segments are long enough to afford them.  :meth:`wrap` calls it every
    ``every`` instructions a runtime executes (daemon ones included)
    through the scheduler's ``_execute`` swap point, for workloads whose
    unit is one long program.
    """

    def __init__(self, refs: int = 1) -> None:
        self.refs = refs
        #: ``(end of the last segment, reference s, start of the next)``.
        self.stamps: List[tuple] = []

    def boundary(self) -> None:
        clock = time.perf_counter
        end = clock()
        ref = sum(reference_s() for _ in range(self.refs)) / self.refs
        self.stamps.append((end, ref, clock()))

    def segments(self) -> List[tuple]:
        """``(host s, reference s before, reference s after)`` each."""
        st = self.stamps
        return [(b[0] - a[2], a[1], b[1]) for a, b in zip(st, st[1:])]

    def wrap(self, rt, every: int) -> None:
        inner = rt.sched._execute
        boundary = self.boundary
        left = every

        def execute(sched, g, instr):
            nonlocal left
            left -= 1
            if not left:
                left = every
                boundary()
            return inner(sched, g, instr)

        rt.sched._execute = execute


class _Capture:
    """Passed where a service takes a telemetry hub: keeps the runtime.

    ``service()`` returns None, so the service records nothing and its
    runtime stays unobserved.
    """

    def __init__(self, clock: Optional[SegmentClock] = None,
                 every: int = 0):
        self.rt = None
        self.on_attach: Optional[Callable] = None
        self.clock = clock
        self.every = every

    def attach(self, rt) -> None:
        self.rt = rt
        if self.clock is not None:
            self.clock.wrap(rt, self.every)
        if self.on_attach is not None:
            self.on_attach(rt)

    def service(self, name):
        return None


class _FirstInstruction(BaseException):
    """Raised by the set-up probe when simulation is about to start.

    A BaseException, so no ``except Exception`` on the way out eats it.
    """


def _labels(reports) -> List[list]:
    counts = collections.Counter(r.label or r.name for r in reports)
    return sorted([label, n] for label, n in counts.items())


def _status(rt) -> str:
    if rt.sched.crashed is not None:
        return "crashed"
    return "main-exited" if rt.sched.main_exited else "running"


def _service_digest(rt, requests: int, daemon_checks: int) -> str:
    return digest({
        "status": _status(rt),
        "reports": rt.reports.total(),
        "labels": _labels(rt.reports),
        "instructions": rt.sched.instructions_executed,
        "clock_ns": rt.clock.now,
        "num_gc": rt.collector.stats.num_gc,
        "requests": requests,
        "daemon_checks": daemon_checks,
    })


class Workload:
    name = ""
    #: The ``run_unit`` mode of an untraced unit.
    MODE = ""
    #: Daemon checks stamped at or after this virtual time are left out
    #: of the growth ratio (None keeps every check).
    growth_until_ns: Optional[int] = None
    #: Executed instructions per segment, for workloads whose unit is
    #: one long program; the others split at their own program runs.
    SEGMENT_EXECUTES = 0

    def __init__(self, seed: int):
        self.seed = seed

    def load(self) -> None:
        """Import the modules the workload runs."""

    def warm(self) -> None:
        """Run a short version once, so lazy imports are done."""

    def run_unit(self, mode: str = "",
                 after_timing: Optional[Callable[[], None]] = None,
                 segments: bool = False) -> Unit:
        """Run one unit.  ``after_timing`` is called as soon as the timed
        region ends, before any digest or oracle work.  ``segments``
        gives the unit a :class:`SegmentClock`; traced units leave it
        off, because the reference loops and the instruction shim would
        land inside their spans."""
        raise NotImplementedError

    def program_ms(self, best: List[float], units: List[Unit]) -> List[float]:
        """Host ms per simulated program at reference speed, each its
        ``fast`` run over ``units``, given ``best_segments`` of them.
        Here the unit is one program."""
        return [sum(best) * 1e3]

    def build_until_first_instruction(self) -> None:
        """Do the unit's set-up, stopping at its first instruction.

        ``run_unit``'s default mode runs in this process; for fleet2
        that is the sequential mode, which builds the routing table and
        both shard runtimes here, as each worker builds its own.
        """
        from repro.runtime.scheduler import Scheduler

        def stop(*args, **kwargs):
            raise _FirstInstruction

        Scheduler.run = stop
        try:
            self.run_unit()
        except _FirstInstruction:
            return
        raise RuntimeError("workload finished without simulating")


class Production(Workload):
    """``run_production`` at the ROADMAP config, observability off."""

    name = "production"
    HOURS = 1.0
    LEAK_EVERY = 120
    SEGMENT_EXECUTES = 1024

    def load(self) -> None:
        from repro.service import production

        self.mod = production

    def _config(self, hours: float):
        return self.mod.ProductionConfig(
            hours=hours, leak_every=self.LEAK_EVERY, seed=self.seed)

    def warm(self) -> None:
        self.mod.run_production(self._config(0.02), golf=True)

    def run_unit(self, mode: str = "", after_timing=None,
                 segments: bool = False) -> Unit:
        unit = Unit(segments)
        cap = _Capture(unit.clock, self.SEGMENT_EXECUTES)
        unit.boundary()
        t0 = time.perf_counter()
        result = self.mod.run_production(self._config(self.HOURS), golf=True,
                                         telemetry=cap)
        unit.wall_s = time.perf_counter() - t0
        unit.boundary()
        _call(after_timing)
        rt = cap.rt
        unit.instructions = rt.sched.instructions_executed
        unit.virtual_ns = rt.clock.now
        unit.program_ms.append(unit.wall_s * 1e3)
        unit.digests["run"] = _service_digest(rt, result.total_requests, 0)
        # Requests are dealt round-robin to the endpoints and one in
        # LEAK_EVERY per endpoint strands its async task: GOLF must
        # report exactly those.
        per_site = [len(range(i, result.total_requests,
                              len(self.mod.ENDPOINTS)))
                    for i in range(len(self.mod.ENDPOINTS))]
        expected = sum(n // self.LEAK_EVERY for n in per_site)
        if result.deadlock_reports != expected:
            unit.failures.append(
                f"run: {result.deadlock_reports} reports, "
                f"{expected} leaky requests")
        _check_invariants(unit, "run", rt)
        return unit


class ControlledDaemon(Workload):
    """``run_controlled`` with the incremental GC and a 50 ms daemon."""

    name = "controlled_daemon"
    WARMUP_S = 2
    DURATION_S = 12
    LEAK_RATE = 0.05
    DAEMON_MS = 50.0
    growth_until_ns = (WARMUP_S + DURATION_S) * SECOND
    SEGMENT_EXECUTES = 64

    def load(self) -> None:
        from repro.core.config import GolfConfig
        from repro.service import controlled

        self.mod = controlled
        self.golf_config = GolfConfig

    def _run(self, duration_s: int, cap: _Capture):
        cap.on_attach = lambda rt: rt.detect_partial_deadlock(self.DAEMON_MS)
        config = self.mod.ControlledConfig(
            leak_rate=self.LEAK_RATE, seed=self.seed,
            warmup_s=self.WARMUP_S, duration_s=duration_s)
        result = self.mod.run_controlled(
            config, gc_config=self.golf_config(gc_mode="incremental"),
            telemetry=cap)
        return result, cap.rt

    def warm(self) -> None:
        self._run(1, _Capture())

    def run_unit(self, mode: str = "", after_timing=None,
                 segments: bool = False) -> Unit:
        unit = Unit(segments)
        cap = _Capture(unit.clock, self.SEGMENT_EXECUTES)
        unit.boundary()
        t0 = time.perf_counter()
        result, rt = self._run(self.DURATION_S, cap)
        unit.wall_s = time.perf_counter() - t0
        unit.boundary()
        _call(after_timing)
        unit.instructions = rt.sched.instructions_executed
        unit.virtual_ns = rt.clock.now
        unit.program_ms.append(unit.wall_s * 1e3)
        checks = rt.detection_daemon.stats.checks
        unit.digests["run"] = _service_digest(rt, result.completed, checks)
        # Every leak is the child's second send; all are reclaimed.
        names = {r.name for r in rt.reports}
        if not names <= {"request-child"}:
            unit.failures.append(f"run: unexpected reports {sorted(names)}")
        reclaimed = rt.collector.stats.total_goroutines_reclaimed
        if rt.reports.total() != reclaimed:
            unit.failures.append(
                f"run: {rt.reports.total()} reports, {reclaimed} reclaimed")
        _check_invariants(unit, "run", rt)
        return unit


class RegistrySweep(Workload):
    """Every registry microbenchmark x procs {1,2,4} x derived seeds."""

    name = "registry_sweep"
    PROCS = (1, 2, 4)
    SEEDS_PER_PASS = 4

    def load(self) -> None:
        from repro.microbench.harness import run_microbenchmark
        from repro.microbench.registry import all_benchmarks

        self.run_microbenchmark = run_microbenchmark
        self.all_benchmarks = all_benchmarks

    def programs(self):
        seeds = [self.seed * self.SEEDS_PER_PASS + i
                 for i in range(self.SEEDS_PER_PASS)]
        return [(bench, procs, i, s)
                for bench in self.all_benchmarks()
                for procs in self.PROCS
                for i, s in enumerate(seeds)]

    def warm(self) -> None:
        bench, procs, _, seed = self.programs()[0]
        self.run_microbenchmark(bench, procs=procs, seed=seed)

    def program_ms(self, best, units):
        # A segment is one program run.
        return [s * 1e3 for s in best]

    def run_unit(self, mode: str = "", after_timing=None,
                 segments: bool = False) -> Unit:
        unit = Unit(segments)
        run = self.run_microbenchmark
        clock = time.perf_counter
        programs = self.programs()
        done = []
        unit.boundary()
        t_start = clock()
        for bench, procs, index, seed in programs:
            rts: list = []
            key = f"{bench.name}|p{procs}|s{index}"
            t0 = clock()
            try:
                result = run(bench, procs=procs, seed=seed,
                             rt_hook=rts.append)
            except Exception as err:  # a raise fails this program only
                unit.failures.append(f"{key}: raised {err!r}")
                unit.boundary()
                continue
            unit.program_ms.append((clock() - t0) * 1e3)
            unit.boundary()  # a segment is one program
            rt = rts[0]
            done.append((key, bench, result, rt.sched.instructions_executed,
                         rt.clock.now))
        unit.wall_s = clock() - t_start
        _call(after_timing)
        for key, bench, result, instructions, clock_ns in done:
            unit.instructions += instructions
            unit.virtual_ns += clock_ns
            unit.digests[key] = digest({
                "status": result.status,
                "detected": sorted(result.detected),
                "reports": result.report_count,
                "instructions": instructions,
                "clock_ns": clock_ns,
                "num_gc": result.num_gc,
                "reclaimed": result.reclaimed,
            })[:8]
            # No false positives: only the benchmark's leaky sites.
            if result.status == "runtime-failure":
                unit.failures.append(f"{key}: {result.panic}")
            elif not result.detected <= set(bench.sites):
                unit.failures.append(
                    f"{key}: reported {sorted(result.detected)}")
        return unit


class Fleet2(Workload):
    """Two-shard fleets, daemon and TSDB scraping on, one worker each.

    A unit is one fleet run per derived seed: a seed's traffic model
    decides how many requests its users send, so a few seeds per unit
    keep the unit's work from depending on one seed's draw.
    """

    name = "fleet2"
    MODE = "multiprocessing"
    SHARDS = 2
    SEEDS_PER_UNIT = 4
    #: Reference loops per segment boundary: a fleet run is long.
    REFS = 8

    def load(self) -> None:
        from repro.fleet.supervisor import FleetConfig, run_fleet

        self.configs = [
            FleetConfig(shards=self.SHARDS,
                        seed=self.seed * self.SEEDS_PER_UNIT + i,
                        daemon_interval_ms=20, scrape_interval_ms=10)
            for i in range(self.SEEDS_PER_UNIT)]
        self.run_fleet = run_fleet
        self.probe = None

    def warm(self) -> None:
        self.run_fleet(self.configs[0], mode="sequential")

    def program_ms(self, best, units):
        # A program is one shard's run, timed in its worker; rescale it
        # by the reference loops around its fleet run.
        rows = []
        for unit in units:
            segs = unit.clock.segments()
            rows.append([at_reference_speed(ms, *segs[i // self.SHARDS][1:])
                         for i, ms in enumerate(unit.program_ms)])
        return [fast(column) for column in zip(*rows)]

    def run_unit(self, mode: str = "sequential", after_timing=None,
                 segments: bool = False) -> Unit:
        unit = Unit(segments, refs=self.REFS)
        probe = self.probe if mode == "multiprocessing" else None
        clock = time.perf_counter
        runs = []
        unit.boundary()
        t_start = clock()
        for config in self.configs:
            if probe is not None:
                probe.begin_run()
            result = self.run_fleet(config, mode=mode)
            runs.append((result, result.to_dict()))
            if probe is not None:
                probe.end_run()
            unit.boundary()  # a segment is one fleet run
        unit.wall_s = clock() - t_start
        _call(after_timing)
        for index, (result, doc) in enumerate(runs):
            self._check(unit, f"s{index}", result, doc)
        if probe is not None:
            facts = probe.worker_facts()
            unit.instructions = sum(f["instructions"] for f in facts)
            unit.virtual_ns = sum(f["clock_ns"] for f in facts)
            unit.program_ms = [f["wall_s"] * 1e3 for f in facts]
            unit.worker_rss_kb = max(
                sum(f["maxrss_kb"] for f in facts[i:i + self.SHARDS])
                for i in range(0, len(facts), self.SHARDS))
        return unit

    def _check(self, unit: Unit, prefix: str, result, doc) -> None:
        # The artifact names source files by absolute path; make it
        # independent of where the checkout lives.
        text = json.dumps(doc, sort_keys=True).replace(SRC + os.sep, "")
        doc = json.loads(text)
        del doc["mode"]
        shards = doc.pop("shards")
        routing = doc.pop("routing")
        rest = digest(doc)
        for shard in shards:
            key = f"{prefix}|shard{shard['shard_id']}"
            unit.digests[key] = digest(
                {"shard": shard, "routing": routing[str(shard["shard_id"])],
                 "aggregate": rest})
            if not shard["daemon_checks"]:
                unit.failures.append(f"{key}: no daemon checks")
        if not result.clean:
            unit.failures.append(f"{prefix}|fleet: {result.problems}")
        if "telemetry" not in doc:
            unit.failures.append(f"{prefix}|fleet: no telemetry section")


def _call(fn: Optional[Callable[[], None]]) -> None:
    if fn is not None:
        fn()


def _check_invariants(unit: Unit, key: str, rt) -> None:
    problems = rt.check_invariants()
    if problems:
        unit.failures.append(f"{key}: invariants {problems[:3]}")


WORKLOADS = {w.name: w for w in (Production, ControlledDaemon,
                                 RegistrySweep, Fleet2)}
