"""Benchmark-owned spans at the simulator's layer entry points.

:class:`LayerTrace` replaces each entry point with a
:class:`~spans.SpanRecorder` wrapper while installed and restores the
originals on :meth:`LayerTrace.uninstall`.  Nothing under ``src/`` is
edited: class methods are swapped on the class, functions that other
modules import by name are swapped where they are looked up, and the
per-runtime hooks (the scheduler's ``_execute`` swap point and its
``rng``) are wrapped on every :class:`Runtime` built while installed.

:class:`FleetProbe` times the fleet supervisor's multiprocessing-only
steps (spawn, pipe receive, aggregation) and has every worker write its
own wall time, peak RSS, instruction count and final virtual clock into
shared memory, which is all the parent can learn about a worker without
changing what crosses the pipe.

``scheduler.self_s`` includes the workloads' own generator bodies,
which :meth:`Scheduler.run` resumes; splitting them off needs tracing
inside the program.
"""

from __future__ import annotations

import inspect
import resource
import time
from statistics import median
from multiprocessing import connection, process, reduction, sharedctypes
from typing import Dict, List, Optional

import repro.core.detector as detector_mod
import repro.core.recovery as recovery_mod
import repro.fleet.aggregate as aggregate_mod
import repro.fleet.supervisor as supervisor_mod
import repro.gc.collector as collector_mod
import repro.gc.marking as marking_mod
from repro.fleet.shard import ShardRunner
from repro.gc.collector import Collector
from repro.gc.heap import Heap
from repro.runtime.api import Runtime
from repro.runtime.channel import Channel
from repro.runtime.goroutine import Goroutine
from repro.runtime.scheduler import Scheduler
from repro.telemetry.hub import TelemetryHub

from spans import SpanRecorder, tail_percentile

#: Layers in the order the self-time table prints them.
LAYERS = ("scheduler", "executor", "rng", "channel", "goroutine", "heap",
          "marking", "collector", "detector", "recovery", "daemon",
          "telemetry", "api")

_RNG_METHODS = ("randrange", "uniform", "choice", "random", "randint",
                "shuffle", "sample", "choices", "getrandbits")


_MISSING = object()


def _swap(saved: List[tuple], owner, name: str, new) -> None:
    """Set ``owner.name``, remembering what to put back."""
    saved.append((owner, name, vars(owner).get(name, _MISSING)))
    setattr(owner, name, new)


def _restore(saved: List[tuple]) -> None:
    while saved:
        owner, name, orig = saved.pop()
        if orig is _MISSING:
            delattr(owner, name)
        else:
            setattr(owner, name, orig)


class _TracedRNG:
    """Stands in for ``Scheduler.rng``: every draw is a span."""

    def __init__(self, rng, rec: SpanRecorder):
        self._rng = rng
        for name in _RNG_METHODS:
            setattr(self, name, rec.wrap("rng", "rng", getattr(rng, name)))

    def __getattr__(self, name):
        return getattr(self._rng, name)


class LayerTrace:
    """Install/uninstall the per-layer spans; read one unit's numbers."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self._saved: List[tuple] = []
        #: Runtimes built while installed, for the reconciliations.
        self.runtimes: List[Runtime] = []
        #: ``(host_ns, virtual_ns)`` per completed daemon check.
        self.checks: List[tuple] = []

    # -- patching ------------------------------------------------------------

    def _span(self, owner, name: str, layer: str, group: str,
              post=None, fn=None) -> None:
        orig = fn if fn is not None else getattr(owner, name)
        _swap(self._saved, owner, name,
              self.rec.wrap(layer, group, orig, post))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer trace already installed")
        rec = self.rec
        add = rec.add

        # runtime.scheduler: the loop and the park/wake primitives.
        self._span(Scheduler, "run", "scheduler", "scheduler.run")
        self._span(Scheduler, "park", "scheduler", "scheduler.park")
        self._span(Scheduler, "wake", "scheduler", "scheduler.wake")

        # runtime.channel.
        for name in ("try_send", "try_recv", "close", "enqueue_sender",
                     "enqueue_receiver"):
            self._span(Channel, name, "channel", "channel")

        # runtime.goroutine: stack scans.  ``referents`` delegates to
        # ``stack_heap_refs``, which the mark-termination rescan also
        # calls directly, so the scan itself is the entry point.  It is
        # materialised inside the span so the walk is what gets timed.
        scan = Goroutine.stack_heap_refs
        self._span(Goroutine, "stack_heap_refs", "goroutine", "goroutine",
                   post=lambda a, r, dt: add("goroutine.stack_refs", len(r)),
                   fn=lambda g: list(scan(g)))

        # gc.heap: allocation and every freeing path.
        self._span(Heap, "allocate", "heap", "heap",
                   post=lambda a, r, dt: add("heap.allocs"))
        self._span(Heap, "free", "heap", "heap",
                   post=lambda a, r, dt: add("heap.frees"))
        self._span(Heap, "sweep", "heap", "heap",
                   post=lambda a, r, dt: add("heap.frees",
                                             r[0].freed_objects))
        self._span(Heap, "sweep_one", "heap", "heap",
                   post=lambda a, r, dt: add("heap.frees", int(r[0])))

        # gc.marking, patched where it is looked up.
        def work(a, r, dt):
            add("marking.work_units", r[0])

        for module, names in ((marking_mod, ("mark_from", "drain_budget",
                                             "push_roots")),
                              (collector_mod, ("mark_from", "drain_budget",
                                               "push_roots")),
                              (detector_mod, ("mark_from",))):
            for name in names:
                self._span(module, name, "marking", "marking", post=work)

        # core.detector.  A detect span's liveness checks include those
        # of the fixpoint it runs, so it overwrites the nested delta.
        detect = detector_mod.detect

        def detect_counted(*args, **kwargs):
            before = self._fixpoint_checks
            result = detect(*args, **kwargs)
            self._fixpoint_checks = before + result.liveness_checks
            return result

        self._span(detector_mod, "detect", "detector", "detector.detect",
                   fn=detect_counted)
        fixpoint = detector_mod.expand_liveness_fixpoint

        def fixpoint_counted(heap, candidates, result):
            before = result.liveness_checks
            out = fixpoint(heap, candidates, result)
            self._fixpoint_checks += result.liveness_checks - before
            return out

        self._span(detector_mod, "expand_liveness_fixpoint", "detector",
                   "detector.fixpoint", fn=fixpoint_counted)

        # gc.collector: cycles are counted where they complete — one per
        # atomic collect, or a gc_step that retires the in-flight cycle.
        def collect_post(a, r, dt):
            if not a[0].config.incremental:
                add("collector.cycles")

        self._span(Collector, "collect", "collector", "collector.collect",
                   post=collect_post)
        step = Collector.gc_step

        def step_counted(col):
            cycle = col._cycle
            out = step(col)
            if cycle is not None and col._cycle is not cycle:
                add("collector.cycles")
            return out

        self._span(Collector, "gc_step", "collector", "collector.gc_step",
                   fn=step_counted)

        # Daemon checks are detect_only passes with reason "daemon".
        detect_only = Collector.detect_only
        checks = self.checks

        def check_post(a, r, dt):
            if r is not None:
                checks.append((dt, a[0].clock.now))

        as_daemon = rec.wrap("daemon", "daemon", detect_only, check_post)
        as_collector = rec.wrap("collector", "collector.detect_only",
                                detect_only)

        def detect_only_split(col, reason="daemon"):
            if reason == "daemon":
                return as_daemon(col, reason)
            return as_collector(col, reason)

        _swap(self._saved, Collector, "detect_only", detect_only_split)

        # core.recovery.
        self._span(recovery_mod, "scan_and_mark_subgraph", "recovery",
                   "recovery")
        self._span(Scheduler, "reclaim_deadlocked", "recovery", "recovery",
                   post=lambda a, r, dt: add("recovery.reclaimed"))

        # telemetry: every hub callback, and the scrape tick.
        for name in sorted(TelemetryHub.__dict__):
            if name.startswith("on_") and inspect.isfunction(
                    TelemetryHub.__dict__[name]):
                self._span(TelemetryHub, name, "telemetry", "telemetry.hook")
        self._span(TelemetryHub, "scrape_tick", "telemetry",
                   "telemetry.scrape")

        # runtime.api: construction, then per-runtime hooks outside it.
        def built(a, r, dt):
            rt = a[0]
            self.runtimes.append(rt)
            rt.sched._execute = rec.wrap(
                "executor", "executor", rt.sched._execute, executed)
            rt.sched.rng = _TracedRNG(rt.sched.rng, rec)

        def executed(a, r, dt):
            if a[1].is_daemon:
                add("executor.daemon_calls")

        self._span(Runtime, "__init__", "api", "api", post=built)
        self._fixpoint_checks = 0

    def uninstall(self) -> None:
        _restore(self._saved)

    # -- one unit's numbers --------------------------------------------------

    def begin_unit(self) -> None:
        self.rec.reset()
        self.runtimes.clear()
        self.checks.clear()
        self._fixpoint_checks = 0

    def unit_numbers(self, wall_ns: int,
                     growth_until_ns: Optional[int] = None
                     ) -> Dict[str, float]:
        """Per-layer numbers of the unit just run."""
        rec = self.rec
        calls, incl, own, counts = (rec.calls, rec.incl_ns, rec.self_ns,
                                    rec.counts)
        s = 1e-9
        out: Dict[str, float] = {
            "scheduler.self_s": own["scheduler"] * s,
            "scheduler.parks": calls["scheduler.park"],
            "scheduler.wakes": calls["scheduler.wake"],
            "rng.draws": calls["rng"],
            "rng.s": incl["rng"] * s,
            "executor.calls": calls["executor"]
            - counts.get("executor.daemon_calls", 0),
            "executor.self_s": own["executor"] * s,
            "channel.ops": calls["channel"],
            "channel.s": incl["channel"] * s,
            "goroutine.stack_scans": calls["goroutine"],
            "goroutine.stack_refs": counts.get("goroutine.stack_refs", 0),
            "goroutine.stack_scan_s": incl["goroutine"] * s,
            "heap.allocs": counts.get("heap.allocs", 0),
            "heap.frees": counts.get("heap.frees", 0),
            "heap.s": incl["heap"] * s,
            "marking.calls": calls["marking"],
            "marking.work_units": counts.get("marking.work_units", 0),
            "marking.self_s": own["marking"] * s,
            "collector.cycles": counts.get("collector.cycles", 0),
            "collector.collect_s": incl["collector.collect"] * s,
            "collector.gc_steps": calls["collector.gc_step"],
            "collector.gc_step_s": incl["collector.gc_step"] * s,
            "detector.detect_calls": calls["detector.detect"],
            "detector.fixpoint_calls": calls["detector.fixpoint"],
            "detector.liveness_checks": self._fixpoint_checks,
            "detector.self_s": own["detector"] * s,
            "recovery.reclaimed": counts.get("recovery.reclaimed", 0),
            "recovery.s": incl["recovery"] * s,
            "telemetry.hook_calls": calls["telemetry.hook"],
            "telemetry.hook_s": incl["telemetry.hook"] * s,
            "telemetry.scrapes": calls["telemetry.scrape"],
            "telemetry.scrape_s": incl["telemetry.scrape"] * s,
            "api.runtimes": calls["api"],
            "api.runtime_init_s": incl["api"] * s,
            "unattributed_s": (wall_ns - rec.total_self_ns()) * s,
        }
        out.update(daemon_numbers(self.checks, growth_until_ns))
        out["self_s"] = {layer: own.get(layer, 0) * s for layer in LAYERS}
        return out

    def reconcile(self, numbers: Dict[str, float]) -> List[str]:
        """Span counts against the runtimes' own counters; [] when exact."""
        rts = self.runtimes
        hubs = {id(rt.sched.telemetry): rt.sched.telemetry for rt in rts
                if rt.sched.telemetry is not None}
        pairs = [
            ("executor.calls", "instructions_executed",
             sum(rt.sched.instructions_executed for rt in rts)),
            ("collector.cycles", "num_gc",
             sum(rt.collector.stats.num_gc for rt in rts)),
            ("daemon.checks", "DaemonStats.checks",
             sum(rt.detection_daemon.stats.checks for rt in rts
                 if rt.detection_daemon is not None)),
            ("telemetry.scrapes", "TSDB scrapes",
             sum(h.tsdb.scrapes for h in hubs.values()
                 if h.tsdb is not None)),
        ]
        return [f"{span} {numbers[span]} != {counter} {value}"
                for span, counter, value in pairs
                if numbers[span] != value]


def daemon_numbers(checks: List[tuple],
                   until_ns: Optional[int] = None) -> Dict[str, float]:
    """Check count, p50/tail host ms and growth of one unit's checks.

    Growth is the mean of the last tenth of checks over the first tenth,
    taken over checks stamped before ``until_ns`` when given.
    """
    out = {"daemon.checks": len(checks), "daemon.check_ms_p50": 0.0,
           "daemon.check_ms_tail": 0.0, "daemon.check_growth": 0.0}
    if not checks:
        return out
    ms = [dt / 1e6 for dt, _ in checks]
    out["daemon.check_ms_p50"] = median(ms)
    tail = tail_percentile(ms)
    out["daemon.check_ms_tail"] = tail[1] if tail else max(ms)
    series = [dt / 1e6 for dt, now in checks
              if until_ns is None or now < until_ns]
    k = len(series) // 10
    if k:
        first = sum(series[:k]) / k
        out["daemon.check_growth"] = sum(series[-k:]) / k / first
    return out


def series_summary(checks: List[tuple], until_ns: Optional[int],
                   parts: int = 10) -> List[float]:
    """Mean host ms per check in each tenth of the growth window."""
    series = [dt / 1e6 for dt, now in checks
              if until_ns is None or now < until_ns]
    n = len(series)
    if n < parts:
        return series
    return [sum(series[i * n // parts:(i + 1) * n // parts])
            / ((i + 1) * n // parts - i * n // parts)
            for i in range(parts)]


class FleetProbe:
    """Times the supervisor's process steps; collects worker facts.

    Each worker writes ``(wall_s, maxrss_kb, instructions, clock_ns)``
    for its shard into a shared array created before the fork; the
    parent copies them out after every fleet run.  With ``timed`` the
    parent also times ``Process.start``, the pipe receives (and sizes
    what they return) and the aggregation.
    """

    FIELDS = 4

    def __init__(self, shards: int, timed: bool):
        self.shards = shards
        self.timed = timed
        self.rec = SpanRecorder()
        self.result_bytes = 0
        self._saved: List[tuple] = []
        self._facts = sharedctypes.RawArray("d", shards * self.FIELDS)
        self._runs: List[Dict[str, float]] = []

    def install(self) -> None:
        facts = self._facts
        width = self.FIELDS

        def run_shard(spec):
            t0 = time.perf_counter()
            runner = ShardRunner(spec)
            result = runner.run_to_completion()
            base = spec.shard_id * width
            facts[base] = time.perf_counter() - t0
            facts[base + 1] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            facts[base + 2] = runner.rt.sched.instructions_executed
            facts[base + 3] = runner.rt.clock.now
            return result

        _swap(self._saved, supervisor_mod, "run_shard", run_shard)
        if not self.timed:
            return
        rec = self.rec
        _swap(self._saved, process.BaseProcess, "start", rec.wrap(
            "fleet", "fleet.spawn", process.BaseProcess.start))

        def sized(a, r, dt):
            self.result_bytes += len(reduction.ForkingPickler.dumps(r))

        _swap(self._saved, connection.Connection, "recv", rec.wrap(
            "fleet", "fleet.recv", connection.Connection.recv, sized))
        FleetResult = aggregate_mod.FleetResult
        for name in ("__init__", "to_dict"):
            _swap(self._saved, FleetResult, name, rec.wrap(
                "fleet", "fleet.aggregate", getattr(FleetResult, name)))

    def uninstall(self) -> None:
        _restore(self._saved)

    def begin_unit(self) -> None:
        self.rec.reset()
        self.result_bytes = 0
        self._runs: List[Dict[str, float]] = []

    def begin_run(self) -> None:
        for i in range(len(self._facts)):
            self._facts[i] = 0.0

    def end_run(self) -> None:
        f, w = self._facts, self.FIELDS
        self._runs += [{"wall_s": f[i * w], "maxrss_kb": f[i * w + 1],
                        "instructions": int(f[i * w + 2]),
                        "clock_ns": int(f[i * w + 3])}
                       for i in range(self.shards)]

    def worker_facts(self) -> List[Dict[str, float]]:
        """One entry per shard per fleet run of the unit, in run order."""
        return list(self._runs)

    def unit_numbers(self) -> Dict[str, float]:
        rec = self.rec
        walls = [w["wall_s"] for w in self.worker_facts()]
        return {
            "fleet.spawn_s": rec.incl_ns.get("fleet.spawn", 0) * 1e-9,
            "fleet.recv_wait_s": rec.incl_ns.get("fleet.recv", 0) * 1e-9,
            "fleet.result_bytes": self.result_bytes,
            "fleet.aggregate_s": rec.incl_ns.get("fleet.aggregate", 0)
            * 1e-9,
            "fleet.shard_wall_s_max": max(walls),
            "fleet.shard_wall_s_min": min(walls),
        }

