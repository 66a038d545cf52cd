"""In-memory span recorder and the small pure helpers the benchmark shares.

A span is one call into a layer entry point.  The recorder keeps, per
layer, the *self* time (span duration minus the part covered by child
spans) and, per entry-point group, the *inclusive* time of outermost
spans only, so a re-entrant call (``park`` inside ``park_on_timer``'s
``park``, a collector cycle driving ``gc_step``) is never counted twice.
Nothing is written while the program runs; callers read the totals
when a unit ends.

Also here, because the tests exercise them directly: the per-segment
timing estimator, the tail-percentile rule, the metric-name check and
the digest diff.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Accumulates self time per layer and inclusive time per group.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: One ``[child_ns]`` cell per open span, innermost last.
        self._stack: List[List[int]] = []
        #: Open spans per group, to count only the outermost.
        self._depth: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Named counters that wrappers bump (work units, refs, ...).
        self.counts: Dict[str, int] = {}

    def reset(self) -> None:
        """Zero every total; wrappers already handed out keep working."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        for table in (self.self_ns, self.incl_ns, self.calls):
            for key in table:
                table[key] = 0
        self.counts.clear()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, group: str, fn: Callable,
             post: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer`` counted in ``group``.

        ``post(args, result, dt_ns)`` runs after the span closes,
        outside the timed interval, to bump counters from the call's
        arguments, result and duration.
        """
        stack = self._stack
        depth = self._depth
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        calls = self.calls
        clock = self.clock
        self_ns.setdefault(layer, 0)
        incl_ns.setdefault(group, 0)
        calls.setdefault(group, 0)
        depth.setdefault(group, 0)

        def span(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[group] -= 1
                self_ns[layer] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt
                if not depth[group]:
                    incl_ns[group] += dt
                calls[group] += 1
            if post is not None:
                post(args, result, dt)
            return result

        span.__wrapped__ = fn
        return span

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())


# -- segment timing ----------------------------------------------------------

#: Additions in the reference loop, and its host seconds on the
#: reference host at full speed (2-vCPU shared VM, CPython 3).
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 0.0003


def reference_s() -> float:
    """Host seconds for a fixed pure-Python loop that runs no simulator
    code: how fast the host runs Python right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float,
                       ref_after: float) -> float:
    """``seconds`` rescaled to the host speed at which the reference
    loop takes :data:`REFERENCE_S`, given the loop's times just before
    and just after."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


#: Percentile of a segment's repeats that :func:`fast` keeps.
FAST_PERCENTILE = 10.0


def fast(values: Iterable[float]) -> float:
    """The 10th percentile by nearest rank: the fastest of up to ten
    repeats, and past that a near-fastest one that a single outlier
    cannot set."""
    return percentile(sorted(values), FAST_PERCENTILE)


def best_segments(units: Sequence[Sequence[Tuple[float, float, float]]]
                  ) -> List[float]:
    """Per segment, its :func:`fast` time at reference speed over units.

    ``units`` holds, per unit, one ``(host s, reference s before,
    reference s after)`` per segment; every unit has the same segments
    of identical simulated work.  A shared host runs a process slower
    in bursts of tens of milliseconds, and in spells that last minutes.
    Rescaling each short segment by the reference loop around it takes
    out most of each spell; keeping a fast repeat takes out the bursts.
    """
    if not units:
        raise ValueError("no units")
    n = len(units[0])
    if n < 1 or any(len(u) != n for u in units):
        raise ValueError("units differ in segment count")
    return [fast(at_reference_speed(*seg) for seg in column)
            for column in zip(*units)]


# -- percentiles -------------------------------------------------------------

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(values: Iterable[float],
                    min_beyond: int = 10) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with ``min_beyond`` samples past it.

    Returns ``(p, value)`` by nearest rank, or None when even the median
    has fewer than ``min_beyond`` samples beyond it.
    """
    data = sorted(values)
    n = len(data)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= min_beyond:
            return p, data[rank - 1]
    return None


# -- metric names ------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_metric_name(name: str) -> str:
    """Raise ValueError unless ``name`` is a valid metric name."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


# -- digests -----------------------------------------------------------------

def digest(doc) -> str:
    """Short stable digest of a JSON-serialisable document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_diff(expected: Dict[str, str],
                observed: Dict[str, str]) -> List[str]:
    """Keys whose digests disagree, including keys only one side has."""
    keys = sorted(set(expected) | set(observed))
    return [k for k in keys if expected.get(k) != observed.get(k)]
