"""The conservative scanner's leaf-type filter is invisible to marking.

:func:`repro.runtime.objects.scan_values` skips pointer-free values
(exact ``int``/``float``/``complex``/``str``/``bytes``/``bool``/``None``)
and plain containers of them without recursing.  Marking charges one
work unit per yielded edge and incremental marking order follows yield
order, so the filter must leave the yielded sequence — order and
multiplicity included — exactly as the pre-filter recursive scanner
produced it.  That scanner is kept below as the reference, and every
``referents()`` implementation built on the shared helper is compared
against it on generated nested values.
"""

import enum
import sys
from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro.gc.heap import GlobalRoot
from repro.runtime.channel import Channel
from repro.runtime.goroutine import Goroutine, Sudog
from repro.runtime.objects import (
    Blob,
    Box,
    GoMap,
    HeapObject,
    Slice,
    Struct,
    iter_heap_refs,
    scan_values,
)
from repro.runtime.sync import Pool

_MAX_SCAN_DEPTH = 16


def reference_refs(value, _depth=0):
    """The recursive scanner as it was before the leaf-type filter."""
    if isinstance(value, HeapObject):
        yield value
        return
    if _depth >= _MAX_SCAN_DEPTH:
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from reference_refs(item, _depth + 1)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from reference_refs(key, _depth + 1)
            yield from reference_refs(item, _depth + 1)


def reference_all(values):
    return [ref for value in values for ref in reference_refs(value)]


# -- generated values -----------------------------------------------------


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    pass


class TaggedList(list):
    pass


Pair = namedtuple("Pair", "left right")

#: Shared across examples so the same objects recur (multiplicity).
POOL = [Box(0), Box(1), Blob(8), Struct(x=1), GoMap(), Channel(1)]

leaves = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color)),
    st.text(max_size=3).map(Tag),
)
heap_objects = st.sampled_from(POOL)
hashables = st.one_of(leaves, heap_objects)
hashable_containers = st.one_of(
    st.frozensets(hashables, max_size=4),
    st.tuples(hashables, hashables),
    st.builds(Pair, hashables, hashables),
)


def _wrap_deep(args):
    """Nest a value ``depth`` lists deep, straddling the depth-16 cutoff."""
    value, depth = args
    for _ in range(depth):
        value = [value]
    return value


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(TaggedList),
        st.builds(Pair, children, children),
        st.sets(st.one_of(hashables, hashable_containers), max_size=5),
        st.frozensets(st.one_of(hashables, hashable_containers), max_size=5),
        st.dictionaries(st.one_of(hashables, hashable_containers), children,
                        max_size=4),
        st.tuples(children, st.integers(12, 18)).map(_wrap_deep),
        # Pointer-free containers, the case the filter short-circuits.
        st.lists(leaves, max_size=6),
        st.dictionaries(st.integers(), st.integers(), max_size=4),
    )


values = st.recursive(st.one_of(leaves, heap_objects), _extend,
                      max_leaves=30)
value_lists = st.lists(values, max_size=4)


# -- scanner --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(values)
def test_iter_heap_refs_matches_reference(value):
    assert list(iter_heap_refs(value)) == list(reference_refs(value))


@settings(max_examples=200, deadline=None)
@given(value_lists)
def test_scan_values_matches_reference(vals):
    assert list(scan_values(vals)) == reference_all(vals)


def test_depth_cutoff_is_unchanged():
    for depth in range(12, 20):
        value = _wrap_deep((POOL[0], depth))
        assert list(iter_heap_refs(value)) == list(reference_refs(value))
        container = _wrap_deep(([POOL[0], 1], depth))
        assert list(iter_heap_refs(container)) == list(reference_refs(container))
    # A heap object nested 16 containers deep is still found; 17 is not.
    assert list(iter_heap_refs(_wrap_deep((POOL[0], 16)))) == [POOL[0]]
    assert list(iter_heap_refs(_wrap_deep((POOL[0], 17)))) == []


def test_leaf_subclasses_take_the_general_path():
    class Items(list):
        def __iter__(self):
            self.iterations += 1
            return super().__iter__()

    # A list subclass may override iteration, so it is walked exactly
    # once, element by element, never pre-checked as a whole.
    for contents, refs in (([1, 2.5, "s"], []), ([1, POOL[0]], [POOL[0]])):
        items = Items(contents)
        items.iterations = 0
        assert list(iter_heap_refs(items)) == refs
        assert items.iterations == 1
    assert list(iter_heap_refs([Color.RED, Tag("x"), True])) == []


# -- every referents() built on the shared helper --------------------------


@settings(max_examples=100, deadline=None)
@given(values)
def test_box_referents(value):
    assert list(Box(value).referents()) == list(reference_refs(value))


@settings(max_examples=100, deadline=None)
@given(value_lists)
def test_struct_and_slice_referents(vals):
    fields = {f"f{i}": v for i, v in enumerate(vals)}
    assert list(Struct(**fields).referents()) == reference_all(fields.values())
    assert list(Slice(vals).referents()) == reference_all(vals)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.one_of(hashables, hashable_containers), values,
                       max_size=5))
def test_gomap_referents_key_then_value(entries):
    expected = [ref for key, value in entries.items()
                for ref in (*reference_refs(key), *reference_refs(value))]
    assert list(GoMap(entries).referents()) == expected


@settings(max_examples=100, deadline=None)
@given(value_lists, st.sets(st.integers(0, 3)))
def test_global_root_referents(vals, hidden):
    root = GlobalRoot()
    for i, value in enumerate(vals):
        root.set(f"g{i}", value)
    assert list(root.referents()) == reference_all(root.names.values())
    excluded = {f"g{i}" for i in hidden}
    assert list(root.referents_excluding(excluded)) == reference_all(
        v for name, v in root.names.items() if name not in excluded)


@settings(max_examples=100, deadline=None)
@given(value_lists, value_lists, st.lists(st.booleans(), max_size=4))
def test_channel_referents(buffered, parked, active):
    ch = Channel(len(buffered))
    ch.buffer.extend(buffered)
    owner = Goroutine(1)
    for value, is_active in zip(parked, active + [True] * len(parked)):
        sd = Sudog(owner, ch, value, is_send=True)
        sd.active = is_active
        ch.sendq.append(sd)
    expected = reference_all(buffered) + reference_all(
        sd.value for sd in ch.sendq if sd.active)
    assert list(ch.referents()) == expected


@settings(max_examples=100, deadline=None)
@given(value_lists, value_lists)
def test_pool_referents(items, victims):
    pool = Pool()
    for item in victims:
        pool.put(item)
    pool.on_gc()
    for item in items:
        pool.put(item)
    assert list(pool.referents()) == reference_all(items) + reference_all(victims)


def _reference_stack_refs(g):
    refs = []
    gen = g.gen
    while gen is not None and getattr(gen, "gi_frame", None) is not None:
        refs.extend(reference_all(gen.gi_frame.f_locals.values()))
        gen = getattr(gen, "gi_yieldfrom", None)
    refs.extend(reference_refs(g.pending_value))
    for sd in g.sudogs:
        if sd.active and sd.channel is not None:
            refs.append(sd.channel)
            refs.extend(reference_refs(sd.value))
    if g.blocking_sema is not None:
        refs.append(g.blocking_sema)
    return refs


def _inner(a, b, c):
    yield
    return a, b, c


def _outer(a, b, c):
    local = [a, c]
    yield from _inner(c, b, local)


@settings(max_examples=100, deadline=None)
@given(st.lists(values, min_size=3, max_size=3), values, value_lists)
def test_goroutine_stack_heap_refs(frame_values, pending, sudog_values):
    g = Goroutine(1)
    gen = _outer(*frame_values)
    next(gen)
    g.gen = gen
    g.pending_value = pending
    for i, value in enumerate(sudog_values):
        sd = Sudog(g, POOL[5], value, is_send=True)
        sd.active = i % 3 != 2
        g.sudogs.append(sd)
    g.blocking_sema = POOL[1]
    assert list(g.stack_heap_refs()) == _reference_stack_refs(g)
    assert list(g.referents()) == _reference_stack_refs(g)


# -- cost guard -------------------------------------------------------------


def _count_python_calls(fn):
    """Python-level call events (generator resumptions included) in ``fn``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def _closure_goroutine(latencies):
    """A goroutine whose frame closes over a pointer-free list, like the
    controlled service's request handlers closing over ``latencies``."""
    conn = POOL[5]

    def handler():
        yield
        latencies.append(conn)

    g = Goroutine(1)
    g.gen = handler()
    next(g.gen)
    return g


def test_scan_cost_does_not_grow_with_pointer_free_data():
    small = _closure_goroutine([float(i) for i in range(10)])
    large = _closure_goroutine([float(i) for i in range(10_000)])
    small_calls, small_refs = _count_python_calls(
        lambda: list(small.stack_heap_refs()))
    large_calls, large_refs = _count_python_calls(
        lambda: list(large.stack_heap_refs()))
    assert small_refs == large_refs == [POOL[5]]
    assert small_calls == large_calls
