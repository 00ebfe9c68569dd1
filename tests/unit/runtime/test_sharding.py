"""Unit tests for batched dispatch over the single-lock global store.

``dispatch_batch`` promises exactly what per-event dispatch would do: the
same verdicts, the same violation stream in the same order (across
classes and across the global / thread-local split), under fail-stop
the same first violation after the same number of events, and a
contained monitor fault that costs only the event that raised it — while
taking the global lock once per batch.
"""

import threading

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_within,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.patterns import Pattern
from repro.errors import TemporalAssertionError
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.supervisor import FailOpen


class CountingLock:
    """A re-entrant lock that counts acquisitions (test instrumentation)."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        got = self._lock.acquire(*args, **kwargs)
        if got:
            self.acquisitions += 1
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


def global_assertion(index):
    """One global-context class with its own bound and check function."""
    return tesla_global(
        call(f"shard_sys{index}"),
        returnfrom(f"shard_sys{index}"),
        previously(fn(f"shard_check{index}", ANY("c"), var("v")) == 0),
        name=f"shard_cls{index}",
    )


class TestShardAssignment:
    """Class-to-shard routing is gone: every global class lives in the
    runtime's one store, and a shard count is refused."""

    def test_every_global_class_shares_one_store(self):
        runtime = TeslaRuntime(policy=LogAndContinue())
        runtime.install_assertions([global_assertion(i) for i in range(6)])
        store = runtime.global_store.store
        assert runtime.global_store.all_stores() == [store]
        for i in range(6):
            assert runtime.class_runtime(f"shard_cls{i}") is store.get(
                f"shard_cls{i}"
            )

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(TypeError, match="shards"):
            TeslaRuntime(shards=0)
        with pytest.raises(TypeError, match="shards"):
            TeslaRuntime(shards=-1)


class TestBatchDispatch:
    def make_runtime(self, n_classes=4):
        runtime = TeslaRuntime(policy=LogAndContinue())
        for i in range(n_classes):
            runtime.install_assertion(global_assertion(i))
        return runtime

    def batch_for(self, index, value):
        return [
            call_event(f"shard_sys{index}", ()),
            return_event(f"shard_check{index}", ("c", value), 0),
            assertion_site_event(f"shard_cls{index}", {"v": value}),
            return_event(f"shard_sys{index}", (), 0),
        ]

    def test_batch_matches_per_event_dispatch(self):
        batched = self.make_runtime()
        sequential = self.make_runtime()
        events = []
        for i in range(4):
            events.extend(self.batch_for(i, f"v{i}"))
        assert batched.dispatch_batch(events) == len(events)
        for event in events:
            sequential.handle_event(event)
        for i in range(4):
            got = batched.class_runtime(f"shard_cls{i}")
            want = sequential.class_runtime(f"shard_cls{i}")
            assert (got.accepts, got.errors) == (want.accepts, want.errors)
        assert batched.events_processed == sequential.events_processed

    def test_interleaved_batch_preserves_per_class_order(self):
        # check-before-site is what makes each class accept; zip the four
        # classes' streams together so any per-class reordering would
        # surface as a spurious violation.
        runtime = self.make_runtime()
        streams = [self.batch_for(i, "v") for i in range(4)]
        interleaved = [
            event for step in zip(*streams) for event in step
        ]
        runtime.dispatch_batch(interleaved)
        for i in range(4):
            cr = runtime.class_runtime(f"shard_cls{i}")
            assert (cr.accepts, cr.errors) == (1, 0)

    def test_out_of_order_batch_still_errors(self):
        # Sanity check of the previous test's premise: site before check
        # *must* be a violation, in batch mode too.
        runtime = self.make_runtime(n_classes=1)
        runtime.dispatch_batch(
            [
                call_event("shard_sys0", ()),
                assertion_site_event("shard_cls0", {"v": "v"}),
                return_event("shard_check0", ("c", "v"), 0),
                return_event("shard_sys0", (), 0),
            ]
        )
        cr = runtime.class_runtime("shard_cls0")
        assert cr.errors == 1

    def test_batch_takes_global_lock_once(self):
        runtime = self.make_runtime()
        lock = CountingLock()
        runtime.global_store.lock = lock
        events = []
        for i in range(4):
            events.extend(self.batch_for(i, "v"))
        runtime.dispatch_batch(events)
        assert lock.acquisitions == 1
        # Per-event dispatch takes it once per event with global work.
        for event in self.batch_for(0, "w"):
            runtime.handle_event(event)
        assert lock.acquisitions == 5

    def test_empty_batch_is_a_noop(self):
        runtime = self.make_runtime()
        assert runtime.dispatch_batch([]) == 0
        assert runtime.events_processed == 0

    @pytest.mark.parametrize("lazy", [True, False])
    def test_batch_equivalence_in_both_modes(self, lazy):
        runtime = TeslaRuntime(lazy=lazy, policy=LogAndContinue())
        runtime.install_assertion(global_assertion(0))
        runtime.dispatch_batch(self.batch_for(0, "v1"))
        runtime.dispatch_batch(self.batch_for(0, "v2"))
        cr = runtime.class_runtime("shard_cls0")
        assert (cr.accepts, cr.errors) == (2, 0)


def thread_assertion(index):
    """One per-thread class with its own bound and check function."""
    return tesla_within(
        f"local_sys{index}",
        previously(fn(f"local_check{index}", ANY("c"), var("v")) == 0),
        name=f"local_cls{index}",
    )


def reversed_global_sites():
    """Four global classes whose unchecked sites fire in order 3, 2, 1, 0."""
    assertions = [global_assertion(i) for i in range(4)]
    events = [call_event(f"shard_sys{i}", ()) for i in range(4)]
    events += [
        assertion_site_event(f"shard_cls{i}", {"v": "unchecked"})
        for i in (3, 2, 1, 0)
    ]
    events += [return_event(f"shard_sys{i}", (), 0) for i in range(4)]
    return assertions, events


def thread_local_before_global():
    """A per-thread violation at event 2, then a global one at event 5."""
    assertions = [global_assertion(0), thread_assertion(0)]
    events = [
        call_event("shard_sys0", ()),
        call_event("local_sys0", ()),
        assertion_site_event("local_cls0", {"v": "unchecked"}),
        return_event("shard_check0", ("c", "ok"), 0),
        assertion_site_event("shard_cls0", {"v": "ok"}),
        assertion_site_event("shard_cls0", {"v": "unchecked"}),
        return_event("local_sys0", (), 0),
        return_event("shard_sys0", (), 0),
    ]
    return assertions, events


TRACES = {
    "global-reverse": (
        reversed_global_sites,
        [("shard_cls3", 4), ("shard_cls2", 5), ("shard_cls1", 6),
         ("shard_cls0", 7)],
    ),
    "local-then-global": (
        thread_local_before_global,
        [("local_cls0", 2), ("shard_cls0", 5)],
    ),
}


def run_trace(build, batched, policy=None):
    assertions, events = build()
    runtime = TeslaRuntime(policy=policy)
    for assertion in assertions:
        runtime.install_assertion(assertion)
    where = {id(event): i for i, event in enumerate(events)}
    raised = None
    try:
        if batched:
            runtime.dispatch_batch(events)
        else:
            for event in events:
                runtime.handle_event(event)
    except TemporalAssertionError as exc:
        raised = exc.violation
    return runtime, where, raised


class _FaultyPattern(Pattern):
    """Matches any value except ``"bad"``, on which the matcher itself
    raises — a monitor fault, not a violation."""

    def match(self, value, binding):
        if value == "bad":
            raise RuntimeError("matcher fault")
        return {}

    def describe(self):
        return "faulty"


def run_faulty_trace(mode):
    """A contained matcher fault in the middle of three same-key events."""
    runtime = TeslaRuntime(
        policy=LogAndContinue(),
        failure_policy=FailOpen(),
        deferred="manual" if mode == "deferred-manual" else False,
    )
    runtime.install_assertion(
        tesla_global(
            call("fault_bound"),
            returnfrom("fault_bound"),
            previously(fn("fault_chk", _FaultyPattern(), var("v")) == 0),
            name="fault_cls",
        )
    )
    events = [
        call_event("fault_bound", ()),
        return_event("fault_chk", ("ok", "y"), 0),
        return_event("fault_chk", ("bad", "x"), 0),
        return_event("fault_chk", ("ok", "z"), 0),
        assertion_site_event("fault_cls", {"v": "y"}),
        assertion_site_event("fault_cls", {"v": "z"}),
        return_event("fault_bound", (), 0),
    ]
    if mode == "dispatch_batch":
        runtime.dispatch_batch(events)
    else:
        for event in events:
            runtime.handle_event(event)
        runtime.flush_deferred()
    cr = runtime.class_runtime("fault_cls")
    verdicts = (cr.accepts, cr.errors, cr.sites_reached)
    violations = [v.automaton for v in runtime.hub.policy.violations]
    return verdicts, violations


class TestOrderedBatch:
    """A batch is replayed in event order, not grouped by context."""

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_violation_stream_matches_per_event(self, trace):
        build, expected = TRACES[trace]
        streams = {}
        for batched in (False, True):
            runtime, where, _ = run_trace(build, batched, LogAndContinue())
            streams[batched] = [
                (v.automaton, where[id(v.event)])
                for v in runtime.hub.policy.violations
            ]
        assert streams[False] == expected
        assert streams[True] == streams[False]

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_fail_stop_first_violation_matches_per_event(self, trace):
        build, expected = TRACES[trace]
        outcomes = {}
        for batched in (False, True):
            runtime, where, violation = run_trace(build, batched)
            assert violation is not None
            outcomes[batched] = (
                violation.automaton,
                where[id(violation.event)],
                runtime.events_processed,
            )
        first_class, first_index = expected[0]
        assert outcomes[False] == (first_class, first_index, first_index + 1)
        assert outcomes[True] == outcomes[False]

    @pytest.mark.parametrize("mode", ["dispatch_batch", "deferred-manual"])
    def test_contained_fault_spares_the_rest_of_a_run(self, mode):
        # Per event, the fault costs chk(bad, x) alone: both sites find
        # their check and nothing is reported.  A batch must agree, even
        # though the three chk events are consecutive and same-key.
        expected = ((2, 0, 2), [])
        assert run_faulty_trace("per-event") == expected
        assert run_faulty_trace(mode) == expected
