"""Unit tests for the deferred pipeline's drain side.

Covers knob validation, deterministic (manual) drains, seqno-merge order
across producer threads, overflow backpressure, sync-point verdict
delivery, the background drainer's lifecycle, parked-error delivery and
reset/teardown hygiene.
"""

import threading
import time

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.errors import TemporalAssertionError
from repro.runtime.drain import DRAINER_THREAD_NAME, DrainController
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def drain_assertion(index=0):
    return tesla_global(
        call(f"drain_sys{index}"),
        returnfrom(f"drain_sys{index}"),
        previously(fn(f"drain_check{index}", ANY("c"), var("v")) == 0),
        name=f"drain_cls{index}",
    )


def make_runtime(deferred="manual", **kwargs):
    kwargs.setdefault("policy", LogAndContinue())
    runtime = TeslaRuntime(deferred=deferred, **kwargs)
    runtime.install_assertion(drain_assertion())
    return runtime


def body_event(value="v1", index=0):
    return return_event(f"drain_check{index}", ("c", value), 0)


class TestKnobValidation:
    def test_bad_deferred_value_rejected(self):
        with pytest.raises(ValueError, match="deferred"):
            TeslaRuntime(deferred="yes please")

    def test_bad_overflow_policy_rejected(self):
        # The knob is gone: a full ring always inline-flushes.
        with pytest.raises(TypeError, match="overflow_policy"):
            TeslaRuntime(deferred=True, overflow_policy="drop")

    def test_block_policy_requires_background_drainer(self):
        with pytest.raises(TypeError, match="overflow_policy"):
            TeslaRuntime(deferred="manual", overflow_policy="block")

    def test_synchronous_runtime_has_no_controller(self):
        assert TeslaRuntime().drain is None


class TestManualMode:
    def test_body_events_defer_until_drain(self):
        runtime = make_runtime()
        runtime.handle_event(call_event("drain_sys0", ()))  # sync: flushes
        runtime.handle_event(body_event())
        runtime.handle_event(body_event("v2"))
        assert runtime.drain.queue_depth() == 2
        # Nothing evaluated yet: the class runtime saw only the init.
        assert runtime.drain.drain() == 2
        assert runtime.drain.queue_depth() == 0

    def test_flush_leaves_depth_zero_and_counts(self):
        runtime = make_runtime()
        runtime.handle_event(call_event("drain_sys0", ()))
        for i in range(5):
            runtime.handle_event(body_event(f"v{i}"))
        runtime.flush_deferred()
        assert runtime.drain.queue_depth() == 0
        stats = runtime.drain.stats()
        assert stats["events_enqueued"] == stats["events_drained"] == 6
        assert stats["events_lost_to_faults"] == 0
        assert stats["flushes"] >= 1

    def test_sync_points_flush_inline(self):
        # init / cleanup / assertion-site keys must not defer: each one
        # flushes, so the verdict exists the moment handle_event returns.
        runtime = make_runtime()
        runtime.handle_event(call_event("drain_sys0", ()))
        runtime.handle_event(body_event())
        runtime.handle_event(
            assertion_site_event("drain_cls0", {"v": "v1"})
        )
        assert runtime.drain.queue_depth() == 0
        cr = runtime.class_runtime("drain_cls0")
        assert cr.sites_reached == 1
        runtime.handle_event(return_event("drain_sys0", (), 0))
        assert cr.accepts == 1

    def test_failstop_violation_raises_at_site(self):
        runtime = TeslaRuntime(deferred="manual")  # default FailStop
        runtime.install_assertion(drain_assertion())
        runtime.handle_event(call_event("drain_sys0", ()))
        with pytest.raises(TemporalAssertionError):
            # No check ran, so the site accepts nothing — the violation
            # must surface here, not at some later drain.
            runtime.handle_event(
                assertion_site_event("drain_cls0", {"v": "v1"})
            )

    def test_deferred_verdicts_match_synchronous(self):
        sync_runtime = TeslaRuntime(policy=LogAndContinue())
        sync_runtime.install_assertion(drain_assertion())
        deferred_runtime = make_runtime()
        trace = [
            call_event("drain_sys0", ()),
            body_event("v1"),
            assertion_site_event("drain_cls0", {"v": "v1"}),
            assertion_site_event("drain_cls0", {"v": "v2"}),
            return_event("drain_sys0", (), 0),
        ]
        for event in trace:
            sync_runtime.handle_event(event)
        for event in trace:
            deferred_runtime.handle_event(event)
        deferred_runtime.flush_deferred()
        expected = sync_runtime.class_runtime("drain_cls0")
        got = deferred_runtime.class_runtime("drain_cls0")
        assert (got.accepts, got.errors, got.sites_reached) == (
            expected.accepts, expected.errors, expected.sites_reached
        ) == (1, 1, 1)
        assert [v.reason for v in deferred_runtime.hub.policy.violations] \
            == [v.reason for v in sync_runtime.hub.policy.violations]

    def test_explicit_dispatch_batch_flushes_pending_first(self):
        runtime = make_runtime()
        runtime.handle_event(call_event("drain_sys0", ()))
        runtime.handle_event(body_event())
        runtime.dispatch_batch(
            [assertion_site_event("drain_cls0", {"v": "v1"})]
        )
        # The enqueued body event was evaluated before the explicit batch,
        # so the site saw the check: it was reached with no violation.
        assert runtime.class_runtime("drain_cls0").sites_reached == 1
        assert runtime.hub.policy.violations == []
        assert runtime.drain.queue_depth() == 0


class TestSeqnoMerge:
    def test_multi_thread_capture_merges_in_stamp_order(self):
        runtime = make_runtime()
        log = runtime.drain.record_sequence()
        runtime.handle_event(call_event("drain_sys0", ()))
        log.clear()
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for i in range(200):
                runtime.handle_event(body_event(f"v{i}"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runtime.flush_deferred()
        seqnos = [seqno for seqno, _ in log]
        assert seqnos == sorted(seqnos)
        assert len(seqnos) == len(set(seqnos)) == 800

    def test_per_thread_ring_registry(self):
        runtime = make_runtime()
        names = set()

        def worker():
            runtime.handle_event(body_event())
            names.add(runtime.drain.ring_for_current_thread().thread_name)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(names) == 3
        stats = runtime.drain.stats()
        assert len(stats["rings"]) >= 3
        runtime.flush_deferred()


class TestOverflow:
    def test_ring_full_inline_flushes_and_never_drops(self):
        runtime = make_runtime(ring_capacity=8)
        runtime.handle_event(call_event("drain_sys0", ()))
        for i in range(100):
            runtime.handle_event(body_event(f"v{i % 3}"))
        runtime.flush_deferred()
        stats = runtime.drain.stats()
        assert stats["inline_flushes"] > 0
        assert stats["events_enqueued"] == stats["events_drained"] == 101
        assert stats["events_lost_to_faults"] == 0

    def test_overflow_races_background_drainer(self):
        # The producer's inline flushes and the drainer thread's passes
        # serialise on the drain lock; neither may lose or repeat a slot.
        runtime = make_runtime(
            deferred=True, ring_capacity=8, drain_interval=0.0005
        )
        runtime.handle_event(call_event("drain_sys0", ()))
        for i in range(300):
            runtime.handle_event(body_event(f"v{i % 3}"))
        runtime.flush_deferred()
        stats = runtime.drain.stats()
        assert stats["inline_flushes"] > 0
        assert stats["events_enqueued"] == stats["events_drained"] == 301
        assert stats["events_lost_to_faults"] == 0
        runtime.drain.stop()


class TestBackgroundDrainer:
    def test_drainer_starts_lazily_and_is_named(self):
        runtime = make_runtime(deferred=True)
        assert not runtime.drain.drainer_alive
        runtime.handle_event(body_event())
        assert runtime.drain.drainer_alive
        names = [t.name for t in threading.enumerate()]
        assert DRAINER_THREAD_NAME in names
        runtime.drain.stop()
        assert not runtime.drain.drainer_alive

    def test_drainer_evaluates_without_explicit_flush(self):
        runtime = make_runtime(deferred=True, drain_interval=0.001)
        runtime.handle_event(call_event("drain_sys0", ()))
        runtime.handle_event(body_event())
        deadline = time.monotonic() + 5.0
        while runtime.drain.queue_depth() and time.monotonic() < deadline:
            time.sleep(0.002)
        assert runtime.drain.queue_depth() == 0
        runtime.drain.stop()

    def test_parked_error_delivered_at_next_flush(self):
        # The drainer parks anything that must surface on an application
        # thread (fail-stop violations, uncontained monitor faults); the
        # next synchronization flush re-raises it.
        runtime = make_runtime(deferred=True)
        runtime.drain._pending_errors.append(RuntimeError("parked"))
        with pytest.raises(RuntimeError, match="parked"):
            runtime.flush_deferred()
        runtime.drain.stop()

    def test_stop_is_idempotent_and_restartable(self):
        runtime = make_runtime(deferred=True)
        runtime.handle_event(body_event())
        runtime.drain.stop()
        runtime.drain.stop()
        # Re-enqueue restarts the drainer.
        runtime.handle_event(body_event())
        assert runtime.drain.drainer_alive
        runtime.drain.stop()
        runtime.flush_deferred()


class TestResetAndDiscard:
    def test_reset_stops_drainer_and_discards(self):
        runtime = make_runtime(deferred=True)
        runtime.handle_event(body_event())
        runtime.reset()
        assert not runtime.drain.drainer_alive
        assert runtime.drain.queue_depth() == 0
        assert runtime.drain.stats()["events_enqueued"] == 0

    def test_discard_counts_and_clears_parked_errors(self):
        runtime = make_runtime()
        runtime.handle_event(body_event())
        runtime.handle_event(body_event())
        runtime.drain._pending_errors.append(RuntimeError("stale"))
        assert runtime.discard_deferred() == 2
        assert runtime.drain.queue_depth() == 0
        assert runtime.drain._pending_errors == []
        assert runtime.drain.stats()["events_discarded"] == 2

    def test_rings_survive_reset_for_stale_thread_references(self):
        runtime = make_runtime()
        ring = runtime.drain.ring_for_current_thread()
        runtime.handle_event(body_event())
        runtime.reset()
        # The same ring object is still this thread's buffer, now empty.
        assert runtime.drain.ring_for_current_thread() is ring
        assert len(ring) == 0

    def test_local_keys_and_sync_keys_rebuilt_on_install(self):
        runtime = TeslaRuntime(deferred="manual", policy=LogAndContinue())
        assert runtime._sync_keys == frozenset()
        runtime.install_assertion(drain_assertion())
        assert runtime._sync_keys
        before = runtime._sync_keys
        runtime.install_assertion(drain_assertion(1))
        assert before < runtime._sync_keys
