"""Property-based tests of the deferred pipeline's ordering guarantees.

The replay-oracle layer (``tests/differential``) proves deferred
*verdicts* match synchronous ones; this suite proves the mechanism those
verdicts rest on, directly against randomized multi-thread append
schedules:

* **per-thread FIFO through merge** — the seqno-sorted drain output,
  restricted to any one producer thread, is exactly that thread's append
  order;
* **merge is a permutation** — no event is lost or duplicated, across
  ring wraparound and ring-full inline flushes, including inline flushes
  racing the background drainer;
* **flush quiescence** — a synchronization flush leaves every ring at
  depth 0, with the accounting balancing exactly.
"""

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.events import call_event
from repro.runtime.drain import DrainController
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.ringbuf import EventRing, SeqnoSource


class RecordingRuntime:
    """A dispatch sink standing in for TeslaRuntime: records the merged
    stream the controller feeds it (the property tests care about
    ordering, not automata)."""

    def __init__(self):
        self.dispatched = []
        self.supervisor = None

    def dispatch_batch(self, events, include_local=True):
        self.dispatched.extend(events)
        return len(events)


def tagged_event(thread_id, i):
    event = call_event(f"prop_ev_t{thread_id}", ())
    return event, (thread_id, i)


# -- single-threaded ring properties ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    # Append/drain schedule: each entry is how many appends to attempt
    # before the next partial drain.
    bursts=st.lists(st.integers(min_value=0, max_value=24), max_size=12),
)
def test_wraparound_drain_is_fifo_permutation(capacity, bursts):
    ring = EventRing(capacity)
    source = SeqnoSource()
    out = []
    appended = []
    for burst in bursts:
        for _ in range(burst):
            if ring.full:
                ring.drain_into(out)  # inline flush in miniature
            seqno = source.next()
            ring.append(seqno, seqno)
            appended.append(seqno)
        ring.drain_into(out)
    ring.drain_into(out)
    drained = [seqno for seqno, _ in out]
    assert drained == appended          # FIFO, nothing lost or duplicated
    assert len(ring) == 0
    assert ring.appended == len(appended)


# -- multi-thread merge properties --------------------------------------------


@st.composite
def thread_workloads(draw):
    n_threads = draw(st.integers(min_value=1, max_value=4))
    return [
        draw(st.integers(min_value=0, max_value=200))
        for _ in range(n_threads)
    ]


def run_capture(workloads, capacity, background=False):
    """Drive a DrainController with real threads; returns (controller,
    sink, per-thread tag lists)."""
    sink = RecordingRuntime()
    controller = DrainController(
        sink,
        ring_capacity=capacity,
        background=background,
        drain_interval=0.0005,
    )
    controller.record_sequence()
    per_thread = {}
    barrier = threading.Barrier(len(workloads))

    def worker(thread_id, count):
        barrier.wait()
        tags = []
        for i in range(count):
            event, tag = tagged_event(thread_id, i)
            controller.enqueue((tag, event))
            tags.append(tag)
        per_thread[thread_id] = tags

    threads = [
        threading.Thread(target=worker, args=(tid, count))
        for tid, count in enumerate(workloads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    controller.flush()
    controller.stop()
    return controller, sink, per_thread


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workloads=thread_workloads(), capacity=st.integers(4, 64))
def test_merge_is_permutation_preserving_thread_fifo(workloads, capacity):
    controller, sink, per_thread = run_capture(workloads, capacity)
    total = sum(workloads)
    dispatched_tags = [tag for tag, _ in sink.dispatched]
    # Permutation: every captured event dispatched exactly once.
    assert len(dispatched_tags) == total
    assert len(set(dispatched_tags)) == total
    assert set(dispatched_tags) == {
        tag for tags in per_thread.values() for tag in tags
    }
    # Per-thread FIFO: each thread's subsequence survives the merge.
    for thread_id, tags in per_thread.items():
        got = [tag for tag in dispatched_tags if tag[0] == thread_id]
        assert got == tags
    # The merged log is seqno-sorted and stamps are unique.
    seqnos = [seqno for seqno, _ in controller.dispatch_log]
    assert seqnos == sorted(seqnos)
    assert len(set(seqnos)) == len(seqnos)
    # Accounting balances: nothing lost to the overflow path.
    stats = controller.stats()
    assert stats["events_enqueued"] == stats["events_drained"] == total
    assert stats["events_lost_to_faults"] == 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workloads=thread_workloads())
def test_background_overflow_is_also_a_permutation(workloads):
    # Small rings overflow while the drainer thread runs: each producer's
    # inline flush races the drainer's pass on the drain lock.
    controller, sink, per_thread = run_capture(workloads, 8, background=True)
    total = sum(workloads)
    dispatched_tags = [tag for tag, _ in sink.dispatched]
    assert len(dispatched_tags) == total
    assert len(set(dispatched_tags)) == total
    for thread_id, tags in per_thread.items():
        assert [tag for tag in dispatched_tags if tag[0] == thread_id] == tags


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workloads=thread_workloads(), capacity=st.integers(4, 64))
def test_flush_leaves_every_ring_at_depth_zero(workloads, capacity):
    controller, _, _ = run_capture(workloads, capacity)
    assert controller.queue_depth() == 0
    for row in controller.stats()["rings"]:
        assert row["depth"] == 0


# -- the same properties through a real runtime's sync flush -------------------


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(counts=st.lists(st.integers(1, 60), min_size=1, max_size=4))
def test_runtime_flush_quiesces_after_concurrent_capture(counts):
    runtime = TeslaRuntime(deferred="manual", policy=LogAndContinue())
    barrier = threading.Barrier(len(counts))

    def worker(count):
        barrier.wait()
        for i in range(count):
            runtime.handle_event(call_event("prop_unobserved", (i,)))

    threads = [threading.Thread(target=worker, args=(c,)) for c in counts]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert runtime.drain.queue_depth() == sum(counts)
    runtime.flush_deferred()
    assert runtime.drain.queue_depth() == 0
    stats = runtime.drain.stats()
    assert stats["events_enqueued"] == stats["events_drained"] == sum(counts)
