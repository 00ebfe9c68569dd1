"""Trace journal: record-mode overhead and offline replay throughput.

The journal (DESIGN §5.6) rides the drain pass: each merged batch is
binary-encoded and appended before evaluation.  The durability bargain is
only worth taking if recording is nearly free relative to the deferred
pipeline it rides on, so this bench pins three numbers:

* **record overhead** — µs/event for capture+drain with a journal
  installed vs the identical deferred runtime without one.  Acceptance
  bar: ≤ 1.15× (the encode+append must hide inside the drain's existing
  merge/dispatch work).
* **replay throughput** — events/s for ``read_journal`` +
  ``ReplayEngine.run("naive")`` over the recorded file: the offline
  debugging loop's latency.
* **journal density** — bytes/event on disk for a representative trace.

Those three come from a scalar trace, whose repeated event shapes hit
the encoder's plain-shape blob cache almost every time.  Real kernel
and GUI traces carry live objects instead (vnodes, views, geometry
values), which the cache never holds, so a second **object trace** —
default-repr objects, a frozen dataclass argument, site scopes holding
an object — reports its own plain and journalled µs/event and record
overhead as extra rows, with no bar of its own.

Verdict equality between the recorded run, its replay, and the LTL
oracle is asserted in the same run, so the overhead number is never
bought with a recording that can't actually reproduce the verdicts.
Smoke mode (``TESLA_BENCH_SMOKE=1``, used by CI) shrinks counts and
skips the timing-ratio assertion while keeping every correctness
assertion.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.bench import median_time
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
from repro.replay import ReplayEngine, ltl_verdicts
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit, interleaved_best

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
N_EVENTS = 400 if SMOKE else 20_000
REPEATS = 1 if SMOKE else 31
N_CLASSES = 4
BOUND = "jr_syscall"
OVERHEAD_BAR = 1.15


def _assertions():
    return [
        tesla_global(
            call(BOUND),
            returnfrom(BOUND),
            previously(fn(f"jr_check{i}", ANY("c"), var("v")) == 0),
            name=f"jr_cls{i}",
        )
        for i in range(N_CLASSES)
    ]


def _runtime(journal=None):
    kwargs = dict(
        policy=LogAndContinue(),
        lazy=True,
        compile=True,
        deferred="manual",
    )
    if journal is not None:
        kwargs["journal"] = journal
    runtime = TeslaRuntime(**kwargs)
    runtime.install_assertions(_assertions())
    return runtime


def _trace(count):
    """A full monitored window: bound, body checks, sites (some
    violating), close — so recording covers every record shape."""
    events = [call_event(BOUND, ())]
    for i in range(count):
        events.append(
            return_event(f"jr_check{i % N_CLASSES}", ("c", f"val{i % 3}"), 0)
        )
        if i % 50 == 49:
            events.append(
                assertion_site_event(
                    f"jr_cls{i % N_CLASSES}",
                    {"v": f"val{(i % 3) if i % 100 else 3}"},
                )
            )
    events.append(return_event(BOUND, (), 0))
    return events


class _Vnode:
    """A kernel-object stand-in that keeps ``object.__repr__``."""

    def __init__(self, number):
        self.number = number


@dataclass(frozen=True)
class _Point:
    """A GUI geometry value: a frozen dataclass with a generated repr."""

    x: float
    y: float


def _object_trace(count):
    """The window of :func:`_trace` with object payloads: each body
    event passes a frozen dataclass and a default-repr object, and each
    site's scope holds an object; every other site names one that was
    never passed, so it violates."""
    vnodes = [_Vnode(i) for i in range(6)]
    stray = _Vnode(-1)
    events = [call_event(BOUND, ())]
    for i in range(count):
        events.append(
            return_event(
                f"jr_check{i % N_CLASSES}",
                (_Point(float(i % 7), 0.5), vnodes[i % len(vnodes)]),
                0,
            )
        )
        if i % 50 == 49:
            events.append(
                assertion_site_event(
                    f"jr_cls{i % N_CLASSES}",
                    {"v": stray if i % 100 == 99 else vnodes[i % len(vnodes)]},
                )
            )
    events.append(return_event(BOUND, (), 0))
    return events


def _verdict(runtime):
    rows = []
    for i in range(N_CLASSES):
        accepts = errors = sites = 0
        for cr in runtime.all_class_runtimes(f"jr_cls{i}"):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
        rows.append((accepts, errors, sites))
    return rows


def _run_trace(runtime, trace):
    handle = runtime.handle_event
    for event in trace:
        handle(event)
    runtime.flush_deferred()


def test_journal_record_and_replay(benchmark, results_dir, tmp_path):
    trace = _trace(N_EVENTS)
    object_trace = _object_trace(N_EVENTS)
    journal_path = {}

    def samplers(events, tag):
        def plain_run():
            runtime = _runtime()
            _run_trace(runtime, events)
            return runtime

        def journal_run():
            path = tmp_path / f"bench-{tag}-{len(journal_path)}.tjournal"
            runtime = _runtime(journal=str(path))
            _run_trace(runtime, events)
            runtime.close_journal()
            journal_path[tag] = path
            return runtime

        return {
            "plain": lambda: median_time(plain_run, repeats=1),
            "journal": lambda: median_time(journal_run, repeats=1),
        }

    def measure():
        # -- record-mode overhead vs plain deferred capture ---------------
        # Interleaved GC-controlled min-of-samples (see conftest): the
        # journal side allocates ~40 bytes/event of record frames, so
        # sequential blocks would let collector pauses and clock drift
        # land disproportionately on the side under test.  Each sample
        # times the second of two back-to-back runs (median_time's
        # repeats=1 warms once untimed): the bar pins the steady-state
        # encode+append cost, not per-run setup like file creation.
        best = interleaved_best(samplers(trace, "scalar"), repeats=REPEATS)
        plain_us = best["plain"] * 1e6 / len(trace)
        journal_us = best["journal"] * 1e6 / len(trace)
        path = journal_path["scalar"]
        # The object trace, timed the same way in its own interleaved
        # phase so the scalar rows keep their method exactly.
        best = interleaved_best(
            samplers(object_trace, "object"), repeats=REPEATS
        )
        object_us = (
            best["plain"] * 1e6 / len(object_trace),
            best["journal"] * 1e6 / len(object_trace),
        )

        # -- replay throughput --------------------------------------------
        replay_samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            journal = read_journal(path)
            ReplayEngine(journal).run("naive")
            replay_samples.append(time.perf_counter() - start)
        replay_rate = len(journal.slots) / sorted(replay_samples)[
            len(replay_samples) // 2
        ]
        return plain_us, journal_us, object_us, path, journal, replay_rate

    (
        plain_us, journal_us, object_us, path, journal, replay_rate
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = journal_us / plain_us
    object_plain_us, object_journal_us = object_us
    density = journal.byte_size / max(1, len(journal.slots))

    # -- correctness in the same run: record → replay → oracle agree ------
    reference = _runtime()
    _run_trace(reference, _trace(N_EVENTS))
    expected = _verdict(reference)
    engine = ReplayEngine(journal)
    result = engine.run("naive")
    replayed = [
        (v.accepts, v.errors, v.sites_reached)
        for v in (result.classes[f"jr_cls{i}"] for i in range(N_CLASSES))
    ]
    assert replayed == expected, (replayed, expected)
    oracle = ltl_verdicts(engine.assertions, engine.slots)
    assert [
        (o.accepts, o.errors, o.satisfied_sites)
        for o in (oracle[f"jr_cls{i}"] for i in range(N_CLASSES))
    ] == expected

    # The object trace journals its payloads as opaque snapshots; replay
    # must still reproduce the live verdicts, violations included (an
    # object's snapshot matches only itself, as the object did live).
    reference = _runtime()
    _run_trace(reference, object_trace)
    object_expected = _verdict(reference)
    assert any(errors for _, errors, _ in object_expected)
    object_journal = read_journal(journal_path["object"])
    assert object_journal.clean_close
    assert len(object_journal.slots) == len(object_trace)
    result = ReplayEngine(object_journal).run("naive")
    assert [
        (v.accepts, v.errors, v.sites_reached)
        for v in (result.classes[f"jr_cls{i}"] for i in range(N_CLASSES))
    ] == object_expected

    lines = [
        "Trace journal: record overhead and offline replay",
        "-------------------------------------------------",
        f"{'plain deferred capture':<28}{plain_us:>10.3f} us/event",
        f"{'journalled capture':<28}{journal_us:>10.3f} us/event",
        f"{'record overhead':<28}{overhead:>10.3f} x",
        f"{'replay throughput':<28}{replay_rate:>10.0f} events/s",
        f"{'journal density':<28}{density:>10.1f} bytes/event",
        f"{'journal size':<28}{journal.byte_size:>10d} bytes",
        f"{'events recorded':<28}{len(journal.slots):>10d}",
        "",
        "Object trace (default-repr objects, frozen dataclass, object "
        "scopes; no bar)",
        f"{'object plain capture':<28}{object_plain_us:>10.3f} us/event",
        f"{'object journalled capture':<28}"
        f"{object_journal_us:>10.3f} us/event",
        f"{'object record overhead':<28}"
        f"{object_journal_us / object_plain_us:>10.3f} x",
    ]
    emit(results_dir, "journal", "\n".join(lines))

    assert journal.clean_close
    assert len(journal.slots) == len(_trace(N_EVENTS))
    if not SMOKE:
        # The satellite's acceptance bar: recording must hide inside the
        # drain's existing work.
        assert overhead <= OVERHEAD_BAR, (
            f"journal record overhead {overhead:.3f}x exceeds "
            f"{OVERHEAD_BAR}x bar"
        )
