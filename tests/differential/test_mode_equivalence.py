"""Differential stress-test harness: every valid configuration ≡ naive.

The same randomized event trace — arbitrary interleavings of bound
entry/exit, body events and assertion sites over several assertion
classes in both global and per-thread contexts — is replayed through
runtime configurations drawn from the valid configuration space
(``tests/configspace.py``), and each must agree with the reference: the
paper's first implementation (``lazy=False``) on the interpreter, at the
same instance-pool capacity.  Every example runs the pinned rows this
harness can judge, among them:

* **lazy**: the §5.2.2 optimisation;
* **batched** / **compiled-batched**: fed through
  :meth:`TeslaRuntime.dispatch_batch` in odd-sized chunks, as a drain
  pass feeds it;
* **compiled** / **compiled-naive**: tesla-jit's generated steps
  (DESIGN §5.7) in lazy and eager flavours — interpreted and generated
  matchers must be observationally identical;
* **compiled-governed**: an overhead governor whose clock never
  advances, so nothing escalates while every key function runs its
  charging code;
* **deferred** / **deferred-compiled** / **deferred-bg**: per-thread
  ring capture with explicit drains or the background drainer;

plus one drawn configuration, which reaches combinations no row lists
(governed + batched, eager + deferred, tiny pools and rings, ...).

All configurations must agree on every class's accept count, error count,
assertion-sites-reached count and final live-instance count.  The paper's
semantics ("an event cannot complete until its instrumentation hook has
finished running") say these are pure functions of the per-class event
order, which every configuration claims to preserve — this harness is the
check that the claim survives batching and compilation.  Batched dispatch
promises more: the whole violation stream, in order across classes and
contexts, and the first fail-stop violation are exactly per-event
dispatch's.

A *replay oracle* extends the check to real concurrency: randomized
8-thread traces are captured through the rings of every deferred
configuration, the merged (seqno-sorted) dispatch sequence is recorded,
and that exact sequence is replayed through the naive synchronous
interpreter — the deferred verdicts must equal the reference's, proving
deferral changed *when* evaluation ran but not *what* it computed.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.translate import translate_all
from repro.errors import TemporalAssertionError
from repro.runtime.config import RuntimeConfig
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from ..configspace import (
    FEEDS, NAIVE, PINNED, agree, build, cases, drive, pinned, steady, stop,
)

N_BOUNDS = 2
N_VALUES = 3

#: (class index, bound index, context) → translated automaton+context.
#: Automata are static (all mutable state lives in ClassRuntime), so one
#: translation can be installed into every runtime of every example.
_AUTOMATON_CACHE: Dict[Tuple[int, int, str], object] = {}

ClassSpec = Tuple[int, str]  # (bound index, "global" | "perthread")
Op = Tuple  # ("init"|"cleanup", bound) or ("check"|"site", class, value)


def class_name(index: int) -> str:
    return f"diff_cls{index}"


def _automaton_for(index: int, bound: int, context: str):
    key = (index, bound, context)
    cached = _AUTOMATON_CACHE.get(key)
    if cached is None:
        expression = previously(
            fn(f"diff_check{index}", ANY("c"), var("v")) == 0
        )
        if context == "global":
            assertion = tesla_global(
                call(f"diff_bound{bound}"),
                returnfrom(f"diff_bound{bound}"),
                expression,
                name=class_name(index),
            )
        else:
            assertion = tesla_within(
                f"diff_bound{bound}", expression, name=class_name(index)
            )
        cached = (translate_all([assertion])[0], assertion.context)
        _AUTOMATON_CACHE[key] = cached
    return cached


def build_runtime(
    specs: Tuple[ClassSpec, ...], config: RuntimeConfig = NAIVE,
    fail_stop: bool = False,
):
    runtime = build(
        config, policy=None if fail_stop else LogAndContinue()
    )
    for index, (bound, context) in enumerate(specs):
        automaton, ast_context = _automaton_for(index, bound, context)
        runtime.install_automaton(automaton, ast_context)
    return runtime


def events_of(ops: List[Op], close: bool = True) -> List[RuntimeEvent]:
    events: List[RuntimeEvent] = []
    for op in ops:
        if op[0] == "init":
            events.append(call_event(f"diff_bound{op[1]}", ()))
        elif op[0] == "cleanup":
            events.append(return_event(f"diff_bound{op[1]}", (), 0))
        elif op[0] == "check":
            events.append(
                return_event(f"diff_check{op[1]}", ("c", f"val{op[2]}"), 0)
            )
        else:  # site
            events.append(
                assertion_site_event(
                    class_name(op[1]), {"v": f"val{op[2]}"}
                )
            )
    # Drain: close every bound so all configurations reach the same
    # quiescent state (lazy mode defers pool work to bound boundaries, so
    # only quiescent states are comparable instance-by-instance).
    # ``close=False`` skips this for per-thread slices of a multi-thread
    # trace, whose bounds are closed once after all threads join.
    if close:
        for bound in range(N_BOUNDS):
            events.append(return_event(f"diff_bound{bound}", (), 0))
    return events


def verdict(runtime: TeslaRuntime, n_classes: int):
    """Per-class (accepts, errors, sites reached, live instances)."""
    out = []
    for index in range(n_classes):
        accepts = errors = sites = live = 0
        for cr in runtime.all_class_runtimes(class_name(index)):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
            live += len(cr.pool)
        out.append((accepts, errors, sites, live))
    return out


@st.composite
def scenarios(draw):
    n_classes = draw(st.integers(min_value=2, max_value=5))
    specs = tuple(
        (
            draw(st.integers(0, N_BOUNDS - 1)),
            draw(st.sampled_from(["global", "perthread"])),
        )
        for _ in range(n_classes)
    )
    op = st.one_of(
        st.tuples(st.just("init"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(st.just("cleanup"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(
            st.just("check"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
        st.tuples(
            st.just("site"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
    )
    ops = draw(st.lists(op, min_size=4, max_size=48))
    return specs, ops


#: Every pinned row whose verdicts are a function of the trace.
ROWS = pinned(steady)


def observer(specs, events, observe):
    """``run(config, feed)`` for :func:`~tests.configspace.agree`."""

    def run(config, how):
        runtime = build_runtime(specs, config)
        try:
            drive(runtime, how, events)
        finally:
            stop(runtime)
        return observe(runtime)

    return run


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios(), cases(steady))
def test_all_modes_agree(scenario, drawn):
    specs, ops = scenario
    verdicts = agree(ROWS + [drawn], observer(
        specs, events_of(ops), lambda runtime: verdict(runtime, len(specs))
    ))
    # Drained traces leave no live instances in any configuration.
    assert all(live == 0 for (_, _, _, live) in verdicts["naive"])


def violation_stream(runtime: TeslaRuntime) -> Dict[str, List[str]]:
    per_class: Dict[str, List[str]] = {}
    for violation in runtime.hub.policy.violations:
        per_class.setdefault(violation.automaton, []).append(
            violation.reason
        )
    return per_class


@settings(max_examples=50, deadline=None)
@given(scenarios(), cases(steady))
def test_violation_streams_agree(scenario, drawn):
    """Not just counts: the per-class sequence of violation reasons must
    match across every configuration."""
    specs, ops = scenario
    agree(ROWS + [drawn], observer(specs, events_of(ops), violation_stream))


def _violation_order(runtime: TeslaRuntime, events: List[RuntimeEvent]):
    """The whole violation stream: (class, index of the judged event)."""
    where = {id(event): i for i, event in enumerate(events)}
    return [
        (violation.automaton, where.get(id(violation.event)))
        for violation in runtime.hub.policy.violations
    ]


def _first_fail_stop(runtime, events, how):
    """Drive to the first fail-stop violation: (class, event index,
    events_processed), or None for a clean trace."""
    where = {id(event): i for i, event in enumerate(events)}
    try:
        drive(runtime, how, events)
    except TemporalAssertionError as exc:
        violation = exc.violation
        return (
            violation.automaton,
            where.get(id(violation.event)),
            runtime.events_processed,
        )
    return None


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios(), cases(steady, feeds=("event",), deferred=False))
def test_batched_dispatch_is_per_event_dispatch(scenario, drawn):
    """``dispatch_batch`` replays in event order: over mixed global and
    per-thread classes it reports the same violations in the same order
    as per-event dispatch, and under fail-stop raises the same first
    violation after the same number of events — for the pinned batched
    rows and a drawn synchronous configuration."""
    specs, ops = scenario
    events = events_of(ops)
    configs = [config for _, config, _ in pinned(feeds=("batch",))]
    for config in configs + [drawn[1]]:
        orders = {}
        firsts = {}
        for how in FEEDS:
            runtime = build_runtime(specs, config)
            drive(runtime, how, events)
            orders[how] = _violation_order(runtime, events)
            runtime = build_runtime(specs, config, fail_stop=True)
            firsts[how] = _first_fail_stop(runtime, events, how)
        assert orders["batch"] == orders["event"], (config, specs, ops)
        assert firsts["batch"] == firsts["event"], (config, specs, ops)


def test_known_interleaving_regression():
    """A hand-picked trace exercising re-entrant bounds, cleanup without
    init, sites outside bounds and cross-bound classes — kept as a
    deterministic anchor alongside the randomized sweep."""
    specs = ((0, "global"), (0, "perthread"), (1, "global"))
    ops = [
        ("cleanup", 0),          # close a bound that never opened
        ("site", 0, 0),          # site outside any bound: ignored
        ("init", 0),
        ("init", 0),             # re-entrant: ignored
        ("check", 0, 1),
        ("site", 0, 1),          # satisfied
        ("site", 1, 2),          # same bound, other class: violation
        ("init", 1),
        ("check", 2, 0),
        ("cleanup", 0),
        ("site", 2, 0),          # bound 1 still open: satisfied
        ("check", 0, 1),         # bound 0 closed again: ignored
    ]
    verdicts = agree(ROWS, observer(
        specs, events_of(ops), lambda runtime: verdict(runtime, len(specs))
    ))
    accepts0, errors0, sites0, live0 = verdicts["naive"][0]
    assert (accepts0, errors0) == (1, 0)
    assert verdicts["naive"][1][1] == 1  # class 1's site had no check
    assert verdicts["naive"][2][:2] == (1, 0)


# -- the replay oracle: real concurrency vs the naive interpreter --------------

N_THREADS = 8


def captures(config: RuntimeConfig) -> bool:
    """The oracle needs capture rings to record the merged sequence."""
    return bool(config.deferred) and steady(config)


#: Every pinned deferred row: deterministic manual drains, the compiled
#: fast path, and the background drainer racing the producers for real.
MT_ROWS = pinned(captures, feeds=("event",))


@st.composite
def mt_scenarios(draw):
    """Global-context classes only: per-thread contexts never ride the
    rings (they are evaluated inline on the capturing thread), so the
    merged-sequence oracle is defined for global automata."""
    n_classes = draw(st.integers(min_value=2, max_value=4))
    specs = tuple(
        (draw(st.integers(0, N_BOUNDS - 1)), "global")
        for _ in range(n_classes)
    )
    op = st.one_of(
        st.tuples(st.just("init"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(st.just("cleanup"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(
            st.just("check"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
        st.tuples(
            st.just("site"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
    )
    thread_ops = [
        draw(st.lists(op, min_size=1, max_size=10))
        for _ in range(N_THREADS)
    ]
    return specs, thread_ops


def capture_concurrently(runtime: TeslaRuntime, thread_ops):
    """Run each op slice on its own thread; returns the merged dispatch
    log the controller recorded."""
    log = runtime.drain.record_sequence()
    barrier = threading.Barrier(len(thread_ops))

    def worker(ops):
        events = events_of(ops, close=False)
        barrier.wait()
        for event in events:
            runtime.handle_event(event)

    threads = [
        threading.Thread(target=worker, args=(ops,)) for ops in thread_ops
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Quiesce from the main thread: close every bound, then evaluate
    # everything that was still sitting in the rings.
    for bound in range(N_BOUNDS):
        runtime.handle_event(return_event(f"diff_bound{bound}", (), 0))
    runtime.flush_deferred()
    if runtime.drain.drainer_alive:
        runtime.drain.stop()
    return log


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios(), cases(captures, feeds=("event",)))
def test_deferred_multithread_matches_naive_replay_of_merged_trace(
    scenario, drawn
):
    """The oracle proper: whatever interleaving the 8 threads actually
    produced, replaying the recorded merged sequence through the naive
    synchronous interpreter must reproduce the deferred verdicts —
    verdicts are a function of the merged order alone."""
    specs, thread_ops = scenario
    for name, config, _ in MT_ROWS + [drawn]:
        runtime = build_runtime(specs, config)
        try:
            log = capture_concurrently(runtime, thread_ops)
        finally:
            stop(runtime)
        got = verdict(runtime, len(specs))
        stats = runtime.drain.stats()
        assert stats["events_lost_to_faults"] == 0
        assert stats["events_enqueued"] == stats["events_drained"], (
            f"{name} {config} lost or duplicated events: {stats}"
        )
        # The log is the merged sequence: seqno-sorted, every capture once.
        seqnos = [seqno for seqno, _ in log]
        assert seqnos == sorted(seqnos)
        assert len(seqnos) == len(set(seqnos)) == stats["events_drained"]
        reference = replay_log(specs, config, log)
        expected = verdict(reference, len(specs))
        assert got == expected, (
            f"{name} {config} diverged from naive replay of its own merged "
            f"trace: {got} != {expected} (specs={specs})"
        )
        # Quiescent traces leave no live instances anywhere.
        assert all(live == 0 for (_, _, _, live) in got)


def replay_log(specs, config: RuntimeConfig, log) -> TeslaRuntime:
    """The naive interpreter, at ``config``'s capacity, fed a recorded
    merged sequence."""
    reference = build_runtime(specs, replace(NAIVE, capacity=config.capacity))
    for _, event in log:
        reference.handle_event(event)
    return reference


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios(), cases(captures, feeds=("event",)))
def test_deferred_multithread_violation_streams_match_replay(scenario, drawn):
    """Stronger than counts: the violation *reason sequences* per class
    must match the naive replay of the merged trace."""
    specs, thread_ops = scenario
    for config in (PINNED["deferred-compiled"][0], drawn[1]):
        runtime = build_runtime(specs, config)
        try:
            log = capture_concurrently(runtime, thread_ops)
        finally:
            stop(runtime)
        reference = replay_log(specs, config, log)
        assert violation_stream(runtime) == violation_stream(reference), (
            config
        )
