"""Differential: live verdicts ≡ journal replay ≡ independent LTL oracle.

Every pinned configuration of the randomized-trace corpus gets a
*journaling twin*: the same trace captured through the deferred pipeline
with a :class:`~repro.runtime.journal.JournalWriter` installed at the
drain boundary; each example also draws a journaling configuration from
the valid configuration space (``tests/configspace.py``).  For each we
require three independent verdict sources to agree exactly —
accept/error/site counts *and* per-class violation-reason streams:

1. the live run's verdicts,
2. the journal replayed offline, at the live pool capacity, through the
   reference interpreter (``naive``) and the compiled fast path
   (``compiled``, tesla-jit's generated steps),
3. the LTL oracle (:mod:`repro.replay.ltl_oracle`), which evaluates the
   ``tesla_ltl_map`` reading of each assertion directly over the journal
   and shares none of the automaton machinery — on every trace where no
   instance pool overflowed, since the oracle has no pools.

The multi-thread sweep extends the check to real concurrency: whatever
interleaving the producer threads actually produced, the journal is the
merged evidence, and replay + oracle must both reproduce the live run's
verdicts from it alone.
"""

from __future__ import annotations

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
    tesla_perthread,
    tesla_within,
    var,
)
from repro.core.events import EventKind, assertion_site_event, call_event
from repro.errors import TemporalAssertionError
from repro.runtime.config import RuntimeConfig
from repro.runtime.journal import read_journal
from repro.runtime.notify import LogAndContinue
from repro.replay import REPLAY_CONFIGS, ReplayEngine, ltl_verdicts

from ..configspace import JOURNAL, PINNED, build, cases, pinned, steady, stop
from .test_mode_equivalence import (
    capture_concurrently,
    class_name,
    events_of,
    mt_scenarios,
    scenarios,
    verdict,
)

ClassSpec = Tuple[int, str]

#: (class index, bound index, context) → TemporalAssertion.  The replay
#: engine and the oracle both need the *assertion* (not the translated
#: automaton the base harness caches), so this harness keeps its own.
_ASSERTION_CACHE: Dict[Tuple[int, int, str], object] = {}


def assertion_for(index: int, bound: int, context: str):
    key = (index, bound, context)
    cached = _ASSERTION_CACHE.get(key)
    if cached is None:
        expression = previously(
            fn(f"diff_check{index}", ANY("c"), var("v")) == 0
        )
        if context == "global":
            cached = tesla_global(
                call(f"diff_bound{bound}"),
                returnfrom(f"diff_bound{bound}"),
                expression,
                name=class_name(index),
            )
        else:
            cached = tesla_within(
                f"diff_bound{bound}", expression, name=class_name(index)
            )
        _ASSERTION_CACHE[key] = cached
    return cached


def assertions_of(specs: Tuple[ClassSpec, ...]):
    return [
        assertion_for(index, bound, context)
        for index, (bound, context) in enumerate(specs)
    ]


#: Journaling twins of the pinned rows: the journal records at the drain
#: boundary, so every twin defers (``"manual"`` keeps them deterministic).
TWINS = pinned(steady, deferred="manual", journal=JOURNAL)
#: Drawn journaling configurations, the background drainer included.
DRAWN_TWINS = cases(
    steady, feeds=("event",), deferred=st.sampled_from(["manual", True]),
    journal=JOURNAL,
)


def recording_twin(specs: Tuple[ClassSpec, ...], config: RuntimeConfig):
    """A journaling runtime in ``config``; returns it and its buffer."""
    runtime = build(config, policy=LogAndContinue())
    runtime.install_assertions(assertions_of(specs))
    return runtime, runtime.config.journal


def violation_stream(runtime) -> Dict[str, List[str]]:
    per_class: Dict[str, List[str]] = {}
    for violation in runtime.hub.policy.violations:
        per_class.setdefault(violation.automaton, []).append(violation.reason)
    return per_class


def oracle_summary(assertions, slots):
    """Per-class (accepts, errors, satisfied sites) + reason streams, in
    the same shape the live/replay sides report."""
    verdicts = ltl_verdicts(assertions, slots)
    counts = [
        (v.accepts, v.errors, v.satisfied_sites)
        for v in (verdicts[a.name] for a in assertions)
    ]
    streams = {
        name: v.reason_stream()
        for name, v in verdicts.items()
        if v.violations
    }
    return counts, streams


def check_agreement(name, specs, runtime, buf):
    """Live verdicts vs journal replay (naive + compiled, at the live
    pool capacity) vs the LTL oracle, which has no pools and so judges
    only traces on which no pool overflowed."""
    live = verdict(runtime, len(specs))
    live_streams = violation_stream(runtime)

    journal = read_journal(buf)
    assert journal.clean_close
    assert len(journal.assertions) == len(specs)
    engine = ReplayEngine(journal)

    for config in ("naive", "compiled"):
        result = engine.run(
            replace(REPLAY_CONFIGS[config], capacity=runtime.config.capacity)
        )
        replayed = [
            result.classes[class_name(index)].as_tuple()
            for index in range(len(specs))
        ]
        assert replayed == live, (
            f"[{name}] journal replay ({config}) diverged from live: "
            f"{replayed} != {live} (specs={specs})"
        )
        assert result.violations == live_streams, (
            f"[{name}] replay ({config}) violation streams diverged"
        )

    if any(
        cr.pool.overflows
        for index in range(len(specs))
        for cr in runtime.all_class_runtimes(class_name(index))
    ):
        return
    oracle_counts, oracle_streams = oracle_summary(
        engine.assertions, engine.slots
    )
    live_counts = [(a, e, s) for (a, e, s, _) in live]
    assert oracle_counts == live_counts, (
        f"[{name}] LTL oracle diverged from live/replay: "
        f"{oracle_counts} != {live_counts} (specs={specs})"
    )
    assert oracle_streams == live_streams, (
        f"[{name}] LTL oracle violation streams diverged (specs={specs})"
    )


def record(specs, config, events):
    """Run ``events`` through ``config``'s journaling twin and check
    live, replay and oracle agree."""
    runtime, buf = recording_twin(specs, config)
    try:
        for event in events:
            runtime.handle_event(event)
        runtime.flush_deferred()
        stop(runtime)
        runtime.close_journal()
        check_agreement(config, specs, runtime, buf)
    finally:
        runtime.reset()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios(), DRAWN_TWINS)
def test_every_config_journal_replays_to_live_verdicts(scenario, drawn):
    specs, ops = scenario
    events = events_of(ops)
    for _, config, _ in TWINS + [drawn]:
        record(specs, config, events)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios(), DRAWN_TWINS)
def test_multithread_journal_replays_to_live_verdicts(scenario, drawn):
    """Real concurrency: 8 producer threads, tiny-ring overflow flushes,
    then the journal alone must reproduce the live verdicts through both
    replay configs and the LTL oracle."""
    specs, thread_ops = scenario
    twin = replace(PINNED["deferred-compiled"][0], journal=JOURNAL)
    for config in (twin, drawn[1]):
        runtime, buf = recording_twin(specs, config)
        try:
            capture_concurrently(runtime, thread_ops)
            stop(runtime)
            runtime.close_journal()
            check_agreement(config, specs, runtime, buf)
        finally:
            runtime.reset()


def test_known_interleaving_journal_regression():
    """The hand-picked anchor trace from the base harness, journalled and
    replayed deterministically (no Hypothesis): re-entrant bounds, cleanup
    without init, sites outside bounds, cross-bound classes."""
    specs = ((0, "global"), (0, "perthread"), (1, "global"))
    ops = [
        ("cleanup", 0),
        ("site", 0, 0),
        ("init", 0),
        ("init", 0),
        ("check", 0, 1),
        ("site", 0, 1),
        ("site", 1, 2),
        ("init", 1),
        ("check", 2, 0),
        ("cleanup", 0),
        ("site", 2, 0),
        ("check", 0, 1),
    ]
    runtime, buf = recording_twin(
        specs, RuntimeConfig(deferred="manual", journal=JOURNAL)
    )
    try:
        for event in events_of(ops):
            runtime.handle_event(event)
        runtime.flush_deferred()
        runtime.close_journal()
        check_agreement("anchor", specs, runtime, buf)
        assert verdict(runtime, len(specs))[0][:2] == (1, 0)
        assert verdict(runtime, len(specs))[1][1] == 1
    finally:
        runtime.reset()


@pytest.mark.parametrize("context", [tesla_global, tesla_perthread])
def test_fail_stop_verdict_is_journalled(context):
    """A fail-stop verdict raises only once its event is in the journal,
    from a per-thread class as from a global one: the journal holds the
    event behind every verdict, and replaying it reports the violation."""
    assertion = context(
        call("fs_sys"),
        returnfrom("fs_sys"),
        previously(fn("fs_check", var("v")) == 0),
        name="fs",
    )
    runtime = build(RuntimeConfig(deferred="manual", journal=JOURNAL))
    runtime.install_assertions([assertion])
    try:
        runtime.handle_event(call_event("fs_sys", ()))
        with pytest.raises(TemporalAssertionError) as raised:
            runtime.handle_event(assertion_site_event("fs", {"v": 1}))
        runtime.close_journal()
        journal = read_journal(runtime.config.journal)
        assert [(e.kind, e.name) for e in journal.events] == [
            (EventKind.CALL, "fs_sys"),
            (EventKind.ASSERTION_SITE, "fs"),
        ]
        replayed = ReplayEngine(journal).run("naive")
        assert replayed.violations == {"fs": [raised.value.violation.reason]}
    finally:
        runtime.reset()
