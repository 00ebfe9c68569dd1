"""The tesla-prove soundness property, checked dynamically.

``prove="prune"`` deletes instrumentation for PROVED assertions, so the
verdict carries an executable claim: *no trace the runtime could ever
observe makes a PROVED assertion fail*.  This module turns that claim
into a Hypothesis property — randomized traces of bound entries/exits,
hooked-function activity and assertion sites are replayed through every
pinned engine configuration (naive interpreter, generated code, deferred
capture, ...) and one drawn from the valid configuration space
(``tests/configspace.py``), and a PROVED assertion must report **zero
errors in every configuration on every trace**.

Two guards keep the property honest:

* **non-vacuity** — the PROVED shapes really accept (a deterministic
  trace yields ``accepts >= 1``), so "zero errors" is not "zero
  activity";
* **discrimination** — an UNKNOWN control shape riding the same traces
  *does* produce errors, so the harness demonstrably can detect
  violations when they exist.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.prove import PROVED, prove_assertion
from repro.core.dsl import (
    call,
    either,
    optionally,
    previously,
    returned,
    returnfrom,
    tesla_within,
)
from repro.core.events import (
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.translate import translate
from repro.runtime.config import RuntimeConfig
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from ..configspace import (
    NAIVE, agree, build, cases, drive, pinned, steady, stop,
)

BOUND = "ps_bound"
HOOKED = "ps_hooked"

#: Shapes the static analyser discharges: nothing is ever *required*, so
#: no reachable automaton configuration can refuse an assertion site.
PROVABLE_SHAPES = [
    (
        "ps.optional_call",
        previously(optionally(call(HOOKED))),
    ),
    (
        "ps.optional_return",
        previously(optionally(returnfrom(HOOKED))),
    ),
    (
        "ps.optional_either",
        previously(optionally(either(call(HOOKED), returnfrom(HOOKED)))),
    ),
]

#: Control shape: the site *requires* a prior return that the trace
#: generator never emits with the matching retval pattern on every path,
#: so prove refuses it and the runtime can (and does) flag violations.
CONTROL_NAME = "ps.control_required"


def provable_assertions():
    return [
        tesla_within(BOUND, expression, name=name)
        for name, expression in PROVABLE_SHAPES
    ]


def control_assertion():
    return tesla_within(
        BOUND, previously(returned(HOOKED, 0)), name=CONTROL_NAME
    )


#: Translate once — automata are immutable; all mutable state lives in
#: per-runtime ClassRuntime objects.
_AUTOMATA = [
    (translate(a), a.context)
    for a in provable_assertions() + [control_assertion()]
]

PROVED_NAMES = [name for name, _ in PROVABLE_SHAPES]

#: Every pinned row whose verdicts are a function of the trace.
ROWS = pinned(steady, feeds=("event",))

Op = Tuple[str, ...]


def build_runtime(config: RuntimeConfig = NAIVE) -> TeslaRuntime:
    runtime = build(config, policy=LogAndContinue())
    for automaton, context in _AUTOMATA:
        runtime.install_automaton(automaton, context)
    return runtime


def events_of(ops: List[Op]) -> List[RuntimeEvent]:
    events: List[RuntimeEvent] = []
    for op in ops:
        if op[0] == "init":
            events.append(call_event(BOUND, ()))
        elif op[0] == "cleanup":
            events.append(return_event(BOUND, (), 0))
        elif op[0] == "hook":
            events.append(call_event(HOOKED, ()))
            events.append(return_event(HOOKED, (), int(op[1])))
        else:  # site — hit every installed class
            for name, _ in PROVABLE_SHAPES:
                events.append(assertion_site_event(name, {}))
            events.append(assertion_site_event(CONTROL_NAME, {}))
    events.append(return_event(BOUND, (), 0))  # quiesce
    return events


def tallies(runtime: TeslaRuntime) -> Dict[str, Tuple[int, int]]:
    """name → (accepts, errors), summed over contexts."""
    out = {}
    for name in PROVED_NAMES + [CONTROL_NAME]:
        accepts = errors = 0
        for cr in runtime.all_class_runtimes(name):
            accepts += cr.accepts
            errors += cr.errors
        out[name] = (accepts, errors)
    return out


@st.composite
def traces(draw):
    op = st.one_of(
        st.just(("init",)),
        st.just(("cleanup",)),
        st.tuples(st.just("hook"), st.integers(0, 1)),
        st.just(("site",)),
    )
    return draw(st.lists(op, min_size=4, max_size=40))


def test_shapes_have_the_claimed_verdicts():
    """The property below only means something if the filter is real:
    the provable shapes are PROVED, the control is not."""
    for assertion in provable_assertions():
        result = prove_assertion(assertion)
        assert result.verdict == PROVED, (assertion.name, result.reason)
    assert prove_assertion(control_assertion()).verdict != PROVED


def test_proved_shapes_are_not_vacuous():
    """A PROVED automaton still *does* something: sites inside a bound
    are accepted, so zero-errors is a statement about real activity."""
    runtime = build_runtime()
    for event in events_of([("init",), ("hook", 0), ("site",)]):
        runtime.handle_event(event)
    counts = tallies(runtime)
    for name in PROVED_NAMES:
        assert counts[name] == (1, 0)


def test_control_shape_detects_violations():
    """Discrimination: the same harness flags the UNKNOWN control on a
    check-less trace — zero errors for PROVED shapes is not a harness
    blind spot."""
    runtime = build_runtime()
    for event in events_of([("init",), ("site",)]):
        runtime.handle_event(event)
    assert tallies(runtime)[CONTROL_NAME][1] == 1


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traces(), cases(steady))
def test_proved_assertions_never_violated_in_any_config(ops, drawn):
    events = events_of(ops)

    def run(config, how):
        runtime = build_runtime(config)
        try:
            drive(runtime, how, events)
        finally:
            stop(runtime)
        counts = tallies(runtime)
        for name in PROVED_NAMES:
            accepts, errors = counts[name]
            assert errors == 0, (
                f"PROVED assertion {name} violated under {config}: "
                f"{errors} error(s) (ops={ops})"
            )
        return counts

    # All engines agree on the full tally — including the control's
    # error count — so the soundness check rides the same observational
    # equivalence the differential harness pins.
    agree(ROWS + [drawn], run)
