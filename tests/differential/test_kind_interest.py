"""Differential: per-kind hook interest ≡ building every event.

Hooks build only the events some sink wants, per ``(kind, name)`` key
(DESIGN §5.2 "Interest filtering").  The claim is that this changes
nothing but how many events are built: whatever an automaton set
references — the CALL only, the RETURN only, or both kinds of the same
function — the event translator forwards exactly the stream it would
have forwarded had every event been built and dropped by key.

Each example draws a random assertion set over three hooks, one per hook
flavour: a callee-side hook point, a caller-side wrapper and a
dynamic-dispatch (interposition) selector.  Each hook is referenced on
call only, on return only, on both (as two assertions or as one
sequence) or not at all, and a random program drives all three inside
and outside the bound.  The program then runs twice per configuration:

* **filtered** — the translator is attached directly, so hooks consult
  its ``interested_in`` and skip the kinds nobody observes;
* **pass-through** — the translator sits behind a plain function with no
  ``interested_in``, so every hook builds every event and the translator
  drops the unobserved ones by key.

The translator's forwarded stream, the verdicts, the violation reasons
and (for deferred configurations, which journal) the journal bytes must
match, in every pinned configuration and in one drawn from the valid
configuration space (``tests/configspace.py``) per example.  The
kind-skip counters must account for every event the filtered run did
not build.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ast import Context
from repro.core.dsl import ANY, call, fn, previously, tesla_within
from repro.gui.runtime import NSObject, msg_send, selector
from repro.instrument.function import make_call_wrapper
from repro.instrument.hooks import (
    HookRegistry,
    instrumentable,
    site_registry,
    tesla_site,
)
from repro.instrument.interpose import interposition_table, tesla_method_hook
from repro.instrument.translator import EventTranslator
from repro.runtime.clock import FakeClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.epoch import interest_stats
from repro.runtime.notify import LogAndContinue

from ..configspace import JOURNAL, build, cases, pinned, steady, stop

#: Hook flavours, by index: callee hook point, caller wrapper, selector.
FLAVOURS = ("callee", "caller", "interpose")
HOOKS = ("ki_callee", "ki_caller", "ki_interpose")
#: Pattern arity per hook: interposition events carry the receiver.
ARITY = (2, 2, 3)
MODES = ("none", "call", "return", "both", "sequence")


def capture_path(config: RuntimeConfig) -> bool:
    """The pinned rows here are the two capture paths hooks feed — the
    synchronous entry and the rings — on the default evaluator; the
    evaluators themselves are the mode-equivalence harness's rows."""
    return config.compile and config.lazy and config.overhead_budget is None


#: On a fake clock, so journals compare byte for byte: the pinned capture
#: paths (without tesla-lint), plus a drawn configuration per example.
ROWS = pinned(capture_path, feeds=("event",), lint="off", clock=FakeClock())
DRAWN = cases(steady, feeds=("event",), clock=FakeClock())

_REGISTRY = HookRegistry()


#: The current run's bound bodies: ``ki_bound`` takes a block index so
#: its events carry the same arguments in every run.
_BODIES: List[List[Any]] = []


@instrumentable("ki_bound", registry=_REGISTRY)
def ki_bound(block):
    for step in _BODIES[block]:
        step()
    return 0


@instrumentable("ki_callee", registry=_REGISTRY)
def ki_callee(c, v):
    return v % 2


def ki_caller(c, v):
    return v % 2


class KindReceiver(NSObject):
    @selector("ki_interpose")
    def interpose(self, c, v):
        return v % 2


#: Shared across runs so interposition events compare (and journal)
#: identically.
RECEIVER = KindReceiver()


def _call_sym(index: int):
    return call(fn(HOOKS[index], *[ANY("a")] * ARITY[index]))


def _return_sym(index: int):
    # ``== 0`` is a static retval check: half the returns are dropped by
    # the translator's static chain in both runs.
    return fn(HOOKS[index], *[ANY("a")] * ARITY[index]) == 0


def assertions_of(modes: Tuple[str, ...], contexts: Tuple[bool, ...]):
    out = []
    for index, mode in enumerate(modes):
        context = Context.GLOBAL if contexts[index] else Context.THREAD
        parts: List[Tuple[str, Any]] = []
        if mode in ("call", "both"):
            parts.append(("call", previously(_call_sym(index))))
        if mode in ("return", "both"):
            parts.append(("return", previously(_return_sym(index))))
        if mode == "sequence":
            parts.append(
                ("seq", previously(_call_sym(index), _return_sym(index)))
            )
        for suffix, expression in parts:
            out.append(
                tesla_within(
                    "ki_bound", expression, context=context,
                    name=f"ki_{index}_{suffix}",
                )
            )
    return out


@st.composite
def scenarios(draw):
    modes = tuple(draw(st.sampled_from(MODES)) for _ in HOOKS)
    if all(mode == "none" for mode in modes):
        modes = ("both",) + modes[1:]
    contexts = tuple(draw(st.booleans()) for _ in HOOKS)
    names = [a.name for a in assertions_of(modes, contexts)]
    op = st.one_of(
        st.tuples(st.just("hook"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("site"), st.sampled_from(names)),
    )
    blocks = draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(op, max_size=6)),
            min_size=1, max_size=5,
        )
    )
    return modes, contexts, blocks


def _run(modes, contexts, blocks, config: RuntimeConfig, filtered: bool):
    if config.deferred and config.journal is None:
        config = replace(config, journal=JOURNAL)
    runtime = build(config, policy=LogAndContinue())
    journal = runtime.config.journal
    assertions = assertions_of(modes, contexts)
    runtime.install_assertions(assertions)
    translator = EventTranslator(runtime)
    translator.refresh()
    forwarded: List[Tuple] = []
    handle_event = runtime.handle_event

    def recording(event):
        forwarded.append(
            (event.kind, event.name, event.args, event.retval, event.scope)
        )
        handle_event(event)

    runtime.handle_event = recording

    def pass_through(event):
        translator(event)

    sink = translator if filtered else pass_through
    points = [_REGISTRY.require("ki_bound"), _REGISTRY.require("ki_callee")]
    caller = make_call_wrapper(ki_caller, "ki_caller", [sink])
    method_hook = tesla_method_hook(sink)
    for point in points:
        point.attach(sink)
    interposition_table.install("ki_interpose", method_hook)
    for assertion in assertions:
        site_registry.attach(assertion.name, sink)

    def step(op):
        if op[0] == "site":
            return lambda: tesla_site(op[1])
        _, index, value = op
        if index == 0:
            return lambda: ki_callee("c", value)
        if index == 1:
            return lambda: caller("c", value)
        return lambda: msg_send(RECEIVER, "ki_interpose", "c", value)

    interest_stats.reset()
    try:
        _BODIES[:] = [[step(op) for op in ops] for _, ops in blocks]
        for block, (bounded, _) in enumerate(blocks):
            if bounded:
                ki_bound(block)
            else:
                for run in _BODIES[block]:
                    run()
        runtime.flush_deferred()
        runtime.close_journal()
    finally:
        stop(runtime)
        for point in points:
            point.detach(sink)
        interposition_table.remove("ki_interpose", method_hook)
        for assertion in assertions:
            site_registry.detach(assertion.name, sink)
    verdicts = []
    for assertion in assertions:
        accepts = errors = sites = live = 0
        for cr in runtime.all_class_runtimes(assertion.name):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
            live += len(cr.pool)
        verdicts.append((assertion.name, accepts, errors, sites, live))
    reasons = [(v.automaton, v.reason) for v in runtime.hub.policy.violations]
    return {
        "forwarded": forwarded,
        "verdicts": verdicts,
        "reasons": reasons,
        "journal": journal.getvalue() if journal is not None else None,
        "translator": (translator.forwarded, translator.dropped),
        "kind_skips": (
            interest_stats.hook_kind_skips,
            interest_stats.interpose_kind_skips,
        ),
    }


def expected_kind_skips(modes, blocks) -> Tuple[int, int]:
    """Events the filtered run must skip: one per hook invocation whose
    hook is observed on one kind only, and both for an unobserved
    caller-side wrapper (an unobserved callee hook or selector
    short-circuits instead)."""
    calls = [0, 0, 0]
    for _, ops in blocks:
        for op in ops:
            if op[0] == "hook":
                calls[op[1]] += 1
    per_call = []
    for index, mode in enumerate(modes):
        if mode in ("call", "return"):
            per_call.append(1)
        elif mode == "none" and FLAVOURS[index] == "caller":
            per_call.append(2)
        else:
            per_call.append(0)
    hook = calls[0] * per_call[0] + calls[1] * per_call[1]
    return hook, calls[2] * per_call[2]


class TestKindInterestEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenarios(), DRAWN)
    def test_filtered_matches_pass_through(self, scenario, drawn):
        modes, contexts, blocks = scenario
        expected_skips = expected_kind_skips(modes, blocks)
        for name, config, _ in ROWS + [drawn]:
            filtered = _run(modes, contexts, blocks, config, filtered=True)
            full = _run(modes, contexts, blocks, config, filtered=False)
            label = (name, config)
            assert filtered["forwarded"] == full["forwarded"], label
            assert filtered["verdicts"] == full["verdicts"], label
            assert filtered["reasons"] == full["reasons"], label
            assert filtered["journal"] == full["journal"], label
            assert filtered["translator"][0] == full["translator"][0], label
            # Everything the filtered run did not build, the pass-through
            # run built and the translator dropped by key.
            skipped = sum(filtered["kind_skips"])
            assert filtered["kind_skips"] == expected_skips, label
            assert full["kind_skips"] == (0, 0), label
            assert filtered["translator"][1] <= full["translator"][1] - skipped

    def test_return_only_reference_skips_calls(self):
        """A fixed example: with the callee hook observed on return only,
        the filtered run builds no CALL for it and still agrees."""
        modes = ("return", "none", "none")
        contexts = (True, True, True)
        blocks = [
            (True, [("hook", 0, 0), ("site", "ki_0_return"), ("hook", 0, 1)]),
        ]
        for _, config, _ in ROWS:
            filtered = _run(modes, contexts, blocks, config, filtered=True)
            full = _run(modes, contexts, blocks, config, filtered=False)
            assert filtered["forwarded"] == full["forwarded"]
            assert filtered["journal"] == full["journal"]
            assert filtered["kind_skips"] == (2, 0)
            assert filtered["verdicts"] == full["verdicts"]
            assert filtered["verdicts"][0][1:3] == (1, 0)  # accepted
