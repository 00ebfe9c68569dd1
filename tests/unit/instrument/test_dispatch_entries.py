"""Per-key dispatch entries (DESIGN §5.7).

Every dispatch key gets one generated entry per event translator, and
one behind ``TeslaRuntime.handle_event``: the key's static-check chain,
the translator's forwarded/dropped counts and the runtime's dispatch
prologue in one function, which hooks call directly.  These tests pin
what the entries must keep from the layered path they replace:
invalidation on the very next hooked event, exact translator counts,
fault containment, generated code under armed injection, verdicts equal
to ``compile=False`` for every hook flavour, and plain sinks next to the
translator.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    field_assign,
    fn,
    previously,
    returnfrom,
    strictly,
    tesla_global,
)
from repro.core.events import EventKind, RuntimeEvent
from repro.gui.runtime import NSObject, msg_send, selector
from repro.instrument.fields import TeslaStruct, attach_field_hook
from repro.instrument.function import make_call_wrapper
from repro.instrument.hooks import (
    HookRegistry,
    instrumentable,
    site_registry,
    tesla_site,
)
from repro.instrument.interpose import interposition_table, tesla_method_hook
from repro.instrument.translator import EventTranslator, static_match
from repro.introspect import codegen_report, dispatch_stats
from repro.runtime import faultinject
from repro.runtime.clock import FakeClock
from repro.runtime.epoch import interest_epoch, interest_stats
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.supervisor import FailOpen, QuarantinePolicy

BOUND = "de_bound"
CHECK = "de_check"
ONLY = "de_only"
CHECK_KEY = (EventKind.RETURN, CHECK)

_REGISTRY = HookRegistry()


@instrumentable(BOUND, registry=_REGISTRY)
def de_bound(body):
    body()
    return 0


@instrumentable(CHECK, registry=_REGISTRY)
def de_check(x):
    return 0


@instrumentable(ONLY, registry=_REGISTRY)
def de_only(x):
    if callable(x):
        x()
    return 0


def de_caller(x):
    return 0


class DeReceiver(NSObject):
    @selector("de_ping")
    def ping(self, x):
        return x


class DeStruct(TeslaStruct):
    def __init__(self) -> None:
        self.state = 0


RECEIVER = DeReceiver()


@pytest.fixture(autouse=True)
def detach_private_hooks():
    yield
    _REGISTRY.detach_all()
    DeStruct._tesla_field_sinks = None


def _global(name, expression):
    return tesla_global(call(BOUND), returnfrom(BOUND), expression, name=name)


def _check(name, pattern):
    return _global(name, previously(fn(CHECK, pattern) == 0))


def _attach(runtime, *names):
    """A translator over ``runtime`` attached to the named hook points
    (default: all three) and to every installed assertion's site."""
    translator = EventTranslator(runtime)
    for name in names or (BOUND, CHECK, ONLY):
        _REGISTRY.require(name).attach(translator)
    for name in runtime.automata:
        site_registry.attach(name, translator)
    return translator


def _runtime(*assertions, **kwargs):
    runtime = TeslaRuntime(policy=LogAndContinue(), **kwargs)
    runtime.install_assertions(list(assertions))
    return runtime


class TestInvalidation:
    def test_governor_demotion_takes_effect_on_the_next_hooked_event(self):
        runtime = _runtime(
            _check("de_a", ANY("x")), _check("de_b", ANY("x")),
            overhead_budget=0.05, clock=FakeClock(),
        )
        _attach(runtime)
        governor = runtime.governor
        a, b = runtime.class_runtime("de_a"), runtime.class_runtime("de_b")
        seen = {}

        def body():
            de_check(1)
            seen["epoch"] = interest_epoch.value
            seen["built"] = runtime.entries_built
            governor.escalate_class("de_a", len(governor.sample_rates) + 1)
            seen["hits"] = (a.gen_hits, b.gen_hits)
            de_check(2)

        de_bound(body)
        assert governor.demoted == {"de_a"}
        # Demotion moves no epoch and retires no entry: each entry's plan
        # probe sees the cleared plans on the very next event.
        assert interest_epoch.value == seen["epoch"]
        assert runtime.entries_built == seen["built"]
        assert a.gen_hits == seen["hits"][0]
        assert b.gen_hits == seen["hits"][1] + 1

    def test_quarantine_takes_effect_on_the_next_hooked_event(self):
        runtime = _runtime(
            _global("de_first", previously(fn(ONLY, ANY("x")) == 0)),
            _check("de_second", ANY("x")),
            failure_policy=QuarantinePolicy(
                threshold=2, window=100, cooldown=1000, probation_ticks=5,
                max_trips=3,
            ),
        )
        translator = _attach(runtime)
        seen = {}

        def quarantine():
            for _ in range(2):
                runtime.supervisor.contain("de_first", "body", RuntimeError())
            seen["forwarded"] = translator.forwarded

        def body():
            de_only(1)
            # The return of the call that quarantined de_first is the next
            # hooked event: no entry forwards it any more.
            de_only(quarantine)
            seen["returned"] = translator.forwarded
            seen["short"] = interest_stats.hook_short_circuits
            de_only(2)
            seen["after"] = translator.forwarded
            de_check(3)

        de_bound(body)
        assert runtime.supervisor.is_shed("de_first")
        assert seen["returned"] == seen["forwarded"]
        # The only key de_first observed now short-circuits at the hook.
        assert seen["after"] == seen["forwarded"]
        assert interest_stats.hook_short_circuits == seen["short"] + 1
        assert translator.forwarded == seen["forwarded"] + 2  # check, exit

    def test_foreign_install_retires_the_key_functions_behind_an_entry(self):
        runtime = _runtime(_check("de_a", ANY("x")))
        translator = _attach(runtime)

        def body():
            de_check(1)
            tesla_site("de_a")

        de_bound(body)
        entry = translator._entries[CHECK_KEY]
        stale = runtime._plan_for(CHECK_KEY).glob.fn
        built = runtime.key_fns_built
        other = TeslaRuntime(policy=LogAndContinue())
        other.install_assertion(_check("de_foreign", ANY("x")))
        de_bound(body)
        assert translator._entries[CHECK_KEY] is entry
        assert runtime.key_fns_built > built
        assert runtime._plan_for(CHECK_KEY).glob.fn is not stale
        assert runtime.class_runtime("de_a").accepts == 2

    def test_own_install_retires_entries(self):
        runtime = _runtime(_check("de_a", ANY("x")))
        translator = _attach(runtime)
        de_bound(lambda: de_check(1))
        runtime.handle_event(
            RuntimeEvent(EventKind.CALL, "de_unrelated")
        )
        assert translator._entries and runtime._entries
        runtime.install_assertion(_check("de_b", ANY("x")))
        assert not translator._entries and not runtime._entries
        translator.refresh()
        site_registry.attach("de_b", translator)
        de_bound(lambda: (de_check(1), tesla_site("de_b")))
        assert runtime.class_runtime("de_b").accepts == 1


class TestCounts:
    def test_forwarded_and_dropped_are_exact(self):
        runtime = _runtime(_check("de_one", 1), _check("de_two", 2))
        translator = _attach(runtime)
        forwarded = []
        handle = runtime.handle_event
        runtime.handle_event = lambda event: (
            forwarded.append(event), handle(event)
        )

        def body():
            de_check(1)  # passes the first symbol
            de_check(2)  # passes only the second
            de_check(3)  # passes neither
            de_check(2)

        de_bound(body)
        # Unobserved keys are dropped by key when called directly.
        translator(RuntimeEvent(EventKind.CALL, "de_unrelated"))
        names = [(e.kind, e.name, e.args) for e in forwarded]
        assert names == [
            (EventKind.CALL, BOUND, (body,)),
            (EventKind.RETURN, CHECK, (1,)),
            (EventKind.RETURN, CHECK, (2,)),
            (EventKind.RETURN, CHECK, (2,)),
            (EventKind.RETURN, BOUND, (body,)),
        ]
        assert (translator.forwarded, translator.dropped) == (5, 2)
        for event in forwarded:
            chain = translator._chains[(event.kind, event.name)]
            assert any(static_match(symbol, event) for symbol, _ in chain)

    def test_strict_key_forwards_every_event(self):
        runtime = _runtime(
            _global("de_strict", strictly(previously(fn(CHECK, 1) == 0)))
        )
        translator = _attach(runtime)
        de_bound(lambda: (de_check(1), de_check(3)))
        # de_check(3) mismatches the static constant but a strict
        # automaton must see it.
        assert (translator.forwarded, translator.dropped) == (4, 0)


class TestFaults:
    def test_armed_dispatch_fault_is_contained(self):
        runtime = _runtime(
            _check("de_a", ANY("x")), failure_policy=FailOpen()
        )
        translator = _attach(runtime)
        injector = faultinject.arm(
            faultinject.FaultInjector(seed=1, only={"hooks.dispatch"})
        )
        try:
            assert de_bound(lambda: de_check(1)) == 0
        finally:
            faultinject.disarm()
        # Bound call, check return, bound return: the check's call is
        # never built (no sink wants it).
        assert injector.fired["hooks.dispatch"] == 3
        assert translator.forwarded == 0
        assert runtime.supervisor.fault_counts == {"(dispatch)": 3}

    def test_armed_injection_runs_the_generated_code(self):
        runtime = _runtime(_check("de_a", ANY("x")))
        _attach(runtime)
        cr = runtime.class_runtime("de_a")

        def body():
            de_check(1)
            tesla_site("de_a")

        de_bound(body)
        assert (cr.accepts, cr.gen_hits) == (1, 2)  # check and site
        injector = faultinject.FaultInjector(seed=1, rate=0.0)
        faultinject.arm(injector)
        try:
            de_bound(body)
        finally:
            faultinject.disarm()
        # Armed dispatch runs the same generated code, whose steps and
        # cleanups visit their fault points.
        assert (cr.accepts, cr.gen_hits) == (2, 4)
        assert injector.checks["update.step"] == 2
        assert injector.checks["update.cleanup"] == 1
        de_bound(body)
        assert (cr.accepts, cr.gen_hits) == (3, 6)


def _flavour_assertions():
    return [
        _global("de_callee", previously(fn(CHECK, 1) == 0)),
        _global("de_caller_cls", previously(fn("de_caller", 2) == 0)),
        _global(
            "de_interpose", previously(call(fn("de_ping", ANY("r"), 3)))
        ),
        _global(
            "de_field", previously(field_assign("DeStruct", "state", 4))
        ),
    ]


def _run_flavours(compile):
    runtime = _runtime(*_flavour_assertions(), compile=compile)
    translator = _attach(runtime, BOUND, CHECK)
    caller = make_call_wrapper(de_caller, "de_caller", [translator])
    hook = tesla_method_hook(translator)
    interposition_table.install("de_ping", hook)
    names = [a.name for a in _flavour_assertions()]
    attach_field_hook(DeStruct, "state", translator)
    struct = DeStruct()

    def body(value):
        de_check(value)
        caller(value)
        msg_send(RECEIVER, "de_ping", value)
        struct.state = value
        for name in names:
            tesla_site(name)

    try:
        for value in (1, 2, 3, 4, 5):
            de_bound(lambda: body(value))
    finally:
        interposition_table.remove("de_ping", hook)
    verdicts = [
        (name, runtime.class_runtime(name).accepts,
         runtime.class_runtime(name).errors)
        for name in names
    ]
    reasons = [(v.automaton, v.reason) for v in runtime.hub.policy.violations]
    return verdicts, reasons, (translator.forwarded, translator.dropped)


class TestHookFlavours:
    def test_every_flavour_matches_the_interpreter(self):
        compiled = _run_flavours(True)
        assert compiled == _run_flavours(False)
        # Each class accepts the one block whose value it names.
        assert [v[1:] for v in compiled[0]] == [(1, 4)] * 4

    def test_plain_collector_next_to_the_translator(self):
        runtime = _runtime(_check("de_a", 1))
        translator = _attach(runtime, BOUND)
        seen = []
        point = _REGISTRY.require(CHECK)
        point.attach(seen.append)
        point.attach(translator)
        de_bound(lambda: (de_check(1), de_check(2), tesla_site("de_a")))
        # The collector has no entry: it gets every raw event, both kinds.
        assert [(e.kind, e.args, e.retval) for e in seen] == [
            (EventKind.CALL, (1,), None),
            (EventKind.RETURN, (1,), 0),
            (EventKind.CALL, (2,), None),
            (EventKind.RETURN, (2,), 0),
        ]
        assert (translator.forwarded, translator.dropped) == (4, 1)
        assert runtime.class_runtime("de_a").accepts == 1


class TestObservability:
    def test_stats_and_report_count_entries(self):
        runtime = _runtime(_check("de_a", ANY("x")))
        _attach(runtime)
        de_bound(lambda: de_check(1))
        de_bound(lambda: de_check(1))
        stats = dispatch_stats(runtime)
        # One entry per key the translator saw: bound call, check
        # return, bound return.
        assert (stats.entries_built, stats.entries_resident) == (3, 3)
        report = codegen_report(runtime)
        assert report["entries"] == {"built": 3, "resident": 3}
        runtime.handle_event(RuntimeEvent(EventKind.CALL, "de_unrelated"))
        assert dispatch_stats(runtime).entries_resident == 4
