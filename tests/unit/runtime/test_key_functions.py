"""Key functions: one generated dispatch function per (key, context)
(DESIGN §5.7).

A compiled runtime dispatches each key's share of a context through one
generated function that inlines the lazy bound record (begin, the join
fast path, end) and calls every class's generated step, each inside its
own containment boundary.  These tests pin what the fused form must keep
from the plan walk it replaces: per-class fault attribution, the
sampled-occurrence rule, and invalidation — a demotion, a quarantine or
another runtime's install each retire a stale key function.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_within,
)
from repro.core.events import (
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.introspect import codegen_report, dispatch_stats
from repro.runtime.clock import FakeClock
from repro.runtime.epoch import interest_epoch
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.supervisor import FailOpen, QuarantinePolicy

BOUND = "kf_bound"
CHECK = "kf_check"
KEY = (EventKind.RETURN, CHECK)


def _assertion(name, pattern, context="global"):
    expression = previously(fn(CHECK, pattern) == 0)
    if context == "global":
        return tesla_global(
            call(BOUND), returnfrom(BOUND), expression, name=name
        )
    return tesla_within(BOUND, expression, name=name)


class _Poison:
    """An argument whose comparison raises: matching it against a
    ``Const`` pattern faults inside the class's generated step."""

    def __eq__(self, other):
        raise RuntimeError("poisoned comparison")

    __hash__ = object.__hash__


def _fault_trace():
    return [
        call_event(BOUND, ()),
        return_event(CHECK, (_Poison(),), 0),
        return_event(CHECK, (7,), 0),
        assertion_site_event("kf_first", {}),
        assertion_site_event("kf_second", {}),
        return_event(BOUND, (), 0),
        call_event(BOUND, ()),
        return_event(CHECK, (_Poison(),), 0),
        assertion_site_event("kf_first", {}),
        assertion_site_event("kf_second", {}),
        return_event(BOUND, (), 0),
    ]


def _fault_runtime(compile, deferred=False, context="global"):
    runtime = TeslaRuntime(
        policy=LogAndContinue(), failure_policy=FailOpen(),
        compile=compile, deferred=deferred,
    )
    # Two classes share the check key; the first one's Const(7) pattern
    # is what compares against the poisoned argument.
    runtime.install_assertions([
        _assertion("kf_first", 7, context),
        _assertion("kf_second", ANY("x"), context),
    ])
    return runtime


def _run(runtime, events, mode):
    if mode == "batch":
        runtime.dispatch_batch(events)
    else:
        for event in events:
            runtime.handle_event(event)
    runtime.flush_deferred()


def _observed(runtime):
    verdicts = {
        name: tuple(
            sum(getattr(cr, field) for cr in runtime.all_class_runtimes(name))
            for field in ("accepts", "errors", "sites_reached")
        )
        for name in ("kf_first", "kf_second")
    }
    violations = [
        (v.automaton, v.reason) for v in runtime.hub.policy.violations
    ]
    faults = [
        (f.automaton, f.stage, f.error_type)
        for f in runtime.supervisor.last_faults
    ]
    return verdicts, violations, faults


class TestPerClassFaultAttribution:
    @pytest.mark.parametrize("context", ["global", "perthread"])
    @pytest.mark.parametrize("mode", ["sync", "batch", "deferred"])
    def test_generated_step_fault_names_its_class(self, mode, context):
        deferred = "manual" if mode == "deferred" else False
        events = _fault_trace()
        reference = _fault_runtime(False, deferred, context)
        _run(reference, events, mode)
        compiled = _fault_runtime(True, deferred, context)
        _run(compiled, events, mode)

        assert _observed(compiled) == _observed(reference)
        verdicts, _, faults = _observed(compiled)
        assert faults == [("kf_first", "body", "RuntimeError")] * 2
        # The second class shares the key but never compares the argument:
        # its verdicts are those of a fault-free run.
        assert verdicts["kf_second"] == (2, 0, 2)
        # And the fault really was raised by a generated step under the
        # key function, not by a plan walk.
        second = compiled.all_class_runtimes("kf_second")
        assert sum(cr.gen_hits for cr in second) > 0
        assert compiled.key_fns_built > 0
        assert compiled.fallback_key_events == 0


class TestSampledOccurrenceIsNotTouched:
    @pytest.mark.parametrize("compile", [True, False],
                             ids=["compiled", "interpreted"])
    def test_later_event_of_skipped_occurrence(self, compile):
        runtime = TeslaRuntime(
            policy=LogAndContinue(), compile=compile,
            overhead_budget=0.05, clock=FakeClock(),
        )
        runtime.install_assertion(_assertion("kf_sampled", ANY("x")))
        runtime.governor.escalate_class("kf_sampled", 1)  # admit 1 in 2
        bound = runtime.bounds["kf_sampled"]
        tracker = runtime.global_store.tracker
        # Occurrence 0 is admitted and touched.
        runtime.handle_event(call_event(BOUND, ()))
        runtime.handle_event(return_event(CHECK, (1,), 0))
        assert tracker.touched[bound] == {"kf_sampled"}
        runtime.handle_event(return_event(BOUND, (), 0))
        # Occurrence 1 is skipped: no event inside it touches the class,
        # so cleanup neither visits nor charges it.
        runtime.handle_event(call_event(BOUND, ()))
        runtime.handle_event(return_event(CHECK, (1,), 0))
        runtime.handle_event(return_event(CHECK, (2,), 0))
        assert tracker.touched[bound] == set()
        assert not runtime.class_runtime("kf_sampled").active
        runtime.handle_event(return_event(BOUND, (), 0))
        led = runtime.governor._ledger["kf_sampled"]
        assert (led.admitted, led.skipped) == (1, 1)


class _TickClock:
    """Each reading is one second after the previous one, so every charged
    unit of work measures exactly one second."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 1.0
        return self.t


class TestGovernorCharging:
    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
    def test_charges_match_the_plan_walk(self, lazy):
        """The generated charging code charges each class the units the
        plan walk charges it (budget 1.0 observes and never sheds)."""

        def ledger(compile):
            runtime = TeslaRuntime(
                lazy=lazy, policy=LogAndContinue(), compile=compile,
                overhead_budget=1.0, clock=_TickClock(),
            )
            runtime.install_assertions([
                _assertion("kf_a", ANY("x")),
                _assertion("kf_b", 7),
            ])
            for value in (7, 8, 7):
                runtime.handle_event(call_event(BOUND, ()))
                runtime.handle_event(return_event(CHECK, (value,), 0))
                runtime.handle_event(assertion_site_event("kf_b", {}))
                runtime.handle_event(return_event(BOUND, (), 0))
            return {
                name: (led.total_seconds, led.total_events)
                for name, led in runtime.governor._ledger.items()
            }

        compiled = ledger(True)
        assert compiled == ledger(False)
        assert set(compiled) == {"kf_a", "kf_b"}


class TestEagerGovernedSampling:
    def test_admission_matches_the_plan_walk(self):
        """Eager mode admits sampled occurrences at ``handle_init``: the
        key function's generated admission must take the plan walk's
        decisions and produce its verdicts."""

        def run(compile):
            runtime = TeslaRuntime(
                lazy=False, policy=LogAndContinue(), compile=compile,
                overhead_budget=0.05, clock=FakeClock(),
            )
            runtime.install_assertion(_assertion("kf_eager", 7))
            runtime.governor.escalate_class("kf_eager", 1)  # admit 1 in 2
            for value in (7, 8, 7, 8, 8):
                runtime.handle_event(call_event(BOUND, ()))
                runtime.handle_event(return_event(CHECK, (value,), 0))
                runtime.handle_event(assertion_site_event("kf_eager", {}))
                runtime.handle_event(return_event(BOUND, (), 0))
            led = runtime.governor._ledger["kf_eager"]
            cr = runtime.class_runtime("kf_eager")
            return (
                (cr.accepts, cr.errors, cr.sites_reached),
                [(v.reason, v.sampling_rate)
                 for v in runtime.hub.policy.violations],
                (led.admitted, led.skipped),
            )

        compiled = run(True)
        assert compiled == run(False)
        assert compiled[2] == (3, 2)


def _simple_runtime(**kwargs):
    runtime = TeslaRuntime(policy=LogAndContinue(), **kwargs)
    runtime.install_assertions([
        _assertion("kf_a", ANY("x")),
        _assertion("kf_b", ANY("x")),
    ])
    return runtime


def _occurrence(runtime):
    runtime.handle_event(call_event(BOUND, ()))
    runtime.handle_event(return_event(CHECK, (1,), 0))
    runtime.handle_event(return_event(BOUND, (), 0))


def _spy_on_key_function(runtime):
    """Replace the check key's built function with a recorder so a test
    can tell whether that stale function is ever called again."""
    work = runtime._plan_for(KEY).glob
    assert work.fn is not None and work.fallback is None
    calls = []
    real = work.fn

    def spy(store, event):
        calls.append(event)
        real(store, event)

    work.fn = spy
    return calls


class TestInvalidation:
    def test_governor_demotion_retires_the_key_function(self):
        runtime = _simple_runtime(overhead_budget=0.05, clock=FakeClock())
        _occurrence(runtime)
        calls = _spy_on_key_function(runtime)
        epoch = interest_epoch.value
        levels = len(runtime.governor.sample_rates) + 1
        runtime.governor.escalate_class("kf_a", levels)
        assert runtime.governor.demoted == {"kf_a"}
        # Demotion keeps hooks attached: no interest-epoch bump.
        assert interest_epoch.value == epoch
        hits = runtime.class_runtime("kf_a").gen_hits
        _occurrence(runtime)
        assert calls == []
        assert runtime.class_runtime("kf_a").gen_hits == hits
        assert runtime.class_runtime("kf_b").gen_hits > hits

    def test_quarantine_retires_the_key_function(self):
        runtime = TeslaRuntime(
            policy=LogAndContinue(),
            failure_policy=QuarantinePolicy(
                threshold=2, window=100, cooldown=1000, probation_ticks=5,
                max_trips=3,
            ),
        )
        runtime.install_assertions([
            _assertion("kf_first", 7),
            _assertion("kf_second", ANY("x")),
        ])
        _occurrence(runtime)
        calls = _spy_on_key_function(runtime)
        runtime.handle_event(call_event(BOUND, ()))
        runtime.handle_event(return_event(CHECK, (_Poison(),), 0))
        runtime.handle_event(return_event(CHECK, (_Poison(),), 0))
        assert runtime.supervisor.is_shed("kf_first")
        assert len(calls) == 2
        hits = runtime.class_runtime("kf_first").gen_hits
        runtime.handle_event(return_event(CHECK, (_Poison(),), 0))
        assert len(calls) == 2
        assert runtime.class_runtime("kf_first").gen_hits == hits
        assert runtime.supervisor.fault_counts == {"kf_first": 2}

    def test_foreign_install_retires_the_key_function(self):
        runtime = _simple_runtime()
        _occurrence(runtime)
        calls = _spy_on_key_function(runtime)
        built = runtime.key_fns_built
        other = TeslaRuntime(policy=LogAndContinue())
        other.install_assertion(_assertion("kf_foreign", ANY("x")))
        _occurrence(runtime)
        assert calls == []
        assert runtime.key_fns_built > built
        assert runtime._plan_for(KEY).epoch == interest_epoch.value
        # The steps the new key function binds were regenerated for the
        # new epoch, as the per-class cache has always done.
        assert runtime.class_runtime("kf_a").gen_invalidations == 1


class TestCodeCache:
    def test_fresh_runtimes_share_each_key_functions_code(self):
        keys = ((EventKind.CALL, BOUND), KEY, (EventKind.RETURN, BOUND))

        def built_functions():
            runtime = _simple_runtime()
            _occurrence(runtime)
            return [runtime._plan_for(key).glob.fn for key in keys]

        for key, a, b in zip(keys, built_functions(), built_functions()):
            assert a.__code__ is b.__code__, key
            # Shared code, separate namespaces: each binds its own steps.
            assert a.__globals__ is not b.__globals__, key


class TestObservability:
    def test_stats_and_report_name_key_functions(self):
        runtime = _simple_runtime()
        _occurrence(runtime)
        stats = dispatch_stats(runtime)
        assert stats.key_fns_built == 3  # init, check and cleanup keys
        assert stats.key_fns_resident == 3
        assert stats.fallback_keys == 0
        # One hit per class per event its generated step ran.
        assert (stats.gen_hits, stats.gen_misses) == (2, 2)
        _occurrence(runtime)
        assert dispatch_stats(runtime).gen_hits == 4
        report = codegen_report(runtime)
        assert report["key_functions"]["built"] == 3
        assert "return:kf_check@global" in report["key_functions"]["resident"]
        assert report["fallback_keys"] == {}

    def test_fallback_key_is_reported_and_walked(self):
        from repro.core.dsl import deadline

        runtime = TeslaRuntime(policy=LogAndContinue(), clock=FakeClock())
        runtime.install_assertions([
            _assertion("kf_plain", ANY("x")),
            tesla_global(
                call(BOUND), returnfrom(BOUND),
                previously(deadline(5000, fn(CHECK, ANY("x")) == 0)),
                name="kf_timed",
            ),
        ])
        _occurrence(runtime)
        _occurrence(runtime)
        report = codegen_report(runtime)
        assert report["fallback_keys"] == {
            "return:kf_check@global": (
                "kf_timed: timed-automaton:clock-guards"
            ),
        }
        # The key falls back as a whole: even the plain class rides the
        # plan walk, counted per event and per class.
        assert runtime.class_runtime("kf_plain").gen_hits == 0
        assert runtime.class_runtime("kf_plain").gen_fallback_hits == 2
        assert runtime.fallback_key_events == 2
        assert dispatch_stats(runtime).fallback_keys == 1
