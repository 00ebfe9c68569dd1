"""Unit tests for compiled transition plans and epoch invalidation."""

from repro.core.automaton import TransitionKind
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
from repro.core.translate import translate_all
from repro.runtime.epoch import interest_epoch
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.plans import build_transition_plan
from repro.runtime.store import ClassRuntime


def _automaton(name="plan_cls", check="plan_check", bound="plan_bound"):
    assertion = tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )
    return translate_all([assertion])[0], assertion.context


class TestPlanConstruction:
    def test_plans_split_by_dispatch_key(self):
        automaton, _ = _automaton()
        init_plan = build_transition_plan(
            automaton, (EventKind.CALL, "plan_bound")
        )
        assert init_plan.init and not init_plan.cleanup and not init_plan.body
        cleanup_plan = build_transition_plan(
            automaton, (EventKind.RETURN, "plan_bound")
        )
        assert cleanup_plan.cleanup and not cleanup_plan.init
        body_plan = build_transition_plan(
            automaton, (EventKind.RETURN, "plan_check")
        )
        assert body_plan.body and not body_plan.init and not body_plan.cleanup
        unrelated = build_transition_plan(
            automaton, (EventKind.CALL, "someone_else")
        )
        assert not (unrelated.init or unrelated.cleanup or unrelated.body)

    def test_site_transitions_keyed_by_automaton_name(self):
        automaton, _ = _automaton()
        site_plan = build_transition_plan(
            automaton, (EventKind.ASSERTION_SITE, automaton.name)
        )
        assert site_plan.body
        assert all(
            t.kind is TransitionKind.SITE for _, t, _ in site_plan.body
        )

    def test_plan_enabled_agrees_with_interpreter(self):
        automaton, _ = _automaton()

        def normalised(pairs):
            return sorted(
                (t.src, t.dst, t.kind.value, t.symbol,
                 tuple(sorted(new.items())))
                for t, new in pairs
            )

        plan = build_transition_plan(
            automaton, (EventKind.RETURN, "plan_check")
        )
        site_plan = build_transition_plan(
            automaton, (EventKind.ASSERTION_SITE, automaton.name)
        )
        event = return_event("plan_check", ("c", "val1"), 0)
        site = assertion_site_event(automaton.name, {"v": "val1"})
        all_states = frozenset(range(automaton.n_states))
        for states in [automaton.entry_states, all_states]:
            for binding in [{}, {"v": "val1"}, {"v": "other"}]:
                assert normalised(
                    plan.enabled(states, event, binding)
                ) == normalised(
                    automaton.enabled(states, event, binding)
                ), (states, binding)
                assert normalised(
                    site_plan.enabled(states, site, binding)
                ) == normalised(
                    automaton.enabled(states, site, binding)
                ), (states, binding)


class TestPlanCache:
    def test_hits_misses_and_epoch_invalidation(self):
        automaton, _ = _automaton(name="plan_cache_cls")
        cr = ClassRuntime(automaton)
        key = (EventKind.RETURN, "plan_check")
        epoch = interest_epoch.value
        first = cr.plan_for(key, epoch)
        assert (cr.plan_misses, cr.plan_hits) == (1, 0)
        assert cr.plan_for(key, epoch) is first
        assert (cr.plan_misses, cr.plan_hits) == (1, 1)
        assert cr.plan_cache_size == 1
        # A registration elsewhere bumps the epoch: stale plans are dropped
        # and rebuilt on next use.
        stale_epoch = interest_epoch.bump()
        rebuilt = cr.plan_for(key, stale_epoch)
        assert rebuilt is not first
        assert cr.plan_invalidations == 1
        assert (cr.plan_misses, cr.plan_hits) == (2, 1)

    def test_reset_keeps_plans_but_zeroes_counters(self):
        automaton, _ = _automaton(name="plan_reset_cls")
        cr = ClassRuntime(automaton)
        epoch = interest_epoch.value
        cr.plan_for((EventKind.RETURN, "plan_check"), epoch)
        cr.reset()
        assert cr.plan_cache_size == 1
        assert (cr.plan_hits, cr.plan_misses, cr.plan_invalidations) == (
            0, 0, 0,
        )


class TestMidTraceAttach:
    """Attaching a class mid-trace must invalidate cached plans and leave
    verdicts identical to the interpreted engine's."""

    def _run(self, compile):
        runtime = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=compile
        )
        auto_a, ctx_a = _automaton(
            name="attach_a", check="attach_check_a", bound="attach_bound"
        )
        auto_b, ctx_b = _automaton(
            name="attach_b", check="attach_check_b", bound="attach_bound"
        )
        runtime.install_automaton(auto_a, ctx_a)
        part1 = [
            call_event("attach_bound", ()),
            return_event("attach_check_a", ("c", "v1"), 0),
            assertion_site_event("attach_a", {"v": "v1"}),
        ]
        for event in part1:
            runtime.handle_event(event)
        runtime.install_automaton(auto_b, ctx_b)
        part2 = [
            return_event("attach_check_b", ("c", "v2"), 0),
            assertion_site_event("attach_b", {"v": "v2"}),
            assertion_site_event("attach_a", {"v": "missing"}),  # violation
            return_event("attach_bound", (), 0),
        ]
        for event in part2:
            runtime.handle_event(event)
        verdicts = {}
        for name in ("attach_a", "attach_b"):
            cr = runtime.class_runtime(name)
            verdicts[name] = (cr.accepts, cr.errors, cr.sites_reached)
        return runtime, verdicts

    def test_compiled_matches_interpreted_and_rebuilds_plans(self):
        compiled_runtime, compiled_verdicts = self._run(compile=True)
        _, interpreted_verdicts = self._run(compile=False)
        assert compiled_verdicts == interpreted_verdicts
        assert compiled_verdicts["attach_a"] == (1, 1, 1)
        assert compiled_verdicts["attach_b"] == (1, 0, 1)
        # Class A had plans cached before B's installation bumped the
        # epoch; its part-2 events must have rebuilt them.
        cr_a = compiled_runtime.class_runtime("attach_a")
        assert cr_a.plan_invalidations >= 1
        assert cr_a.plan_misses > cr_a.plan_invalidations

    def test_verdicts_match_a_fresh_runtime(self):
        # A's verdicts are unaffected by B arriving mid-trace: a fresh
        # compiled runtime that only ever knew A sees the same trace
        # (minus B's private events, which A does not observe).
        _, verdicts = self._run(compile=True)
        fresh = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=True
        )
        auto_a, ctx_a = _automaton(
            name="attach_a", check="attach_check_a", bound="attach_bound"
        )
        fresh.install_automaton(auto_a, ctx_a)
        for event in [
            call_event("attach_bound", ()),
            return_event("attach_check_a", ("c", "v1"), 0),
            assertion_site_event("attach_a", {"v": "v1"}),
            assertion_site_event("attach_a", {"v": "missing"}),
            return_event("attach_bound", (), 0),
        ]:
            fresh.handle_event(event)
        cr = fresh.class_runtime("attach_a")
        assert (cr.accepts, cr.errors, cr.sites_reached) == verdicts["attach_a"]
