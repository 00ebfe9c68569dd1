"""Unit tests for the TeslaRuntime dispatch manager."""

import threading

import pytest

from repro.core.ast import Context
from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    tesla_global,
    tesla_within,
    returnfrom,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.errors import ContextError, TemporalAssertionError
from repro.runtime.manager import BoundTracker, TeslaRuntime
from repro.runtime.notify import CollectingHandler, LogAndContinue, NotificationKind


def mac_assertion(name, bound="syscall"):
    return tesla_within(
        bound, previously(fn("check", ANY("c"), var("vp")) == 0), name=name
    )


ENTER = lambda: call_event("syscall", ())
EXIT = lambda: return_event("syscall", (), 0)
CHECK = lambda vp: return_event("check", ("cred", vp), 0)


class TestInstallation:
    def test_install_assertions_returns_automata(self, runtime):
        automata = runtime.install_assertions([mac_assertion("m1")])
        assert automata[0].name == "m1"

    def test_duplicate_install_rejected(self, runtime):
        runtime.install_assertion(mac_assertion("m2"))
        with pytest.raises(ContextError):
            runtime.install_assertion(mac_assertion("m2"))

    def test_observes_reports_dispatch_keys(self, runtime):
        from repro.core.events import EventKind

        runtime.install_assertion(mac_assertion("m3"))
        assert runtime.observes((EventKind.CALL, "syscall"))
        assert runtime.observes((EventKind.RETURN, "check"))
        assert not runtime.observes((EventKind.CALL, "unrelated"))

    def test_deferred_key_sets_grow_by_one_derivation_per_install(
        self, monkeypatch
    ):
        """Installing Table-1 ``All`` derives each automaton's keys once,
        and the sync-point and thread-local sets equal a from-scratch
        recomputation over every installed automaton."""
        import repro.runtime.manager as manager
        from repro.core.events import EventKind
        from repro.kernel.assertions import assertion_sets

        derive = manager._dispatch_keys_of
        derived = []

        def counting(automaton):
            derived.append(automaton.name)
            return derive(automaton)

        monkeypatch.setattr(manager, "_dispatch_keys_of", counting)
        runtime = TeslaRuntime(lint="off")
        runtime.install_assertions(assertion_sets()["All"])
        assert sorted(derived) == sorted(runtime.automata)

        sync, local = set(), set()
        for name, automaton in runtime.automata.items():
            keys = derive(automaton)
            sync |= keys["init"] | keys["cleanup"]
            sync |= {k for k in keys["body"]
                     if k[0] is EventKind.ASSERTION_SITE}
            if automaton.strict:
                sync |= keys["body"]
            if runtime.contexts[name] is not Context.GLOBAL:
                local |= keys["init"] | keys["cleanup"] | keys["body"]
        assert runtime._sync_keys == sync
        assert runtime._local_keys == local
        assert local  # All has thread-local classes


class TestDispatchLifecycle:
    def _run_pass(self, runtime, name):
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))
        runtime.handle_event(assertion_site_event(name, {"vp": "vp1"}))
        runtime.handle_event(EXIT())

    def test_clean_pass_no_violation(self, runtime):
        runtime.install_assertion(mac_assertion("d1"))
        self._run_pass(runtime, "d1")
        cr = runtime.class_runtime("d1")
        assert cr.accepts == 1
        assert cr.errors == 0

    def test_missing_check_raises(self, runtime):
        runtime.install_assertion(mac_assertion("d2"))
        runtime.handle_event(ENTER())
        with pytest.raises(TemporalAssertionError):
            runtime.handle_event(assertion_site_event("d2", {"vp": "vpX"}))

    def test_wrong_value_raises(self, runtime):
        runtime.install_assertion(mac_assertion("d3"))
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))
        with pytest.raises(TemporalAssertionError):
            runtime.handle_event(assertion_site_event("d3", {"vp": "vp2"}))

    def test_consecutive_bounds_are_independent(self, runtime):
        runtime.install_assertion(mac_assertion("d4"))
        self._run_pass(runtime, "d4")
        # Second syscall: the first one's check must not satisfy it.
        runtime.handle_event(ENTER())
        with pytest.raises(TemporalAssertionError):
            runtime.handle_event(assertion_site_event("d4", {"vp": "vp1"}))

    def test_site_outside_bound_ignored(self, runtime):
        runtime.install_assertion(mac_assertion("d5"))
        collector = CollectingHandler()
        runtime.hub.add_handler(collector)
        runtime.handle_event(assertion_site_event("d5", {"vp": "vp1"}))
        assert not collector.of_kind(NotificationKind.ERROR)

    def test_events_processed_counter(self, runtime):
        runtime.install_assertion(mac_assertion("d6"))
        self._run_pass(runtime, "d6")
        assert runtime.events_processed == 4

    def test_reset_clears_everything(self, runtime):
        runtime.install_assertion(mac_assertion("d7"))
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))
        runtime.reset()
        assert runtime.events_processed == 0
        # After reset the bound is closed again: the site is ignored.
        runtime.handle_event(assertion_site_event("d7", {"vp": "vp1"}))
        assert runtime.class_runtime("d7").errors == 0


class TestLazyVsEager:
    @pytest.mark.parametrize("lazy", [True, False])
    def test_same_outcome_clean(self, lazy):
        runtime = TeslaRuntime(lazy=lazy)
        runtime.install_assertion(mac_assertion(f"le-{lazy}"))
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))
        runtime.handle_event(
            assertion_site_event(f"le-{lazy}", {"vp": "vp1"})
        )
        runtime.handle_event(EXIT())
        cr = runtime.class_runtime(f"le-{lazy}")
        assert cr.accepts == 1 and cr.errors == 0

    @pytest.mark.parametrize("lazy", [True, False])
    def test_same_outcome_violation(self, lazy):
        runtime = TeslaRuntime(lazy=lazy, policy=LogAndContinue())
        runtime.install_assertion(mac_assertion(f"lv-{lazy}"))
        runtime.handle_event(ENTER())
        runtime.handle_event(
            assertion_site_event(f"lv-{lazy}", {"vp": "vp1"})
        )
        runtime.handle_event(EXIT())
        assert runtime.class_runtime(f"lv-{lazy}").errors == 1

    def test_lazy_untouched_classes_skip_instance_work(self):
        runtime = TeslaRuntime(lazy=True)
        runtime.install_assertion(mac_assertion("lz1"))
        runtime.install_assertion(mac_assertion("lz2"))
        runtime.handle_event(ENTER())
        runtime.handle_event(EXIT())
        # Neither class received a relevant event: no instances were ever
        # materialised.
        assert len(runtime.class_runtime("lz1").pool) == 0
        assert runtime.class_runtime("lz1").pool.high_water == 0

    def test_eager_creates_instances_at_bound_entry(self):
        runtime = TeslaRuntime(lazy=False)
        runtime.install_assertion(mac_assertion("eg1"))
        runtime.handle_event(ENTER())
        assert len(runtime.class_runtime("eg1").pool) == 1
        runtime.handle_event(EXIT())
        assert len(runtime.class_runtime("eg1").pool) == 0


class TestBoundTracker:
    def test_begin_is_reentrant_safe(self):
        tracker = BoundTracker()
        bound = (("call", "f"), ("return", "f"))
        tracker.begin(bound)
        epoch = tracker.epoch[bound]
        tracker.begin(bound)  # nested: ignored
        assert tracker.epoch[bound] == epoch

    def test_end_returns_touched_set(self):
        tracker = BoundTracker()
        bound = (("call", "f"), ("return", "f"))
        tracker.begin(bound)
        tracker.touched[bound].add("a")
        assert tracker.end(bound) == {"a"}
        assert tracker.end(bound) == set()  # already closed


class TestContexts:
    def test_global_context_shares_across_threads(self):
        runtime = TeslaRuntime(policy=LogAndContinue())
        assertion = tesla_global(
            call("syscall"),
            returnfrom("syscall"),
            previously(fn("check", ANY("c"), var("vp")) == 0),
            name="g1",
        )
        runtime.install_assertion(assertion)
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))

        seen = {}

        def other_thread():
            # The check happened on the main thread; in the global context
            # the site on another thread still matches.
            runtime.handle_event(assertion_site_event("g1", {"vp": "vp1"}))
            seen["errors"] = runtime.class_runtime("g1").errors

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert seen["errors"] == 0

    def test_thread_context_isolates_threads(self):
        runtime = TeslaRuntime(policy=LogAndContinue())
        runtime.install_assertion(mac_assertion("t1"))
        runtime.handle_event(ENTER())
        runtime.handle_event(CHECK("vp1"))

        errors = {}

        def other_thread():
            # This thread never opened the bound: the site is ignored and
            # certainly not satisfied by the main thread's check.
            runtime.handle_event(ENTER())
            try:
                runtime.handle_event(
                    assertion_site_event("t1", {"vp": "vp1"})
                )
            finally:
                for cr in runtime.all_class_runtimes("t1"):
                    errors[threading.get_ident()] = errors.get(
                        threading.get_ident(), 0
                    ) + cr.errors

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        total_errors = sum(
            cr.errors for cr in runtime.all_class_runtimes("t1")
        )
        assert total_errors == 1
