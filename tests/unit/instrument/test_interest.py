"""Unit tests for interest filtering: hook short-circuits, per-kind
skips, epoch bumps on attach/detach, and interposition-table cache
invalidation."""

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import EventKind
from repro.gui.runtime import NSObject, msg_send, selector
from repro.instrument.function import make_call_wrapper
from repro.instrument.hooks import HookRegistry, instrumentable
from repro.instrument.interpose import (
    interposition_table,
    tesla_method_hook,
    trivial_hook,
)
from repro.instrument.translator import EventTranslator
from repro.runtime.epoch import interest_epoch, interest_stats
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def _runtime_watching(check="interest_watched", name="interest_cls"):
    runtime = TeslaRuntime(policy=LogAndContinue())
    assertion = tesla_global(
        call("interest_bound"),
        returnfrom("interest_bound"),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )
    runtime.install_assertion(assertion)
    return runtime


class TestHookInterest:
    def test_uninterested_hook_short_circuits(self):
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_watched(c, v):
            return 0

        @instrumentable(registry=registry)
        def interest_unwatched():
            return 1

        runtime = _runtime_watching()
        translator = EventTranslator(runtime)
        registry.require("interest_watched").attach(translator)
        registry.require("interest_unwatched").attach(translator)

        interest_stats.reset()
        assert interest_unwatched() == 1
        assert interest_stats.hook_short_circuits == 1
        assert translator.forwarded == 0  # no event was even constructed

        assert interest_watched("c", "x") == 0
        assert interest_stats.hook_short_circuits == 1
        assert translator.forwarded > 0

        # The uninterested verdict is cached: repeat calls re-use it
        # without another refresh.
        refreshes = interest_stats.hook_refreshes
        interest_unwatched()
        interest_unwatched()
        assert interest_stats.hook_short_circuits == 3
        assert interest_stats.hook_refreshes == refreshes

    def test_interest_appears_after_install_and_refresh(self):
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_late(c, v):
            return 0

        runtime = TeslaRuntime(policy=LogAndContinue())
        translator = EventTranslator(runtime)
        registry.require("interest_late").attach(translator)

        interest_late("c", "x")
        assert translator.forwarded == 0  # nothing installed yet

        assertion = tesla_global(
            call("interest_bound"),
            returnfrom("interest_bound"),
            previously(fn("interest_late", ANY("c"), var("v")) == 0),
            name="interest_late_cls",
        )
        runtime.install_assertion(assertion)
        translator.refresh()
        interest_late("c", "x")
        assert translator.forwarded > 0

    def test_detach_invalidates_cached_interest(self):
        """Regression: a detached sink must stop receiving events even
        though other sinks keep the hook instrumented (the cached
        interested-sink list must not outlive the detach)."""
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_shared():
            return None

        seen_a, seen_b = [], []
        point = registry.require("interest_shared")
        point.attach(seen_a.append)
        point.attach(seen_b.append)
        interest_shared()  # populates the interest cache with both sinks
        assert len(seen_a) == 2 and len(seen_b) == 2

        point.detach(seen_b.append)
        interest_shared()
        assert len(seen_a) == 4
        assert len(seen_b) == 2  # no leak to the detached sink
        assert point.sinks is not None  # hook still instrumented for a

    def test_detach_all_and_attach_bump_epoch(self):
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_epochs():
            return None

        point = registry.require("interest_epochs")
        before = interest_epoch.value
        point.attach(lambda e: None)
        assert interest_epoch.value > before
        before = interest_epoch.value
        point.detach_all()
        assert interest_epoch.value > before


class TestInterposeInterest:
    def test_uninterested_tesla_hook_filtered_out(self):
        runtime = _runtime_watching(name="interpose_cls")
        translator = EventTranslator(runtime)
        hook = tesla_method_hook(translator)
        interposition_table.install("unobservedSelector", hook)

        interest_stats.reset()
        assert interposition_table.hooks_for("unobservedSelector") is None
        assert interest_stats.interpose_short_circuits == 1
        # Cached: a second lookup counts the short-circuit again but does
        # not recompute.
        assert interposition_table.hooks_for("unobservedSelector") is None
        assert interest_stats.interpose_short_circuits == 2
        assert interest_stats.interpose_refreshes == 1

    def test_interested_and_raw_hooks_pass_through(self):
        runtime = _runtime_watching(
            check="observedSelector", name="interpose_obs_cls"
        )
        translator = EventTranslator(runtime)
        hook = tesla_method_hook(translator)
        interposition_table.install("observedSelector", hook)
        interposition_table.install("anySelector", trivial_hook)
        assert interposition_table.hooks_for("observedSelector") == [hook]
        # Raw hooks carry no sink and are always interested.
        assert interposition_table.hooks_for("anySelector") == [trivial_hook]

    def test_remove_invalidates_cached_hooks(self):
        interposition_table.install("removedSelector", trivial_hook)
        assert interposition_table.hooks_for("removedSelector") == [
            trivial_hook
        ]
        interposition_table.remove("removedSelector", trivial_hook)
        # Without the epoch bump in remove() this would return the stale
        # cached list and keep firing the removed hook.
        assert interposition_table.hooks_for("removedSelector") is None

    def test_wildcard_install_invalidates_cache(self):
        assert interposition_table.hooks_for("wildSelector") is None
        interposition_table.install_wildcard(trivial_hook)
        assert interposition_table.hooks_for("wildSelector") == [trivial_hook]
        interposition_table.clear()
        assert interposition_table.hooks_for("wildSelector") is None


class _KindSink:
    """A recording sink that wants only the given event kinds."""

    def __init__(self, *kinds):
        self.kinds = kinds
        self.events = []

    def interested_in(self, keys):
        return any(kind in self.kinds for kind, _ in keys)

    def __call__(self, event):
        self.events.append(event)


class TestKindInterest:
    def test_return_only_hook_builds_no_call_event(self):
        """``_runtime_watching`` observes ``interest_watched`` only on
        return (``fn(...) == 0``), so its CALL event is never built."""
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_watched(c, v):
            return 0

        runtime = _runtime_watching(name="kind_ret_cls")
        translator = EventTranslator(runtime)
        registry.require("interest_watched").attach(translator)

        interest_stats.reset()
        interest_watched("c", "x")
        assert translator.forwarded == 1
        assert translator.dropped == 0  # the CALL never reached it
        assert interest_stats.hook_kind_skips == 1
        assert interest_stats.hook_short_circuits == 0

    def test_live_sinks_keep_their_meaning(self):
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def interest_mixed():
            return None

        point = registry.require("interest_mixed")
        calls = _KindSink(EventKind.CALL)
        neither = _KindSink()
        point.attach(calls)
        point.attach(neither)
        assert point.live_sinks() == [calls]

    def test_caller_wrapper_builds_no_return_when_only_call_observed(self):
        sink = _KindSink(EventKind.CALL)
        wrapper = make_call_wrapper(lambda x: x + 1, "kind_callee", [sink])
        interest_stats.reset()
        assert wrapper(1) == 2
        assert [e.kind for e in sink.events] == [EventKind.CALL]
        assert interest_stats.hook_kind_skips == 1

    def test_caller_wrapper_with_translator(self):
        runtime = TeslaRuntime(policy=LogAndContinue())
        runtime.install_assertion(
            tesla_global(
                call("kind_bound"),
                returnfrom("kind_bound"),
                previously(call("kind_caller_only")),
                name="kind_caller_cls",
            )
        )
        translator = EventTranslator(runtime)
        wrapper = make_call_wrapper(
            lambda: "ok", "kind_caller_only", [translator]
        )
        interest_stats.reset()
        assert wrapper() == "ok"
        assert translator.forwarded == 1
        assert translator.dropped == 0
        assert interest_stats.hook_kind_skips == 1

    def test_new_return_interest_delivers_after_epoch_bump(self):
        """Installing an automaton that newly observes a RETURN key starts
        delivering it once the translator refreshes (bumping the epoch);
        detaching the sink stops both kinds."""
        registry = HookRegistry()

        @instrumentable(registry=registry)
        def kind_late(c, v):
            return 0

        runtime = TeslaRuntime(policy=LogAndContinue())
        runtime.install_assertion(
            tesla_global(
                call("kind_bound"),
                returnfrom("kind_bound"),
                previously(call("kind_late")),
                name="kind_late_call_cls",
            )
        )
        translator = EventTranslator(runtime)
        point = registry.require("kind_late")
        point.attach(translator)
        kind_late("c", "x")
        assert (translator.forwarded, translator.dropped) == (1, 0)

        runtime.install_assertion(
            tesla_global(
                call("kind_bound"),
                returnfrom("kind_bound"),
                previously(fn("kind_late", ANY("c"), var("v")) == 0),
                name="kind_late_ret_cls",
            )
        )
        kind_late("c", "x")
        # Still cached: no epoch bump yet, so the return is not built.
        assert (translator.forwarded, translator.dropped) == (2, 0)
        before = interest_epoch.value
        translator.refresh()
        assert interest_epoch.value > before
        kind_late("c", "x")
        assert (translator.forwarded, translator.dropped) == (4, 0)

        point.detach(translator)
        kind_late("c", "x")
        assert (translator.forwarded, translator.dropped) == (4, 0)


class _Receiver(NSObject):
    @selector("kindPing:")
    def ping(self, value):
        return value * 2


class TestInterposePhases:
    def test_raw_hooks_see_both_phases_beside_filtered_tesla_hook(self):
        seen = []

        def recording_hook(phase, receiver, sel, args, result):
            seen.append((phase, result))

        sink = _KindSink(EventKind.RETURN)
        interposition_table.install("kindPing:", recording_hook)
        interposition_table.install("kindPing:", tesla_method_hook(sink))
        interposition_table.install_wildcard(trivial_hook)

        interest_stats.reset()
        assert msg_send(_Receiver(), "kindPing:", 21) == 42
        assert seen == [("send", None), ("return", 42)]
        assert [e.kind for e in sink.events] == [EventKind.RETURN]
        assert sink.events[0].retval == 42
        # One TESLA hook call skipped: its sink does not want the send.
        assert interest_stats.interpose_kind_skips == 1
        # The raw trivial hook runs in both phases; hooks_for still lists
        # every hook interested in either phase.
        send_hooks, return_hooks = interposition_table.phase_hooks(
            "kindPing:"
        )
        assert trivial_hook in send_hooks and trivial_hook in return_hooks
        assert recording_hook in send_hooks
        assert len(interposition_table.hooks_for("kindPing:")) == 3

    def test_uninterested_phases_resolve_to_fast_path(self):
        sink = _KindSink()
        interposition_table.install("kindPing:", tesla_method_hook(sink))
        assert interposition_table.phase_hooks("kindPing:") is None
        assert msg_send(_Receiver(), "kindPing:", 2) == 4
        assert sink.events == []


class TestTranslatorInterest:
    def test_interested_in_probes_chains(self):
        from repro.core.events import EventKind

        runtime = _runtime_watching(name="probe_cls")
        translator = EventTranslator(runtime)
        assert translator.interested_in(
            [(EventKind.RETURN, "interest_watched")]
        )
        assert translator.interested_in(
            [(EventKind.CALL, "interest_bound")]
        )
        assert not translator.interested_in(
            [(EventKind.CALL, "never_mentioned")]
        )
