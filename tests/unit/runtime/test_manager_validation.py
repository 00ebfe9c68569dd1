"""Unit tests for runtime installation validation and error branches."""

import io

import pytest

from repro.core.ast import Context
from repro.core.automaton import (
    Automaton,
    EventSymbol,
    Transition,
    TransitionKind,
)
from repro.core.ast import FunctionCall, FunctionReturn
from repro.core.dsl import call, caller_side, previously, tesla_within
from repro.errors import AssertionParseError, ContextError
from repro.runtime.config import RuntimeConfig
from repro.runtime.manager import TeslaRuntime


def hand_built_automaton(name, init_keys=1, cleanup_keys=1):
    """An automaton with a configurable number of init/cleanup symbols —
    something the translator never produces, but install must reject."""
    symbols = []
    transitions = []
    state = 1
    for index in range(init_keys):
        symbols.append(EventSymbol(FunctionCall(f"enter{index}", None)))
        transitions.append(Transition(0, 1, TransitionKind.INIT, len(symbols) - 1))
    symbols.append(EventSymbol(FunctionCall("body", None)))
    transitions.append(Transition(1, 2, TransitionKind.EVENT, len(symbols) - 1))
    for index in range(cleanup_keys):
        symbols.append(
            EventSymbol(FunctionReturn(f"exit{index}", None, None))
        )
        transitions.append(
            Transition(2, 3, TransitionKind.CLEANUP, len(symbols) - 1)
        )
    return Automaton(
        name=name,
        symbols=symbols,
        transitions=transitions,
        start=0,
        accept=3,
        n_states=4,
    )


class TestInstallValidation:
    def test_two_init_keys_rejected(self):
        runtime = TeslaRuntime()
        with pytest.raises(ContextError):
            runtime.install_automaton(
                hand_built_automaton("bad-init", init_keys=2), Context.THREAD
            )

    def test_two_cleanup_keys_rejected(self):
        runtime = TeslaRuntime()
        with pytest.raises(ContextError):
            runtime.install_automaton(
                hand_built_automaton("bad-cleanup", cleanup_keys=2),
                Context.THREAD,
            )

    def test_well_formed_hand_built_accepted(self):
        runtime = TeslaRuntime()
        runtime.install_automaton(hand_built_automaton("ok"), Context.THREAD)
        assert "ok" in runtime.automata

    def test_class_runtime_for_unknown_name(self):
        runtime = TeslaRuntime()
        runtime.install_assertion(
            tesla_within("m", previously(call("f")), name="known")
        )
        with pytest.raises(KeyError):
            runtime.bounds["unknown"]

    def test_all_class_runtimes_empty_before_any_thread_touches(self):
        runtime = TeslaRuntime()
        runtime.install_assertion(
            tesla_within("m", previously(call("f")), name="fresh")
        )
        # No events processed: no per-thread store has been created yet in
        # any worker thread; the installing thread's store may exist.
        assert len(runtime.all_class_runtimes("fresh")) <= 1


def _monitoring(**knobs):
    from repro.session import monitoring

    with monitoring(
        [tesla_within("m", previously(call("f")), name="knob-test")], **knobs
    ):
        pass  # pragma: no cover - construction must raise


def _replay(**knobs):
    from repro.replay import ReplayEngine

    ReplayEngine([], assertions=[]).run(config=knobs)


class TestNumericKnobValidation:
    """Invalid knobs fail loudly at construction, not as a confusing crash
    deep inside pool/ring construction (or silently) — and in one place:
    ``RuntimeConfig`` validates them, and every entry point forwards its
    knobs to it, so each raises the same error naming the knob."""

    # (kwargs, knob named in the error, error type).  ``shards=`` went
    # with the lock-striped global store, ``overflow_policy=`` with the
    # blocking overflow policy and ``codegen=`` when generated code became
    # every compiled runtime's evaluator: each keyword itself is refused,
    # even with its old default value.
    BAD_KNOBS = [
        (dict(capacity=0), "capacity", ValueError),
        (dict(capacity=-3), "capacity", ValueError),
        (dict(shards=0), "shards", TypeError),
        (dict(shards=-1), "shards", TypeError),
        (dict(ring_capacity=0), "ring_capacity", ValueError),
        (dict(ring_capacity=-8), "ring_capacity", ValueError),
        (dict(drain_interval=0.0), "drain_interval", ValueError),
        (dict(drain_interval=-0.5), "drain_interval", ValueError),
        (dict(overflow_policy="flush"), "overflow_policy", TypeError),
        (dict(overhead_budget=0.0), "overhead_budget", ValueError),
        (dict(overhead_budget=-0.1), "overhead_budget", ValueError),
        (dict(overhead_budget=1.5), "overhead_budget", ValueError),
        (dict(codegen=True), "codegen", TypeError),
        (dict(deferred="sometimes"), "deferred", ValueError),
        (dict(lint="strict"), "lint", ValueError),
        (dict(prove="always"), "prove", ValueError),
        # Cross-knob constraints: a journal records at the drain boundary,
        # and pre-stamped events need the clock that stamped them.
        (dict(journal=io.BytesIO()), "journal", ValueError),
        (dict(stamp_capture=False, clock=None), "stamp_capture", ValueError),
    ]

    @pytest.mark.parametrize(
        "kwargs, knob, error", BAD_KNOBS, ids=[k for _, k, _ in BAD_KNOBS]
    )
    def test_runtime_rejects(self, kwargs, knob, error):
        for construct in (RuntimeConfig, TeslaRuntime, _replay):
            with pytest.raises(error, match=knob):
                construct(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, knob, error", BAD_KNOBS, ids=[k for _, k, _ in BAD_KNOBS]
    )
    def test_monitoring_mirrors_rejection(self, kwargs, knob, error):
        with pytest.raises(error, match=knob):
            _monitoring(**kwargs)

    def test_clock_alone_is_legal(self):
        # clock= drives capture stamping and timer expiry even without
        # the governor, so it no longer requires overhead_budget=.
        from repro.runtime.clock import FakeClock

        clock = FakeClock()
        runtime = TeslaRuntime(clock=clock)
        assert runtime.clock is clock
        assert runtime.governor is None

    def test_unstamped_capture_requires_a_clock(self):
        # stamp_capture=False means events arrive pre-stamped by some
        # external clock; timer expiry would then be judged against an
        # unrelated monotonic epoch unless that clock is passed in.
        with pytest.raises(ValueError, match="clock"):
            TeslaRuntime(stamp_capture=False)

    def test_unstamped_capture_with_clock_accepted(self):
        from repro.runtime.clock import FakeClock

        runtime = TeslaRuntime(stamp_capture=False, clock=FakeClock())
        assert runtime.stamp_capture is False

    def test_valid_edge_values_accepted(self):
        runtime = TeslaRuntime(
            capacity=1,
            ring_capacity=1,
            drain_interval=1e-6,
            overhead_budget=1.0,
            deferred="manual",
        )
        assert runtime.governor is not None
        assert runtime.governor.budget == 1.0
        runtime.drain.stop()


class TestDslErrorBranches:
    def test_caller_side_rejects_non_events(self):
        with pytest.raises(AssertionParseError):
            caller_side(42)

    def test_var_pattern_in_atleast_is_fine(self):
        from repro.core.dsl import atleast, fn, var
        from repro.core.translate import translate

        assertion = tesla_within(
            "m",
            previously(atleast(1, fn("f", var("x")) == 0)),
            name="al-var",
        )
        automaton = translate(assertion)
        assert automaton.n_states >= 4
