"""The generated bound lifecycle (DESIGN §5.7): tesla-jit's lazy join,
wildcard materialisation and per-class cleanup against the reference
helpers.

An ungoverned lazy compiled runtime joins a bound inline in its key
functions, materialises the pending wildcard inline in its steps and
closes each class through a generated cleanup, counting transitions by
index.  ``lazy_join_bound``, ``_materialise`` and ``handle_cleanup``
stay the reference semantics, and several paths keep calling them:
overflow, armed fault injection, ``hub.detailed``, deadline classes and
the governed join.  The differential tests run one trace through a
compiled runtime and through ``compile=False`` and require the same
verdicts, violation order, transition counts, pool statistics,
notification stream, weights and coverage, so a generated shortcut that
drifts from its helper shows up as a difference; the spy tests check
that each fallback condition still reaches its helper.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dsl import (
    ANY,
    call,
    deadline,
    eventually,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_perthread,
    var,
)
from repro.core.events import (
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.introspect import coverage_report, weighted_graph
from repro.runtime import faultinject
from repro.runtime.clock import FakeClock
from repro.runtime.faultinject import FaultInjector
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import CollectingHandler, LogAndContinue
from repro.runtime.supervisor import FailOpen

N_BOUNDS = 2
N_VALUES = 3
DEADLINE_CLASS = "lc_deadline"
#: Fault sites both the interpreter and the compiled plan walk visit in
#: the same order (``store.plan_for`` is the compiled walk's alone).
SHARED_FAULT_SITES = (
    "update.init", "update.step", "update.cleanup", "prealloc.insert",
)


def class_name(index: int) -> str:
    return f"lc_cls{index}"


def _assertion(index: int, bound: int, context: str, flavour: str):
    """One class: ``previously`` or ``eventually`` over a var-binding
    check, closed by a bound whose cleanup symbol is unconstrained, or
    constrained (an arity pattern: the cleanup match cannot be folded)."""
    check = fn(f"lc_check{index}", ANY("c"), var("v")) == 0
    expression = (eventually if flavour == "eventually" else previously)(
        check
    )
    exit = (
        returnfrom(fn(f"lc_bound{bound}", ANY("x")))
        if flavour == "constrained"
        else returnfrom(f"lc_bound{bound}")
    )
    make = tesla_global if context == "global" else tesla_perthread
    return make(call(f"lc_bound{bound}"), exit, expression,
                name=class_name(index))


def _deadline_assertion():
    return tesla_global(
        call("lc_bound0"), returnfrom("lc_bound0"),
        eventually(deadline(5, call("lc_done"))), name=DEADLINE_CLASS,
    )


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    specs = tuple(
        (
            draw(st.integers(0, N_BOUNDS - 1)),
            draw(st.sampled_from(["global", "perthread"])),
            draw(st.sampled_from(["previously", "eventually", "constrained"])),
        )
        for _ in range(n)
    )
    op = st.one_of(
        st.tuples(st.just("init"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(st.just("cleanup"), st.integers(0, N_BOUNDS - 1),
                  st.integers(0, 1)),
        st.tuples(st.just("check"), st.integers(0, n - 1),
                  st.integers(0, N_VALUES - 1)),
        st.tuples(st.just("site"), st.integers(0, n - 1),
                  st.integers(0, N_VALUES - 1)),
        st.tuples(st.just("done")),
        st.tuples(st.just("deadline-site")),
        st.tuples(st.just("tick"), st.integers(1, 4)),
    )
    ops = draw(st.lists(op, min_size=4, max_size=40))
    # The helper paths (detailed hub, governed sampling, armed faults) are
    # each drawn in a quarter of the examples, so the generated path stays
    # the common case.
    def rarely(strategy, otherwise):
        return draw(strategy) if draw(st.integers(0, 3)) == 0 else otherwise

    knobs = {
        "capacity": draw(st.sampled_from([1, 2, 128])),
        "detailed": rarely(st.just(True), False),
        "deadline": draw(st.booleans()),
        "sampled": rarely(
            st.frozensets(st.integers(0, n - 1), min_size=1), frozenset()
        ),
        "faults": rarely(
            st.tuples(
                st.integers(0, len(ops)), st.integers(0, len(ops)),
                st.frozensets(st.sampled_from(SHARED_FAULT_SITES),
                              min_size=1),
                st.integers(1, 3),
            ),
            None,
        ),
    }
    return specs, ops, knobs


def _knobs(**changes):
    knobs = {"capacity": 128, "detailed": False, "deadline": False,
             "sampled": frozenset(), "faults": None}
    knobs.update(changes)
    return knobs


def _event(op) -> RuntimeEvent:
    kind = op[0]
    if kind == "init":
        return call_event(f"lc_bound{op[1]}", ())
    if kind == "cleanup":
        return return_event(f"lc_bound{op[1]}", ("x",) * op[2], 0)
    if kind == "check":
        return return_event(f"lc_check{op[1]}", ("c", f"val{op[2]}"), 0)
    if kind == "site":
        return assertion_site_event(class_name(op[1]), {"v": f"val{op[2]}"})
    if kind == "done":
        return call_event("lc_done", ())
    return assertion_site_event(DEADLINE_CLASS, {})


def _run(specs, ops, knobs, compile: bool):
    """Build one runtime for the scenario, run the trace (closing every
    bound at the end) and return it with its notification stream."""
    clock = FakeClock()
    governed = bool(knobs["sampled"])
    runtime = TeslaRuntime(
        compile=compile, capacity=knobs["capacity"], policy=LogAndContinue(),
        failure_policy=FailOpen(), clock=clock,
        overhead_budget=0.05 if governed else None,
    )
    assertions = [
        _assertion(index, bound, context, flavour)
        for index, (bound, context, flavour) in enumerate(specs)
    ]
    if knobs["deadline"]:
        assertions.append(_deadline_assertion())
    runtime.install_assertions(assertions)
    for index in sorted(knobs["sampled"]):
        runtime.governor.escalate_class(class_name(index), 1)
    if knobs["detailed"]:
        runtime.hub.add_handler(CollectingHandler())
    stream: List[Tuple] = []
    emit = runtime.hub.emit

    def recording_emit(notification):
        violation = notification.violation
        stream.append((
            notification.kind.value, notification.automaton,
            notification.instance_name, notification.binding,
            notification.states,
            None if notification.event is None else notification.event.name,
            None if violation is None else (violation.reason,
                                            violation.sampling_rate),
        ))
        emit(notification)

    runtime.hub.emit = recording_emit
    injector = None
    if knobs["faults"] is not None:
        # Armed for the ops in [start, stop): the compiled runtime walks
        # its plans there and must hand state back to generated code.
        start, stop, sites, most = knobs["faults"]
        injector = FaultInjector(seed=0, rate=1.0, only=sites,
                                 max_faults=most)
    closing = [("cleanup", bound, 1) for bound in range(N_BOUNDS)]
    try:
        for position, op in enumerate(ops + closing):
            if injector is not None:
                if position == start:
                    faultinject.arm(injector)
                if position == stop:
                    faultinject.disarm()
            if op[0] == "tick":
                clock.advance(op[1] / 1000.0)
                continue
            if op[0] in ("done", "deadline-site") and not knobs["deadline"]:
                continue
            runtime.handle_event(_event(op))
    finally:
        faultinject.disarm()
    return runtime, stream


def _names(specs, knobs):
    names = [class_name(index) for index in range(len(specs))]
    if knobs["deadline"]:
        names.append(DEADLINE_CLASS)
    return names


def observe(runtime, stream, names):
    per_class = {}
    for name in names:
        runtimes = runtime.all_class_runtimes(name)
        counts = {}
        for cr in runtimes:
            for transition, n in cr.transition_counts.items():
                counts[transition] = counts.get(transition, 0) + n
        per_class[name] = (
            tuple(
                sum(getattr(cr, field) for cr in runtimes)
                for field in ("accepts", "errors", "sites_reached")
            ),
            counts,
            [cr.pool.stats() for cr in runtimes],
            [
                (edge.src, edge.dst, edge.kind, edge.weight)
                for edge in weighted_graph(runtime, name).edges
            ],
        )
    violations = [
        (v.automaton, v.reason, v.binding, v.sampling_rate)
        for v in runtime.hub.policy.violations
    ]
    coverage = [
        (c.name, c.bound_opened, c.sites_reached, c.accepts, c.errors)
        for c in coverage_report(runtime).assertions
    ]
    return per_class, violations, coverage, stream


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
# A cleanup event its constrained symbol does not match closes the bound
# without counting the cleanup transition.
@example((
    ((0, "global", "constrained"),),
    [("init", 0), ("check", 0, 0), ("cleanup", 0, 0)],
    _knobs(),
))
# Each occurrence reports its own overflow once, and an overflow in one
# occurrence must not excuse a site miss in a later one.
@example((
    ((0, "perthread", "previously"),),
    [("init", 0), ("check", 0, 0), ("cleanup", 0, 1), ("init", 0),
     ("check", 0, 1), ("cleanup", 0, 1), ("init", 0), ("site", 0, 2)],
    _knobs(capacity=1),
))
# A contained cleanup fault leaves the class's instances in its pool; the
# next occurrence's join must drop them.
@example((
    ((0, "global", "previously"),),
    [("init", 0), ("check", 0, 0), ("cleanup", 0, 1), ("init", 0),
     ("check", 0, 1), ("site", 0, 0)],
    _knobs(faults=(2, 3, frozenset({"update.cleanup"}), 1)),
))
def test_compiled_lifecycle_matches_the_interpreter(scenario):
    specs, ops, knobs = scenario
    names = _names(specs, knobs)
    compiled = observe(*_run(specs, ops, knobs, compile=True), names)
    reference = observe(*_run(specs, ops, knobs, compile=False), names)
    assert compiled == reference


@pytest.mark.parametrize("context", ["global", "perthread"])
def test_class_shed_inside_its_bound_still_closes(context):
    """Cleanup visits every touched class, including one shed after it
    joined: its instances are finalised, not left for the next bound."""
    observed = []
    for compile in (True, False):
        runtime = TeslaRuntime(policy=LogAndContinue(), compile=compile)
        runtime.install_assertions([
            _assertion(0, 0, context, "eventually"),
            _assertion(1, 0, context, "previously"),
        ])
        runtime.handle_event(call_event("lc_bound0", ()))
        for index in (0, 1):
            runtime.handle_event(
                assertion_site_event(class_name(index), {"v": "val0"})
            )
        runtime.supervisor.governor_shed(class_name(0))
        runtime.handle_event(return_event("lc_bound0", (), 0))
        shed = runtime.class_runtime(class_name(0))
        assert not shed.active and len(shed.pool) == 0
        observed.append(
            observe(runtime, [], [class_name(0), class_name(1)])
        )
    assert observed[0] == observed[1]


def _bound_cycle(runtime, value="val0", close_args=()):
    runtime.handle_event(call_event("lc_bound0", ()))
    runtime.handle_event(return_event("lc_check0", ("c", value), 0))
    runtime.handle_event(assertion_site_event(class_name(0), {"v": value}))
    runtime.handle_event(return_event("lc_bound0", close_args, 0))


class TestGeneratedPathIsTaken:
    """The ungoverned lazy compiled runtime reaches none of the helpers on
    a plain trace; each fallback condition reaches its helper."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.runtime.codegen as codegen
        import repro.runtime.manager as manager

        seen = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(manager, "lazy_join_bound")
        spy(manager, "handle_cleanup")
        spy(codegen, "_materialise")
        return seen

    def _runtime(self, flavour="previously", **knobs):
        runtime = TeslaRuntime(policy=LogAndContinue(), **knobs)
        runtime.install_assertion(_assertion(0, 0, "global", flavour))
        return runtime

    @pytest.mark.parametrize("flavour", ["previously", "constrained"])
    def test_plain_trace_calls_no_helper(self, calls, flavour):
        runtime = self._runtime(flavour)
        for _ in range(3):
            _bound_cycle(runtime, close_args=("x",))
        cr = runtime.class_runtime(class_name(0))
        assert (cr.accepts, cr.errors) == (3, 0)
        assert calls == []

    def test_detailed_hub_cleans_up_through_the_helper(self, calls):
        runtime = self._runtime()
        runtime.hub.add_handler(CollectingHandler())
        _bound_cycle(runtime)
        assert calls == ["handle_cleanup"]

    def test_full_pool_materialises_through_the_helper(self, calls):
        runtime = self._runtime(capacity=1)
        runtime.handle_event(call_event("lc_bound0", ()))
        runtime.handle_event(return_event("lc_check0", ("c", "val0"), 0))
        cr = runtime.class_runtime(class_name(0))
        # The wildcard filled the pool, so the val0 clone overflowed.  A
        # join always empties the pool first; only a pending wildcard
        # meeting a full pool (forced here) takes the helper.
        assert cr.pool.stats()["overflows"] == 1
        cr.pending = True
        runtime.handle_event(return_event("lc_check0", ("c", "val1"), 0))
        assert calls == ["_materialise"]

    def test_governed_runtime_joins_through_the_helper(self, calls):
        runtime = self._runtime(overhead_budget=0.05, clock=FakeClock())
        _bound_cycle(runtime)
        assert calls == ["lazy_join_bound"]

    def test_deadline_class_cleans_up_through_the_helper(self, calls):
        runtime = TeslaRuntime(policy=LogAndContinue(), clock=FakeClock())
        runtime.install_assertion(_deadline_assertion())
        runtime.handle_event(call_event("lc_bound0", ()))
        runtime.handle_event(assertion_site_event(DEADLINE_CLASS, {}))
        runtime.handle_event(return_event("lc_bound0", (), 0))
        assert "handle_cleanup" in calls


class TestTransitionCounts:
    def _run_cycles(self, compile):
        runtime = TeslaRuntime(policy=LogAndContinue(), compile=compile)
        runtime.install_assertion(_assertion(0, 0, "global", "eventually"))
        # One occurrence discharges its obligation, one does not.
        for discharge in (True, False):
            runtime.handle_event(call_event("lc_bound0", ()))
            runtime.handle_event(
                assertion_site_event(class_name(0), {"v": "val0"})
            )
            if discharge:
                runtime.handle_event(
                    return_event("lc_check0", ("c", "val0"), 0)
                )
            runtime.handle_event(return_event("lc_bound0", (), 0))
        return runtime

    @pytest.mark.parametrize("compile", [True, False])
    def test_view_is_read_only_and_counts_by_position(self, compile):
        runtime = self._run_cycles(compile)
        cr = runtime.class_runtime(class_name(0))
        automaton = cr.automaton
        view = cr.transition_counts
        assert dict(view) == {
            automaton.transitions[i]: n
            for i, n in enumerate(cr.counts) if n
        }
        init = automaton.init_transitions[0]
        assert view[init] == 2
        with pytest.raises(TypeError):
            view[init] = 0  # type: ignore[index]

    def test_weights_and_coverage_match_the_interpreter(self):
        reports = []
        for compile in (True, False):
            runtime = self._run_cycles(compile)
            graph = weighted_graph(runtime, class_name(0))
            report = coverage_report(runtime)
            reports.append((
                sorted((e.src, e.dst, e.kind, e.weight) for e in graph.edges),
                [(c.bound_opened, c.accepts, c.errors, c.sites_reached)
                 for c in report.assertions],
            ))
        assert reports[0] == reports[1]
        weights, coverage = reports[0]
        assert coverage == [(2, 1, 1, 2)]
        assert sum(w for *_, w in weights) > 0
