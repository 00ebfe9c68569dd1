"""The runtime's tesla-prove install gate and its downstream handoffs.

``prove="prune"`` is the highest-stakes knob in the repo: a PROVED
verdict *deletes* instrumentation.  These tests pin the three guarantees
that make that deletion safe:

* only automaton-basis PROVED assertions are elided — everything else
  installs and monitors exactly as before;
* elision is complete — no automaton, no dispatch index entries, no hook
  sinks, zero events processed;
* the prove report rides the same introspection and codegen handoffs as
  lint (health section, occupancy-widened dead-transition elision).
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    optionally,
    previously,
    returned,
    tesla_within,
)
from repro.core.events import assertion_site_event, call_event, return_event
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def provable(name="pg_proved"):
    return tesla_within(
        "pg_bound", previously(optionally(call("pg_hooked"))), name=name
    )


def unprovable(name="pg_live"):
    return tesla_within(
        "pg_bound", previously(returned("pg_check", 0)), name=name
    )


class TestKnob:
    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="prove must be"):
            TeslaRuntime(prove="always")

    def test_off_is_free(self):
        rt = TeslaRuntime()
        rt.install_assertions([provable()])
        assert rt.prove_report is None
        assert not rt.prove_elided
        assert "pg_proved" in rt.automata

    def test_report_mode_installs_everything(self):
        rt = TeslaRuntime(prove="report")
        rt.install_assertions([provable(), unprovable()])
        assert set(rt.automata) == {"pg_proved", "pg_live"}
        assert not rt.prove_elided
        assert rt.prove_report.summary()["proved"] == 1

    def test_prune_mode_elides_only_proved(self):
        rt = TeslaRuntime(prove="prune")
        rt.install_assertions([provable(), unprovable()])
        assert set(rt.automata) == {"pg_live"}
        assert rt.prove_elided == {"pg_proved"}

    def test_prune_accumulates_across_batches(self):
        rt = TeslaRuntime(prove="prune")
        rt.install_assertions([provable("pg_a")])
        rt.install_assertions([provable("pg_b"), unprovable()])
        assert rt.prove_elided == {"pg_a", "pg_b"}
        assert rt.prove_report.assertions_checked == 3


class TestPruneSemantics:
    def test_unproved_assertion_still_catches_violations(self):
        """Pruning a PROVED neighbour must not blunt live monitoring."""
        rt = TeslaRuntime(prove="prune", policy=LogAndContinue())
        rt.install_assertions([provable(), unprovable()])
        rt.handle_event(call_event("pg_bound", ()))
        rt.handle_event(assertion_site_event("pg_live", {}))
        rt.handle_event(return_event("pg_bound", (), 0))
        errors = sum(
            cr.errors for cr in rt.all_class_runtimes("pg_live")
        )
        assert errors == 1

    def test_elided_class_has_no_dispatch_state(self):
        rt = TeslaRuntime(prove="prune", policy=LogAndContinue())
        rt.install_assertions([provable()])
        # Events for the elided class's bound and hooked function are
        # complete no-ops: no class runtime ever materialises.
        rt.handle_event(call_event("pg_bound", ()))
        rt.handle_event(call_event("pg_hooked", ()))
        rt.handle_event(return_event("pg_bound", (), 0))
        assert "pg_proved" not in rt.automata
        assert "pg_proved" not in rt.contexts
        assert "pg_proved" not in rt.bounds

    def test_instrumenter_skips_elided_hooks(self):
        from repro.instrument.module import Instrumenter
        from repro.kernel.assertions import assertion_sets

        infra = [
            a
            for a in assertion_sets()["All"]
            if a.name.startswith("T.infra")
        ]
        rt = TeslaRuntime(prove="prune", policy=LogAndContinue())
        session = Instrumenter(rt)
        session.instrument(infra)
        try:
            assert len(rt.prove_elided) == 11
            assert not session._attached_points
            assert not session._attached_sites
            from repro.kernel import KernelSystem

            kernel = KernelSystem()
            td = kernel.boot()
            kernel.syscall(td, "open", ("/etc/motd",))
            assert rt.events_processed == 0
        finally:
            session.uninstrument()

    def test_monitoring_passes_prove_through(self):
        from repro.kernel.assertions import assertion_sets
        from repro.session import monitoring

        infra = [
            a
            for a in assertion_sets()["All"]
            if a.name.startswith("T.infra")
        ]
        with monitoring(infra, prove="report") as rt:
            assert rt.config.prove == "report"
            assert rt.prove_report is not None
            assert len(rt.automata) == 11  # report mode installs all


class TestIntrospection:
    def test_health_report_grows_prove_section(self):
        from repro.introspect.health import format_health, health_report

        rt = TeslaRuntime(prove="prune", policy=LogAndContinue())
        rt.install_assertions([provable(), unprovable()])
        report = health_report(rt)
        assert report.prove is not None
        assert report.prove["proved"] == 1
        assert report.prove["elided"] == 1
        text = format_health(report)
        assert "prove: clean" in text and "elided=1" in text

    def test_health_without_prove_stays_none(self):
        from repro.introspect.health import health_report

        rt = TeslaRuntime()
        rt.install_assertions([unprovable()])
        assert health_report(rt).prove is None


class TestCodegenWidening:
    """Prove occupancy facts widen dead-transition elision past the
    lint-clean gate (DESIGN §5.10 handoff)."""

    def _automaton(self):
        from repro.core.translate import translate

        return translate(
            tesla_within(
                "pg_bound",
                previously(fn("pg_check", ANY("c")) == 0),
                name="pg_cg",
            )
        )

    def test_occupancy_lifts_clean_gate(self):
        from repro.core.events import EventKind
        from repro.runtime.codegen import (
            CodegenFacts,
            generate_source,
        )
        from repro.runtime.plans import build_transition_plan

        automaton = self._automaton()
        key = (EventKind.RETURN, "pg_check")
        plan = build_transition_plan(automaton, key)
        srcs = {src for src, _t, _m in plan.body}
        # Dirty lint facts alone elide nothing...
        dirty = generate_source(
            automaton, plan, CodegenFacts(clean=False)
        )
        assert "elided_transitions=0" in dirty.source
        # ...but a prove occupancy fact excluding a source state does,
        # even with lint dirty: the fixpoint is its own proof.
        occ = frozenset(
            s
            for s in range(automaton.n_states)
            if s not in srcs
        )
        widened = generate_source(
            automaton,
            plan,
            CodegenFacts(clean=False, occupancy={"pg_cg": occ}),
        )
        assert widened.elided_transitions == len(plan.body)

    def test_facts_equality_and_hash_cover_occupancy(self):
        from repro.runtime.codegen import CodegenFacts

        a = CodegenFacts(clean=True, occupancy={"x": frozenset({1})})
        b = CodegenFacts(clean=True, occupancy={"x": frozenset({1})})
        c = CodegenFacts(clean=True, occupancy={"x": frozenset({2})})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_from_report_merges_prove_occupancy(self):
        from repro.analysis.prove import prove_assertions
        from repro.runtime.codegen import CodegenFacts

        report = prove_assertions([provable()])
        facts = CodegenFacts.from_report(None, prove=report)
        assert "pg_proved" in facts.occupancy
        assert facts.clean is False  # no lint report: no lint facts

    def test_runtime_facts_carry_prove_occupancy(self):
        rt = TeslaRuntime(prove="report", compile=True)
        rt.install_assertions([unprovable()])
        from repro.runtime.epoch import interest_epoch

        facts = rt._codegen_facts(interest_epoch.value)
        assert "pg_live" in facts.occupancy
