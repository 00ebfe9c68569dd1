"""Unit tests for tesla-lint: every diagnostic code demonstrated by a
seeded-defect fixture, zero false positives on the in-repo corpus, and the
runtime/build/translator handoffs."""

import warnings

import pytest

from repro.analysis import (
    CODES,
    LintReport,
    ProgramCFG,
    ProgramModel,
    Severity,
    diagnostic,
    lint_assertions,
    lint_automata,
    lint_suite,
)
from repro.analysis.lint import _load_quickstart, available_suites
from repro.core.ast import (
    AssertionSite,
    AtLeast,
    Bound,
    Context,
    FunctionCall,
    Sequence,
    TemporalAssertion,
)
from repro.core.dsl import (
    ANY,
    atleast,
    call,
    field_assign,
    fn,
    optionally,
    previously,
    strictly,
    tesla_within,
)
from repro.core.automaton import Automaton, EventSymbol, Transition, TransitionKind
from repro.errors import LintError
from repro.runtime.manager import TeslaRuntime

K = TransitionKind
SYM = EventSymbol(FunctionCall("f"))
SITE = EventSymbol(AssertionSite())


def make_automaton(name, transitions, n_states):
    """A hand-built automaton (symbol 0 = call(f), symbol 1 = the site)."""
    return Automaton(
        name=name,
        symbols=[SYM, SITE],
        transitions=[Transition(*t) for t in transitions],
        start=0,
        accept=n_states - 1,
        n_states=n_states,
    )


def codes_of(report):
    return {f.code for f in report.findings}


# ---------------------------------------------------------------------------
# the diagnostic vocabulary
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_code_table_is_stable(self):
        """The published codes: renumbering any of these is a break."""
        assert set(CODES) == {
            "TESLA001", "TESLA002", "TESLA003", "TESLA004", "TESLA005",
            "TESLA006", "TESLA007", "TESLA008", "TESLA009", "TESLA010",
            "TESLA011", "TESLA012", "TESLA013", "TESLA014", "TESLA015",
        }
        assert CODES["TESLA003"][0] is Severity.ERROR
        assert CODES["TESLA004"][0] is Severity.WARNING

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            diagnostic("TESLA999", "a", "message")

    def test_format_carries_location_and_detail(self):
        finding = diagnostic(
            "TESLA007", "a", "boom", location="mod:fn", detail="extra"
        )
        line = finding.format()
        assert "TESLA007" in line and "(at mod:fn)" in line and "[extra]" in line

    def test_exit_code_contract(self):
        clean = LintReport()
        warn = LintReport(findings=[diagnostic("TESLA004", "a", "m")])
        err = LintReport(findings=[diagnostic("TESLA003", "a", "m")])
        assert clean.exit_code("error") == 0
        assert warn.exit_code("error") == 0
        assert warn.exit_code("warning") == 1
        assert err.exit_code("error") == 2
        assert err.exit_code("warning") == 2
        assert err.exit_code("never") == 0

    def test_merge_accumulates(self):
        left = LintReport(
            findings=[diagnostic("TESLA004", "a", "m")],
            assertions_checked=1,
            arity_safe=frozenset({("f", 2)}),
        )
        right = LintReport(
            findings=[diagnostic("TESLA003", "b", "m")],
            assertions_checked=2,
            arity_safe=frozenset({("g", 1)}),
        )
        left.extend(right)
        assert left.assertions_checked == 3
        assert left.arity_safe == {("f", 2), ("g", 1)}
        assert codes_of(left) == {"TESLA003", "TESLA004"}


# ---------------------------------------------------------------------------
# machine layer: seeded automaton defects
# ---------------------------------------------------------------------------


class TestMachineLayer:
    def test_tesla001_unreachable_state(self):
        automaton = make_automaton(
            "u1", [(0, 1, K.INIT), (1, 2, K.SITE, 1), (2, 4, K.CLEANUP)], 5
        )
        report = lint_automata([automaton])
        assert "TESLA001" in codes_of(report)

    def test_tesla002_dead_transition(self):
        automaton = make_automaton(
            "u2",
            [(0, 1, K.INIT), (1, 2, K.SITE, 1), (2, 4, K.CLEANUP),
             (1, 3, K.EVENT, 0)],
            5,
        )
        report = lint_automata([automaton])
        assert "TESLA002" in codes_of(report)

    def test_tesla003_unsatisfiable(self):
        automaton = make_automaton(
            "u3", [(0, 1, K.INIT), (1, 2, K.SITE, 1)], 4
        )
        report = lint_automata([automaton])
        assert "TESLA003" in codes_of(report)
        # Emptiness mutes the dead-transition pass: every transition would
        # otherwise be "dead" and drown the real story.
        assert "TESLA002" not in codes_of(report)

    def test_tesla004_vacuous_automaton(self):
        automaton = make_automaton(
            "u4",
            [(0, 1, K.INIT), (1, 1, K.EVENT, 0), (1, 2, K.SITE, 1),
             (2, 3, K.CLEANUP)],
            4,
        )
        report = lint_automata([automaton])
        assert "TESLA004" in codes_of(report)

    def test_tesla004_site_only_assertion(self):
        vacuous = tesla_within("enclosing_fn", previously(), name="lint.vac")
        report = lint_assertions([vacuous])
        assert "TESLA004" in codes_of(report)

    def test_tesla004_spares_tracing_idioms(self):
        """ATLEAST(0, …) (figure 8) and optionally(…) bodies are vacuous by
        design — instrumentation drivers, not defects."""
        figure8 = tesla_within(
            "enclosing_fn",
            previously(atleast(0, call("security_check"))),
            name="lint.fig8",
        )
        infra = tesla_within(
            "enclosing_fn",
            previously(optionally(call("security_check"))),
            name="lint.infra",
        )
        report = lint_assertions([figure8, infra])
        assert "TESLA004" not in codes_of(report)

    def test_tesla004_spares_falsifiable_assertions(self):
        honest = tesla_within(
            "enclosing_fn",
            previously(call("security_check")),
            name="lint.honest",
        )
        report = lint_assertions([honest])
        assert "TESLA004" not in codes_of(report)

    def test_tesla005_strict_over_optional_only(self):
        conflicted = tesla_within(
            "enclosing_fn",
            strictly(previously(optionally(call("security_check")))),
            name="lint.strictopt",
        )
        report = lint_assertions([conflicted])
        assert "TESLA005" in codes_of(report)
        assert report.errors

    def test_tesla005_atleast_over_bound_entry(self):
        unmeetable = tesla_within(
            "enclosing_fn",
            previously(atleast(1, call("enclosing_fn"))),
            name="lint.atleast-entry",
        )
        report = lint_assertions([unmeetable])
        assert "TESLA005" in codes_of(report)

    def test_tesla005_atleast_twice_over_bound_exit(self):
        from repro.core.dsl import returnfrom

        unmeetable = tesla_within(
            "enclosing_fn",
            previously(atleast(2, returnfrom("enclosing_fn"))),
            name="lint.atleast-exit",
        )
        report = lint_assertions([unmeetable])
        assert "TESLA005" in codes_of(report)

    def test_tesla005_spares_meetable_atleast(self):
        fine = tesla_within(
            "enclosing_fn",
            previously(atleast(2, call("security_check"))),
            name="lint.atleast-ok",
        )
        report = lint_assertions([fine])
        assert "TESLA005" not in codes_of(report)

    def test_tesla006_no_site_transition(self):
        automaton = make_automaton(
            "u6", [(0, 1, K.INIT), (1, 2, K.EVENT, 0), (2, 3, K.CLEANUP)], 4
        )
        report = lint_automata([automaton])
        assert "TESLA006" in codes_of(report)


# ---------------------------------------------------------------------------
# program layer: cross-checks against real code
# ---------------------------------------------------------------------------


def _target_fixed(a, b, c):
    return a


def _target_annotated(count: int, label: str):
    return count


def _target_variadic(a, *rest):
    return a


def make_model(**hooks):
    return ProgramModel(hooks=hooks)


class TestProgramLayer:
    def test_tesla007_unresolvable_function(self):
        missing = tesla_within(
            "host_fn",
            previously(call("absent_fn")),
            name="lint.unresolved",
        )
        report = lint_assertions([missing], program=make_model())
        findings = [f for f in report.findings if f.code == "TESLA007"]
        assert {"absent_fn", "host_fn"} == {
            f.message.split("'")[1] for f in findings
        }

    def test_tesla007_resolves_via_selectors_and_static_model(self):
        cfg = ProgramCFG()
        cfg.add_source("def modelled(x):\n    return x\n", "m.py")
        model = ProgramModel(
            hooks={"host_fn": _target_fixed},
            selectors=frozenset({"drawRect:"}),
            cfg=cfg,
        )
        ok = tesla_within(
            "host_fn",
            previously(Sequence((call("drawRect:"), call("modelled")))),
            name="lint.resolved",
        )
        report = lint_assertions([ok], program=model)
        assert "TESLA007" not in codes_of(report)

    def test_tesla008_arity_mismatch(self):
        bad = tesla_within(
            "host_fn",
            previously(fn("target", ANY("a")) == 0),
            name="lint.arity",
        )
        model = make_model(host_fn=_target_fixed, target=_target_fixed)
        report = lint_assertions([bad], program=model)
        assert "TESLA008" in codes_of(report)

    def test_tesla008_variadic_absorbs_extra_arguments(self):
        ok = tesla_within(
            "host_fn",
            previously(fn("target", ANY("a"), ANY("b"), ANY("c"), ANY("d")) == 0),
            name="lint.variadic",
        )
        model = make_model(host_fn=_target_fixed, target=_target_variadic)
        report = lint_assertions([ok], program=model)
        assert "TESLA008" not in codes_of(report)

    def test_tesla008_constant_contradicts_annotation(self):
        bad = tesla_within(
            "host_fn",
            previously(fn("target", "not-an-int", ANY("label")) == 0),
            name="lint.type",
        )
        model = make_model(host_fn=_target_fixed, target=_target_annotated)
        report = lint_assertions([bad], program=model)
        assert "TESLA008" in codes_of(report)

    def test_arity_safe_facts_collected(self):
        ok = tesla_within(
            "host_fn",
            previously(fn("target", ANY("a"), ANY("b"), ANY("c")) == 0),
            name="lint.safe",
        )
        model = make_model(host_fn=_target_fixed, target=_target_fixed)
        report = lint_assertions([ok], program=model)
        assert ("target", 3) in report.arity_safe
        assert report.clean

    def test_tesla009_unknown_struct_and_field(self):
        import repro.kernel.types  # noqa: F401  (registers the structs)

        unknown_struct = tesla_within(
            "sys_setuid",
            previously(field_assign("no_such_struct", "x", value=1)),
            name="lint.struct",
        )
        unknown_field = tesla_within(
            "sys_setuid",
            previously(field_assign("proc", "not_a_real_field", value=1)),
            name="lint.field",
        )
        real_field = tesla_within(
            "sys_setuid",
            previously(field_assign("proc", "p_flag", value=1)),
            name="lint.realfield",
        )
        report = lint_assertions(
            [unknown_struct, unknown_field, real_field],
            program=ProgramModel.from_registries(),
        )
        flagged = {
            f.assertion for f in report.findings if f.code == "TESLA009"
        }
        assert flagged == {"lint.struct", "lint.field"}

    def test_tesla010_provably_uncalled_event(self):
        cfg = ProgramCFG()
        cfg.add_source(
            "def dead_fn(x):\n"
            "    return x\n"
            "\n"
            "def host(y):\n"
            "    tesla_site(\"lint.dead\")\n"
            "    return y\n",
            "mini.py",
        )
        model = ProgramModel(cfg=cfg)
        doomed = tesla_within(
            "host", previously(call("dead_fn")), name="lint.dead"
        )
        report = lint_assertions([doomed], program=model)
        assert "TESLA010" in codes_of(report)

    def test_tesla010_suppressed_by_opaque_calls(self):
        """Indirection (function pointers, VOP tables) could hide the
        caller, so the never-fires claim is withheld — same soundness
        posture as tesla-prove."""
        cfg = ProgramCFG()
        cfg.add_source(
            "def dead_fn(x):\n"
            "    return x\n"
            "\n"
            "def host(y, table):\n"
            "    table[\"op\"](y)\n"
            "    tesla_site(\"lint.opaque\")\n",
            "mini.py",
        )
        model = ProgramModel(cfg=cfg)
        doomed = tesla_within(
            "host", previously(call("dead_fn")), name="lint.opaque"
        )
        report = lint_assertions([doomed], program=model)
        assert "TESLA010" not in codes_of(report)

    @pytest.mark.parametrize(
        "deferred",
        [
            "def inner():\n        dead_fn(y)\n    register(inner)",
            "register(lambda: dead_fn(y))",
        ],
        ids=["nested-def", "lambda"],
    )
    def test_tesla010_counts_callers_in_deferred_bodies(self, deferred):
        """A call from a nested def (or a lambda) is still a caller: the
        body runs whenever the callback does, so the event can fire and
        TESLA010 must stay silent."""
        cfg = ProgramCFG()
        cfg.add_source(
            "def dead_fn(x):\n"
            "    return x\n"
            "\n"
            "def host(y):\n"
            f"    {deferred}\n"
            "    tesla_site(\"lint.nested\")\n",
            "mini.py",
        )
        model = ProgramModel(cfg=cfg)
        assertion = tesla_within(
            "host", previously(call("dead_fn")), name="lint.nested"
        )
        report = lint_assertions([assertion], program=model)
        assert "TESLA010" not in codes_of(report)


# ---------------------------------------------------------------------------
# batch layer
# ---------------------------------------------------------------------------


class TestBatchLayer:
    def test_tesla011_duplicate_names(self):
        first = tesla_within(
            "enclosing_fn", previously(call("security_check")), name="lint.dup"
        )
        second = tesla_within(
            "enclosing_fn", previously(call("security_check")), name="lint.dup"
        )
        report = lint_assertions([first, second])
        assert "TESLA011" in codes_of(report)
        assert len([f for f in report.findings if f.code == "TESLA011"]) == 1

    def test_tesla012_untranslatable(self):
        nested = AtLeast(1, (Sequence((FunctionCall("a"), FunctionCall("b"))),))
        broken = TemporalAssertion(
            name="lint.untranslatable",
            context=Context.GLOBAL,
            bound=Bound(FunctionCall("outer"), FunctionCall("outer")),
            expression=Sequence((nested, AssertionSite())),
            location="tests:broken",
        )
        report = lint_assertions([broken])
        finding = next(f for f in report.findings if f.code == "TESLA012")
        assert "ATLEAST" in finding.message
        assert finding.location == "tests:broken"


# ---------------------------------------------------------------------------
# the in-repo corpus: zero false positives
# ---------------------------------------------------------------------------


class TestCorpus:
    @pytest.mark.parametrize("suite", ["examples", "kernel", "sslx", "gui"])
    def test_suite_is_clean(self, suite):
        report = lint_suite(suite)
        assert report.clean, report.format()
        assert report.assertions_checked >= 1

    def test_kernel_suite_covers_table1(self):
        report = lint_suite("kernel")
        assert report.assertions_checked == 96
        assert len(report.arity_safe) > 0

    def test_available_suites(self):
        assert available_suites() == ("examples", "kernel", "sslx", "gui", "slo")


# ---------------------------------------------------------------------------
# runtime handoff
# ---------------------------------------------------------------------------


class TestRuntimeGate:
    def test_error_mode_refuses_bad_batch(self):
        runtime = TeslaRuntime(lint="error")
        conflicted = tesla_within(
            "enclosing_fn",
            strictly(previously(optionally(call("security_check")))),
            name="lint.gate",
        )
        with pytest.raises(LintError) as excinfo:
            runtime.install_assertion(conflicted)
        assert "TESLA005" in str(excinfo.value)
        assert excinfo.value.report.errors
        assert not runtime.automata

    def test_warn_mode_warns_but_installs(self):
        runtime = TeslaRuntime(lint="warn")
        vacuous = tesla_within(
            "enclosing_fn", previously(), name="lint.gate-warn"
        )
        with pytest.warns(UserWarning, match="TESLA004"):
            runtime.install_assertion(vacuous)
        assert "lint.gate-warn" in runtime.automata
        assert runtime.lint_report is not None
        assert not runtime.lint_report.clean

    def test_off_mode_skips_the_passes(self):
        runtime = TeslaRuntime(lint="off")
        vacuous = tesla_within(
            "enclosing_fn", previously(), name="lint.gate-off"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runtime.install_assertion(vacuous)
        assert runtime.lint_report is None

    def test_clean_batch_accumulates_report(self):
        runtime = TeslaRuntime()
        honest = tesla_within(
            "enclosing_fn",
            previously(call("security_check")),
            name="lint.gate-clean",
        )
        runtime.install_assertion(honest)
        assert runtime.lint_report is not None
        assert runtime.lint_report.clean
        assert runtime.lint_report.assertions_checked == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="lint must be"):
            TeslaRuntime(lint="loud")

    def test_rejected_batch_is_linted_then_raised(self):
        """The gate reads install's automata; a batch that fails to
        translate is still reported (TESLA012) before install raises the
        analyser's attributed error."""
        from repro.errors import AssertionParseError

        nested = AtLeast(1, (Sequence((FunctionCall("a"), FunctionCall("b"))),))
        broken = TemporalAssertion(
            name="lint.gate-broken",
            context=Context.GLOBAL,
            bound=Bound(FunctionCall("outer"), FunctionCall("outer")),
            expression=Sequence((nested, AssertionSite())),
            location="tests:gate",
        )
        honest = tesla_within(
            "enclosing_fn",
            previously(call("security_check")),
            name="lint.gate-first",
        )
        runtime = TeslaRuntime(lint="warn")
        with pytest.warns(UserWarning, match="TESLA012"):
            with pytest.raises(AssertionParseError) as excinfo:
                runtime.install_assertions([honest, broken])
        assert excinfo.value.assertion == "lint.gate-broken"
        assert "(at tests:gate)" in str(excinfo.value)
        assert not runtime.automata
        assert runtime.lint_report.assertions_checked == 2

        with pytest.raises(LintError, match="TESLA012"):
            TeslaRuntime(lint="error").install_assertions([honest, broken])

    def test_duplicate_names_are_linted_then_raised(self):
        from repro.errors import AssertionParseError

        twice = tesla_within(
            "enclosing_fn", previously(call("security_check")),
            name="lint.gate-twice",
        )
        runtime = TeslaRuntime(lint="warn")
        with pytest.warns(UserWarning, match="TESLA011"):
            with pytest.raises(AssertionParseError, match="duplicate"):
                runtime.install_assertions([twice, twice])
        assert not runtime.automata


class TestElisionHandoff:
    def test_lint_clean_runtime_elides_arity_guards(self):
        quickstart = _load_quickstart()
        runtime = TeslaRuntime()
        runtime.install_assertion(quickstart.assertion)
        from repro.instrument.translator import EventTranslator

        translator = EventTranslator(runtime)
        assert translator.arity_elided > 0

    def test_lint_off_keeps_dynamic_checks(self):
        quickstart = _load_quickstart()
        runtime = TeslaRuntime(lint="off")
        runtime.install_assertion(quickstart.assertion)
        from repro.instrument.translator import EventTranslator

        translator = EventTranslator(runtime)
        assert translator.arity_elided == 0

    def test_elision_preserves_verdicts(self):
        """The monitored example behaves identically with and without the
        elided arity guards."""
        from repro.session import monitoring

        quickstart = _load_quickstart()
        for lint_mode in ("warn", "off"):
            with monitoring([quickstart.assertion], lint=lint_mode) as runtime:
                quickstart.enclosing_fn("obj", "read")
                accepts = runtime.class_runtime("figure1").accepts
            assert accepts == 1, lint_mode

    def test_monitoring_lint_error_passthrough(self):
        from repro.session import monitoring

        conflicted = tesla_within(
            "enclosing_fn",
            strictly(previously(optionally(call("security_check")))),
            name="lint.session-gate",
        )
        with pytest.raises(LintError):
            with monitoring([conflicted], lint="error"):
                pass  # pragma: no cover - never entered


class TestHealthReportLint:
    def test_health_report_carries_lint_summary(self):
        from repro.introspect.health import format_health, health_report

        runtime = TeslaRuntime()
        honest = tesla_within(
            "enclosing_fn",
            previously(call("security_check")),
            name="lint.health",
        )
        runtime.install_assertion(honest)
        report = health_report(runtime)
        assert report.lint is not None
        assert report.lint["clean"] is True
        assert "lint: clean" in format_health(report)

    def test_health_report_without_lint(self):
        runtime = TeslaRuntime(lint="off")
        from repro.introspect.health import health_report

        assert health_report(runtime).lint is None


class TestBuildLintStage:
    def _unit(self, assertions):
        from repro.instrument.build import CompileUnit

        return CompileUnit(
            name="unit0",
            source="def enclosing_fn(x):\n    return x\n",
            assertions=assertions,
        )

    def test_lint_stage_timed_and_reported(self, tmp_path):
        from repro.instrument.build import BuildSystem

        honest = tesla_within(
            "enclosing_fn",
            previously(call("enclosing_fn")),
            name="lint.build-clean",
        )
        system = BuildSystem([self._unit([honest])], tmp_path, lint="warn")
        report = system.clean_build(tesla=True)
        assert "lint" in report.stage_seconds
        assert system.lint_report is not None
        assert system.lint_report.clean

    def test_error_mode_fails_the_build(self, tmp_path):
        from repro.instrument.build import BuildSystem

        conflicted = tesla_within(
            "enclosing_fn",
            strictly(previously(optionally(call("enclosing_fn")))),
            name="lint.build-bad",
        )
        system = BuildSystem([self._unit([conflicted])], tmp_path, lint="error")
        with pytest.raises(LintError):
            system.clean_build(tesla=True)

    def test_off_mode_skips_the_stage(self, tmp_path):
        from repro.instrument.build import BuildSystem

        system = BuildSystem([self._unit([])], tmp_path)
        report = system.clean_build(tesla=True)
        assert "lint" not in report.stage_seconds
        assert system.lint_report is None


# ---------------------------------------------------------------------------
# attribution (analyser errors name their assertion)
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_translate_error_names_the_assertion(self):
        from repro.core.translate import translate
        from repro.errors import AssertionParseError

        nested = AtLeast(1, (Sequence((FunctionCall("a"), FunctionCall("b"))),))
        broken = TemporalAssertion(
            name="lint.attr",
            context=Context.GLOBAL,
            bound=Bound(FunctionCall("outer"), FunctionCall("outer")),
            expression=Sequence((nested, AssertionSite())),
            location="mod:fn",
        )
        with pytest.raises(AssertionParseError) as excinfo:
            translate(broken)
        error = excinfo.value
        assert error.assertion == "lint.attr"
        assert "in assertion 'lint.attr'" in str(error)
        assert "(at mod:fn)" in str(error)
        assert "ATLEAST" in error.plain_message

    def test_duplicate_names_are_attributed(self):
        from repro.core.translate import translate_all
        from repro.errors import AssertionParseError

        first = tesla_within(
            "enclosing_fn", previously(call("security_check")), name="lint.twice"
        )
        with pytest.raises(AssertionParseError) as excinfo:
            translate_all([first, first])
        assert excinfo.value.assertion == "lint.twice"

    def test_instrumenter_error_names_referrers(self):
        from repro.errors import InstrumentationError
        from repro.instrument.module import Instrumenter

        runtime = TeslaRuntime()
        orphan = tesla_within(
            "lint_no_such_host_fn",
            previously(call("lint_no_such_fn")),
            name="lint.orphan",
            location="tests:orphan",
        )
        with pytest.raises(InstrumentationError) as excinfo:
            Instrumenter(runtime).instrument([orphan])
        message = str(excinfo.value)
        assert "referenced by assertion 'lint.orphan'" in message
        assert "at tests:orphan" in message
