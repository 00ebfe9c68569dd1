"""Unit tests for tesla-prove: verdicts, soundness posture, reporting.

Three layers under test (DESIGN §5.10):

* the **automaton basis** — safety over *arbitrary* traces, the strongest
  verdict and the only one the runtime's install gate may use;
* the **product basis** — safety over modelled program paths only, with
  the counterexample search for VIOLATED;
* the **report plumbing** — TESLA014/TESLA015 findings and the lint-shaped
  exit-code/JSON contract.

The soundness tests are the most important ones here: anything the CFG
models opaquely (lambdas, nested defs, aliased calls) must leave the
verdict UNKNOWN.  A false PROVED deletes real instrumentation.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.cfg import ProgramCFG
from repro.analysis.prove import (
    PROVED,
    UNKNOWN,
    VIOLATED,
    ProveReport,
    automaton_safety,
    prove_assertion,
    prove_assertions,
)
from repro.core.dsl import (
    ANY,
    call,
    deadline,
    eventually,
    fn,
    optionally,
    previously,
    returned,
    strictly,
    tesla_within,
    var,
)
from repro.core.translate import translate


def cfg_from(source: str) -> ProgramCFG:
    model = ProgramCFG()
    model.add_source(textwrap.dedent(source))
    return model


# ---------------------------------------------------------------------------
# automaton basis
# ---------------------------------------------------------------------------


class TestAutomatonBasis:
    def test_optional_event_is_safe(self):
        """The Infrastructure shape: nothing is ever *required*."""
        assertion = tesla_within(
            "b", previously(optionally(call("hooked"))), name="t"
        )
        safe, reason, occupiable = automaton_safety(translate(assertion))
        assert safe is True and reason == ""
        assert occupiable is not None and len(occupiable) >= 1

    def test_required_event_is_not_safe(self):
        assertion = tesla_within(
            "b", previously(returned("check", 0)), name="t"
        )
        safe, reason, _ = automaton_safety(translate(assertion))
        assert safe is False
        assert "refuse" in reason or "cannot accept" in reason

    def test_strict_is_refused_with_occupiable(self):
        assertion = tesla_within(
            "b", strictly(previously(optionally(call("x")))), name="t"
        )
        safe, reason, occupiable = automaton_safety(translate(assertion))
        assert safe is None and "strict" in reason
        assert occupiable is not None  # still valid for codegen widening

    def test_timed_is_refused(self):
        assertion = tesla_within(
            "b",
            eventually(deadline(5.0, call("x"))),
            name="t",
        )
        safe, reason, _ = automaton_safety(translate(assertion))
        assert safe is None and "timed" in reason

    def test_binding_variables_are_refused(self):
        assertion = tesla_within(
            "b",
            previously(fn("check", var("so")) == 0),
            name="t",
        )
        safe, reason, _ = automaton_safety(translate(assertion))
        assert safe is None and "binds" in reason

    def test_proved_without_cfg(self):
        result = prove_assertion(
            tesla_within("b", previously(optionally(call("h"))), name="t")
        )
        assert result.verdict == PROVED and result.basis == "automaton"


# ---------------------------------------------------------------------------
# product basis
# ---------------------------------------------------------------------------

CHECKED_SOURCE = """
def vp_op(td, vp):
    vp_check(td)
    tesla_site("T.vp.checked")
    return 0
"""

BRANCHED_SOURCE = """
def vp_op(td, flag):
    if flag:
        vp_check(td)
    tesla_site("T.vp.branched")
    return 0
"""


def product_assertion(name: str) -> object:
    return tesla_within(
        "vp_op", previously(call("vp_check")), name=name
    )


class TestProductBasis:
    def test_check_on_every_path_proves(self):
        result = prove_assertion(
            product_assertion("T.vp.checked"), cfg=cfg_from(CHECKED_SOURCE)
        )
        assert result.verdict == PROVED
        assert result.basis == "product"

    def test_missing_check_on_one_path_is_violated(self):
        """The seeded VIOLATED fixture: a branch skips the check, and the
        counterexample names the exact path."""
        result = prove_assertion(
            product_assertion("T.vp.branched"), cfg=cfg_from(BRANCHED_SOURCE)
        )
        assert result.verdict == VIOLATED
        assert result.counterexample  # readable step descriptors
        path = " -> ".join(result.counterexample)
        assert "vp_op" in path and "site" in path
        assert "vp_check" not in path  # the violating path skips the check

    def test_check_after_site_is_violated(self):
        result = prove_assertion(
            product_assertion("T.vp.late"),
            cfg=cfg_from(
                """
                def vp_op(td):
                    tesla_site("T.vp.late")
                    vp_check(td)
                    return 0
                """
            ),
        )
        assert result.verdict == VIOLATED

    def test_check_via_transparent_callee_proves(self):
        """Interprocedural: the check hides one call level down."""
        result = prove_assertion(
            product_assertion("T.vp.deep"),
            cfg=cfg_from(
                """
                def vp_op(td):
                    helper(td)
                    tesla_site("T.vp.deep")
                    return 0

                def helper(td):
                    vp_check(td)
                """
            ),
        )
        assert result.verdict == PROVED and result.basis == "product"

    def test_unmodelled_bound_degrades_to_unknown(self):
        result = prove_assertion(
            product_assertion("T.vp.missing"), cfg=cfg_from("x = 1")
        )
        assert result.verdict == UNKNOWN
        assert "not in the modelled sources" in result.reason

    def test_abort_path_does_not_violate(self):
        """A raise leaves the bound without its return event, so the
        runtime never runs the cleanup check on that path."""
        result = prove_assertion(
            product_assertion("T.vp.abort"),
            cfg=cfg_from(
                """
                def vp_op(td, flag):
                    if flag:
                        raise ValueError("no check, but no return either")
                    vp_check(td)
                    tesla_site("T.vp.abort")
                    return 0
                """
            ),
        )
        assert result.verdict == PROVED


class TestOpacitySoundness:
    """Satellite: dynamic call shapes must degrade to UNKNOWN, never
    PROVED — a false PROVED would delete live instrumentation."""

    @pytest.mark.parametrize(
        "name,body",
        [
            (
                "T.op.lambda",
                "f = lambda: vp_check(td)\n    f()",
            ),
            (
                "T.op.nested",
                "def inner():\n        vp_check(td)\n    inner()",
            ),
            (
                "T.op.alias",
                "m = vp_check\n    m(td)",
            ),
            (
                "T.op.attr_alias",
                "m = td.check\n    m()",
            ),
        ],
    )
    def test_dynamic_shapes_never_prove(self, name, body):
        source = (
            f"def vp_op(td):\n"
            f"    {body}\n"
            f'    tesla_site("{name}")\n'
            f"    return 0\n"
        )
        result = prove_assertion(
            tesla_within("vp_op", previously(call("vp_check")), name=name),
            cfg=cfg_from(source),
        )
        assert result.verdict == UNKNOWN
        assert "opaque" in result.reason

    @pytest.mark.parametrize(
        "body",
        [
            "f = lambda: vp_check(td)",
            "gen = (vp_check(t) for t in td)",
            "if td and vp_check(td):\n        pass",
            "x = td or vp_check(td)",
            "x = vp_check(td) if td else 0",
            "x = [vp_check(t) for t in td]",
        ],
        ids=["lambda", "genexpr", "and", "or", "ifexp", "listcomp"],
    )
    def test_check_that_may_not_run_never_proves(self, body):
        """Each body may reach the site without calling ``vp_check``
        (the lambda is never called, the generator never iterated, the
        short circuit or empty iterable skips the call)."""
        source = (
            f"def vp_op(td):\n    {body}\n"
            f'    tesla_site("T.op.maybe")\n    return 0\n'
        )
        result = prove_assertion(
            product_assertion("T.op.maybe"), cfg=cfg_from(source)
        )
        assert result.verdict != PROVED

    def test_site_outside_the_model_is_unknown(self):
        """The bound is modelled but nothing in it emits the site: it can
        only come from code the model cannot see, so a vacuous proof
        would be unsound."""
        result = prove_assertion(
            product_assertion("T.vp.elsewhere"),
            cfg=cfg_from(CHECKED_SOURCE),
        )
        assert result.verdict == UNKNOWN
        assert "no modelled path reaches the assertion site" in result.reason

    def test_opaque_call_after_the_check_is_crossed(self):
        """Once the check happened, no event the opaque call could emit
        leads to a configuration that refuses the site."""
        result = prove_assertion(
            product_assertion("T.op.after"),
            cfg=cfg_from(
                """
                def vp_op(td, table):
                    vp_check(td)
                    table["op"](td)
                    tesla_site("T.op.after")
                    return 0
                """
            ),
        )
        assert result.verdict == PROVED and result.basis == "product"

    def test_opaque_code_may_emit_the_site(self):
        """Opaque code before the check may itself emit the site."""
        result = prove_assertion(
            product_assertion("T.op.before"),
            cfg=cfg_from(
                """
                def vp_op(td, table):
                    table["op"](td)
                    vp_check(td)
                    tesla_site("T.op.before")
                    return 0
                """
            ),
        )
        assert result.verdict == UNKNOWN
        assert "opaque" in result.reason and "refuses" in result.reason

    def test_opaque_code_may_close_the_bound(self):
        """``table["k"]`` may be ``vp_op`` itself: a nested run that
        returns early closes the bound after the site and before the
        check, so an open 'eventually' obligation cannot cross it."""
        result = prove_assertion(
            tesla_within(
                "vp_op", eventually(call("vp_check")), name="T.op.close"
            ),
            cfg=cfg_from(
                """
                def vp_op(td, flags, table):
                    if flags[0]:
                        return 0
                    tesla_site("T.op.close")
                    table["k"](td, (True,), table)
                    vp_check(td)
                    return 0
                """
            ),
        )
        assert result.verdict == UNKNOWN
        assert "opaque" in result.reason and "re-enter" in result.reason

    def test_recursion_back_into_the_bound_is_not_crossed(self):
        """A recursive helper that may call the bound function re-opens
        the bound mid-scope: a full stop, even after the check."""
        result = prove_assertion(
            product_assertion("T.op.reentry"),
            cfg=cfg_from(
                """
                def vp_op(td):
                    vp_check(td)
                    walk(td)
                    tesla_site("T.op.reentry")
                    return 0

                def walk(td):
                    walk(td)
                    vp_op(td)
                """
            ),
        )
        assert result.verdict == UNKNOWN
        assert "re-enters the bound" in result.reason

    def test_recursive_bound_degrades(self):
        """Recursion into the bound function closes the bound early at
        runtime — the product model refuses rather than guessing."""
        result = prove_assertion(
            product_assertion("T.op.recursive"),
            cfg=cfg_from(
                """
                def vp_op(td):
                    vp_check(td)
                    vp_op(td)
                    tesla_site("T.op.recursive")
                    return 0
                """
            ),
        )
        assert result.verdict == UNKNOWN


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class TestProveReport:
    def _report(self) -> ProveReport:
        return prove_assertions(
            [
                tesla_within(
                    "b", previously(optionally(call("h"))), name="ok"
                ),
                product_assertion("T.vp.branched"),
                tesla_within(
                    "b",
                    previously(fn("check", var("so")) == 0),
                    name="bound-vars",
                ),
            ],
            cfg=cfg_from(BRANCHED_SOURCE),
        )

    def test_findings_codes(self):
        report = self._report()
        assert report.codes() == ["TESLA014", "TESLA015"]
        assert len(report.proved) == 1
        assert len(report.violated) == 1
        assert len(report.unknown) == 1
        assert not report.clean

    def test_violated_detail_carries_path(self):
        report = self._report()
        finding = next(f for f in report.findings if f.code == "TESLA014")
        assert "->" in finding.detail

    def test_exit_codes_mirror_lint(self):
        report = self._report()
        assert report.exit_code("error") == 2  # TESLA014 is an error
        assert report.exit_code("never") == 0
        clean = prove_assertions(
            [tesla_within("b", previously(optionally(call("h"))), name="t")]
        )
        assert clean.exit_code("error") == 0
        assert clean.exit_code("TESLA015") == 0
        unknown = prove_assertions(
            [
                tesla_within(
                    "b",
                    previously(fn("check", var("so")) == 0),
                    name="t",
                )
            ]
        )
        assert unknown.exit_code("error") == 0
        assert unknown.exit_code("TESLA015") == 2  # code-targeted fail

    def test_json_shares_lint_schema_envelope(self):
        from repro.analysis.diagnostics import SCHEMA_VERSION

        payload = self._report().to_json()
        assert payload["version"] == SCHEMA_VERSION
        assert set(payload) == {"version", "summary", "findings", "results"}
        assert set(payload["summary"]) == {
            "assertions",
            "proved",
            "violated",
            "unknown",
            "clean",
            "codes",
            "elapsed_seconds",
        }

    def test_occupiable_states_exposed_for_codegen(self):
        report = prove_assertions(
            [tesla_within("b", previously(optionally(call("h"))), name="t")]
        )
        occ = report.occupiable_states()
        assert "t" in occ and isinstance(occ["t"], frozenset)

    def test_untranslatable_is_unknown_not_a_crash(self):
        from repro.core.ast import (
            AssertionSite,
            AtLeast,
            Bound,
            Context,
            FunctionCall,
            Sequence,
            TemporalAssertion,
        )

        nested = AtLeast(
            1, (Sequence((FunctionCall("a"), FunctionCall("b"))),)
        )
        broken = TemporalAssertion(
            name="prove.untranslatable",
            context=Context.GLOBAL,
            bound=Bound(FunctionCall("outer"), FunctionCall("outer")),
            expression=Sequence((nested, AssertionSite())),
        )
        report = prove_assertions([broken])
        (result,) = report.unknown
        assert "untranslatable" in result.reason


# ---------------------------------------------------------------------------
# corpus-level facts the CI job relies on
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_corpus_has_no_false_violated_and_nonzero_proved(self):
        from repro.analysis.lint import prove_corpus

        report = prove_corpus()
        assert not report.violated, [r.assertion for r in report.violated]
        assert len(report.proved) >= 10

    def test_infra_assertions_prove_on_the_automaton_basis(self):
        from repro.analysis.lint import prove_suite

        report = prove_suite("kernel")
        proved = report.proved_names()
        assert sum(1 for n in proved if n.startswith("T.infra")) == 11

    def test_slo_suite_is_prove_clean(self):
        from repro.analysis.lint import prove_suite

        report = prove_suite("slo")
        assert report.clean
        assert report.codes() == ["TESLA015"]  # timed: honest UNKNOWN
