"""Static analysis over the one program model, case by case.

Paper §7's static direction — discharge an assertion whose check
provably precedes its site, report one that can never hold — answered by
tesla-prove over :class:`ProgramCFG`.  This module holds the verdict on
each source; the sources and the ``repro elide`` text they print live in
``test_elide.py``.
"""

import pytest

from repro.analysis.cfg import ProgramCFG
from repro.analysis.prove import PROVED, UNKNOWN, VIOLATED, prove_assertion
from repro.core.dsl import call, eventually, tesla_within

from tests.unit.analysis.test_cfg import bypasses
from tests.unit.analysis.test_elide import (
    BOTH_ARMS_SOURCE,
    CHECKED_SOURCE,
    CONDITIONAL_SOURCE,
    DELEGATED_CHECK_SOURCE,
    OPAQUE_FIRST_SOURCE,
    OPAQUE_SOURCE,
    UNCALLED_CHECK_SOURCE,
    UNCHECKED_SOURCE,
    assertion_for,
    elide,
    model_of,
)


def verdict_of(source, site, **kwargs):
    return prove_assertion(assertion_for(site, **kwargs), cfg=model_of(source))


def site_events(model):
    return {
        node.event[1]
        for fn in model.functions.values()
        for node in fn.event_nodes()
        if node.event[0] == "site"
    }


class TestModel:
    def test_functions_and_sites_discovered(self):
        model = model_of(CHECKED_SOURCE)
        assert model.defines("bound_fn")
        assert site_events(model) == {"sa.checked"}
        assert model.callers_of("check") == ["bound_fn"]

    def test_conditional_calls_flagged(self):
        """The conditional check is on one branch only: a path from entry
        to exit avoids it."""
        cfg = model_of(CONDITIONAL_SOURCE).functions["bound_fn"]
        assert bypasses(cfg, ("call", "check"))

    def test_opaque_calls_flagged(self):
        assert model_of(OPAQUE_SOURCE).functions["bound_fn"].opaque

    def test_from_modules_reads_real_source(self):
        import repro.kernel.process as process_module

        model = ProgramCFG.from_modules([process_module])
        assert model.defines("kern_setuid")
        assert "P.setcred.sugid-eventually" in site_events(model)


class TestMustCheck:
    def test_unconditional_check_discharges(self):
        result = verdict_of(CHECKED_SOURCE, "sa.checked")
        assert result.verdict == PROVED and result.basis == "product"

    def test_missing_check_not_discharged(self):
        result = verdict_of(UNCHECKED_SOURCE, "sa.unchecked")
        assert result.verdict == VIOLATED
        assert "site sa.unchecked" in result.counterexample[-1]

    def test_conditional_check_not_discharged(self):
        result = verdict_of(CONDITIONAL_SOURCE, "sa.conditional")
        assert result.verdict == VIOLATED
        assert not any("check" in step for step in result.counterexample)

    def test_direct_unchecked_site_after_opaque_is_definite(self):
        # When one branch skips the opaque call and no check exists, the
        # unchecked path to the site is definite: doomed.
        source = OPAQUE_SOURCE.replace(
            'check("cred", obj)\n    table["op"](obj)',
            'if table:\n        table["op"](obj)',
        )
        assert verdict_of(source, "sa.opaque").verdict == VIOLATED
        # With the opaque call on every path it might be the check
        # itself, so the assertion stays monitored rather than doomed.
        source = OPAQUE_SOURCE.replace('check("cred", obj)\n    table', "table")
        assert verdict_of(source, "sa.opaque").verdict == UNKNOWN

    def test_site_reachable_only_via_indirection_undecidable(self):
        # The site's host is never called directly — only a function
        # pointer could reach it, so the analysis must stay undecided.
        source = '''
def check(cred, obj):
    return 0

def helper(obj):
    tesla_site("sa.opaque", obj=obj)

def bound_fn(obj, table):
    table["op"](obj)
'''
        result = verdict_of(source, "sa.opaque")
        assert result.verdict == UNKNOWN
        assert "no modelled path reaches the assertion site" in result.reason

    def test_opaque_after_check_still_discharges(self):
        # check() runs unconditionally before anything opaque: the site is
        # guarded whatever the indirect call does.
        result = verdict_of(OPAQUE_SOURCE, "sa.opaque")
        assert result.verdict == PROVED and result.basis == "product"

    def test_check_on_both_arms_discharges(self):
        result = verdict_of(BOTH_ARMS_SOURCE, "sa.both_arms")
        assert result.verdict == PROVED and result.basis == "product"

    def test_check_through_delegation_discharges(self):
        result = verdict_of(DELEGATED_CHECK_SOURCE, "sa.delegated")
        assert result.verdict == PROVED

    def test_unmodelled_site_undecidable(self):
        result = verdict_of(CHECKED_SOURCE, "sa.elsewhere")
        assert result.verdict == UNKNOWN

    def test_eventually_shapes_are_decided(self):
        checked_late = CHECKED_SOURCE.replace(
            'check("cred", obj)\n    helper(obj)',
            'helper(obj)\n    check("cred", obj)',
        )
        model = model_of(checked_late)
        late = tesla_within(
            "bound_fn", eventually(call("check")), name="sa.checked"
        )
        assert prove_assertion(late, cfg=model).verdict == PROVED
        early = prove_assertion(late, cfg=model_of(CHECKED_SOURCE))
        assert early.verdict == VIOLATED
        assert early.counterexample[-1].endswith("cleanup")


class TestNeverSatisfiable:
    def test_undefined_uncalled_check_is_doomed(self):
        result = verdict_of(UNCALLED_CHECK_SOURCE, "sa.unchecked")
        assert result.verdict == VIOLATED

    def test_defined_check_is_not_doomed(self):
        # A check the program may run (here behind an opaque call) keeps
        # the assertion monitored: only a forced path is doomed.
        result = verdict_of(OPAQUE_FIRST_SOURCE, "sa.opaque_first")
        assert result.verdict == UNKNOWN

    def test_site_outside_model_is_not_doomed(self):
        result = verdict_of(CHECKED_SOURCE, "sa.elsewhere", check="ghost")
        assert result.verdict == UNKNOWN


class TestElisionView:
    def test_partition(self):
        model = model_of(
            CHECKED_SOURCE,
            CONDITIONAL_SOURCE.replace("check", "check2").replace(
                "bound_fn", "bound2_fn"
            ),
            'def helper2(obj):\n    tesla_site("sa.checked2", obj=obj)\n',
        )
        report, text = elide(
            model,
            assertion_for("sa.checked"),
            assertion_for("sa.conditional", check="check2", bound="bound2_fn"),
            # helper2 hosts the site but bound_fn never calls it.
            assertion_for("sa.checked2", check="phantom_check"),
        )
        assert [r.assertion for r in report.proved] == ["sa.checked"]
        assert [r.assertion for r in report.violated] == ["sa.conditional"]
        assert [r.assertion for r in report.unknown] == ["sa.checked2"]
        assert "DOOMED" in text


class TestOnRealKernel:
    @pytest.fixture(scope="class")
    def kernel_cfg(self):
        from repro.analysis.lint import load_suite

        return load_suite("kernel")[1].cfg

    def test_kernel_indirection_defeats_discharge(self, kernel_cfg):
        """Figure 3's point, statically visible: the poll chain reaches
        sopoll_generic through two function-pointer hops, so the analysis
        cannot discharge the MS poll assertion — it stays monitored."""
        from repro.kernel.assertions import assertion_sets

        poll = next(
            a for a in assertion_sets()["MS"] if a.name == "MS.sopoll.prior-check"
        )
        assert prove_assertion(poll, cfg=kernel_cfg).verdict == UNKNOWN

    def test_kernel_elision_is_conservative(self, kernel_cfg):
        from repro.kernel.assertions import assertion_sets

        report, _ = elide(kernel_cfg, *assertion_sets()["M"])
        # Nothing is doomed (all checks exist), and the dynamic dispatch
        # everywhere keeps discharge rare.
        assert not report.violated
        assert len(report.unknown) >= len(report.proved)
