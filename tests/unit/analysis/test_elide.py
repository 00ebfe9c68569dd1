"""Static elision (paper §7) as a view over tesla-prove.

``repro elide`` reports tesla-prove's verdicts as static elision: PROVED
assertions are discharged (no instrumentation needed), VIOLATED ones are
doomed (reported before any run) and UNKNOWN ones stay monitored.  The
sources below are the classic elision shapes; ``test_static.py`` holds
tesla-prove's verdict on each of them.  This module pins the text the
CLI prints for each partition (:meth:`ProveReport.format_elision`).

Two regressions run their source under the runtime: shapes where the
check cannot be shown to happen as the assertion requires, and where
the runtime indeed reports a violation.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis.cfg import ProgramCFG
from repro.analysis.prove import prove_assertions
from repro.core.dsl import ANY, call, fn, previously, tesla_within, var
from repro.runtime.notify import LogAndContinue
from repro.session import monitoring

CHECKED_SOURCE = '''
def check(cred, obj):
    return 0

def helper(obj):
    tesla_site("sa.checked", obj=obj)

def bound_fn(obj):
    check("cred", obj)
    helper(obj)
'''

UNCHECKED_SOURCE = '''
def check(cred, obj):
    return 0

def helper(obj):
    tesla_site("sa.unchecked", obj=obj)

def bound_fn(obj):
    helper(obj)
'''

CONDITIONAL_SOURCE = '''
def check(cred, obj):
    return 0

def bound_fn(obj, fast):
    if not fast:
        check("cred", obj)
    tesla_site("sa.conditional", obj=obj)
'''

OPAQUE_SOURCE = '''
def check(cred, obj):
    return 0

def bound_fn(obj, table):
    check("cred", obj)
    table["op"](obj)
    tesla_site("sa.opaque", obj=obj)
'''

DELEGATED_CHECK_SOURCE = '''
def check(cred, obj):
    return 0

def authorise(obj):
    check("cred", obj)
    return 0

def helper(obj):
    tesla_site("sa.delegated", obj=obj)

def bound_fn(obj):
    authorise(obj)
    helper(obj)
'''

BOTH_ARMS_SOURCE = '''
def check(cred, obj):
    return 0

def bound_fn(obj, fast):
    if fast:
        check("fast", obj)
    else:
        check("slow", obj)
    tesla_site("sa.both_arms", obj=obj)
'''

UNCALLED_CHECK_SOURCE = UNCHECKED_SOURCE.replace("def check", "def other")

OPAQUE_FIRST_SOURCE = '''
def check(cred, obj):
    return 0

def bound_fn(obj, table):
    table["op"](obj)
    check("cred", obj)
    tesla_site("sa.opaque_first", obj=obj)
'''

RETURNS_ONE_SOURCE = '''
def check(cred, obj):
    return 1

def bound_fn(obj):
    check("cred", obj)
    tesla_site("sa.returns_one", obj=obj)
'''

OTHER_OBJECT_SOURCE = '''
def check(cred, obj):
    return 0

def bound_fn(obj, other):
    check("cred", other)
    tesla_site("sa.other_object", obj=obj)
'''


def model_of(*sources: str) -> ProgramCFG:
    model = ProgramCFG()
    for source in sources:
        model.add_source(source)
    return model


def assertion_for(site: str, check: str = "check", bound: str = "bound_fn"):
    return tesla_within(bound, previously(call(check)), name=site)


def returned_zero_for(site: str, prefix: str = ""):
    """The figure-1 shape: the check returned 0 *for the site's object*."""
    return tesla_within(
        f"{prefix}bound_fn",
        previously(fn(f"{prefix}check", ANY("cred"), var("obj")) == 0),
        name=site,
    )


def elide(model: ProgramCFG, *assertions):
    """The ``repro elide`` view: the report and the text it prints."""
    report = prove_assertions(assertions, cfg=model)
    return report, report.format_elision()


def test_elide_view_prints_every_partition():
    """One line per discharged assertion with its basis, one per doomed
    assertion with its counterexample path under it, and the monitored
    ones only in the summary."""
    model = model_of(
        CHECKED_SOURCE,
        CONDITIONAL_SOURCE.replace("bound_fn", "cond_fn"),
    )
    report, text = elide(
        model,
        assertion_for("sa.checked"),
        assertion_for("sa.conditional", bound="cond_fn"),
        assertion_for("sa.nowhere"),
    )
    (doomed,) = report.violated
    assert text.splitlines() == [
        "static elision: 1/3 discharged, 1 doomed, 1 monitored",
        "  discharged (product basis): sa.checked",
        f"  DOOMED (will always fail): sa.conditional: {doomed.reason}",
        *(f"    {step}" for step in doomed.counterexample),
    ]
    assert doomed.counterexample[-1].endswith("site sa.conditional")


def test_return_values_are_not_modelled():
    """``fn(...) == 0`` constrains a return value the CFG does not know,
    so even the straight-line check stays monitored."""
    report, text = elide(
        model_of(CHECKED_SOURCE), returned_zero_for("sa.checked")
    )
    assert report.unknown and "1 monitored" in text


# ---------------------------------------------------------------------------
# runtime regressions: not discharged, and the runtime does report them
# ---------------------------------------------------------------------------

_HEADER = "from repro.instrument.hooks import instrumentable, tesla_site\n"


def _instrumentable(source: str, prefix: str) -> str:
    """``source`` with ``check`` and ``bound_fn`` renamed under
    ``prefix`` (hook names are process-wide) and made instrumentable."""
    source = re.sub(r"\b(check|bound_fn)\b", rf"{prefix}\1", source)
    source = re.sub(
        rf"^def ({prefix}\w+)", r"@instrumentable()\ndef \1", source,
        flags=re.M,
    )
    return _HEADER + source


@pytest.mark.parametrize(
    "source,site,args",
    [
        (RETURNS_ONE_SOURCE, "sa.returns_one", ("o1",)),
        (OTHER_OBJECT_SOURCE, "sa.other_object", ("o1", "o2")),
    ],
    ids=["check-returns-1", "check-on-other-object"],
)
def test_check_that_does_not_hold_is_not_discharged(
    import_source, source, site, args
):
    prefix = "el_" + site.split(".")[1] + "_"
    module = import_source(prefix + "mod", _instrumentable(source, prefix))
    assertion = returned_zero_for(site, prefix)
    report, text = elide(ProgramCFG.from_modules([module]), assertion)
    assert not report.proved and "0/1 discharged" in text
    policy = LogAndContinue()
    with monitoring([assertion], policy=policy):
        getattr(module, prefix + "bound_fn")(*args)
    assert len(policy.violations) >= 1
