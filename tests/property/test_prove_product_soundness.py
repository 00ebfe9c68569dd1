"""tesla-prove's product basis, checked against the running program.

``test_prove_soundness.py`` holds the *automaton* basis to its claim
over random traces.  A product-basis verdict is a claim about one
program, so this module generates small programs, imports each one with
``@instrumentable`` hooks, and runs it under ``monitoring`` with every
branch input:

* PROVED ⇒ no input produces a violation;
* VIOLATED ⇒ some input produces one (the counterexample is real).

The bodies mix check calls with the shapes that decide whether a check
runs at all — ``if``, short-circuit ``and``/``or``, conditional
expressions, lambdas, generator expressions — plus dict-dispatch calls
the CFG can only model as opaque (one may emit the site, one may call
the bound function again with every flag inverted, so a nested run can
close the bound early), early returns and assertion sites.  Every
conditional reads its own input flag, so every static path is feasible.
"""

from __future__ import annotations

import itertools
import random
import textwrap

import pytest

from repro.analysis.cfg import ProgramCFG
from repro.analysis.prove import PROVED, VIOLATED, prove_assertions
from repro.core.dsl import call, eventually, previously, tesla_within
from repro.runtime.notify import LogAndContinue
from repro.session import monitoring

#: Statement templates.  ``{p}`` prefixes the module's names (hook names
#: are process-wide); ``{i}`` is the statement's own input flag.
STATEMENTS = {
    "check": "{p}check(obj)",
    "if-check": "if flags[{i}]:\n    {p}check(obj)",
    "and-check": "flags[{i}] and {p}check(obj)",
    "or-check": "flags[{i}] or {p}check(obj)",
    "ifexp-check": "x = {p}check(obj) if flags[{i}] else 0",
    "lambda-check": "f{i} = lambda: {p}check(obj)\nif flags[{i}]:\n    f{i}()",
    "genexpr-check": (
        "g{i} = ({p}check(o) for o in [obj])\nif flags[{i}]:\n    list(g{i})"
    ),
    "dispatch-check": "{{True: {p}check, False: {p}noop}}[flags[{i}]](obj)",
    "dispatch-site": "{{True: {p}sites, False: {p}noop}}[flags[{i}]](obj)",
    # The nested run gets every flag inverted, as an int: it takes the
    # other branches and, seeing no ``True``, never dispatches again.
    "dispatch-bound": (
        "{{True: {p}bound, False: {p}noop}}[flags[{i}] is True]"
        "(obj, tuple(int(not f) for f in flags))"
    ),
    "return": "if flags[{i}]:\n    return 0",
    "site": "{p}sites(obj)",
    "inline-site": 'tesla_site("{p}prev")\ntesla_site("{p}ev")',
}
FLAGGED = {kind for kind, text in STATEMENTS.items() if "{i}" in text}
SITES = ("site", "inline-site", "dispatch-site")

MODULE = '''\
from repro.instrument.hooks import instrumentable, tesla_site


@instrumentable()
def {p}check(obj):
    return 0


@instrumentable()
def {p}noop(obj, *args):
    return 0


def {p}sites(obj):
    tesla_site("{p}prev")
    tesla_site("{p}ev")


@instrumentable()
def {p}bound(obj, flags):
{body}
    return 0
'''

#: Hand-picked bodies first: each shape that decides whether the check
#: runs, then the site; then the check crossed with opaque code.
FIXED = [[kind, "site"] for kind in sorted(FLAGGED - set(SITES))] + [
    ["check", "dispatch-site", "site"],
    ["dispatch-check", "site", "check"],
    ["check", "inline-site", "return", "check"],
    ["return", "site", "dispatch-bound", "check"],
]


def sample(count: int = 100, seed: int = 17):
    rng = random.Random(seed)
    kinds = sorted(STATEMENTS)
    out = list(FIXED)
    for _ in range(count):
        body = rng.choices(kinds, k=rng.randint(1, 4))
        body.insert(rng.randrange(len(body) + 1), rng.choice(SITES))
        out.append(body)
    return out


BODIES = sample()


def render(prefix: str, body) -> str:
    lines = []
    for i, kind in enumerate(body):
        lines.append(STATEMENTS[kind].format(p=prefix, i=i))
    text = textwrap.indent("\n".join(lines), "    ")
    return MODULE.format(p=prefix, body=text)


def assertions(prefix: str):
    bound, check = f"{prefix}bound", f"{prefix}check"
    return [
        tesla_within(bound, previously(call(check)), name=f"{prefix}prev"),
        tesla_within(bound, eventually(call(check)), name=f"{prefix}ev"),
    ]


def prove(prefix: str, body):
    model = ProgramCFG()
    model.add_source(render(prefix, body))
    return prove_assertions(assertions(prefix), cfg=model)


def test_sample_reaches_every_verdict():
    """The property below is only as strong as the verdicts it meets:
    the sample must contain product-basis proofs (some across opaque
    code) and counterexamples."""
    proved = violated = crossed = 0
    for n, body in enumerate(BODIES):
        report = prove(f"pps{n}_", body)
        for result in report.results:
            if result.verdict == PROVED:
                assert result.basis == "product"
                proved += 1
                crossed += any(k.startswith("dispatch") for k in body)
            violated += result.verdict == VIOLATED
    assert proved >= 15 and crossed >= 2 and violated >= 40


@pytest.mark.parametrize(
    "n,body", list(enumerate(BODIES)), ids=[",".join(b) for b in BODIES]
)
def test_product_verdicts_hold_at_runtime(import_source, n, body):
    prefix = f"pps{n}_"
    module = import_source(f"{prefix}mod", render(prefix, body))
    report = prove_assertions(
        assertions(prefix), cfg=ProgramCFG.from_modules([module])
    )
    policy = LogAndContinue()
    violating = {a.name: [] for a in assertions(prefix)}
    with monitoring(assertions(prefix), policy=policy):
        # Statement i reads flags[i]: every branch combination runs.
        for flags in itertools.product((False, True), repeat=len(body)):
            before = len(policy.violations)
            getattr(module, f"{prefix}bound")(object(), flags)
            for violation in policy.violations[before:]:
                violating[violation.automaton].append(flags)
    for result in report.results:
        if result.verdict == PROVED:
            assert not violating[result.assertion], (
                f"PROVED {result.assertion} violated for inputs "
                f"{violating[result.assertion]}"
            )
        elif result.verdict == VIOLATED:
            assert violating[result.assertion], (
                f"VIOLATED {result.assertion} never violated: "
                f"{' -> '.join(result.counterexample)}"
            )
