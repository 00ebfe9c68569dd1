"""Golden-source pin for tesla-jit generated code.

``tests/fixtures/golden_codegen.txt`` is the committed output of
``dump_sources`` for a fixed representative assertion under clean lint
facts — every specialized ``step`` function the generator emits for it,
plus the key functions a default runtime generates for its first body
key and for its bound-closing key, and the class's generated cleanup —
byte for byte.  A diff here means the generator's output
changed — which is allowed, but only deliberately:

1. bump ``CODEGEN_VERSION`` in ``src/repro/runtime/codegen.py`` (the
   version is embedded in each function's header comment, so the bump
   itself forces a fixture diff),
2. re-run the differential harness so the new code shape is proven
   equivalent to the ``compile=False`` interpreter,
3. regenerate the fixture:
   ``PYTHONPATH=src python -m tests.unit.runtime.test_codegen_golden``
4. mention the bump in CHANGES.md.

Unlike the journal pin this is not a compatibility contract — generated
source never leaves the process — but it catches accidental drift:
a refactor that silently changes emitted code would otherwise only be
observable as a performance regression or a differential failure much
later.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.dsl import (
    ANY,
    call,
    either,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import EventKind
from repro.core.translate import translate
from repro.runtime.codegen import (
    CODEGEN_VERSION,
    CodegenFacts,
    compile_plan_step,
    dump_sources,
    generate_cleanup_source,
)
from repro.runtime.manager import TeslaRuntime
from repro.runtime.plans import build_transition_plan

FIXTURE = (
    Path(__file__).resolve().parents[2] / "fixtures" / "golden_codegen.txt"
)

UPGRADE_INSTRUCTIONS = (
    "The tesla-jit generated source changed. If this was intentional: bump "
    "CODEGEN_VERSION in src/repro/runtime/codegen.py, re-run the "
    "differential harness (tests/differential) to prove the new code shape "
    "against the compile=False interpreter, regenerate the fixture with "
    "`PYTHONPATH=src python -m tests.unit.runtime.test_codegen_golden`, and "
    "note the bump in CHANGES.md. If it was NOT intentional, revert — "
    "silent generator drift surfaces later as perf regressions or "
    "differential failures with no obvious cause."
)


def golden_assertion():
    """Representative shape: either-branch body step plus a var-bound
    site, exercising matcher guards, bind extraction and the site path."""
    return tesla_global(
        call("golden_bound"),
        returnfrom("golden_bound"),
        previously(
            either(
                fn("golden_check", ANY("c"), var("v")) == 0,
                fn("golden_alt", var("v")) == 0,
            )
        ),
        name="golden.codegen",
    )


def golden_facts():
    return CodegenFacts(
        clean=True,
        arity_safe=frozenset({("golden_check", 2), ("golden_alt", 1)}),
    )


GOLDEN_KEY = (EventKind.RETURN, "golden_check")
CLEANUP_KEY = (EventKind.RETURN, "golden_bound")


def golden_key_function(wanted=GOLDEN_KEY) -> str:
    """The key function a default (lazy, ungoverned) runtime generates
    for one of the golden assertion's keys, global context."""
    runtime = TeslaRuntime(lint="off")
    runtime.install_assertion(golden_assertion())
    for key, context, source in runtime.key_function_sources():
        if key == wanted and context == "global":
            return source
    raise AssertionError(f"no key function for {wanted}")


def generate_golden_text() -> str:
    automaton = translate(golden_assertion())
    parts = []
    for key, gen in dump_sources(automaton, golden_facts()):
        parts.append(f"## key {key[0].name}:{key[1]}")
        parts.append(gen.source.rstrip("\n"))
        parts.append("")
    for kind, name in (GOLDEN_KEY, CLEANUP_KEY):
        parts.append(f"## key function {kind.name}:{name} global")
        parts.append(golden_key_function((kind, name)).rstrip("\n"))
        parts.append("")
    parts.append(f"## cleanup {automaton.name}")
    cleanup = generate_cleanup_source(automaton)
    parts.append(cleanup.source.rstrip("\n"))
    parts.append("")
    return "\n".join(parts)


def test_version_is_pinned_in_fixture():
    text = FIXTURE.read_text()
    assert f"# tesla-jit v{CODEGEN_VERSION} " in text, (
        "CODEGEN_VERSION changed without regenerating the golden fixture. "
        + UPGRADE_INSTRUCTIONS
    )


def test_current_generator_reproduces_golden_source():
    assert generate_golden_text() == FIXTURE.read_text(), (
        UPGRADE_INSTRUCTIONS
    )


def test_golden_source_compiles_and_is_complete():
    automaton = translate(golden_assertion())
    keys = [key for key, _ in dump_sources(automaton, golden_facts())]
    assert keys, "golden assertion produced no dispatch keys"
    for key in keys:
        plan = build_transition_plan(automaton, key)
        entry = compile_plan_step(automaton, plan, golden_facts())
        assert entry.step is not None, key
        assert "def step_batch" not in entry.source, key


if __name__ == "__main__":  # regenerate the fixture (see module docstring)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(generate_golden_text())
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
