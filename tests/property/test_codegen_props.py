"""Property: tesla-jit source generation is deterministic.

The generated-source cache key is (plan, lint facts); everything else —
interning order, constant naming, symbol compilation order — must be a
pure function of those inputs.  The strongest practical check is to
*re-translate* the same assertion (fresh ``Automaton``/``Transition``
objects with new ids) and demand byte-identical source: any dependence on
object identity, ``repr`` addresses or unordered-dict iteration shows up
as a diff.  The golden-source pin (``test_codegen_golden``) then anchors
one representative output across commits.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

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
from repro.core.translate import translate
from repro.runtime.codegen import CodegenFacts, dump_sources


def _assertion(n_steps: int, n_branches: int, use_vars: bool):
    steps = []
    for s in range(n_steps):
        exprs = [
            fn(
                f"prop_check_{s}_{b}",
                ANY("c"),
                var("v") if use_vars else ANY("v"),
            )
            == 0
            for b in range(n_branches)
        ]
        steps.append(either(*exprs) if len(exprs) > 1 else exprs[0])
    return tesla_global(
        call("prop_bound"),
        returnfrom("prop_bound"),
        previously(*steps),
        name="prop.cls",
    )


ARITY_SAFE = frozenset(
    (f"prop_check_{s}_{b}", 2) for s in range(3) for b in range(2)
)


@given(
    n_steps=st.integers(1, 3),
    n_branches=st.integers(1, 2),
    use_vars=st.booleans(),
    clean=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_generation_is_deterministic(n_steps, n_branches, use_vars, clean):
    facts = CodegenFacts(clean=clean, arity_safe=ARITY_SAFE)
    first = dump_sources(
        translate(_assertion(n_steps, n_branches, use_vars)), facts
    )
    second = dump_sources(
        translate(_assertion(n_steps, n_branches, use_vars)), facts
    )
    assert [key for key, _ in first] == [key for key, _ in second]
    for (key, gen1), (_, gen2) in zip(first, second):
        assert gen1.source == gen2.source, key


@given(
    n_steps=st.integers(1, 2),
    use_vars=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_facts_change_source_only_via_elision(n_steps, use_vars):
    """No-facts and dirty-facts generation agree (elision requires a
    clean report), and clean facts may only ever *remove* guard lines."""
    automaton = translate(_assertion(n_steps, 1, use_vars))
    bare = dump_sources(automaton, None)
    dirty = dump_sources(automaton, CodegenFacts(clean=False,
                                                 arity_safe=ARITY_SAFE))
    clean = dump_sources(automaton, CodegenFacts(clean=True,
                                                 arity_safe=ARITY_SAFE))
    for (key, g_bare), (_, g_dirty), (_, g_clean) in zip(bare, dirty, clean):
        assert g_bare.source == g_dirty.source, key
        assert g_clean.elided_guards >= g_bare.elided_guards, key
        assert len(g_clean.source.splitlines()) <= len(
            g_bare.source.splitlines()
        ), key
