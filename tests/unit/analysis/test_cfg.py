"""Unit tests for the AST → CFG layer behind tesla-prove (DESIGN §5.10).

The contract under test is *soundness of the event model*: every call,
return, field store and assertion site the runtime could observe on some
execution appears on some CFG path — and anything the builder cannot
model statically is a loud ``opaque`` node, never silence.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.cfg import ProgramCFG


def cfg_of(source: str, name: str):
    model = ProgramCFG()
    model.add_source(textwrap.dedent(source))
    return model.functions[name]


def events_of(source: str, name: str):
    return [n.event for n in cfg_of(source, name).event_nodes()]


def bypasses(cfg, event) -> bool:
    """Whether some path from entry to exit avoids every node carrying
    ``event``."""
    seen, stack = set(), [cfg.entry]
    while stack:
        node = stack.pop()
        if node in seen or cfg.node(node).event == event:
            continue
        seen.add(node)
        stack.extend(cfg.node(node).succs)
    return cfg.exit in seen


class TestStraightLine:
    def test_call_emits_call_and_return_pair(self):
        events = events_of(
            """
            def f():
                g()
            """,
            "f",
        )
        assert ("call", "g") in events and ("ret", "g") in events

    def test_call_pair_is_recorded(self):
        cfg = cfg_of(
            """
            def f():
                g()
            """,
            "f",
        )
        (call_id, ret_id), = cfg.call_pairs.items()
        assert cfg.node(call_id).event == ("call", "g")
        assert cfg.node(ret_id).event == ("ret", "g")

    def test_arguments_evaluate_before_the_call(self):
        events = events_of(
            """
            def f():
                outer(inner())
            """,
            "f",
        )
        assert events.index(("call", "inner")) < events.index(
            ("call", "outer")
        )

    def test_method_call_through_name_uses_attr(self):
        assert ("call", "lookup") in events_of(
            """
            def f(vp):
                vp.lookup()
            """,
            "f",
        )

    def test_field_store_labels_attribute(self):
        assert ("field", "p_flag") in events_of(
            """
            def f(p):
                p.p_flag = 1
            """,
            "f",
        )

    def test_tesla_site_constant_name(self):
        assert ("site", "T.example") in events_of(
            """
            def f():
                tesla_site("T.example")
            """,
            "f",
        )


class TestControlFlow:
    def test_if_creates_both_paths(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    g()
                return 0
            """,
            "f",
        )
        # One path passes through the call, one bypasses it: the exit
        # node must be reachable from entry without the call node.
        assert bypasses(cfg, ("call", "g"))

    def test_loop_has_back_edge(self):
        cfg = cfg_of(
            """
            def f(items):
                for item in items:
                    g()
            """,
            "f",
        )
        call = next(n for n in cfg.nodes if n.event == ("call", "g"))
        # Following successors from the call's paired return must be able
        # to reach the call again (the loop back edge).
        seen, stack = set(), list(cfg.node(cfg.call_pairs[call.id]).succs)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(cfg.node(node).succs)
        assert call.id in seen

    def test_raise_reaches_abort_not_exit(self):
        cfg = cfg_of(
            """
            def f():
                raise ValueError("boom")
            """,
            "f",
        )
        seen, stack = set(), [cfg.entry]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(cfg.node(node).succs)
        assert cfg.abort in seen and cfg.exit not in seen


class TestShortCircuit:
    """Evaluation that may stop short is a branch, never straight-line:
    a call modelled as unconditional when it may not run lets the
    product prove a check that never happened."""

    @pytest.mark.parametrize(
        "body",
        [
            "if x and g():\n        pass",
            "y = x or g()",
            "y = x and h() and g()",
            "y = g() if x else 0",
            "y = 0 if x else g()",
            "y = [g() for t in x]",
            "y = {t: g() for t in x}",
            "y = [t for t in x if g()]",
        ],
        ids=["and", "or", "and-chain", "ifexp-body", "ifexp-else",
             "listcomp", "dictcomp", "listcomp-filter"],
    )
    def test_call_may_be_skipped(self, body):
        cfg = cfg_of(f"def f(x):\n    {body}\n    return 0\n", "f")
        assert ("call", "g") in [n.event for n in cfg.event_nodes()]
        assert bypasses(cfg, ("call", "g"))

    def test_left_operand_always_runs(self):
        cfg = cfg_of("def f(x):\n    y = g() or x\n    return y\n", "f")
        assert not bypasses(cfg, ("call", "g"))

    def test_root_lambda_is_deferred(self):
        """``f = lambda: g()`` defines a body; nothing runs yet."""
        cfg = cfg_of("def f(x):\n    k = lambda: g(x)\n    return 0\n", "f")
        assert not cfg.event_nodes()
        assert "g" in cfg.deferred_calls

    def test_generator_with_calls_is_opaque(self):
        """A generator's calls run whenever it is iterated — possibly
        never, possibly after the assertion site."""
        cfg = cfg_of(
            "def f(x):\n    gen = (g(t) for t in x)\n    return 0\n", "f"
        )
        assert [n.event for n in cfg.event_nodes()] == [
            ("opaque", "<genexpr>")
        ]

    def test_plain_generator_is_not_opaque(self):
        assert not cfg_of(
            "def f(x):\n    gen = (t for t in x)\n    return 0\n", "f"
        ).opaque


class TestOpacity:
    """Anything unmodellable must surface as a loud opaque node."""

    @pytest.mark.parametrize(
        "body",
        [
            "f = lambda: check()\n    f()",  # lambda-bound call
            "def inner():\n        check()\n    inner()",  # nested def
            "m = obj.check\n    m()",  # aliased method
            "handler = table[key]\n    handler()",  # table dispatch
        ],
    )
    def test_dynamic_calls_are_opaque(self, body):
        source = f"def f(obj, table, key):\n    {body}\n"
        model = ProgramCFG()
        model.add_source(source)
        assert model.functions["f"].opaque

    def test_dynamic_site_name_is_opaque(self):
        assert cfg_of(
            """
            def f(name):
                tesla_site(name)
            """,
            "f",
        ).opaque

    def test_plain_calls_are_not_opaque(self):
        assert not cfg_of(
            """
            def f(vp):
                check(vp)
                vp.lookup()
            """,
            "f",
        ).opaque


class TestProgramModel:
    def test_callers_include_deferred_bodies(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                def direct():
                    target()

                def via_nested():
                    def inner():
                        target()
                    register(inner)

                def via_lambda():
                    register(lambda: target())

                def bystander():
                    other()
                """
            )
        )
        assert model.callers_of("target") == [
            "direct", "via_lambda", "via_nested"
        ]

    def test_indirect_call_in_deferred_body_is_opaque(self):
        assert cfg_of(
            """
            def f(table):
                register(lambda: table["op"]())
            """,
            "f",
        ).opaque

    def test_nested_defs_are_not_top_level(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                def outer():
                    def inner():
                        pass
                    inner()
                """
            )
        )
        assert model.defines("outer") and not model.defines("inner")

    def test_methods_are_modelled(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                class Ops:
                    def lookup(self):
                        check()
                """
            )
        )
        assert model.defines("lookup")

    def test_summary_is_transitive(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                def a():
                    b()
                def b():
                    c()
                def c():
                    pass
                """
            )
        )
        emitted, opaque = model.summary("a")
        assert {"a", "b", "c"} >= {"b", "c"} and "c" in emitted
        assert not opaque

    def test_summary_terminates_on_recursion(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                def ping():
                    pong()
                def pong():
                    ping()
                """
            )
        )
        emitted, opaque = model.summary("ping")
        assert emitted == frozenset({"ping", "pong"})
        assert not opaque

    def test_opacity_propagates_through_summary(self):
        model = ProgramCFG()
        model.add_source(
            textwrap.dedent(
                """
                def caller():
                    shady()
                def shady(fn):
                    fn()
                """
            )
        )
        _, opaque = model.summary("caller")
        assert opaque

    def test_from_modules_reads_real_sources(self):
        from repro.kernel.vfs import vfs_ops

        model = ProgramCFG.from_modules([vfs_ops])
        assert model.defines("namei") and model.defines("VOP_LOOKUP")
        emitted, _ = model.summary("namei")
        assert "VOP_LOOKUP" in emitted
        assert "T.slo.vop_lookup.within1ms" in emitted
