"""Unit tests for the assertion → automaton translation."""

import importlib

import pytest

from repro.core.automaton import TransitionKind
from repro.core.determinize import accepts, letter_of
from repro.core.dsl import (
    ANY,
    atleast,
    call,
    either,
    eventually,
    fn,
    one_of,
    optionally,
    previously,
    returnfrom,
    tesla_within,
    tsequence,
    var,
)
from repro.core.ast import AtLeast, FunctionCall, Sequence
from repro.core.translate import Translator, automaton_for, translate, translate_all
from repro.errors import AssertionParseError

# ``repro.core.translate`` the module (the package re-exports the function
# under the same name).
translate_module = importlib.import_module("repro.core.translate")


def letters(automaton, *kinds_and_symbols):
    """Build a word of letters from (kind, symbol-description) pairs."""
    table = {}
    for t in automaton.transitions:
        if t.symbol is not None:
            table[(t.kind.value, automaton.symbols[t.symbol].describe())] = letter_of(t)
    return [table[pair] for pair in kinds_and_symbols]


def word_for(automaton, *descriptions):
    """Letters for init, the described events in order, then cleanup."""
    init = next(
        letter_of(t) for t in automaton.transitions if t.kind is TransitionKind.INIT
    )
    cleanup = next(
        letter_of(t) for t in automaton.transitions if t.kind is TransitionKind.CLEANUP
    )
    middles = []
    for description in descriptions:
        found = None
        for t in automaton.transitions:
            if t.symbol is None:
                continue
            if t.kind in (TransitionKind.EVENT, TransitionKind.SITE):
                if automaton.symbols[t.symbol].describe() == description:
                    found = letter_of(t)
                    break
        assert found is not None, f"no transition labelled {description!r}"
        middles.append(found)
    return [init] + middles + [cleanup]


SITE = "TESLA_ASSERTION_SITE"


class TestPreviously:
    def test_structure_matches_figure9(self):
        assertion = tesla_within(
            "syscall", previously(fn("check", ANY("c"), var("so")) == 0), name="f9"
        )
        automaton = translate(assertion)
        # init -> check -> site -> cleanup: five states, four transitions.
        assert automaton.n_states == 5
        kinds = sorted(t.kind.value for t in automaton.transitions)
        assert kinds == ["assertion-site", "cleanup", "event", "init"]

    def test_accepts_check_then_site(self):
        automaton = translate(
            tesla_within("m", previously(call("check")), name="a")
        )
        assert accepts(automaton, word_for(automaton, "call(check)", SITE))

    def test_rejects_site_without_check_at_site(self):
        automaton = translate(
            tesla_within("m", previously(call("check")), name="b")
        )
        # site before check: under move-or-stay stepping the automaton
        # never reaches accept.
        assert not accepts(automaton, word_for(automaton, SITE))

    def test_bypass_without_site_does_not_accept_but_runtime_discards(self):
        automaton = translate(
            tesla_within("m", previously(call("check")), name="c")
        )
        # The word check,cleanup (no site) does not *accept*; the runtime's
        # silent-discard handles it.  Here we just pin the language.
        assert not accepts(automaton, word_for(automaton, "call(check)"))


class TestEventually:
    def test_site_first_then_event(self):
        automaton = translate(
            tesla_within("m", eventually(call("audit")), name="d")
        )
        assert accepts(automaton, word_for(automaton, SITE, "call(audit)"))
        assert not accepts(automaton, word_for(automaton, SITE))


class TestSequence:
    def test_order_enforced(self):
        automaton = translate(
            tesla_within(
                "m", previously(tsequence(call("a"), call("b"))), name="e"
            )
        )
        assert accepts(automaton, word_for(automaton, "call(a)", "call(b)", SITE))
        assert not accepts(automaton, word_for(automaton, "call(b)", "call(a)", SITE))

    def test_duplicates_ignored_in_nonstrict_mode(self):
        automaton = translate(
            tesla_within(
                "m", previously(tsequence(call("a"), call("b"))), name="g"
            )
        )
        word = word_for(automaton, "call(a)", "call(a)", "call(b)", SITE)
        assert accepts(automaton, word)


class TestBooleanOr:
    def _automaton(self):
        return translate(
            tesla_within(
                "m", previously(either(call("a"), call("b"))), name="or1"
            )
        )

    def test_either_branch_satisfies(self):
        automaton = self._automaton()
        assert accepts(automaton, word_for(automaton, "call(a)", SITE))
        assert accepts(automaton, word_for(automaton, "call(b)", SITE))

    def test_both_branches_not_an_error(self):
        automaton = self._automaton()
        assert accepts(automaton, word_for(automaton, "call(a)", "call(b)", SITE))
        assert accepts(automaton, word_for(automaton, "call(b)", "call(a)", SITE))

    def test_neither_branch_fails(self):
        automaton = self._automaton()
        assert not accepts(automaton, word_for(automaton, SITE))

    def test_three_way_or(self):
        automaton = translate(
            tesla_within(
                "m",
                previously(either(call("a"), call("b"), call("c"))),
                name="or3",
            )
        )
        assert accepts(automaton, word_for(automaton, "call(c)", SITE))
        assert accepts(
            automaton, word_for(automaton, "call(a)", "call(c)", SITE)
        )


class TestBooleanXor:
    def test_single_branch_accepts(self):
        automaton = translate(
            tesla_within(
                "m", previously(one_of(call("a"), call("b"))), name="x1"
            )
        )
        assert accepts(automaton, word_for(automaton, "call(a)", SITE))
        assert accepts(automaton, word_for(automaton, "call(b)", SITE))


class TestOptional:
    def test_optional_may_be_skipped(self):
        automaton = translate(
            tesla_within(
                "m",
                previously(tsequence(optionally(call("a")), call("b"))),
                name="opt",
            )
        )
        assert accepts(automaton, word_for(automaton, "call(b)", SITE))
        assert accepts(automaton, word_for(automaton, "call(a)", "call(b)", SITE))


class TestAtLeast:
    def test_zero_minimum_accepts_immediately(self):
        automaton = translate(
            tesla_within("m", previously(atleast(0, call("a"))), name="al0")
        )
        assert accepts(automaton, word_for(automaton, SITE))
        assert accepts(automaton, word_for(automaton, "call(a)", SITE))
        assert accepts(automaton, word_for(automaton, "call(a)", "call(a)", SITE))

    def test_minimum_two_requires_two_events(self):
        automaton = translate(
            tesla_within(
                "m", previously(atleast(2, call("a"), call("b"))), name="al2"
            )
        )
        assert not accepts(automaton, word_for(automaton, "call(a)", SITE))
        assert accepts(automaton, word_for(automaton, "call(a)", "call(b)", SITE))
        assert accepts(automaton, word_for(automaton, "call(b)", "call(b)", SITE))

    def test_non_concrete_event_rejected(self):
        with pytest.raises(AssertionParseError):
            translate(
                tesla_within(
                    "m",
                    previously(atleast(1, tsequence(call("a"), call("b")))),
                    name="bad",
                )
            )


class TestStructure:
    def test_exactly_one_init_and_cleanup_key(self):
        automaton = translate(
            tesla_within("m", previously(call("a")), name="s1")
        )
        inits = [t for t in automaton.transitions if t.kind is TransitionKind.INIT]
        cleanups = [
            t for t in automaton.transitions if t.kind is TransitionKind.CLEANUP
        ]
        assert len(inits) == 1
        assert len(cleanups) == 1
        assert inits[0].src == automaton.start
        assert cleanups[0].dst == automaton.accept

    def test_site_variables_recorded_on_site_symbol(self):
        automaton = translate(
            tesla_within(
                "m",
                previously(fn("check", var("vp"), var("cred")) == 0),
                name="s2",
            )
        )
        site_symbols = [
            automaton.symbols[t.symbol]
            for t in automaton.transitions
            if t.kind is TransitionKind.SITE
        ]
        assert site_symbols
        assert set(site_symbols[0].site_variables) == {"vp", "cred"}

    def test_duplicate_names_rejected(self):
        a = tesla_within("m", previously(call("f")), name="dup")
        b = tesla_within("m", previously(call("g")), name="dup")
        with pytest.raises(AssertionParseError):
            translate_all([a, b])

    def test_dispatch_keys_cover_bounds_and_events(self):
        from repro.core.events import EventKind

        automaton = translate(
            tesla_within("m", previously(call("check")), name="s3")
        )
        keys = automaton.dispatch_keys()
        assert (EventKind.CALL, "m") in keys
        assert (EventKind.RETURN, "m") in keys
        assert (EventKind.CALL, "check") in keys
        assert (EventKind.ASSERTION_SITE, "s3") in keys


def counting_translations(monkeypatch):
    """Patch the analyser to record the name of every assertion it
    translates; returns the list it appends to."""
    calls = []
    original = Translator.translate

    def counting(self):
        calls.append(self.assertion.name)
        return original(self)

    monkeypatch.setattr(Translator, "translate", counting)
    return calls


def const_assertion(value, name="memo-const"):
    return tesla_within("m", previously(fn("check", value) == 0), name=name)


class TestAutomatonMemo:
    def test_equal_assertions_share_one_automaton(self):
        first = automaton_for(const_assertion(7, name="memo-eq"))
        again = automaton_for(const_assertion(7, name="memo-eq"))
        assert again is first

    def test_translate_stays_uncached(self):
        assertion = const_assertion(7, name="memo-fresh")
        automaton_for(assertion)
        assert translate(assertion) is not translate(assertion)
        assert translate(assertion) is not automaton_for(assertion)

    @pytest.mark.parametrize("values", [(1, True, 1.0), (0.0, -0.0)])
    def test_equal_but_distinguishable_constants(self, values):
        assertions = [const_assertion(v, name="memo-num") for v in values]
        assert len(set(assertions)) == 1  # they compare and hash equal
        automata = [automaton_for(a) for a in assertions]
        assert len({id(a) for a in automata}) == len(values)
        for assertion, automaton in zip(assertions, automata):
            assert automaton.description == assertion.describe()
        assert len({a.description for a in automata}) == len(values)

    def test_unhashable_constant_translates(self):
        assertion = const_assertion([1, 2], name="memo-list")
        with pytest.raises(TypeError):
            hash(assertion)
        first = automaton_for(assertion)
        assert "[1, 2]" in first.description
        assert automaton_for(assertion) is not first

    def test_rejections_are_not_memoised(self, monkeypatch):
        nested = AtLeast(1, (Sequence((FunctionCall("a"), FunctionCall("b"))),))
        broken = tesla_within("m", nested, name="memo-broken", location="mod:fn")
        calls = counting_translations(monkeypatch)
        for _ in range(2):
            with pytest.raises(AssertionParseError) as excinfo:
                automaton_for(broken)
            assert excinfo.value.assertion == "memo-broken"
            assert "(at mod:fn)" in str(excinfo.value)
        assert calls == ["memo-broken", "memo-broken"]

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(translate_module, "AUTOMATON_MEMO_LIMIT", 4)
        for i in range(10):
            automaton_for(const_assertion(i, name="memo-bound"))
            assert len(translate_module._AUTOMATA) <= 4
        # A cleared memo still answers: a fresh translation, equal shape.
        again = automaton_for(const_assertion(0, name="memo-bound"))
        assert again.description == const_assertion(0).describe()

    def test_install_translates_each_assertion_once(self, monkeypatch):
        """A cold install translates each assertion once — the lint gate
        reads the same automata — and a warm one translates nothing."""
        from repro.runtime.manager import TeslaRuntime

        def batch():
            return [
                const_assertion(i, name=f"memo-install{i}") for i in range(5)
            ]

        calls = counting_translations(monkeypatch)
        translate_module._AUTOMATA.clear()
        cold = TeslaRuntime(lint="warn")
        cold.install_assertions(batch())
        assert sorted(calls) == sorted(a.name for a in batch())
        assert cold.lint_report.assertions_checked == 5
        calls.clear()
        warm = TeslaRuntime(lint="warn")
        warm.install_assertions(batch())
        assert calls == []
        assert warm.automata == cold.automata
