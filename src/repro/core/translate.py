"""The analyser's core: translating assertion ASTs into automata.

This reproduces the recursive descent of the paper's Clang-based analyser
(section 4.1): each concrete event becomes an alphabet symbol and a
transition, sequences concatenate, inclusive OR builds the cross-product of
section 3.4.2, and the whole expression is wrapped in the temporal bound —
an «init» transition on the bound's entry event and a «cleanup» transition
on its exit event.

The paper's example is preserved exactly: ``TESLA_WITHIN(syscall,
eventually(foo(x)==0))`` yields a chain ``call(syscall)`` →
``TESLA_ASSERTION_SITE`` → ``foo(x)==0`` → ``returnfrom(syscall)``; code
paths that never reach the assertion site are allowed (the "bypass"
behaviour — encoded here as silent discard of instances that never took a
site transition, see :mod:`repro.runtime.update`).

:func:`translate` is the analyser itself and never caches: the build
model of figure 10 re-translates per unit on purpose.  The runtime side —
``install_assertions`` and its lint gate, per-object monitors and journal
replay — goes through :func:`automaton_for`, which translates each
assertion once per process.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from ..errors import AssertionParseError
from .ast import (
    AssertionSite,
    AtLeast,
    InCallStack,
    BooleanOr,
    BooleanXor,
    Conditional,
    Deadline,
    Expression,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
    Optional_,
    RateAtMost,
    Sequence,
    Strict,
    TemporalAssertion,
    WithinMs,
    referenced_variables,
)
from .automaton import (
    Automaton,
    ClockGuard,
    EventSymbol,
    Fragment,
    FragmentBuilder,
    Transition,
    TransitionKind,
    assemble,
)
from .product import cross_product_many


class Translator:
    """Translates one :class:`TemporalAssertion` into an :class:`Automaton`."""

    def __init__(self, assertion: TemporalAssertion) -> None:
        self.assertion = assertion
        self.builder = FragmentBuilder()
        self._site_variables = referenced_variables(assertion)
        # Timed translation state: the tightest deadline(...) budget seen
        # (seconds, becomes Automaton.deadline_s) and a nesting latch —
        # a guard has exactly one reference clock, so a timed node inside
        # another timed node has no coherent semantics and is rejected.
        self._deadline_s: "float | None" = None
        self._in_timed = False

    def translate(self) -> Automaton:
        try:
            return self._translate()
        except AssertionParseError as error:
            if error.assertion:
                raise  # already attributed by a nested translation
            raise AssertionParseError(
                error.plain_message,
                assertion=self.assertion.name,
                location=self.assertion.location,
                expression=self.assertion.expression.describe(),
            ) from None

    def _translate(self) -> Automaton:
        body = self._descend(self.assertion.expression)
        init_symbol = self._bound_symbol(self.assertion.bound.entry)
        cleanup_symbol = self._bound_symbol(self.assertion.bound.exit)
        return assemble(
            name=self.assertion.name,
            builder=self.builder,
            body=body,
            init_symbol=init_symbol,
            cleanup_symbol=cleanup_symbol,
            strict=self.assertion.strict,
            description=self.assertion.describe(),
            deadline_s=self._deadline_s,
        )

    # -- helpers -------------------------------------------------------------

    def _bound_symbol(self, expr: Expression) -> EventSymbol:
        if not isinstance(expr, (FunctionCall, FunctionReturn, FieldAssign)):
            raise AssertionParseError(
                f"temporal bound must be a concrete event: {expr.describe()}"
            )
        return EventSymbol(expr)

    def _descend(self, expr: Expression) -> Fragment:
        builder = self.builder
        if isinstance(expr, (FunctionCall, FunctionReturn, FieldAssign)):
            return builder.event(EventSymbol(expr))
        if isinstance(expr, AssertionSite):
            symbol = EventSymbol(expr, site_variables=self._site_variables)
            return builder.event(symbol, kind=TransitionKind.SITE)
        if isinstance(expr, Sequence):
            return builder.concat([self._descend(p) for p in expr.parts])
        if isinstance(expr, BooleanOr):
            return cross_product_many(
                builder, [self._descend(b) for b in expr.branches]
            )
        if isinstance(expr, BooleanXor):
            return builder.alternate([self._descend(b) for b in expr.branches])
        if isinstance(expr, Optional_):
            return builder.optional(self._descend(expr.inner))
        if isinstance(expr, InCallStack):
            # A revocable enablement: OUT --call--> IN --return--> OUT,
            # with the fragment exiting at IN so only in-activation code
            # can proceed (to the site, in figure 7's usage).
            out_state = builder.state()
            in_state = builder.state()
            call_symbol = builder.symbol(
                EventSymbol(FunctionCall(expr.function, None))
            )
            return_symbol = builder.symbol(
                EventSymbol(FunctionReturn(expr.function, None, None))
            )
            return Fragment(
                entry=out_state,
                exit=in_state,
                transitions=[
                    Transition(out_state, in_state, TransitionKind.EVENT, call_symbol),
                    Transition(in_state, out_state, TransitionKind.EVENT, return_symbol),
                ],
            )
        if isinstance(expr, AtLeast):
            symbols: List[EventSymbol] = []
            for event in expr.events:
                if not isinstance(event, (FunctionCall, FunctionReturn, FieldAssign)):
                    raise AssertionParseError(
                        "ATLEAST events must be concrete events, got "
                        + event.describe()
                    )
                symbols.append(EventSymbol(event))
            return builder.at_least(expr.minimum, symbols)
        if isinstance(expr, (Strict, Conditional)):
            # Strictness is an automaton-level property recorded on the
            # assertion by the DSL; mid-expression occurrences are inert.
            return self._descend(expr.inner)
        if isinstance(expr, (WithinMs, Deadline, RateAtMost)):
            if self._in_timed:
                raise AssertionParseError(
                    "nested clock guards are not supported: "
                    + expr.describe()
                )
            if isinstance(expr, WithinMs):
                frag = self._timed_inner(expr.parts)
                return self._apply_guard(
                    frag, ClockGuard("since_prev", expr.ms / 1000.0)
                )
            if isinstance(expr, Deadline):
                frag = self._timed_inner(expr.parts)
                limit = expr.ms / 1000.0
                self._deadline_s = (
                    limit
                    if self._deadline_s is None
                    else min(self._deadline_s, limit)
                )
                return self._apply_guard(
                    frag, ClockGuard("since_entry", limit)
                )
            if not isinstance(
                expr.event, (FunctionCall, FunctionReturn, FieldAssign)
            ):
                raise AssertionParseError(
                    "rate_atmost event must be a concrete event, got "
                    + expr.event.describe()
                )
            # A single state self-looping on the rated event, mirroring
            # ATLEAST(0, e): occurrences are always permitted structurally;
            # the sliding-window guard is what the runtime enforces.
            idx = builder.symbol(EventSymbol(expr.event))
            state = builder.state()
            guard = ClockGuard("rate", expr.per_ms / 1000.0, expr.count)
            return Fragment(
                state,
                state,
                [Transition(state, state, TransitionKind.EVENT, idx, guard)],
            )
        raise AssertionParseError(f"unhandled expression: {expr!r}")

    def _timed_inner(self, parts) -> Fragment:
        """Descend a timed node's body with the nesting latch held."""
        self._in_timed = True
        try:
            return self.builder.concat([self._descend(p) for p in parts])
        finally:
            self._in_timed = False

    @staticmethod
    def _apply_guard(frag: Fragment, guard: ClockGuard) -> Fragment:
        """Attach ``guard`` to every observable transition of ``frag``.

        Epsilons are left alone (they are eliminated during assembly and
        carry no event to time); EVENT and SITE transitions each pick up
        the clock constraint.
        """
        guarded = [
            Transition(t.src, t.dst, t.kind, t.symbol, guard)
            if t.kind in (TransitionKind.EVENT, TransitionKind.SITE)
            else t
            for t in frag.transitions
        ]
        return Fragment(frag.entry, frag.exit, guarded, frag.n_states)


def translate(assertion: TemporalAssertion) -> Automaton:
    """Translate an assertion into its automaton."""
    return Translator(assertion).translate()


#: Entries :func:`automaton_for` keeps before it clears its memo.
AUTOMATON_MEMO_LIMIT = 512

_AUTOMATA: Dict[Tuple[TemporalAssertion, str], Automaton] = {}
_AUTOMATA_LOCK = threading.Lock()


def automaton_for(assertion: TemporalAssertion) -> Automaton:
    """The assertion's automaton, translated once per process.

    An automaton is immutable once translated (run state lives in each
    runtime's class runtimes), so every runtime may share it.  The memo
    is keyed by the assertion *and* its ``describe()`` string: constants
    such as ``1``, ``True`` and ``1.0`` (or ``0.0`` and ``-0.0``) compare
    and hash equal but describe differently, and their automata carry
    that description into every violation report.  An assertion that
    cannot be hashed is translated afresh; a rejection raises and is not
    remembered.  The memo is cleared when it holds
    :data:`AUTOMATON_MEMO_LIMIT` entries.
    """
    try:
        key = (assertion, assertion.describe())
        automaton = _AUTOMATA.get(key)
    except TypeError:  # an unhashable constant
        return translate(assertion)
    if automaton is None:
        automaton = translate(assertion)
        with _AUTOMATA_LOCK:
            if len(_AUTOMATA) >= AUTOMATON_MEMO_LIMIT:
                _AUTOMATA.clear()
            automaton = _AUTOMATA.setdefault(key, automaton)
    return automaton


def translate_all(
    assertions: List[TemporalAssertion],
    translator: Callable[[TemporalAssertion], Automaton] = translate,
) -> List[Automaton]:
    """Translate a batch of assertions, checking for name collisions.

    ``translator`` is :func:`translate` (fresh automata) or
    :func:`automaton_for` (the process-wide memo)."""
    seen = {}
    automata = []
    for assertion in assertions:
        if assertion.name in seen:
            raise AssertionParseError(
                f"duplicate assertion name {assertion.name!r} "
                f"(also declared as {seen[assertion.name].describe()})",
                assertion=assertion.name,
                location=assertion.location,
                expression=assertion.expression.describe(),
            )
        seen[assertion.name] = assertion
        automata.append(translator(assertion))
    return automata
