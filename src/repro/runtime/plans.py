"""Per-(class, event-key) transition plans: tesla-jit's input.

The interpreted engine re-derives, on every event, facts that depend only
on the automaton and the event's dispatch key: which transitions could
possibly fire (``Automaton.enabled`` scans every outgoing transition of
every current state and re-checks kind/name), and what each symbol's
argument patterns mean (``EventSymbol.match`` walks the pattern AST).
That work is exactly the per-event instrumentation cost the paper's
section 5.2 optimisations attack.

A :class:`TransitionPlan` hoists all of it to build time.  For one
automaton and one dispatch key it precomputes:

* ``init`` / ``cleanup`` — the bound transitions this key can take, each
  paired with its compiled matcher (usually a no-op: bound events are
  static expressions);
* ``body`` — every EVENT/SITE transition whose symbol dispatches on this
  key, as ``(src-state, transition, compiled-matcher)`` triples.

The kind/name guards of the interpreted matchers are elided: a plan is
only ever consulted for events of its own key, so the guards are
tautological.  Plans are cached on each
:class:`~repro.runtime.store.ClassRuntime` and invalidated by the
process-wide :data:`~repro.runtime.epoch.interest_epoch`, so attaching a
class mid-trace rebuilds stale plans before the next event is processed.

This module deliberately imports only :mod:`repro.core` (plus the
dependency-free fault-injection checkpoints) — the store imports *it*,
never the reverse.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.automaton import (
    Automaton,
    EventMatcher,
    Transition,
    TransitionKind,
)
from ..core.events import EventKind, RuntimeEvent
from ..core.patterns import Binding
from .faultinject import fault_point, fault_site

_FP_BUILD = fault_site("plans.build")

#: An event's routing identity, duplicated from ``runtime.store`` to keep
#: this module free of store imports (the dependency runs store → plans).
PlanKey = Tuple[EventKind, str]


#: Shared empty result: the per-instance common case is "no transition
#: enabled", which must not allocate.
_NO_MATCHES: Tuple = ()


class TransitionPlan:
    """Everything one automaton class does for one dispatch key.

    ``enabled`` is the compiled counterpart of :meth:`Automaton.enabled`
    — identical contract, (transition, new-bindings) pairs — but it scans
    only this key's precomputed body triples instead of every outgoing
    transition of every state, and runs compiled matchers instead of
    interpreting pattern ASTs.  It is specialised at build time for the
    0- and 1-entry shapes that dominate real plans.
    """

    __slots__ = ("key", "init", "cleanup", "body", "enabled")

    def __init__(
        self,
        key: PlanKey,
        init: Tuple[Tuple[Transition, EventMatcher], ...],
        cleanup: Tuple[Tuple[Transition, EventMatcher], ...],
        body: Tuple[Tuple[int, Transition, EventMatcher], ...],
    ) -> None:
        self.key = key
        self.init = init
        self.cleanup = cleanup
        self.body = body
        self.enabled = self._compile_enabled()

    def _compile_enabled(self):
        body = self.body
        if not body:

            def enabled_none(states, event, binding):
                return _NO_MATCHES

            return enabled_none
        if len(body) == 1:
            src0, t0, m0 = body[0]

            def enabled_one(states, event, binding):
                if src0 in states:
                    new = m0(event, binding)
                    if new is not None:
                        return ((t0, new),)
                return _NO_MATCHES

            return enabled_one

        def enabled_many(states, event, binding):
            result: List[Tuple[Transition, Binding]] = []
            for src, transition, matcher in body:
                if src not in states:
                    continue
                new = matcher(event, binding)
                if new is None:
                    continue
                result.append((transition, new))
            return result or _NO_MATCHES

        return enabled_many

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"<TransitionPlan {self.key[0].name}:{self.key[1]!r} "
            f"init={len(self.init)} cleanup={len(self.cleanup)} "
            f"body={len(self.body)}>"
        )


def build_transition_plan(automaton: Automaton, key: PlanKey) -> TransitionPlan:
    """Compile one automaton's reaction to one dispatch key.

    Site symbols dispatch on the *automaton's* name (the event translator
    names assertion-site events after the assertion), mirroring
    ``Automaton.dispatch_keys``.
    """
    fault_point(_FP_BUILD)
    init: List[Tuple[Transition, EventMatcher]] = []
    cleanup: List[Tuple[Transition, EventMatcher]] = []
    body: List[Tuple[int, Transition, EventMatcher]] = []
    compiled: Dict[int, EventMatcher] = {}
    for t in automaton.transitions:
        if t.symbol is None:
            continue
        symbol = automaton.symbols[t.symbol]
        kind, name = symbol.dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            symbol_key = (kind, automaton.name)
        else:
            symbol_key = (kind, name)
        if symbol_key != key:
            continue
        matcher = compiled.get(t.symbol)
        if matcher is None:
            matcher = compiled[t.symbol] = symbol.compile_matcher()
        if t.kind is TransitionKind.INIT:
            init.append((t, matcher))
        elif t.kind is TransitionKind.CLEANUP:
            cleanup.append((t, matcher))
        elif t.kind in (TransitionKind.EVENT, TransitionKind.SITE):
            body.append((t.src, t, matcher))
    return TransitionPlan(key, tuple(init), tuple(cleanup), tuple(body))
