"""Per-(class, event-key) transition plans: tesla-jit's input.

The interpreted engine re-derives, on every event, facts that depend only
on the automaton and the event's dispatch key: which transitions could
possibly fire (``Automaton.enabled`` scans every outgoing transition of
every current state and re-checks kind/name), and what each symbol's
argument patterns mean (``EventSymbol.match`` walks the pattern AST).
That work is exactly the per-event instrumentation cost the paper's
section 5.2 optimisations attack.

A :class:`TransitionPlan` hoists all of it to build time.  For one
automaton and one dispatch key it precomputes ``body``: every EVENT/SITE
transition whose symbol dispatches on this key, as ``(src-state,
transition, compiled-matcher)`` triples — the generator's input.

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
from ..core.events import EventKind
from .faultinject import fault_point, fault_site

_FP_BUILD = fault_site("plans.build")

#: An event's routing identity, duplicated from ``runtime.store`` to keep
#: this module free of store imports (the dependency runs store → plans).
PlanKey = Tuple[EventKind, str]

_BODY_KINDS = (TransitionKind.EVENT, TransitionKind.SITE)


class TransitionPlan:
    """Everything one automaton class does for one dispatch key: the
    ``body`` triples tesla-jit generates a step from."""

    __slots__ = ("key", "body")

    def __init__(
        self,
        key: PlanKey,
        body: Tuple[Tuple[int, Transition, EventMatcher], ...],
    ) -> None:
        self.key = key
        self.body = body

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"<TransitionPlan {self.key[0].name}:{self.key[1]!r} "
            f"body={len(self.body)}>"
        )


def build_transition_plan(automaton: Automaton, key: PlanKey) -> TransitionPlan:
    """Compile one automaton's reaction to one dispatch key.

    Site symbols dispatch on the *automaton's* name (the event translator
    names assertion-site events after the assertion), mirroring
    ``Automaton.dispatch_keys``.
    """
    fault_point(_FP_BUILD)
    body: List[Tuple[int, Transition, EventMatcher]] = []
    compiled: Dict[int, EventMatcher] = {}
    for t in automaton.transitions:
        if t.symbol is None or t.kind not in _BODY_KINDS:
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
        body.append((t.src, t, matcher))
    return TransitionPlan(key, tuple(body))
