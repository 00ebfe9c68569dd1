"""The lifecycle of §4.4.1 over a :class:`~repro.runtime.prealloc.RowPool`.

Generated code (``codegen``) keeps a compiled class's instances as rows:
a binding key mapped to an interned state-set number.  It steps the
common shapes inline; this module holds what it calls for the rest, each
the row form of one reference helper in ``update``:

* :func:`walk` — ``tesla_update_state``'s instance walk (match, split by
  new bindings, clone, re-step the clone, pool the clones, report rate
  guards), for keys whose event may match rows other than the one its
  values name;
* :func:`already` — ``_already_satisfied``;
* :func:`expire` — ``expire_deadlines``;
* :func:`init` — ``handle_init`` (and ``_materialise``) of an eager
  runtime;
* :func:`interpret` — any reference helper run on
  :class:`~repro.runtime.instance.AutomatonInstance` copies of the rows,
  which are then read back (a detailed hub's lifecycle notifications).

:class:`Outcomes` memoises what one generated step does to a row whose
binding its event matches: ``number → (new number, transition indices,
took a site transition)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.automaton import Transition, TransitionKind
from ..core.events import RuntimeEvent
from . import faultinject as _fi
from .instance import binding_name
from .notify import Notification, NotificationHub, NotificationKind
from .prealloc import InstancePool, StateSets, TimedRow, _same_binding
from .store import ClassRuntime
from .update import (
    _FP_INIT,
    _MISSING,
    _filter_guards,
    _match_static,
    rate_violations,
    report_expired,
)


class Outcomes(dict):
    """``number → (new number, transition indices, took site)``, or
    ``None`` when no transition of the step is enabled from the set,
    for one generated step's ``(src, transition)`` pairs — every pair's
    symbol having matched.  Filled on first use of each number."""

    __slots__ = ("sets", "pairs")

    def __init__(self, sets: StateSets,
                 pairs: List[Tuple[int, Transition]]) -> None:
        super().__init__()
        self.sets = sets
        self.pairs = pairs

    def __missing__(self, num: int):
        states = self.sets.sets[num]
        taken = tuple(t for src, t in self.pairs if src in states)
        out = None
        if taken:
            new, took = self.sets.step(num, taken)
            index = self.sets.automaton.transition_index
            out = (new, tuple(index[t] for t in taken), took)
        self[num] = out
        return out


def overflow(cr: ClassRuntime, hub: NotificationHub,
             binding: Dict[str, Any]) -> None:
    """The once-per-bound OVERFLOW report for a row the pool dropped."""
    if not cr.overflow_reported:
        cr.overflow_reported = True
        hub.emit(
            Notification(
                kind=NotificationKind.OVERFLOW,
                automaton=cr.automaton.name,
                instance_name=binding_name(binding),
            )
        )


def init(cr: ClassRuntime, event: RuntimeEvent,
         hub: NotificationHub) -> None:
    """``handle_init`` for an eager compiled runtime (a lazy key function
    joins bounds inline)."""
    if cr.active:
        return
    if _fi._active is not None:
        _fi.fault_point(_FP_INIT)
    transition, binding = _match_static(cr, event, TransitionKind.INIT)
    cr.active = True
    cr.overflow_mark = cr.pool.overflows
    cr.overflow_reported = False
    cr.count_transition(transition)
    pool = cr.pool
    if pool.admit():
        num = pool.sets.number(cr.automaton.entry_states, False)
        ts = pool.entry_ts = event.timestamp
        pool.put(dict(binding),
                 TimedRow(num, ts, ts) if pool.timed else num)
    else:
        overflow(cr, hub, binding)


def interpret(fn, cr: ClassRuntime, event: RuntimeEvent,
              hub: NotificationHub, *args) -> None:
    """Run the reference helper ``fn(cr, event, hub, *args)`` on
    instance copies of ``cr``'s rows, then store the instances back as
    rows (counters included)."""
    rows = cr.pool
    pool = InstancePool(rows.capacity)
    pool._instances = rows.instances()
    pool.overflows = rows.overflows
    pool.high_water = rows.high_water
    cr.pool = pool
    try:
        fn(cr, event, hub, *args)
    finally:
        cr.pool = rows
        rows.load(pool._instances)
        rows.overflows = pool.overflows
        rows.high_water = pool.high_water


def body_matches(body, states, event, binding):
    """The ``(transition, new bindings)`` pairs of ``body`` enabled from
    ``states`` on ``event`` under ``binding`` (``Automaton.enabled`` over
    one key's triples, in their order)."""
    return [
        (t, new)
        for src, t, matcher in body
        if src in states and (new := matcher(event, binding)) is not None
    ]


def walk(cr: ClassRuntime, event: RuntimeEvent, hub: NotificationHub,
         body) -> Tuple[bool, bool]:
    """``tesla_update_state``'s walk over every row, for the ``body``
    triples ``(src, transition, matcher)`` of one key.  Returns
    ``(any progress, site taken)``."""
    pool = cr.pool
    sets = pool.sets
    counts = cr.counts
    index = cr.automaton.transition_index
    timed = pool.timed
    ts = event.timestamp
    rate_blocked: Optional[set] = None
    progress = site = False
    clones: List[Tuple[Dict[str, Any], Any]] = []

    def advance(value, taken) -> Any:
        """Move one row over ``taken``; return its new value."""
        nonlocal site
        num = value.num if timed else value
        new, took = sets.step(num, tuple(taken))
        for t in taken:
            counts[index[t]] += 1
        if took:
            cr.sites_reached += 1
            site = True
        if not timed:
            return new
        value.num = new
        value.last_ts = ts
        return value

    for key, value in pool.items():
        binding = {} if key is None else pool.binding_of(key)
        states = sets.sets[value.num if timed else value]
        matches = body_matches(body, states, event, binding)
        if not matches:
            continue
        if timed:
            if rate_blocked is None:
                rate_blocked = set()
            matches = _filter_guards(value, matches, event, rate_blocked)
            if not matches:
                continue
        empty: List[Transition] = []
        extensions: List[Dict[str, Any]] = []
        for transition, new in matches:
            if new:
                if not any(_same_binding(new, seen) for seen in extensions):
                    extensions.append(new)
            else:
                empty.append(transition)
        if empty:
            progress = True
            value = advance(value, empty)
            if key is None:
                pool.wild = value
            else:
                pool.rows[key] = value
        for extension in extensions:
            merged = dict(binding)
            merged.update(extension)
            if pool.find(merged) is not None or any(
                _same_binding(merged, seen) for seen, _ in clones
            ):
                continue
            row = value.copy() if timed else value
            clone_matches = body_matches(
                body, sets.sets[row.num if timed else row], event, merged
            )
            if timed and clone_matches:
                clone_matches = _filter_guards(row, clone_matches, event,
                                               rate_blocked)
            complete = [t for t, new in clone_matches if not new]
            if complete:
                progress = True
                row = advance(row, complete)
            clones.append((merged, row))
    for merged, row in clones:
        if pool.admit():
            pool.put(merged, row)
        else:
            overflow(cr, hub, merged)
    if rate_blocked:
        rate_violations(cr, event, hub, rate_blocked)
    return progress, site


def already(cr: ClassRuntime, event: RuntimeEvent) -> bool:
    """``_already_satisfied``: a row that passed the site is compatible
    with this site occurrence's scope values."""
    pool = cr.pool
    saw = pool.sets.site
    timed = pool.timed
    scope = event.scope
    supplied = [
        (name, scope[name]) for name in cr.automaton.site_variables
        if name in scope
    ]
    for key, value in pool.items():
        if not saw[value.num if timed else value]:
            continue
        binding = {} if key is None else pool.binding_of(key)
        for name, given in supplied:
            bound = binding.get(name, _MISSING)
            if bound is _MISSING or not (bound is given or bound == given):
                break
        else:
            return True
    return False


def expire(cr: ClassRuntime, now: float, hub: NotificationHub,
           event: Optional[RuntimeEvent] = None) -> int:
    """``expire_deadlines`` over rows (a deadline class is timed, so its
    rows are :class:`TimedRow`\\ s)."""
    deadline = cr.automaton.deadline_s
    if deadline is None or not cr.active:
        return 0
    pool = cr.pool
    verdict = pool.sets.verdict
    expired = [
        (key, value) for key, value in pool.items()
        if verdict[value.num] == 2 and now - value.entry_ts > deadline
    ]
    views = [pool.view(key, value) for key, value in expired]
    for key, _ in expired:
        pool.remove(key)
    report_expired(cr, views, hub, event)
    return len(views)
