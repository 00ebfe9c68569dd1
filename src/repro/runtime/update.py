"""``tesla_update_state`` — the transition engine at the heart of libtesla.

Given one concrete program event and one automaton class, this module
advances the class's instances through the lifecycle of section 4.4.1:

«init»
    The temporal bound's entry event activates the class and creates the
    wildcard instance ``(∗)`` (eagerly, or lazily on first relevant event
    when the section 5.2.2 optimisation is enabled).

«clone»
    An event that supplies a value for a free variable clones a named
    instance which takes the transition; ``(∗)`` remains to spawn more.

update
    Instances step over *sets* of NFA states: states with an enabled
    transition move, states without one stay (the default, non-strict
    "ignore events that cannot advance" semantics; ``strict`` automata
    instead treat an unconsumable referenced event as a violation).

error
    An assertion-site event that *no* instance can accept is a temporal
    violation — e.g. the site names ``vp3`` but only ``(vp1)``/``(vp2)``
    were ever checked.

«cleanup»
    The bound's exit event finalises the class: instances whose state set
    enables a cleanup transition accept; instances that passed the
    assertion site but did not discharge their remaining (``eventually``)
    obligations are violations; instances that never reached the site are
    discarded silently — the "bypass" behaviour for code paths that never
    execute the assertion.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.automaton import Transition, TransitionKind
from ..core.events import EventKind, RuntimeEvent
from ..errors import TemporalViolation
from . import faultinject as _fi
from .faultinject import fault_site
from .instance import AutomatonInstance
from .notify import Notification, NotificationHub, NotificationKind
from .store import BoundId, BoundTracker, ClassRuntime

_FP_INIT = fault_site("update.init")
_FP_STEP = fault_site("update.step")
_FP_CLEANUP = fault_site("update.cleanup")

#: Violation reason strings for the timed semantics (DESIGN §5.9).  These
#: are part of the three-way contract between the runtime, the journal
#: replay oracle (``repro.replay.ltl_oracle.RUNTIME_REASONS``) and the
#: differential tests — change them in lockstep or not at all.
DEADLINE_REASON = (
    "deadline expired before the automaton discharged its obligations "
    "(no permitted successor event arrived in time)"
)
RATE_REASON = (
    "rate limit exceeded: more matching events than allowed within the "
    "sliding window"
)


def _match_static(cr: ClassRuntime, event: RuntimeEvent, kind: TransitionKind):
    """Match ``event`` against the class's init or cleanup symbol.

    Returns the new-binding dict on match (usually empty — bound events are
    static expressions), or None.
    """
    for t in cr.automaton.transitions:
        if t.kind is not kind or t.symbol is None:
            continue
        got = cr.automaton.symbols[t.symbol].match(event, {})
        if got is not None:
            return t, got
    return None, None


def matches_init(cr: ClassRuntime, event: RuntimeEvent) -> bool:
    """Whether the event opens this class's temporal bound."""
    t, _ = _match_static(cr, event, TransitionKind.INIT)
    return t is not None


def matches_cleanup(cr: ClassRuntime, event: RuntimeEvent) -> bool:
    """Whether the event closes this class's temporal bound."""
    t, _ = _match_static(cr, event, TransitionKind.CLEANUP)
    return t is not None


def expire_deadlines(
    cr: ClassRuntime,
    now: float,
    hub: NotificationHub,
    event: Optional[RuntimeEvent] = None,
) -> int:
    """Expire instances whose ``deadline(...)`` budget has run out.

    An instance is expired when it has opened an obligation (took the
    assertion site), cannot yet accept, and more than ``deadline_s``
    seconds of capture time have passed since its bound entry.  Expired
    instances are pruned and reported as violations immediately — this is
    what makes a missed deadline surface *without* a successor event.
    Called from two places with identical semantics: per-class before each
    event (so the verdict stream is a pure function of the timestamped
    trace in every dispatch configuration), and from the manager's timer
    check at sync-point flushes (the no-successor-event path).

    Returns the number of instances expired.
    """
    deadline = cr.automaton.deadline_s
    if deadline is None or not cr.active:
        return 0
    expired = cr.pool.prune(
        lambda i: i.saw_site
        and not i.accepting_at_cleanup()
        and now - i.entry_ts > deadline
    )
    for instance in expired:
        cr.errors += 1
        violation = TemporalViolation(
            automaton=cr.automaton.name,
            reason=DEADLINE_REASON,
            event=event,
            binding=instance.binding_items(),
            sampling_rate=cr.sample_rate,
        )
        hub.emit(
            Notification(
                kind=NotificationKind.ERROR,
                automaton=cr.automaton.name,
                instance_name=instance.name,
                binding=instance.binding_items(),
                event=event,
                violation=violation,
            )
        )
    return len(expired)


def _materialise(
    cr: ClassRuntime,
    hub: NotificationHub,
    binding: Dict[str, Any],
    entry_ts: float = 0.0,
) -> None:
    """Create a fresh instance at the entry states and pool it, reporting
    an overflow once per bound.  Generated steps inline the case where the
    pool has room (``codegen._emit_event_body``); change them together."""
    instance = AutomatonInstance(
        automaton=cr.automaton,
        states=cr.automaton.entry_states,
        binding=binding,
        entry_ts=entry_ts,
    )
    if cr.pool.add(instance):
        if hub.detailed:
            hub.emit(
                Notification(
                    kind=NotificationKind.INIT,
                    automaton=cr.automaton.name,
                    instance_name=instance.name,
                    binding=instance.binding_items(),
                    states=tuple(sorted(instance.states)),
                )
            )
    elif not cr.overflow_reported:
        # One OVERFLOW report per bound, not one per dropped instance: a
        # saturated pool would otherwise flood the hub with a notification
        # for every event in the rest of the bound.  Raw drop counts stay
        # exact in ``cr.pool.stats()`` (§4.4.1's resize-next-run numbers).
        cr.overflow_reported = True
        hub.emit(
            Notification(
                kind=NotificationKind.OVERFLOW,
                automaton=cr.automaton.name,
                instance_name=instance.name,
            )
        )


def handle_init(
    cr: ClassRuntime,
    event: RuntimeEvent,
    hub: NotificationHub,
    lazy: bool,
) -> None:
    """Open the temporal bound for this class."""
    if cr.active:
        # Re-entrant bound (recursive entry): libtesla ignores events until
        # the next init *after* cleanup; a nested init is a no-op.
        return
    if _fi._active is not None:
        _fi.fault_point(_FP_INIT)
    transition, binding = _match_static(cr, event, TransitionKind.INIT)
    cr.active = True
    cr.overflow_mark = cr.pool.overflows
    cr.overflow_reported = False
    cr.count_transition(transition)
    if lazy:
        cr.pending = True
        cr.lazy_binding = dict(binding)
        cr.lazy_entry_ts = event.timestamp
    else:
        _materialise(cr, hub, dict(binding), event.timestamp)


def handle_cleanup(
    cr: ClassRuntime,
    event: RuntimeEvent,
    hub: NotificationHub,
) -> None:
    """Close the temporal bound: finalise every instance and reset.

    The reference for tesla-jit's generated per-class cleanup
    (``codegen.generate_cleanup_source``); change them together.
    """
    if not cr.active:
        return
    if _fi._active is not None:
        _fi.fault_point(_FP_CLEANUP)
    if cr.automaton.deadline_s is not None:
        # A late cleanup is a *deadline* violation, not a cleanup one:
        # expire first so the verdict names the budget that was missed,
        # identically in sync, deferred and batched configurations.
        expire_deadlines(cr, event.timestamp, hub, event)
    transition, _ = _match_static(cr, event, TransitionKind.CLEANUP)
    if transition is not None:
        cr.count_transition(transition)
    cr.active = False
    cr.pending = False
    for instance in cr.pool.expunge():
        if instance.accepting_at_cleanup():
            cr.accepts += 1
            if hub.detailed:
                hub.emit(
                    Notification(
                        kind=NotificationKind.FINALISE,
                        automaton=cr.automaton.name,
                        instance_name=instance.name,
                        binding=instance.binding_items(),
                        states=tuple(sorted(instance.states)),
                    )
                )
        elif instance.saw_site:
            cr.errors += 1
            cleanup_error(cr, event, hub, instance)
        # else: never reached the assertion site — the bypass path.


def cleanup_error(
    cr: ClassRuntime,
    event: RuntimeEvent,
    hub: NotificationHub,
    instance: AutomatonInstance,
) -> None:
    """Report an instance that passed the site but had not accepted when
    its bound closed (the always-on ERROR notification)."""
    violation = TemporalViolation(
        automaton=cr.automaton.name,
        reason=(
            "temporal bound closed before the automaton accepted "
            "(an 'eventually' obligation was never discharged)"
        ),
        event=event,
        binding=instance.binding_items(),
        sampling_rate=cr.sample_rate,
    )
    hub.emit(
        Notification(
            kind=NotificationKind.ERROR,
            automaton=cr.automaton.name,
            instance_name=instance.name,
            binding=instance.binding_items(),
            event=event,
            violation=violation,
        )
    )


def _step(
    cr: ClassRuntime,
    instance: AutomatonInstance,
    matched: List[Transition],
    hub: NotificationHub,
    event: RuntimeEvent,
) -> bool:
    """Advance one instance over its matched transitions.

    Returns True if a site transition was taken.
    """
    if len(matched) == 1:
        # One transition is by far the common case; frozenset difference/
        # union beats rebuilding the state set from set literals.
        t0 = matched[0]
        if cr.automaton.strict:
            new_states = frozenset((t0.dst,))
        else:
            new_states = instance.states.difference((t0.src,)).union(
                (t0.dst,)
            )
        took_site = t0.kind is TransitionKind.SITE
        cr.count_transition(t0)
    else:
        if cr.automaton.strict:
            # Strict stepping commits: states that cannot consume a
            # referenced event are dropped (this is what makes XOR
            # exclusive — taking one branch abandons the other's states).
            # Mirrors :func:`repro.core.determinize.nfa_step_strict`.
            new_states = frozenset(t.dst for t in matched)
        else:
            moved_srcs = {t.src for t in matched}
            new_states = frozenset(
                {t.dst for t in matched} | (set(instance.states) - moved_srcs)
            )
        took_site = any(t.kind is TransitionKind.SITE for t in matched)
        for t in matched:
            cr.count_transition(t)
    instance.states = new_states
    if cr.automaton.timed:
        instance.last_ts = event.timestamp
    if took_site:
        instance.saw_site = True
        cr.sites_reached += 1
    if hub.detailed:
        hub.emit(
            Notification(
                kind=NotificationKind.SITE if took_site else NotificationKind.UPDATE,
                automaton=cr.automaton.name,
                instance_name=instance.name,
                binding=instance.binding_items(),
                event=event,
                states=tuple(sorted(new_states)),
            )
        )
    return took_site


def lazy_join_bound(
    cr: ClassRuntime,
    bound: BoundId,
    tracker: BoundTracker,
    governor=None,
) -> None:
    """Join an open bound's current epoch (lazy mode, section 5.2.2).

    Opening a bound is one epoch bump on the context's tracker; a class
    only picks the bound up here, on its first relevant event inside the
    epoch.  The caller must hold whatever lock serialises ``cr`` (the
    global store's lock for global classes; nothing for thread-local
    ones) — ``tracker`` is always the same context's as ``cr``.

    ``governor`` is the overhead governor's 1-in-N sampling gate (DESIGN
    §5.8): a class on the SAMPLED rung admits only every Nth bound
    occurrence.  A skipped occurrence marks the epoch as seen and leaves
    the class inactive, so every event inside it — including the
    assertion site — takes the ordinary "outside the bound" ignore path,
    and cleanup never visits the class (it is not recorded as touched).

    An ungoverned key function inlines this join
    (``codegen.generate_key_source``); change them together.
    """
    if tracker.open.get(bound):
        epoch = tracker.epoch[bound]
        if cr.seen_epoch != epoch:
            if governor is not None:
                if not governor.admit_bound(cr.automaton.name):
                    cr.seen_epoch = epoch
                    cr.pool.expunge()
                    cr.active = False
                    cr.pending = False
                    return
                # The honesty annotation rides the bound: violations found
                # inside it report the rate it was admitted under.
                cr.sample_rate = governor.sample_rate(cr.automaton.name)
            cr.seen_epoch = epoch
            cr.pool.expunge()
            cr.active = True
            cr.pending = True
            cr.lazy_binding = {}
            cr.lazy_entry_ts = tracker.entry_ts.get(bound, 0.0)
            cr.overflow_mark = cr.pool.overflows
            cr.overflow_reported = False
            # The bound entry happened when the epoch opened; account
            # for the «init» transition now that this class joins it.
            for transition in cr.automaton.init_transitions:
                cr.count_transition(transition)
        elif not cr.active:
            # A later event of a skipped occurrence: still outside the
            # bound for this class, so still not touched.
            return
        touched = tracker.touched.get(bound)
        if touched is None:
            touched = tracker.touched[bound] = set()
        touched.add(cr.automaton.name)
    else:
        cr.active = False


def tesla_update_state(
    cr: ClassRuntime,
    event: RuntimeEvent,
    hub: NotificationHub,
    lazy: bool = True,
) -> None:
    """Process one event for one automaton class (body and site events).

    Bound entry/exit events must be routed to :func:`handle_init` /
    :func:`handle_cleanup` by the caller (the manager's dispatch loop).
    This is the reference semantics: tesla-jit's generated steps
    (``codegen.generate_source``) must agree with it on every trace,
    which ``tests/differential`` pins down over randomized traces.
    """
    if _fi._active is not None:
        _fi.fault_point(_FP_STEP)
    automaton = cr.automaton
    is_site_event = (
        event.kind is EventKind.ASSERTION_SITE and event.name == automaton.name
    )
    if not cr.active:
        # Outside the temporal bound libtesla "resumes ignoring events
        # until the next «init»" (section 4.4.1) — even assertion-site
        # events.  This is what lets the same code path carry sites for
        # both syscall-bounded and page-fault–bounded assertions.
        if hub.detailed:
            hub.emit(
                Notification(
                    kind=NotificationKind.IGNORED,
                    automaton=automaton.name,
                    event=event,
                )
            )
        return

    timed = automaton.timed
    if timed and automaton.deadline_s is not None:
        # Pre-event expiry: any instance whose deadline passed before this
        # event's capture time has already failed — report it before the
        # event is processed so the violation stream is a pure function of
        # the timestamped trace, whatever the dispatch configuration.
        expire_deadlines(cr, event.timestamp, hub, event)

    if cr.pending:
        # Lazy initialisation (section 5.2.2): the first relevant event
        # after the bound opened materialises the wildcard instance.
        cr.pending = False
        _materialise(cr, hub, dict(cr.lazy_binding), cr.lazy_entry_ts)

    site_taken = False
    any_progress = False
    clones: List[AutomatonInstance] = []
    enabled = automaton.enabled
    rate_blocked: Optional[set] = None
    # pool.live() is the list itself: clones are accumulated aside and
    # added after the walk, so nothing mutates it under iteration.
    for instance in cr.pool.live():
        matches = enabled(instance.states, event, instance.binding)
        if not matches:
            continue
        if timed:
            if rate_blocked is None:
                rate_blocked = set()
            matches = _filter_guards(instance, matches, event, rate_blocked)
            if not matches:
                # Every enabled transition was clock-blocked: the event is
                # too late (or too frequent) for this instance, which under
                # move-or-stay semantics simply does not advance.  Missed
                # obligations then surface as site/deadline violations.
                continue
        if len(matches) == 1 and not matches[0][1]:
            # Fast path for the overwhelmingly common case: exactly one
            # enabled transition, learning nothing — the instance steps in
            # place with no clone bookkeeping.
            any_progress = True
            if _step(cr, instance, [matches[0][0]], hub, event):
                site_taken = True
            continue
        # Split matches by the new bindings they would introduce.
        empty: List[Transition] = []
        extensions: List[Dict[str, Any]] = []
        for transition, new in matches:
            if new:
                if not any(_same_binding(new, seen) for seen in extensions):
                    extensions.append(new)
            else:
                empty.append(transition)
        if empty:
            any_progress = True
            if _step(cr, instance, empty, hub, event):
                site_taken = True
        for extension in extensions:
            merged = dict(instance.binding)
            merged.update(extension)
            if cr.pool.find(merged) is not None or any(
                c.same_binding(merged) for c in clones
            ):
                # An instance with this exact binding already exists; the
                # event is that instance's to consume, not a second clone's.
                continue
            clone = instance.clone(extension)
            if hub.detailed:
                hub.emit(
                    Notification(
                        kind=NotificationKind.CLONE,
                        automaton=automaton.name,
                        instance_name=clone.name,
                        binding=clone.binding_items(),
                        event=event,
                        states=tuple(sorted(clone.states)),
                    )
                )
            # The clone, fully bound, now steps on this event.
            clone_matches = enabled(clone.states, event, clone.binding)
            if timed and clone_matches:
                clone_matches = _filter_guards(
                    clone, clone_matches, event, rate_blocked
                )
            complete = [t for t, new in clone_matches if not new]
            if complete:
                any_progress = True
                if _step(cr, clone, complete, hub, event):
                    site_taken = True
            clones.append(clone)
    for clone in clones:
        if not cr.pool.add(clone):
            # Same dedupe as _materialise: one OVERFLOW report per bound;
            # the pool's own counters keep the exact drop totals.
            if not cr.overflow_reported:
                cr.overflow_reported = True
                hub.emit(
                    Notification(
                        kind=NotificationKind.OVERFLOW,
                        automaton=automaton.name,
                        instance_name=clone.name,
                    )
                )

    if rate_blocked:
        rate_violations(cr, event, hub, rate_blocked)

    if is_site_event and not site_taken and _already_satisfied(cr, event):
        # The assertion site can execute several times within one bound
        # (e.g. sopoll once per polled descriptor): an instance that
        # already passed the site with this binding satisfies later
        # occurrences too — the paper's error is "no instance can be
        # *found*", not "no transition was taken".
        cr.sites_reached += 1
        site_taken = True
    if (
        is_site_event
        and not site_taken
        and cr.pool.overflows > cr.overflow_mark
    ):
        # The pool overflowed during this bound: the instance that would
        # have matched this site may be among the dropped ones.  The
        # overflow was already reported (section 4.4.1: "report overflows
        # so that we can adjust preallocation size on the next run");
        # erroring here would be a false positive.
        cr.sites_reached += 1
        site_taken = True
    if is_site_event and not site_taken:
        cr.errors += 1
        violation = TemporalViolation(
            automaton=automaton.name,
            reason=(
                "no automaton instance could accept the assertion site "
                "(the expected prior events never occurred with these values)"
            ),
            event=event,
            binding=tuple(sorted(event.scope.items())),
            sampling_rate=cr.sample_rate,
        )
        hub.emit(
            Notification(
                kind=NotificationKind.ERROR,
                automaton=automaton.name,
                event=event,
                violation=violation,
            )
        )
    elif automaton.strict and not any_progress and automaton.references(event):
        cr.errors += 1
        violation = TemporalViolation(
            automaton=automaton.name,
            reason="strict automaton observed an event it cannot consume",
            event=event,
            sampling_rate=cr.sample_rate,
        )
        hub.emit(
            Notification(
                kind=NotificationKind.ERROR,
                automaton=automaton.name,
                event=event,
                violation=violation,
            )
        )
    elif not any_progress and not clones and hub.detailed:
        hub.emit(
            Notification(
                kind=NotificationKind.IGNORED,
                automaton=automaton.name,
                event=event,
            )
        )


def rate_violations(
    cr: ClassRuntime,
    event: RuntimeEvent,
    hub: NotificationHub,
    rate_blocked: set,
) -> None:
    """Report the rate guards ``event`` exceeded (collected by
    :func:`_filter_guards`): one violation per exceeded guard per event —
    not one per blocked instance, so configurations with different
    instance populations (lazy vs eager) report identical counts."""
    for guard in sorted(rate_blocked, key=lambda g: g.sort_key()):
        cr.errors += 1
        violation = TemporalViolation(
            automaton=cr.automaton.name,
            reason=RATE_REASON,
            event=event,
            sampling_rate=cr.sample_rate,
        )
        hub.emit(
            Notification(
                kind=NotificationKind.ERROR,
                automaton=cr.automaton.name,
                event=event,
                violation=violation,
            )
        )


def _filter_guards(
    instance: AutomatonInstance,
    matches,
    event: RuntimeEvent,
    rate_blocked: set,
):
    """Drop enabled transitions whose clock guard the event fails.

    ``since_entry`` measures from the instance's bound-entry timestamp,
    ``since_prev`` from its last taken transition, and ``rate`` maintains
    a per-instance sliding window of match timestamps: an over-budget
    occurrence blocks the transition, records the guard in
    ``rate_blocked`` (for a once-per-event violation) and does *not* join
    the window — the window holds only permitted occurrences.  A rate
    match that binds new variables belongs to the clone it creates, so it
    passes here and is counted in that clone's window: one window per
    binding (DESIGN §5.9).
    """
    ts = event.timestamp
    allowed = []
    for pair in matches:
        guard = pair[0].guard
        if guard is None or (pair[1] and guard.kind == "rate"):
            allowed.append(pair)
            continue
        kind = guard.kind
        if kind == "since_prev":
            if ts - instance.last_ts <= guard.limit_s:
                allowed.append(pair)
        elif kind == "since_entry":
            if ts - instance.entry_ts <= guard.limit_s:
                allowed.append(pair)
        else:  # rate
            marks = instance.rate_marks
            if marks is None:
                marks = instance.rate_marks = {}
            window = marks.get(guard)
            if window is None:
                window = marks[guard] = []
            cutoff = ts - guard.limit_s
            while window and window[0] < cutoff:
                window.pop(0)
            if len(window) >= guard.count:
                rate_blocked.add(guard)
            else:
                window.append(ts)
                allowed.append(pair)
    return allowed if len(allowed) != len(matches) else matches


def _already_satisfied(cr: ClassRuntime, event: RuntimeEvent) -> bool:
    """Whether an instance that already passed the site matches this
    site occurrence's scope values.

    This fixes the semantics of repeated site occurrences: temporal
    obligations are *per bound (and per binding)*, not per occurrence.
    For ``previously``, an instance whose prefix matched covers every
    later site with the same binding; for ``eventually``, the first site
    opens one obligation which a single later discharge satisfies — later
    sites in the same bound ride along.  The property suite pins this down
    against trace oracles (``tests/property/test_runtime_props.py`` and
    ``test_eventually_props.py``)."""
    site_variables = cr.automaton.site_variables
    for instance in cr.pool:
        if not instance.saw_site:
            continue
        compatible = True
        for name in site_variables:
            if name not in event.scope:
                continue
            value = event.scope[name]
            bound = instance.binding.get(name, _MISSING)
            if bound is _MISSING or not (bound is value or bound == value):
                compatible = False
                break
        if compatible:
            return True
    return False


_MISSING = object()


def _same_binding(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if not (other is value or other == value):
            return False
    return True
