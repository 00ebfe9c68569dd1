"""Program hooks: the instrumentation points woven into target code.

The original TESLA instrumenter rewrites LLVM IR, adding "program hooks that
identify program events" at function entries/returns and assertion sites.
Python has no IR pass, so this reproduction plants hooks at *decoration
time*: substrate functions are defined with :func:`instrumentable`, which
registers a :class:`HookPoint` keyed by the function's event name.  An
uninstrumented hook point costs one attribute load and a branch — the moral
equivalent of the not-yet-linked hook call in an uninstrumented build —
while an instrumented one synthesises the CALL and RETURN events its sinks
are interested in.

Assertion sites are planted with :func:`tesla_site`, the stand-in for the
``__tesla_inline_assertion`` pseudo-function call that the instrumenter
replaces with an event-translator invocation (section 4.2): disabled sites
are near-free; enabled ones emit an assertion-site event carrying the
site's local variable values.

Every hook flavour resolves an event translator to its *dispatch entry*
for the hook's key (DESIGN §5.7) when its interest cache refreshes, and
calls the entry directly: the translator's static checks and the
runtime's dispatch prologue for that one key, generated as one function.
Other sinks (collectors, tracers) are called as they are.

When the runtime behind a sink runs the deferred pipeline (DESIGN §5.4),
``sink(event)`` *is* the enqueue fast path: the interest filter and the
translator's static checks run here as usual, and everything that
survives them is stamped into the calling thread's ring instead of being
dispatched inline.  Assertion-site events are synchronization points, so
a ``tesla_site`` call flushes the rings and a fail-stop
:class:`~repro.errors.TemporalAssertionError` raises through the same
re-raise branch synchronous dispatch uses — instrumented code cannot
tell the modes apart by where violations surface.  Faults injected at
the drain boundary (``drain.enqueue``) are contained here exactly like
``hooks.dispatch`` faults, via the sink's supervisor.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.events import EventKind, RuntimeEvent, get_ident
from ..errors import InstrumentationError, TemporalAssertionError
from ..runtime import faultinject as _fi
from ..runtime.epoch import interest_epoch, interest_stats
from ..runtime.faultinject import fault_site

_FP_DISPATCH = fault_site("hooks.dispatch")
_FP_SITE = fault_site("hooks.site")

#: Anything that consumes concrete events (usually ``TeslaRuntime.handle_event``).
EventSink = Callable[[RuntimeEvent], None]

#: A sink and what a hook calls for it: the sink's dispatch entry for
#: the hook's key when it builds them (an event translator), otherwise
#: the sink itself.
ResolvedSink = Tuple[EventSink, EventSink]

_CALL = EventKind.CALL
_RETURN = EventKind.RETURN
_SITE = EventKind.ASSERTION_SITE


def contain_sink_fault(sink: EventSink, stage: str, exc: Exception) -> bool:
    """The outermost containment boundary, shared by every hook flavour.

    A fault that escaped the sink (translator chains, dispatch planning —
    anything the per-class boundary inside the runtime did not attribute)
    is routed to the sink's supervisor when it has one (event translators
    carry their runtime's).  Returns True when the caller must swallow
    ``exc`` instead of letting it cross into application frames; sinks
    without a supervisor keep the raw propagate-everything behaviour.
    ``TemporalAssertionError`` must be re-raised *before* calling this —
    fail-stop violations are deliberate, not monitor faults.
    """
    supervisor = getattr(sink, "supervisor", None)
    if supervisor is None:
        return False
    return supervisor.contain(f"({stage})", stage, exc)


def sink_wants(sink: EventSink, key: Tuple[EventKind, str]) -> bool:
    """Whether ``sink`` consumes events with this dispatch key.

    A sink advertising ``interested_in`` (the event translator) is asked;
    anything else — test collectors, tracers — is assumed to want every
    event.
    """
    probe = getattr(sink, "interested_in", None)
    return probe is None or probe((key,))


def resolve_sink(sink: EventSink, key: Tuple[EventKind, str]) -> ResolvedSink:
    """``sink`` paired with what a hook for ``key`` calls (see
    :data:`ResolvedSink`)."""
    entry_for = getattr(sink, "entry_for", None)
    return sink, sink if entry_for is None else entry_for(key)


def split_by_kind(
    sinks: Iterable[EventSink], name: str
) -> Tuple[List[ResolvedSink], List[ResolvedSink]]:
    """The sinks wanting ``(CALL, name)`` and ``(RETURN, name)`` events,
    each list resolved for its key and in attach order."""
    call_key = (_CALL, name)
    return_key = (_RETURN, name)
    call_sinks: List[ResolvedSink] = []
    return_sinks: List[ResolvedSink] = []
    for sink in sinks:
        if sink_wants(sink, call_key):
            call_sinks.append(resolve_sink(sink, call_key))
        if sink_wants(sink, return_key):
            return_sinks.append(resolve_sink(sink, return_key))
    return call_sinks, return_sinks


class SinkList(list):
    """The sinks attached to one assertion site or struct field, each
    resolved (:func:`resolve_sink`) for the last event's key and cached
    against the interest epoch.  These hooks have no interest filter:
    every sink gets every event.  Attach and detach call
    :meth:`invalidate`."""

    __slots__ = ("_state",)

    def __init__(self, sinks: Iterable[EventSink] = ()) -> None:
        super().__init__(sinks)
        self.invalidate()

    def invalidate(self) -> None:
        self._state = (-1, None, [])

    def resolved(self, key: Tuple[EventKind, str]) -> List[ResolvedSink]:
        state = self._state
        if state[0] != interest_epoch.value or state[1] != key:
            # Swapped whole, so a concurrent reader never pairs one key's
            # entries with another's.
            state = self._state = (
                interest_epoch.value, key,
                [resolve_sink(sink, key) for sink in self],
            )
        return state[2]


def deliver(sinks: List[ResolvedSink], event: RuntimeEvent, stage: str,
            fault_point) -> None:
    """Hand ``event`` to each resolved sink inside the containment
    boundary shared by every hook flavour (:func:`contain_sink_fault`);
    ``fault_point`` is the flavour's injection site."""
    for sink, fn in sinks:
        try:
            if _fi._active is not None:
                _fi.fault_point(fault_point)
            fn(event)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            if not contain_sink_fault(sink, stage, exc):
                raise


class HookPoint:
    """One instrumentable function and its currently attached sinks.

    Beyond the raw sink list, a hook point caches which sinks are actually
    interested in each of its two dispatch keys, ``(CALL, name)`` and
    ``(RETURN, name)``, each resolved to the sink's dispatch entry for
    that key (:func:`resolve_sink`).  The cache is validated against the
    global :data:`~repro.runtime.epoch.interest_epoch` on every instrumented
    call, so the wrapper builds only the events some sink will consume: a
    hook whose automata watch only the return never builds the CALL
    event, one whose sinks observe neither key skips event construction
    entirely, and attach/detach invalidate promptly.
    """

    __slots__ = (
        "name", "function", "sinks", "_epoch",
        "_live_sinks", "_call_sinks", "_return_sinks",
    )

    def __init__(self, name: str, function: Callable) -> None:
        self.name = name
        self.function = function
        #: ``None`` when uninstrumented — the wrapper's fast-path check.
        self.sinks: Optional[List[EventSink]] = None
        self._epoch = -1
        self._live_sinks: List[EventSink] = []
        self._call_sinks: List[EventSink] = []
        self._return_sinks: List[EventSink] = []

    def attach(self, sink: EventSink) -> None:
        if self.sinks is None:
            self.sinks = []
        if sink not in self.sinks:
            self.sinks.append(sink)
        interest_epoch.bump()

    def detach(self, sink: EventSink) -> None:
        if self.sinks is None:
            return
        if sink in self.sinks:
            self.sinks.remove(sink)
        if not self.sinks:
            self.sinks = None
        # The bump is load-bearing even though ``sinks`` shrank: another
        # sink's cached "interested" verdict may coexist with this one's,
        # and a stale cache would keep delivering events to the detached
        # sink's dead runtime.
        interest_epoch.bump()

    def detach_all(self) -> None:
        self.sinks = None
        interest_epoch.bump()

    def _refresh(self) -> List[EventSink]:
        """Rebuild the per-kind interested-sink caches for the current
        epoch."""
        epoch = interest_epoch.value
        call_sinks, return_sinks = split_by_kind(self.sinks or (), self.name)
        self._call_sinks = call_sinks
        self._return_sinks = return_sinks
        wanted = [sink for sink, _ in call_sinks + return_sinks]
        live = [sink for sink in self.sinks or () if sink in wanted]
        self._live_sinks = live
        self._epoch = epoch
        interest_stats.hook_refreshes += 1
        return live

    def live_sinks(self) -> List[EventSink]:
        """The attached sinks interested in either of this hook's events
        (cached)."""
        if self._epoch != interest_epoch.value:
            return self._refresh()
        return self._live_sinks


class HookRegistry:
    """All hook points known to the process, keyed by event name."""

    def __init__(self) -> None:
        self._points: Dict[str, HookPoint] = {}

    def register(self, point: HookPoint) -> None:
        if point.name in self._points:
            raise InstrumentationError(
                f"hook point {point.name!r} registered twice"
            )
        self._points[point.name] = point

    def get(self, name: str) -> Optional[HookPoint]:
        return self._points.get(name)

    def require(self, name: str) -> HookPoint:
        point = self._points.get(name)
        if point is None:
            raise InstrumentationError(
                f"no instrumentable function named {name!r}; known: "
                f"{', '.join(sorted(self._points)) or '(none)'}"
            )
        return point

    def names(self) -> List[str]:
        return sorted(self._points)

    def detach_all(self) -> None:
        for point in self._points.values():
            point.detach_all()

    def _unregister(self, name: str) -> None:
        """Test helper: forget a hook point entirely."""
        self._points.pop(name, None)


#: The process-wide registry used by substrates and the instrumenter.
hook_registry = HookRegistry()


def instrumentable(
    name: Optional[str] = None, registry: HookRegistry = None
) -> Callable[[Callable], Callable]:
    """Mark a function as a TESLA instrumentation target.

    ``name`` defaults to the function's ``__name__`` — substrates use the
    same short names the paper's assertions use (``sopoll_generic``,
    ``mac_socket_check_poll`` …).  The returned wrapper is what everything,
    including function-pointer tables, should reference, so callee-side
    instrumentation observes indirect calls exactly as an IR-level rewrite
    would.
    """
    reg = registry if registry is not None else hook_registry

    def decorate(fn: Callable) -> Callable:
        event_name = name or fn.__name__
        point = HookPoint(event_name, fn)
        reg.register(point)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if point.sinks is None:
                return fn(*args, **kwargs)
            if point._epoch != interest_epoch.value:
                point._refresh()
            if not point._live_sinks:
                # Instrumented but uninterested: no automaton observes this
                # event name, so skip event construction entirely.
                interest_stats.hook_short_circuits += 1
                return fn(*args, **kwargs)
            # Per-kind interest: build only the events some sink consumes,
            # each positionally (the ``call_event``/``return_event`` shape).
            event_args = args if not kwargs else args + tuple(kwargs.values())
            sinks = point._call_sinks
            if sinks:
                event = RuntimeEvent(_CALL, event_name, event_args, None,
                                     None, None, {}, get_ident(), ())
                for sink, entry in sinks:
                    try:
                        if _fi._active is not None:
                            _fi.fault_point(_FP_DISPATCH)
                        entry(event)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not contain_sink_fault(sink, "dispatch", exc):
                            raise
            else:
                interest_stats.hook_kind_skips += 1
            result = fn(*args, **kwargs)
            if point._epoch != interest_epoch.value:
                # The call changed the interest set (a quarantine, a
                # detach): its return meets the current entries.
                point._refresh()
            sinks = point._return_sinks
            if sinks:
                event = RuntimeEvent(_RETURN, event_name, event_args, result,
                                     None, None, {}, get_ident(), ())
                for sink, entry in sinks:
                    try:
                        if _fi._active is not None:
                            _fi.fault_point(_FP_DISPATCH)
                        entry(event)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not contain_sink_fault(sink, "dispatch", exc):
                            raise
            else:
                interest_stats.hook_kind_skips += 1
            return result

        wrapper.__tesla_hook__ = point  # type: ignore[attr-defined]
        return wrapper

    return decorate


class SiteRegistry:
    """All assertion sites, keyed by assertion name."""

    def __init__(self) -> None:
        self._sinks: Dict[str, SinkList] = {}

    def attach(self, assertion_name: str, sink: EventSink) -> None:
        sinks = self._sinks.setdefault(assertion_name, SinkList())
        sinks.append(sink)
        sinks.invalidate()

    def detach(self, assertion_name: str, sink: EventSink) -> None:
        sinks = self._sinks.get(assertion_name)
        if sinks and sink in sinks:
            sinks.remove(sink)
            sinks.invalidate()
            if not sinks:
                del self._sinks[assertion_name]

    def detach_all(self) -> None:
        self._sinks.clear()

    def sinks_for(self, assertion_name: str) -> Optional[SinkList]:
        return self._sinks.get(assertion_name)


#: The process-wide assertion-site registry.
site_registry = SiteRegistry()


def tesla_site(assertion_name: str, **scope: Any) -> None:
    """An assertion site: the inline marker substrates write in their code.

    Disabled (no automaton instruments this assertion): a dict lookup and a
    return.  Enabled: emits an assertion-site event whose ``scope`` carries
    the named local values — "the values of variables named in the
    assertion are taken from the local scope and passed to the event
    translator" (section 4.2).
    """
    sinks = site_registry.sinks_for(assertion_name)
    if sinks is None:
        return
    deliver(
        sinks.resolved((_SITE, assertion_name)),
        RuntimeEvent(_SITE, assertion_name, (), None, None, None, scope,
                     get_ident(), ()),
        "site", _FP_SITE,
    )
