"""Per-object assertions (paper section 7, implemented here).

"This would naturally lead to per-object assertions, allowing assertions
to be more easily tied to an object's lifetime."

A classic TESLA bound is *static*: ``call(fn)`` opens it, ``returnfrom
(fn)`` closes it, and one bound is open per context at a time.  A
*per-object* bound is parametric: the entry event binds a key variable
(the object), every object gets its own concurrent automaton lifetime, and
only the exit event carrying the *same* object closes it — e.g. "between
``falloc(fp)`` and ``fclose(fp)``, every write to ``fp`` was preceded by
an access check on ``fp``".

:class:`ObjectMonitor` reuses the whole automaton/instance machinery: each
live object owns a :class:`~repro.runtime.store.ClassRuntime` whose pool
holds that object's instance, stepped by the ordinary
``tesla_update_state`` engine.  It is an
:data:`~repro.instrument.hooks.EventSink`, so it attaches to the same hook
points and assertion sites as the main runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.ast import FunctionCall, TemporalAssertion, referenced_variables
from ..core.automaton import Automaton, TransitionKind
from ..core.events import EventKind, RuntimeEvent
from ..core.translate import automaton_for
from ..errors import AssertionParseError
from .notify import ErrorPolicy, NotificationHub
from .prealloc import DEFAULT_CAPACITY
from .store import ClassRuntime
from .update import handle_cleanup, handle_init, tesla_update_state


class ObjectMonitor:
    """Tracks one per-object assertion across concurrent object lifetimes.

    ``key`` names the assertion variable that identifies the object; it
    must be bound by the bound-entry event (i.e. appear among the entry
    event's argument patterns).
    """

    def __init__(
        self,
        assertion: TemporalAssertion,
        key: str,
        policy: Optional[ErrorPolicy] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if key not in referenced_variables(assertion):
            raise AssertionParseError(
                f"per-object key {key!r} is not a variable of {assertion.name}"
            )
        entry = assertion.bound.entry
        if not isinstance(entry, FunctionCall) or entry.args is None:
            raise AssertionParseError(
                "a per-object bound entry must be a call event with argument "
                "patterns that bind the key variable"
            )
        if key not in {
            name for pattern in entry.args for name in pattern.variables
        }:
            raise AssertionParseError(
                f"bound entry {entry.describe()} does not bind {key!r}"
            )
        self.assertion = assertion
        self.key = key
        self.automaton: Automaton = automaton_for(assertion)
        self.hub = NotificationHub(policy)
        self.capacity = capacity
        #: id(object) -> (object, this object's class runtime).
        self._live: Dict[int, Tuple[Any, ClassRuntime]] = {}
        self.lifetimes_opened = 0
        self.lifetimes_closed = 0
        #: Totals carried over from closed lifetimes.
        self.closed_errors = 0
        self.closed_accepts = 0

    # -- lifecycle -------------------------------------------------------------

    def _match_bound(self, event: RuntimeEvent, kind: TransitionKind):
        for t in self.automaton.transitions:
            if t.kind is not kind or t.symbol is None:
                continue
            got = self.automaton.symbols[t.symbol].match(event, {})
            if got is not None:
                return got
        return None

    def _open(self, event: RuntimeEvent, binding: Dict[str, Any]) -> None:
        obj = binding.get(self.key)
        if obj is None or id(obj) in self._live:
            return  # re-entrant open for a live object: ignore, as §4.4.1
        runtime = ClassRuntime(self.automaton, self.capacity)
        handle_init(runtime, event, self.hub, lazy=False)
        # The wildcard instance handle_init created carries the binding the
        # entry event matched, pinning it to this object.
        self._live[id(obj)] = (obj, runtime)
        self.lifetimes_opened += 1

    def _close(self, event: RuntimeEvent, binding: Dict[str, Any]) -> None:
        obj = binding.get(self.key)
        if obj is None:
            return
        entry = self._live.pop(id(obj), None)
        if entry is None:
            return
        _, runtime = entry
        handle_cleanup(runtime, event, self.hub)
        self.lifetimes_closed += 1
        self.closed_errors += runtime.errors
        self.closed_accepts += runtime.accepts

    # -- sink ----------------------------------------------------------------

    def handle_event(self, event: RuntimeEvent) -> None:
        opened = self._match_bound(event, TransitionKind.INIT)
        if opened is not None:
            self._open(event, opened)
            return
        closed = self._match_bound(event, TransitionKind.CLEANUP)
        if closed is not None:
            self._close(event, closed)
            return
        if (
            event.kind is EventKind.ASSERTION_SITE
            and self.key in event.scope
        ):
            # A site names its object: it belongs to exactly that object's
            # lifetime.  A site for an object with no open lifetime is
            # outside any bound — ignored, per section 4.4.1.
            entry = self._live.get(id(event.scope[self.key]))
            if entry is not None:
                tesla_update_state(entry[1], event, self.hub, lazy=False)
            return
        for _, runtime in list(self._live.values()):
            tesla_update_state(runtime, event, self.hub, lazy=False)

    __call__ = handle_event

    # -- introspection ----------------------------------------------------------

    @property
    def live_objects(self) -> List[Any]:
        return [obj for obj, _ in self._live.values()]

    def runtime_for(self, obj: Any) -> Optional[ClassRuntime]:
        entry = self._live.get(id(obj))
        return entry[1] if entry is not None else None

    @property
    def errors(self) -> int:
        return self.closed_errors + sum(
            rt.errors for _, rt in self._live.values()
        )

    @property
    def accepts(self) -> int:
        return self.closed_accepts + sum(
            rt.accepts for _, rt in self._live.values()
        )

    def reset(self) -> None:
        self._live.clear()
        self.lifetimes_opened = 0
        self.lifetimes_closed = 0
        self.closed_errors = 0
        self.closed_accepts = 0


def instrument_object_assertion(
    assertion: TemporalAssertion,
    key: str,
    policy: Optional[ErrorPolicy] = None,
) -> Tuple[ObjectMonitor, "ObjectInstrumentation"]:
    """Weave a per-object assertion into the running program.

    Attaches an :class:`ObjectMonitor` to every hook point and site the
    assertion references; returns the monitor and a handle whose
    ``detach()`` undoes the weaving.
    """
    from ..core.ast import referenced_functions
    from ..instrument.hooks import hook_registry, site_registry

    monitor = ObjectMonitor(assertion, key, policy)
    attached_points = []
    for fn_name in referenced_functions(assertion):
        point = hook_registry.require(fn_name)
        point.attach(monitor)
        attached_points.append(point)
    site_registry.attach(assertion.name, monitor)
    return monitor, ObjectInstrumentation(monitor, attached_points, assertion.name)


class ObjectInstrumentation:
    """Undo handle for :func:`instrument_object_assertion`."""

    def __init__(self, monitor: ObjectMonitor, points, site_name: str) -> None:
        self.monitor = monitor
        self._points = points
        self._site_name = site_name

    def detach(self) -> None:
        from ..instrument.hooks import site_registry

        for point in self._points:
            point.detach(self.monitor)
        site_registry.detach(self._site_name, self.monitor)

    def __enter__(self) -> ObjectMonitor:
        return self.monitor

    def __exit__(self, *exc_info) -> None:
        self.detach()
