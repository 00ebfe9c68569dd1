"""Structure-field assignment instrumentation.

TESLA's second concrete event type is assignment to a structure field
(section 3.4.1), hooked by rewriting the store instruction — "the code that
modifies the structure field is the code that must be modified" (there is
no callee context).  The Python equivalent intercepts attribute assignment:
substrate structures derive from :class:`TeslaStruct`, whose ``__setattr__``
consults a per-class hook table.  Uninstrumented classes pay one class
attribute load; instrumented fields synthesise FIELD_ASSIGN events carrying
the structure instance, the new value and the assignment operator.

Compound assignment (``s.foo += 1`` / ``s.foo++``) reaches ``__setattr__``
as a plain store in Python, so substrates use :func:`field_inc` /
:func:`field_add` where the C original uses compound operators; these emit
the correct :class:`~repro.core.ast.AssignOp` so assertions can distinguish
``=`` from ``+=`` exactly as the paper's grammar allows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from ..core.ast import AssignOp
from ..core.events import EventKind, RuntimeEvent, get_ident
from ..errors import InstrumentationError
from ..runtime.faultinject import fault_site
from .hooks import EventSink, SinkList, deliver

_FP_FIELD = fault_site("fields.dispatch")
_FIELD = EventKind.FIELD_ASSIGN


def _deliver_field_event(
    obj: "TeslaStruct", field_name: str, value: Any, op: AssignOp,
    sinks: SinkList,
) -> None:
    """Fan a field-assign event out to its sinks' entries, containing
    monitor faults.

    Shared by plain ``__setattr__`` stores and the compound-assignment
    helpers so the application's store always completes even when a sink's
    runtime misbehaves (fail-open supervisors swallow; others propagate).
    """
    name = f"{tesla_struct_name(type(obj))}.{field_name}"
    deliver(
        sinks.resolved((_FIELD, name)),
        RuntimeEvent(_FIELD, name, (), value, op, obj, {}, get_ident(), ()),
        "field", _FP_FIELD,
    )


class TeslaStruct:
    """Base class for structures whose field assignments TESLA can observe.

    Subclasses behave like plain mutable objects until a field hook is
    attached via :func:`attach_field_hook`.  The struct's event name is the
    class name (override with ``TESLA_STRUCT_NAME`` when the C struct's
    name differs from the Python class's).
    """

    #: class-level: field name -> its sinks.  ``None`` = fast path.
    _tesla_field_sinks: Optional[Dict[str, SinkList]] = None

    def __setattr__(self, name: str, value: Any) -> None:
        sinks_map = type(self)._tesla_field_sinks
        if sinks_map is not None:
            sinks = sinks_map.get(name)
            if sinks is not None:
                _deliver_field_event(self, name, value, AssignOp.SET, sinks)
        object.__setattr__(self, name, value)


def tesla_struct_name(cls: Type) -> str:
    """The struct's event name: TESLA_STRUCT_NAME or the class name."""
    return getattr(cls, "TESLA_STRUCT_NAME", cls.__name__)


class FieldHookRegistry:
    """Struct classes registered for field instrumentation."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[TeslaStruct]] = {}

    def register(self, cls: Type[TeslaStruct]) -> Type[TeslaStruct]:
        name = tesla_struct_name(cls)
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            raise InstrumentationError(
                f"struct name {name!r} registered by two classes"
            )
        self._classes[name] = cls
        return cls

    def require(self, name: str) -> Type[TeslaStruct]:
        cls = self._classes.get(name)
        if cls is None:
            raise InstrumentationError(
                f"no instrumentable struct named {name!r}; known: "
                f"{', '.join(sorted(self._classes)) or '(none)'}"
            )
        return cls

    def names(self) -> List[str]:
        return sorted(self._classes)

    def detach_all(self) -> None:
        for cls in self._classes.values():
            cls._tesla_field_sinks = None


#: Process-wide struct registry; substrates register at import.
field_registry = FieldHookRegistry()


def instrumentable_struct(cls: Type[TeslaStruct]) -> Type[TeslaStruct]:
    """Class decorator registering a struct for field instrumentation."""
    if not issubclass(cls, TeslaStruct):
        raise InstrumentationError(
            f"{cls.__name__} must derive from TeslaStruct to be instrumented"
        )
    return field_registry.register(cls)


def attach_field_hook(
    cls: Type[TeslaStruct], field_name: str, sink: EventSink
) -> None:
    """Instrument assignments to one field of one struct class."""
    if cls._tesla_field_sinks is None:
        # Each class gets its own dict (never inherit the parent's hooks).
        cls._tesla_field_sinks = {}
    elif "_tesla_field_sinks" not in cls.__dict__:
        # A subclass starts from its parent's sinks, in lists of its own:
        # attaching to or detaching from it must not edit the parent's.
        cls._tesla_field_sinks = {
            name: SinkList(sinks)
            for name, sinks in cls._tesla_field_sinks.items()
        }
    sinks = cls._tesla_field_sinks.setdefault(field_name, SinkList())
    if sink not in sinks:
        sinks.append(sink)
        sinks.invalidate()


def detach_field_hook(
    cls: Type[TeslaStruct], field_name: str, sink: EventSink
) -> None:
    """Remove a field sink; restores the fast path when none remain."""
    sinks_map = cls.__dict__.get("_tesla_field_sinks")
    if not sinks_map:
        return
    sinks = sinks_map.get(field_name)
    if sinks and sink in sinks:
        sinks.remove(sink)
        sinks.invalidate()
        if not sinks:
            del sinks_map[field_name]
    if not sinks_map:
        cls._tesla_field_sinks = None


def _emit_compound(obj: TeslaStruct, field_name: str, value: Any, op: AssignOp) -> None:
    sinks_map = type(obj)._tesla_field_sinks
    if sinks_map is not None:
        sinks = sinks_map.get(field_name)
        if sinks is not None:
            _deliver_field_event(obj, field_name, value, op, sinks)
    object.__setattr__(obj, field_name, value)


def field_inc(obj: TeslaStruct, field_name: str) -> Any:
    """``s.field++`` — compound increment with the INCREMENT operator."""
    value = getattr(obj, field_name) + 1
    _emit_compound(obj, field_name, value, AssignOp.INCREMENT)
    return value


def field_dec(obj: TeslaStruct, field_name: str) -> Any:
    """``s.field--``."""
    value = getattr(obj, field_name) - 1
    _emit_compound(obj, field_name, value, AssignOp.DECREMENT)
    return value


def field_add(obj: TeslaStruct, field_name: str, delta: Any) -> Any:
    """``s.field += delta``."""
    value = getattr(obj, field_name) + delta
    _emit_compound(obj, field_name, value, AssignOp.ADD)
    return value


def field_or(obj: TeslaStruct, field_name: str, bits: int) -> int:
    """``s.field |= bits`` — how the kernel sets flags such as P_SUGID."""
    value = getattr(obj, field_name) | bits
    _emit_compound(obj, field_name, value, AssignOp.OR)
    return value


def field_and(obj: TeslaStruct, field_name: str, bits: int) -> int:
    """``s.field &= bits``."""
    value = getattr(obj, field_name) & bits
    _emit_compound(obj, field_name, value, AssignOp.AND)
    return value
