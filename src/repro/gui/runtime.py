"""A miniature Objective-C runtime: dynamic dispatch with interposition.

"In Objective-C, interprocedural flow control is either a C function call
or a message send; methods can be replaced at run time, so even for an
object of a known class it is impossible to tell statically which method
will be invoked."  This module reproduces that dispatch model:

* classes register *selectors* mapping to implementations, looked up along
  the receiver's MRO at send time (:func:`msg_send`);
* implementations can be replaced at run time (:func:`class_replace_method`);
* "before calling any method, the runtime consults a global table of
  interposition hooks" — the modified-GNUstep-runtime mechanism of
  section 4.3, shared with :mod:`repro.instrument.interpose`.

The four cost tiers of figure 14a map onto build/configuration states:
``tracing_supported = False`` is the release runtime (no table consult at
all); ``True`` with an empty table is "tracing enabled"; installing
:func:`~repro.instrument.interpose.trivial_hook` gives the interposition
cost; installing TESLA hooks adds automaton processing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..instrument.interpose import interposition_table

#: Whether the runtime was built with tracing support (figure 14a mode 2+).
tracing_supported = True


class DoesNotRecognize(AttributeError):
    """The Objective-C ``doesNotRecognizeSelector:`` condition."""

    def __init__(self, receiver: Any, selector: str) -> None:
        super().__init__(
            f"{type(receiver).__name__} does not recognise selector {selector!r}"
        )
        self.receiver = receiver
        self.selector = selector


class NSObject:
    """Root class: provides the per-class method table."""

    #: selector -> implementation; populated by @selector and subclassing.
    _methods: Dict[str, Callable] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Each class gets its own table; lookup walks the MRO explicitly so
        # run-time replacement on a superclass is visible to subclasses.
        if "_methods" not in cls.__dict__:
            cls._methods = {}
        for value in list(cls.__dict__.values()):
            selector_name = getattr(value, "__objc_selector__", None)
            if selector_name is not None:
                cls._methods[selector_name] = value

    def respondsTo(self, selector_name: str) -> bool:
        return _lookup(type(self), selector_name) is not None


def selector(name: str) -> Callable[[Callable], Callable]:
    """Mark a method as the implementation of an Objective-C selector."""

    def mark(implementation: Callable) -> Callable:
        implementation.__objc_selector__ = name  # type: ignore[attr-defined]
        return implementation

    return mark


def _lookup(cls: type, selector_name: str) -> Optional[Callable]:
    for klass in cls.__mro__:
        methods = klass.__dict__.get("_methods")
        if methods is not None:
            implementation = methods.get(selector_name)
            if implementation is not None:
                return implementation
    return None


def class_replace_method(cls: type, selector_name: str, implementation: Callable) -> None:
    """Replace a method at run time (what makes static analysis hopeless)."""
    if "_methods" not in cls.__dict__:
        cls._methods = {}
    cls._methods[selector_name] = implementation


def msg_send(receiver: Any, selector_name: str, *args: Any) -> Any:
    """``objc_msgSend``: dynamic dispatch with optional interposition."""
    if not tracing_supported:
        implementation = _lookup(type(receiver), selector_name)
        if implementation is None:
            raise DoesNotRecognize(receiver, selector_name)
        return implementation(receiver, *args)
    phases = interposition_table.phase_hooks(selector_name)
    implementation = _lookup(type(receiver), selector_name)
    if implementation is None:
        raise DoesNotRecognize(receiver, selector_name)
    if phases is None:
        return implementation(receiver, *args)
    send_hooks, return_hooks = phases
    for hook in send_hooks:
        hook("send", receiver, selector_name, args, None)
    result = implementation(receiver, *args)
    for hook in return_hooks:
        hook("return", receiver, selector_name, args, result)
    return result


def set_tracing_supported(enabled: bool) -> None:
    """Switch between the release and tracing-capable runtime builds."""
    global tracing_supported
    tracing_supported = enabled
