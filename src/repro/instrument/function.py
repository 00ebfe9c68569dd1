"""Caller-side function instrumentation.

Callee-side hooks (:mod:`repro.instrument.hooks`) require the target to
have been built as instrumentable — the analogue of recompiling it.  When a
library "cannot be recompiled", TESLA inserts instrumentation "immediately
before and after a call site" instead (section 4.2).  The Python analogue:
rebind the *caller's* reference to the callee with an event-emitting
wrapper, leaving the callee untouched.

This is exactly how the OpenSSL case study instruments
``EVP_VerifyFinal`` inside libcrypto from an assertion written in the
libfetch client: the wrapper is woven into each calling module
(``repro.sslx.libssl``), not into libcrypto itself.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..core.events import EventKind, RuntimeEvent, get_ident
from ..errors import InstrumentationError
from ..runtime.epoch import interest_epoch, interest_stats
from ..runtime.faultinject import fault_site
from .hooks import EventSink, deliver, split_by_kind

_FP_CALLER = fault_site("function.dispatch")
_CALL = EventKind.CALL
_RETURN = EventKind.RETURN


def make_call_wrapper(
    fn: Callable, event_name: str, sinks: List[EventSink]
) -> Callable:
    """Wrap ``fn`` so every call emits CALL/RETURN events to ``sinks``.

    ``sinks`` is shared by reference: attaching/detaching after wrapping
    takes effect at the next call, so one wrapper serves a whole
    instrumentation session.  Like a callee-side hook point, the wrapper
    caches which sinks want each kind — validated against the interest
    epoch and a snapshot of ``sinks`` — and builds only the events some
    sink consumes.
    """
    # (epoch, sinks snapshot, CALL sinks, RETURN sinks), swapped whole;
    # the per-kind lists are resolved to the sinks' dispatch entries.
    cache = [(-1, None, (), ())]

    def current() -> tuple:
        state = cache[0]
        if state[0] != interest_epoch.value or state[1] != sinks:
            state = cache[0] = (interest_epoch.value, list(sinks),
                                *split_by_kind(sinks, event_name))
        return state

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        event_args = args if not kwargs else args + tuple(kwargs.values())
        call_sinks = current()[2]
        if call_sinks:
            deliver(call_sinks, RuntimeEvent(
                _CALL, event_name, event_args, None, None, None, {},
                get_ident(), (),
            ), "caller", _FP_CALLER)
        else:
            interest_stats.hook_kind_skips += 1
        result = fn(*args, **kwargs)
        return_sinks = current()[3]
        if return_sinks:
            deliver(return_sinks, RuntimeEvent(
                _RETURN, event_name, event_args, result, None, None, {},
                get_ident(), (),
            ), "caller", _FP_CALLER)
        else:
            interest_stats.hook_kind_skips += 1
        return result

    wrapper.__tesla_caller_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


@dataclass
class CallSiteRewrite:
    """One caller-side rewrite, remembered so it can be undone."""

    module: types.ModuleType
    attribute: str
    original: Callable

    def undo(self) -> None:
        setattr(self.module, self.attribute, self.original)


def instrument_callers(
    modules: Sequence[types.ModuleType],
    function_name: str,
    sinks: List[EventSink],
    event_name: Optional[str] = None,
) -> List[CallSiteRewrite]:
    """Rewrite every reference to ``function_name`` inside ``modules``.

    Scans each module's globals for callables whose ``__name__`` matches
    and rebinds them to event-emitting wrappers — the moral equivalent of
    rewriting each call site in the caller's IR.  Raises if no call sites
    were found, because an assertion referencing a function nobody calls is
    almost always a typo.
    """
    rewrites: List[CallSiteRewrite] = []
    for module in modules:
        for attribute, value in list(vars(module).items()):
            if not callable(value):
                continue
            if getattr(value, "__tesla_caller_wrapped__", None) is not None:
                continue  # already instrumented in a previous pass
            if getattr(value, "__name__", None) != function_name:
                continue
            wrapper = make_call_wrapper(
                value, event_name or function_name, sinks
            )
            setattr(module, attribute, wrapper)
            rewrites.append(
                CallSiteRewrite(module=module, attribute=attribute, original=value)
            )
    if not rewrites:
        raise InstrumentationError(
            f"caller-side instrumentation found no call sites for "
            f"{function_name!r} in {[m.__name__ for m in modules]}"
        )
    return rewrites
