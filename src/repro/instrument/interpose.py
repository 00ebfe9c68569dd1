"""Dynamic-dispatch interposition — the Objective-C instrumentation path.

In Objective-C "it is impossible to tell statically which method will be
invoked for a given message send", so TESLA modifies the runtime's
``objc_msgSend``: "before calling any method, the runtime consults a global
table of interposition hooks" (section 4.3).  This provides callee-side
instrumentation without source access, at a per-message cost that
figure 14a measures.

:mod:`repro.gui.runtime` is the simulated Objective-C runtime; its message
dispatcher consults this module's :class:`InterpositionTable`.  Three levels
of support mirror the figure's four build modes:

* table absent (``tracing_supported = False``) — the release build;
* table present but empty — "tracing enabled" (the guard cost);
* trivial hooks installed — "interposition" (hook-call cost);
* TESLA event hooks installed — full automaton processing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.events import EventKind, RuntimeEvent, get_ident
from ..errors import TemporalAssertionError
from ..runtime import faultinject as _fi
from ..runtime.epoch import interest_epoch, interest_stats
from ..runtime.faultinject import fault_site
from .hooks import EventSink, contain_sink_fault, resolve_sink, sink_wants

_FP_INTERPOSE = fault_site("interpose.dispatch")
_CALL = EventKind.CALL
_RETURN = EventKind.RETURN

#: A raw interposition hook: (phase, receiver, selector, args, result).
#: ``phase`` is "send" before the method body runs and "return" after.
RawHook = Callable[[str, Any, str, Tuple[Any, ...], Any], None]


def _hook_phases(hook: RawHook, selector: str) -> Tuple[bool, bool]:
    """Whether a hook's sink observes this selector's (send, return).

    TESLA event hooks carry their sink (``__tesla_sink__``, set by
    :func:`tesla_method_hook`); its interest in the selector's CALL key
    decides the send phase and its RETURN key the return phase.  Raw
    hooks — trivial hooks, tracers — have no sink and see both phases.
    """
    sink = getattr(hook, "__tesla_sink__", None)
    if sink is None:
        return True, True
    return (
        sink_wants(sink, (EventKind.CALL, selector)),
        sink_wants(sink, (EventKind.RETURN, selector)),
    )


#: A resolved selector: the hooks to run on send and on return.
PhaseHooks = Tuple[List[RawHook], List[RawHook]]


class _Entry:
    """One selector's cached verdict for the current epoch."""

    __slots__ = ("live", "phases", "filtered", "kind_skips")

    def __init__(
        self,
        live: Optional[List[RawHook]],
        phases: Optional[PhaseHooks],
        filtered: bool,
        kind_skips: int,
    ) -> None:
        #: Hooks interested in either phase (``hooks_for``), or ``None``.
        self.live = live
        #: (send hooks, return hooks), or ``None`` with ``live``.
        self.phases = phases
        #: Hooks are installed but every one was filtered out.
        self.filtered = filtered
        #: TESLA hook calls (one per hook per phase) a message send skips
        #: because the hook's sink does not want that phase.
        self.kind_skips = kind_skips


class InterpositionTable:
    """The global table of interposition hooks consulted on message send.

    Answers are cached per selector and per phase, validated against the
    global :data:`~repro.runtime.epoch.interest_epoch`: install/remove/
    clear each bump the epoch, so a removed hook — or a hook whose sink's
    automata were uninstalled — cannot keep receiving message sends off a
    stale verdict.  The message dispatcher runs a TESLA hook only in the
    phases its sink observes, so a selector watched only on return never
    builds the send event; raw hooks run in both phases.  Selectors whose
    every hook is a TESLA hook with an uninterested sink resolve to
    ``None``, restoring the table-absent fast path.
    """

    __slots__ = ("hooks", "wildcard", "_epoch", "_cache")

    def __init__(self) -> None:
        #: selector -> hooks; ``None`` marks the empty fast path.
        self.hooks: Optional[Dict[str, List[RawHook]]] = None
        #: hooks invoked for *every* selector (figure 8's trace-everything).
        self.wildcard: Optional[List[RawHook]] = None
        self._epoch = -1
        self._cache: Dict[str, _Entry] = {}

    def install(self, selector: str, hook: RawHook) -> None:
        if self.hooks is None:
            self.hooks = {}
        self.hooks.setdefault(selector, []).append(hook)
        interest_epoch.bump()

    def install_wildcard(self, hook: RawHook) -> None:
        if self.wildcard is None:
            self.wildcard = []
        self.wildcard.append(hook)
        interest_epoch.bump()

    def remove(self, selector: str, hook: RawHook) -> None:
        if self.hooks is None:
            return
        hooks = self.hooks.get(selector)
        if hooks and hook in hooks:
            hooks.remove(hook)
            if not hooks:
                del self.hooks[selector]
        if not self.hooks:
            self.hooks = None
        # Invalidate cached verdicts so the removed hook stops firing.
        interest_epoch.bump()

    def clear(self) -> None:
        self.hooks = None
        self.wildcard = None
        interest_epoch.bump()

    def _compute(self, selector: str) -> _Entry:
        specific = None if self.hooks is None else self.hooks.get(selector)
        if self.wildcard is None:
            raw = specific
        elif specific is None:
            raw = self.wildcard
        else:
            raw = self.wildcard + specific
        if raw is None:
            return _Entry(None, None, False, 0)
        send: List[RawHook] = []
        ret: List[RawHook] = []
        live: List[RawHook] = []
        for hook in raw:
            on_send, on_return = _hook_phases(hook, selector)
            if on_send:
                send.append(hook)
            if on_return:
                ret.append(hook)
            if on_send or on_return:
                live.append(hook)
        if not live:
            return _Entry(None, None, True, 0)
        skips = 2 * len(live) - len(send) - len(ret)
        return _Entry(live, (send, ret), False, skips)

    def _entry(self, selector: str) -> _Entry:
        if self._epoch != interest_epoch.value:
            self._epoch = interest_epoch.value
            self._cache.clear()
        entry = self._cache.get(selector)
        if entry is None:
            entry = self._cache[selector] = self._compute(selector)
            interest_stats.interpose_refreshes += 1
        if entry.filtered:
            interest_stats.interpose_short_circuits += 1
        return entry

    def hooks_for(self, selector: str) -> Optional[List[RawHook]]:
        """Every *interested* hook to run for one selector (wildcard +
        specific), or ``None`` when the message dispatcher can skip the
        interposition pass entirely."""
        return self._entry(selector).live

    def phase_hooks(self, selector: str) -> Optional[PhaseHooks]:
        """The hooks to run on send and on return for one selector — each
        TESLA hook only in the phases its sink observes — or ``None``
        when the message dispatcher can skip the interposition pass."""
        entry = self._entry(selector)
        if entry.kind_skips:
            interest_stats.interpose_kind_skips += entry.kind_skips
        return entry.phases


#: The process-wide table, shared with the simulated Objective-C runtime.
interposition_table = InterpositionTable()


def tesla_method_hook(sink: EventSink) -> RawHook:
    """Build a hook translating message sends into TESLA events.

    The event name is the bare selector — assertions in the GNUstep use
    case reference selectors (``push``, ``pop``, ``drawWithFrame:inView:``),
    not classes, because the receiver's class is dynamic.  The hook
    resolves its sink to the dispatch entries for the selector's keys
    once per interest epoch and selector.
    """
    # (epoch, selector, send callable, return callable), swapped whole.
    resolved = [(-1, None, sink, sink)]

    def hook(
        phase: str, receiver: Any, selector: str, args: Tuple[Any, ...], result: Any
    ) -> None:
        try:
            if _fi._active is not None:
                _fi.fault_point(_FP_INTERPOSE)
            state = resolved[0]
            if state[0] != interest_epoch.value or state[1] != selector:
                state = resolved[0] = (
                    interest_epoch.value, selector,
                    resolve_sink(sink, (_CALL, selector))[1],
                    resolve_sink(sink, (_RETURN, selector))[1],
                )
            if phase == "send":
                state[2](RuntimeEvent(
                    _CALL, selector, (receiver,) + args, None, None, None,
                    {}, get_ident(), (),
                ))
            else:
                state[3](RuntimeEvent(
                    _RETURN, selector, (receiver,) + args, result, None,
                    None, {}, get_ident(), (),
                ))
        except TemporalAssertionError:
            raise
        except Exception as exc:
            if not contain_sink_fault(sink, "interpose", exc):
                raise

    # Expose the sink so the table's interest filter can consult it.
    hook.__tesla_sink__ = sink  # type: ignore[attr-defined]
    return hook


def trivial_hook(
    phase: str, receiver: Any, selector: str, args: Tuple[Any, ...], result: Any
) -> None:
    """The do-nothing interposition function of figure 14a's third mode."""
    return None
