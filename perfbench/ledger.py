"""Span ledger for the traced run.

Spans are recorded by wrapping public entry points of each layer from the
benchmark's own code; nothing under ``src/`` changes.  Each span is timed
with ``perf_counter`` and aggregated in memory per (phase, name): calls,
total time and self time (total minus the time its child spans cover on
the same thread).  The first spans of a run are also kept raw — name,
start, end, parent, thread — and the whole ledger is written out when the
benchmark ends.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import repro.analysis.lint as lint_module
import repro.runtime.manager as manager_module
from repro.instrument.interpose import interposition_table
from repro.instrument.module import Instrumenter
from repro.instrument.translator import EventTranslator
from repro.runtime.drain import DrainController
from repro.runtime.epoch import interest_epoch
from repro.runtime.journal import JournalWriter
from repro.runtime.manager import TeslaRuntime

#: Raw spans kept for inspection; the aggregates cover every span.
RAW_SPAN_LIMIT = 4000

#: (owner, attribute, span name): the layer entry points the traced run
#: wraps.  The update functions are wrapped where the manager binds them.
ENTRY_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (EventTranslator, "__call__", "instrument.translator"),
    (TeslaRuntime, "handle_event", "runtime.manager"),
    (TeslaRuntime, "dispatch_batch", "runtime.manager"),
    (manager_module, "tesla_update_state", "runtime.update.body"),
    (manager_module, "handle_init", "runtime.update.init"),
    (manager_module, "lazy_join_bound", "runtime.update.init"),
    (manager_module, "handle_cleanup", "runtime.update.cleanup"),
    (DrainController, "flush", "runtime.drain"),
    (JournalWriter, "append_batch", "runtime.journal"),
    (Instrumenter, "instrument", "setup.instrument"),
    (manager_module, "translate_all", "setup.translate"),
    (lint_module, "lint_assertions", "setup.lint"),
)


class Row:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Ledger:
    """In-memory span aggregates, keyed by phase and span name.

    ``phase`` is set by ``run.py`` between blocks ("setup", "monitored",
    "release"); spans from every thread land in the current phase, each
    thread with its own stack and table so no update is shared.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, {(phase, name): Row}) per thread that recorded.
        self._tables: List[Tuple[str, Dict[Tuple[str, str], Row]]] = []
        self.raw: List[Tuple[str, float, float, str, str]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._hooks: Dict[str, list] = {}

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            name = threading.current_thread().name
            state = self._local.state = ([], {}, name)
            with self._lock:
                self._tables.append((name, state[1]))
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        ledger = self

        def spanned(*args, **kwargs):
            stack, table, thread = ledger._thread_state()
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (ledger.phase, name)
                row = table.get(key)
                if row is None:
                    row = table[key] = Row()
                row.calls += 1
                row.total += duration
                row.self += duration - frame[0]
                if len(ledger.raw) < RAW_SPAN_LIMIT:
                    parent = stack[-1][1] if stack else ""
                    ledger.raw.append((name, start, end, parent, thread))

        spanned.span_target = fn
        return spanned

    # -- entry points ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (idempotent)."""
        if self._patched:
            return
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap_interposition(self) -> None:
        """Wrap the message-send hooks an instrumenter installed in the
        interposition table; call :meth:`unwrap_interposition` before
        uninstrumenting so the originals are removed."""
        table = interposition_table.hooks or {}
        for selector, hooks in table.items():
            self._hooks[selector] = list(hooks)
            wrapped = []
            for hook in hooks:
                spanned = self.wrap("instrument.interpose", hook)
                sink = getattr(hook, "__tesla_sink__", None)
                if sink is not None:
                    spanned.__tesla_sink__ = sink
                wrapped.append(spanned)
            hooks[:] = wrapped
        interest_epoch.bump()

    def unwrap_interposition(self) -> None:
        table = interposition_table.hooks or {}
        for selector, originals in self._hooks.items():
            if selector in table:
                table[selector][:] = originals
        self._hooks.clear()
        interest_epoch.bump()

    # -- reading ----------------------------------------------------------------

    def row(self, phase: str, *names: str, main_only: bool = False) -> Row:
        """Sum of the rows for ``names`` in ``phase`` across threads."""
        out = Row()
        for thread, table in self._tables:
            if main_only and thread != "MainThread":
                continue
            for name in names:
                row = table.get((phase, name))
                if row is not None:
                    out.calls += row.calls
                    out.total += row.total
                    out.self += row.self
        return out

    def to_json(self) -> dict:
        rows = []
        for thread, table in self._tables:
            for (phase, name), row in sorted(table.items()):
                rows.append(
                    {
                        "thread": thread,
                        "phase": phase,
                        "name": name,
                        "calls": row.calls,
                        "total_s": row.total,
                        "self_s": row.self,
                    }
                )
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "thread": t}
            for n, s, e, p, t in self.raw
        ]
        return {"rows": rows, "raw_spans": spans}
