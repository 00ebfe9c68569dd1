"""Per-stack-trace aggregation — the kernel's default handler.

"In the FreeBSD kernel, the default handler uses DTrace to aggregate
information across events, e.g., counting how often a transition is
triggered per stack trace" (section 4.4.2).  The GNUstep investigation
likewise hinged on "a stack trace every time a push or pop message was
sent".

:class:`StackAggregator` is a notification-hub handler (and an event sink)
that buckets occurrences by a stack signature, so hot paths and anomalous
callers fall out of the counts without reading raw traces.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.events import RuntimeEvent
from ..runtime.notify import Notification, NotificationKind

StackKey = Tuple[str, ...]


@dataclass
class AggregationRow:
    name: str
    stack: StackKey
    count: int


class StackAggregator:
    """Counts (event-or-transition name, stack signature) occurrences."""

    def __init__(self, capture_stacks: bool = True, stack_depth: int = 8) -> None:
        self.capture_stacks = capture_stacks
        self.stack_depth = stack_depth
        self._counts: Dict[Tuple[str, StackKey], int] = {}

    # -- sinks ------------------------------------------------------------

    def event_sink(self, event: RuntimeEvent) -> None:
        stack = event.stack or self._snapshot()
        key = (f"{event.kind.value}:{event.name}", stack)
        self._counts[key] = self._counts.get(key, 0) + 1

    __call__ = event_sink

    def notification_handler(self, notification: Notification) -> None:
        if notification.kind in (
            NotificationKind.UPDATE,
            NotificationKind.SITE,
            NotificationKind.ERROR,
        ):
            stack = self._snapshot()
            key = (
                f"{notification.automaton}:{notification.kind.value}",
                stack,
            )
            self._counts[key] = self._counts.get(key, 0) + 1

    def _snapshot(self) -> StackKey:
        if not self.capture_stacks:
            return ()
        frames = traceback.extract_stack(limit=self.stack_depth + 10)
        names = [
            f.name
            for f in frames
            if "repro/introspect" not in f.filename
            and "repro/instrument" not in f.filename
            and "repro/runtime" not in f.filename
        ]
        return tuple(names[-self.stack_depth:])

    # -- queries ------------------------------------------------------------

    def rows(self) -> List[AggregationRow]:
        return sorted(
            (
                AggregationRow(name=name, stack=stack, count=count)
                for (name, stack), count in self._counts.items()
            ),
            key=lambda r: -r.count,
        )

    def total(self, name: str) -> int:
        return sum(c for (n, _), c in self._counts.items() if n == name)

    def distinct_stacks(self, name: str) -> int:
        return sum(1 for (n, _) in self._counts if n == name)

    def format(self, limit: int = 20) -> str:
        lines = []
        for row in self.rows()[:limit]:
            stack = " <- ".join(reversed(row.stack[-4:])) or "(no stack)"
            lines.append(f"{row.count:>8}  {row.name:<40} {stack}")
        return "\n".join(lines)

    def clear(self) -> None:
        self._counts.clear()


# ---------------------------------------------------------------------------
# Dispatch fast-path effectiveness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispatchStats:
    """Effectiveness counters for the compiled event fast path.

    The interest counters (``hook_*``/``interpose_*``) are process-global
    — hook points and the interposition table are process-wide
    registries — while the plan counters are summed over one runtime's
    class runtimes across every store (the global store and per-thread
    stores).  ``*_short_circuits`` count instrumented calls or message
    sends that built no event at all; ``*_kind_skips`` count single
    CALL/RETURN events not built because no sink wanted that kind.
    """

    compiled: bool
    epoch: int
    hook_short_circuits: int
    hook_kind_skips: int
    hook_refreshes: int
    interpose_short_circuits: int
    interpose_kind_skips: int
    interpose_refreshes: int
    plan_hits: int
    plan_misses: int
    plan_invalidations: int
    cached_plans: int
    #: Deferred-pipeline counters (all zero for synchronous runtimes).
    #: ``queue_depth`` is sampled live — ``dispatch_stats`` deliberately
    #: does *not* flush, so a non-zero depth is the backlog right now.
    deferred: bool = False
    queue_depth: int = 0
    drains: int = 0
    flushes: int = 0
    sync_flushes: int = 0
    inline_flushes: int = 0
    events_enqueued: int = 0
    events_drained: int = 0
    max_batch: int = 0
    flush_seconds: float = 0.0
    last_flush_seconds: float = 0.0
    #: tesla-jit counters (all zero for ``compile=False`` runtimes).
    #: ``gen_fallback_plans`` counts *plans* the generator declined
    #: (cached as fallbacks), ``gen_fallback_hits`` counts events those
    #: plans carried through the compiled plan walk.
    gen_hits: int = 0
    gen_misses: int = 0
    gen_fallback_plans: int = 0
    gen_fallback_hits: int = 0
    gen_invalidations: int = 0
    cached_steps: int = 0
    gen_elided_guards: int = 0
    gen_elided_transitions: int = 0
    gen_seconds: float = 0.0
    #: Key functions (one generated dispatch function per key and
    #: context): how many were generated, how many are resident now, how
    #: many (key, context) pairs fell back as a whole to the plan walk,
    #: and the events those carried.  ``gen_hits`` still counts one hit
    #: per class per event its generated step ran.
    key_fns_built: int = 0
    key_fns_resident: int = 0
    fallback_keys: int = 0
    fallback_key_events: int = 0
    #: Dispatch entries (one generated function per dispatch key, for
    #: ``handle_event`` and for each event translator): built so far and
    #: resident now.  Any runtime, compiled or not, dispatches through
    #: them.
    entries_built: int = 0
    entries_resident: int = 0
    #: Timed-assertion counters (zero unless an installed automaton
    #: carries a deadline).  ``timer_checks`` counts sync-point timer
    #: sweeps, ``timer_expiries`` the deadline violations those sweeps
    #: surfaced *without* a successor event.
    timer_checks: int = 0
    timer_expiries: int = 0

    @property
    def plan_hit_ratio(self) -> float:
        total = self.plan_hits + self.plan_misses
        if not total:
            return 0.0
        return self.plan_hits / total

    @property
    def gen_hit_ratio(self) -> float:
        total = self.gen_hits + self.gen_misses
        if not total:
            return 0.0
        return self.gen_hits / total


def dispatch_stats(runtime) -> DispatchStats:
    """Fast-path counters for a :class:`TeslaRuntime` (duck-typed, so the
    introspection layer stays import-light)."""
    from ..runtime.epoch import interest_epoch, interest_stats

    plan_hits = plan_misses = plan_invalidations = cached_plans = 0
    gen_hits = gen_misses = gen_fallback_plans = gen_fallback_hits = 0
    gen_invalidations = cached_steps = 0
    gen_elided_guards = gen_elided_transitions = 0
    gen_seconds = 0.0
    stores = list(runtime.global_store.all_stores())
    stores.extend(runtime.thread_stores.all_stores())
    for store in stores:
        for cr in store:
            plan_hits += cr.plan_hits
            plan_misses += cr.plan_misses
            plan_invalidations += cr.plan_invalidations
            cached_plans += cr.plan_cache_size
            gen_hits += cr.gen_hits
            gen_misses += cr.gen_misses
            gen_fallback_plans += cr.gen_fallback_plans
            gen_fallback_hits += cr.gen_fallback_hits
            gen_invalidations += cr.gen_invalidations
            cached_steps += cr.gen_cache_size
            gen_elided_guards += cr.gen_elided_guards
            gen_elided_transitions += cr.gen_elided_transitions
            gen_seconds += cr.gen_seconds
    drain = getattr(runtime, "drain", None)
    extra = {}
    if drain is not None:
        drain_stats = drain.stats()
        extra = dict(
            deferred=True,
            queue_depth=drain_stats["queue_depth"],
            drains=drain_stats["drains"],
            flushes=drain_stats["flushes"],
            sync_flushes=drain_stats["sync_flushes"],
            inline_flushes=drain_stats["inline_flushes"],
            events_enqueued=drain_stats["events_enqueued"],
            events_drained=drain_stats["events_drained"],
            max_batch=drain_stats["max_batch"],
            flush_seconds=drain_stats["flush_seconds"],
            last_flush_seconds=drain_stats["last_flush_seconds"],
        )
    summary = getattr(runtime, "key_fn_summary", None)
    if summary is not None:
        key_fns = summary()
        extra.update(
            key_fns_built=key_fns["built"],
            key_fns_resident=len(key_fns["resident"]),
            fallback_keys=len(key_fns["fallback_keys"]),
            fallback_key_events=key_fns["fallback_events"],
            entries_built=key_fns["entries_built"],
            entries_resident=key_fns["entries_resident"],
        )
    return DispatchStats(
        compiled=getattr(runtime, "compiled", False),
        epoch=interest_epoch.value,
        hook_short_circuits=interest_stats.hook_short_circuits,
        hook_kind_skips=interest_stats.hook_kind_skips,
        hook_refreshes=interest_stats.hook_refreshes,
        interpose_short_circuits=interest_stats.interpose_short_circuits,
        interpose_kind_skips=interest_stats.interpose_kind_skips,
        interpose_refreshes=interest_stats.interpose_refreshes,
        plan_hits=plan_hits,
        plan_misses=plan_misses,
        plan_invalidations=plan_invalidations,
        cached_plans=cached_plans,
        gen_hits=gen_hits,
        gen_misses=gen_misses,
        gen_fallback_plans=gen_fallback_plans,
        gen_fallback_hits=gen_fallback_hits,
        gen_invalidations=gen_invalidations,
        cached_steps=cached_steps,
        gen_elided_guards=gen_elided_guards,
        gen_elided_transitions=gen_elided_transitions,
        gen_seconds=gen_seconds,
        timer_checks=getattr(runtime, "timer_checks", 0),
        timer_expiries=getattr(runtime, "timer_expiries", 0),
        **extra,
    )


def codegen_report(runtime) -> Optional[dict]:
    """tesla-jit effectiveness: which dispatch keys generated, which fell
    back (and why), what elision bought, and what generation cost.

    Returns ``None`` for ``compile=False`` runtimes.  Step counts
    are per *key label* (``kind:name``) aggregated over every class
    runtime holding a cached step for that key — a key observed by three
    classes that all generated shows ``3``.  ``key_functions`` counts the
    generated key functions and lists the resident ones
    (``kind:name@context``); ``fallback_keys`` maps each (key, context)
    that fell back as a whole to the first declining class's reason;
    ``entries`` counts the dispatch entries built and resident.
    """
    if not getattr(runtime, "compiled", False):
        return None
    generated: Dict[str, int] = {}
    fallbacks: Dict[str, dict] = {}
    gen_seconds = 0.0
    elided_guards = elided_transitions = fallback_hits = 0
    stores = list(runtime.global_store.all_stores())
    stores.extend(runtime.thread_stores.all_stores())
    for store in stores:
        for cr in store:
            summary = cr.gen_summary()
            for label in summary["generated_keys"]:
                generated[label] = generated.get(label, 0) + 1
            for label, reason in summary["fallback_keys"]:
                row = fallbacks.setdefault(
                    label, {"classes": 0, "reason": reason}
                )
                row["classes"] += 1
            gen_seconds += cr.gen_seconds
            elided_guards += cr.gen_elided_guards
            elided_transitions += cr.gen_elided_transitions
            fallback_hits += cr.gen_fallback_hits
    key_fns = runtime.key_fn_summary()
    return {
        "generated": dict(sorted(generated.items())),
        "fallbacks": dict(sorted(fallbacks.items())),
        "key_functions": {
            "built": key_fns["built"],
            "resident": key_fns["resident"],
        },
        "fallback_keys": key_fns["fallback_keys"],
        "entries": {
            "built": key_fns["entries_built"],
            "resident": key_fns["entries_resident"],
        },
        "elided_guards": elided_guards,
        "elided_transitions": elided_transitions,
        "fallback_hits": fallback_hits,
        "gen_seconds": gen_seconds,
    }


def governor_report(runtime) -> Optional[dict]:
    """Overhead-governor state (DESIGN §5.8): budget, measured spend,
    the per-class cost ranking with each class's shedding-ladder position,
    and the recent decision history.

    Returns ``None`` for runtimes built without ``overhead_budget=``.
    Duck-typed like :func:`codegen_report`.
    """
    gov = getattr(runtime, "governor", None)
    if gov is None:
        return None
    return gov.report()


def format_dispatch_stats(stats: DispatchStats) -> str:
    """A printable summary of how well the dispatch caches are working."""
    mode = "compiled (tesla-jit)" if stats.compiled else "interpreted"
    lines = [
        f"dispatch mode        {mode} (interest epoch {stats.epoch})",
        f"hook interest        {stats.hook_short_circuits} short-circuits, "
        f"{stats.hook_kind_skips} kind skips, "
        f"{stats.hook_refreshes} cache refreshes",
        f"interpose interest   {stats.interpose_short_circuits} "
        f"short-circuits, {stats.interpose_kind_skips} kind skips, "
        f"{stats.interpose_refreshes} cache refreshes",
        f"transition plans     {stats.plan_hits} hits / "
        f"{stats.plan_misses} misses ({stats.plan_hit_ratio:.1%} hit "
        f"ratio), {stats.plan_invalidations} epoch invalidations, "
        f"{stats.cached_plans} plans resident",
        f"dispatch entries     {stats.entries_built} built, "
        f"{stats.entries_resident} resident",
    ]
    if stats.compiled:
        lines.append(
            f"generated steps      {stats.gen_hits} hits / "
            f"{stats.gen_misses} misses ({stats.gen_hit_ratio:.1%} hit "
            f"ratio), {stats.gen_invalidations} epoch invalidations, "
            f"{stats.cached_steps} steps resident"
        )
        lines.append(
            f"key functions        {stats.key_fns_built} built, "
            f"{stats.key_fns_resident} resident, {stats.fallback_keys} "
            f"fallback keys ({stats.fallback_key_events} plan-walk events)"
        )
        lines.append(
            f"codegen              {stats.gen_fallback_plans} fallback "
            f"plans ({stats.gen_fallback_hits} interpreter events), "
            f"{stats.gen_elided_guards} guards elided, "
            f"{stats.gen_elided_transitions} transitions elided, "
            f"{stats.gen_seconds * 1e3:.2f}ms generating"
        )
    if stats.timer_checks:
        lines.append(
            f"timed assertions     {stats.timer_checks} timer sweeps, "
            f"{stats.timer_expiries} deadline expiries without a "
            f"successor event"
        )
    if stats.deferred:
        lines.append(
            f"deferred pipeline    depth={stats.queue_depth} "
            f"enqueued={stats.events_enqueued} "
            f"drained={stats.events_drained} "
            f"drains={stats.drains} max_batch={stats.max_batch}"
        )
        lines.append(
            f"flush latency        {stats.flushes} flushes "
            f"(sync={stats.sync_flushes} inline={stats.inline_flushes}), "
            f"last={stats.last_flush_seconds * 1e6:.1f}us "
            f"total={stats.flush_seconds * 1e3:.2f}ms"
        )
    return "\n".join(lines)
