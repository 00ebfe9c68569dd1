"""Automata stores: global and thread-local (sections 3.2, 4.4).

libtesla "can store automata state in either a global or a thread-local
store, as specified by the programmer".  Thread-local stores need no
locking — event serialisation is implicit within a thread.  The global
store provides explicit, lock-based serialisation whose cost figure 12
measures: an event "cannot complete until its instrumentation hook has
finished running", which commits the automaton to an event order consistent
with actual behaviour.

Like libtesla, :class:`GlobalStore` puts the whole global store behind
one re-entrant lock.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..core.automaton import Automaton, Transition
from ..core.events import EventKind
from ..errors import ContextError
from . import faultinject as _fi
from .faultinject import fault_site
from .instance import AutomatonInstance
from .plans import TransitionPlan, build_transition_plan
from .prealloc import DEFAULT_CAPACITY, InstancePool

_FP_PLAN_FOR = fault_site("store.plan_for")

#: An event's routing identity: (event kind, dispatch name).
DispatchKey = Tuple[EventKind, str]
#: A temporal bound's identity: (init dispatch key, cleanup dispatch key).
BoundId = Tuple[DispatchKey, DispatchKey]


class BoundTracker:
    """Per-context record of open temporal bounds (lazy mode, §5.2.2)."""

    __slots__ = ("open", "epoch", "touched", "entry_ts")

    def __init__(self) -> None:
        self.open: Dict[BoundId, bool] = {}
        self.epoch: Dict[BoundId, int] = {}
        self.touched: Dict[BoundId, Set[str]] = {}
        #: Capture timestamp of the event that opened each bound — the
        #: reference point lazily-joined timed instances measure deadlines
        #: and ``since_entry`` guards from (DESIGN §5.9).
        self.entry_ts: Dict[BoundId, float] = {}

    def reset(self) -> None:
        """Close every bound and forget its epochs."""
        self.open.clear()
        self.epoch.clear()
        self.touched.clear()
        self.entry_ts.clear()

    def begin(self, bound: BoundId, ts: float = 0.0) -> None:
        if self.open.get(bound):
            return  # re-entrant bound: ignore until cleanup
        self.open[bound] = True
        self.epoch[bound] = self.epoch.get(bound, 0) + 1
        self.touched[bound] = set()
        self.entry_ts[bound] = ts

    def end(self, bound: BoundId) -> Set[str]:
        if not self.open.get(bound):
            return set()
        self.open[bound] = False
        return self.touched.pop(bound, set())


class ClassRuntime:
    """Per-store state for one automaton class.

    ``active`` tracks whether the temporal bound is currently open;
    ``pending`` is the lazy-initialisation flag (section 5.2.2): the bound
    is open but the wildcard instance has not been materialised because no
    relevant event has arrived yet.
    """

    __slots__ = (
        "automaton",
        "pool",
        "active",
        "pending",
        "seen_epoch",
        "lazy_binding",
        "lazy_entry_ts",
        "overflow_mark",
        "overflow_reported",
        "sample_rate",
        "counts",
        "errors",
        "accepts",
        "sites_reached",
        "_plans",
        "_plan_epoch",
        "plan_hits",
        "plan_misses",
        "plan_invalidations",
        "_gen",
        "_gen_epoch",
        "gen_hits",
        "gen_misses",
        "gen_fallback_plans",
        "gen_fallback_hits",
        "gen_invalidations",
        "gen_elided_guards",
        "gen_elided_transitions",
        "gen_seconds",
    )

    def __init__(self, automaton: Automaton, capacity: int = DEFAULT_CAPACITY) -> None:
        self.automaton = automaton
        self.pool = InstancePool(capacity)
        self.active = False
        self.pending = False
        #: Last bound epoch this class joined (lazy mode, section 5.2.2).
        self.seen_epoch = -1
        #: Binding captured from the bound's entry event (eager mode).
        self.lazy_binding: Dict[str, object] = {}
        #: Capture timestamp of the bound's entry event, threaded to
        #: instances materialised later (pending/lazy joins) so timed
        #: guards measure from when the bound actually opened.
        self.lazy_entry_ts = 0.0
        #: Pool overflow count when the current bound opened; a site miss
        #: after further overflows is suppressed (the dropped instance may
        #: have been the one that would have matched).
        self.overflow_mark = 0
        #: Whether the current bound already emitted its (single) OVERFLOW
        #: notification — a saturated pool reports once per bound, with
        #: exact drop counts kept in ``pool.stats()``.
        self.overflow_reported = False
        #: The overhead governor's honesty annotation (DESIGN §5.8): the
        #: 1-in-N instantiation rate in force when the current bound was
        #: admitted.  1 = unsampled; violations carry this value so a
        #: sampled finding can never report as full coverage.
        self.sample_rate = 1
        #: Times each transition was taken, indexed by its position
        #: (``automaton.transition_index``); generated code bumps these
        #: by constant index.  Drives figure 9's weighted graphs.
        self.counts: List[int] = [0] * len(automaton.transitions)
        self.errors = 0
        self.accepts = 0
        self.sites_reached = 0
        #: Compiled transition plans, keyed by dispatch key; valid only
        #: while ``_plan_epoch`` matches the global interest epoch.
        self._plans: Dict[DispatchKey, TransitionPlan] = {}
        self._plan_epoch = -1
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0
        #: tesla-jit generated step functions (DESIGN §5.7), keyed like
        #: plans; an entry is a ``CompiledStep`` or a ``GenerationFallback``
        #: (the "can't specialize" decision is cached too, so the compiled
        #: interpreter fallback costs one dict probe, not a regeneration).
        self._gen: Dict[DispatchKey, object] = {}
        self._gen_epoch = -1
        self.gen_hits = 0
        self.gen_misses = 0
        self.gen_fallback_plans = 0
        self.gen_fallback_hits = 0
        self.gen_invalidations = 0
        self.gen_elided_guards = 0
        self.gen_elided_transitions = 0
        self.gen_seconds = 0.0

    def count_transition(self, transition: Transition) -> None:
        self.counts[self.automaton.transition_index[transition]] += 1

    @property
    def transition_counts(self) -> Mapping[Transition, int]:
        """Transition → times taken, for transitions taken at least once
        (a read-only snapshot of :attr:`counts`)."""
        return MappingProxyType({
            t: n for t, n in zip(self.automaton.transitions, self.counts) if n
        })

    def plan_for(self, key: DispatchKey, epoch: int) -> TransitionPlan:
        """The compiled plan for ``key``, rebuilt lazily on epoch change.

        ``epoch`` is the caller's snapshot of the global interest epoch
        (read once per event, outside any per-class loop).  The caller
        must hold whatever lock serialises this class — the cache is
        per-class state like the pool.
        """
        if _fi._active is not None:
            _fi.fault_point(_FP_PLAN_FOR)
        if self._plan_epoch != epoch:
            if self._plans:
                self.plan_invalidations += 1
                self._plans.clear()
            self._plan_epoch = epoch
        plan = self._plans.get(key)
        if plan is None:
            self.plan_misses += 1
            plan = build_transition_plan(self.automaton, key)
            self._plans[key] = plan
        else:
            self.plan_hits += 1
        return plan

    def gen_entry(self, key: DispatchKey, epoch: int, facts):
        """The cached tesla-jit entry for ``key``: a ``CompiledStep``, or
        a ``GenerationFallback`` naming why the generator declined.

        Same caching discipline as :meth:`plan_for`: valid while
        ``_gen_epoch`` matches the caller's interest-epoch snapshot, and
        the caller must hold whatever lock serialises this class.
        ``facts`` is the runtime's :class:`~repro.runtime.codegen.
        CodegenFacts` snapshot — it only changes on installs, which bump
        the epoch, so facts-staleness rides the same invalidation.  A miss
        is counted; a hit is not (the caller counts the events it runs).
        """
        if self._gen_epoch != epoch:
            if self._gen:
                self.gen_invalidations += 1
                self._gen.clear()
            self._gen_epoch = epoch
        entry = self._gen.get(key)
        if entry is None:
            from time import perf_counter

            from .codegen import compile_plan_step

            self.gen_misses += 1
            plan = self.plan_for(key, epoch)
            start = perf_counter()
            entry = compile_plan_step(self.automaton, plan, facts)
            self.gen_seconds += perf_counter() - start
            self._gen[key] = entry
            if entry.step is None:
                self.gen_fallback_plans += 1
            else:
                self.gen_elided_guards += entry.elided_guards
                self.gen_elided_transitions += entry.elided_transitions
        return entry

    def step_for(self, key: DispatchKey, epoch: int, facts):
        """The tesla-jit generated step for ``key``, or ``None`` when the
        generator declined this plan; a cache hit counts as ``gen_hits``
        (or ``gen_fallback_hits``).  See :meth:`gen_entry`."""
        misses = self.gen_misses
        entry = self.gen_entry(key, epoch, facts)
        fresh = self.gen_misses != misses
        if entry.step is None:
            if not fresh:
                self.gen_fallback_hits += 1
            return None
        if not fresh:
            self.gen_hits += 1
        return entry

    def gen_summary(self) -> Dict[str, object]:
        """Per-key generated/fallback split for the codegen report."""
        generated = []
        fallback = []
        for key, entry in self._gen.items():
            label = f"{key[0].value}:{key[1]}"
            if entry.step is None:
                fallback.append((label, entry.reason))
            else:
                generated.append(label)
        return {
            "generated_keys": sorted(generated),
            "fallback_keys": sorted(fallback),
        }

    @property
    def plan_cache_size(self) -> int:
        return len(self._plans)

    @property
    def gen_cache_size(self) -> int:
        return len(self._gen)

    def reset(self) -> None:
        self.pool.expunge()
        self.active = False
        self.pending = False
        self.seen_epoch = -1
        self.lazy_binding = {}
        self.lazy_entry_ts = 0.0
        self.overflow_mark = 0
        self.overflow_reported = False
        self.sample_rate = 1
        # Plans and generated steps survive a reset (the automaton is
        # unchanged); only the effectiveness counters restart.
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0
        self.gen_hits = 0
        self.gen_misses = 0
        self.gen_fallback_hits = 0
        self.gen_invalidations = 0
        # gen_fallback_plans / gen_elided_* / gen_seconds describe the
        # cache's *contents* (which survive the reset), not traffic.


class Store:
    """One store context: a set of automata classes, their instances and
    the context's open temporal bounds."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._classes: Dict[str, ClassRuntime] = {}
        #: The context's bound tracker (lazy mode): owned here so the
        #: dispatcher finds a thread's store and its tracker in one
        #: thread-local lookup.
        self.tracker = BoundTracker()

    def install(self, automaton: Automaton) -> ClassRuntime:
        if automaton.name in self._classes:
            existing = self._classes[automaton.name]
            if existing.automaton is not automaton:
                raise ContextError(
                    f"automaton {automaton.name!r} already installed with a "
                    f"different definition"
                )
            return existing
        runtime = ClassRuntime(automaton, self.capacity)
        self._classes[automaton.name] = runtime
        return runtime

    def get(self, name: str) -> Optional[ClassRuntime]:
        return self._classes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[ClassRuntime]:
        return iter(self._classes.values())

    @property
    def names(self) -> List[str]:
        return sorted(self._classes)

    def reset(self) -> None:
        for runtime in self._classes.values():
            runtime.reset()
        self.tracker.reset()


class PerThreadStores:
    """A :class:`Store` per thread, created on first use.

    Keeps a registry of every thread's store so introspection (coverage,
    weighted graphs) can merge counters after multi-threaded runs.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._local = threading.local()
        self._all: List[Store] = []
        self._all_lock = threading.Lock()
        self._automata: List[Automaton] = []

    def register(self, automaton: Automaton) -> None:
        """Remember an automaton so stores created later include it."""
        self._automata.append(automaton)
        with self._all_lock:
            for store in self._all:
                store.install(automaton)

    def current(self) -> Store:
        store = getattr(self._local, "store", None)
        if store is None:
            store = Store(self.capacity)
            for automaton in self._automata:
                store.install(automaton)
            self._local.store = store
            with self._all_lock:
                self._all.append(store)
        return store

    def all_stores(self) -> List[Store]:
        with self._all_lock:
            return list(self._all)

    def reset(self) -> None:
        with self._all_lock:
            for store in self._all:
                store.reset()


class GlobalStore:
    """The single cross-thread store, serialised by one lock (figure 12).

    The paper's libtesla puts the whole global store behind one lock, and
    so does this one: every global-context class lives in ``store`` and
    every event's global work runs under ``lock``.  The lock is an
    ``RLock`` so a hook firing inside monitored code re-enters safely.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.store = Store(capacity)
        self.lock = threading.RLock()
        #: The store's tracker, aliased for the dispatch hot path
        #: (``Store.reset`` clears it in place, so the alias stays valid).
        self.tracker = self.store.tracker

    def register(self, automaton: Automaton) -> ClassRuntime:
        with self.lock:
            return self.store.install(automaton)

    def get(self, name: str) -> Optional[ClassRuntime]:
        return self.store.get(name)

    def all_stores(self) -> List[Store]:
        return [self.store]

    def reset(self) -> None:
        with self.lock:
            self.store.reset()
