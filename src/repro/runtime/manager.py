"""The libtesla front door: event dispatch across stores and automata.

:class:`TeslaRuntime` owns the global and per-thread stores, an index from
event dispatch keys to the automata that observe them, the notification
hub, and the *bound trackers* implementing the paper's section 5.2.2
optimisation.

Naive mode (``lazy=False``) reproduces the first implementation: "on
entering a system call, libtesla would do work on every system-call–related
automaton" — the bound's entry event eagerly creates a wildcard instance
for every class sharing that bound, and its exit event walks all of them.

Lazy mode (``lazy=True``, the default) keeps "a per-context record of
common initialisation and cleanup events": opening a bound is one epoch
bump per *bound*, not per class; a class only materialises its wildcard
instance when it receives its first non-initialisation event; and cleanup
only visits the classes actually touched during the bound.  This is the
change that took the paper's microbenchmarks from ~100× to <7× overhead
(figure 13).

Global-context serialisation is the paper's single lock (figure 12): every
global-context class lives in one :class:`~repro.runtime.store.GlobalStore`,
and an event with global work takes its lock once, so global event order
is exactly the paper's.  :meth:`TeslaRuntime.dispatch_batch` amortises the
locking: it takes the lock once per batch and replays the batch in event
order, so a batch reports exactly what per-event dispatch would.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.ast import Context, TemporalAssertion
from ..core.automaton import Automaton, TransitionKind
from ..core.events import EventKind, RuntimeEvent
from ..core.translate import translate_all
from ..errors import ContextError, TemporalAssertionError
from . import rows
from .clock import MonotonicClock, as_clock
from .config import RuntimeConfig
from .drain import DrainController
from .epoch import interest_epoch
from .governor import OverheadGovernor
from .journal import JournalWriter
from .notify import NotificationHub
from .supervisor import Supervisor
from .store import (
    BoundId,
    BoundTracker,
    ClassRuntime,
    DispatchKey,
    GlobalStore,
    PerThreadStores,
    Store,
)
from .update import (
    expire_deadlines,
    handle_cleanup,
    handle_init,
    lazy_join_bound,
    tesla_update_state,
)

__all__ = [
    "BoundId",
    "BoundTracker",
    "DispatchKey",
    "TeslaRuntime",
    "live_runtimes",
    "reset_all_runtimes",
]


def _dispatch_keys_of(automaton: Automaton) -> Dict[str, Set[DispatchKey]]:
    """Split an automaton's alphabet into init / cleanup / body keys."""
    init: Set[DispatchKey] = set()
    cleanup: Set[DispatchKey] = set()
    body: Set[DispatchKey] = set()
    for t in automaton.transitions:
        if t.symbol is None:
            continue
        symbol = automaton.symbols[t.symbol]
        kind, name = symbol.dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            key = (kind, automaton.name)
        else:
            key = (kind, name)
        if t.kind is TransitionKind.INIT:
            init.add(key)
        elif t.kind is TransitionKind.CLEANUP:
            cleanup.add(key)
        else:
            body.add(key)
    return {"init": init, "cleanup": cleanup, "body": body}


class _ContextPlan:
    """One dispatch key's work within one context (the global store, or the
    calling thread's local store)."""

    __slots__ = ("init_names", "init_bounds", "body", "cleanup_names",
                 "cleanup_bounds", "fn")

    def __init__(self) -> None:
        self.init_names: List[str] = []
        self.init_bounds: List[BoundId] = []
        #: (class name, its bound) — the bound feeds the lazy epoch join.
        self.body: List[Tuple[str, BoundId]] = []
        self.cleanup_names: List[str] = []
        self.cleanup_bounds: List[BoundId] = []
        #: The compiled runtime's generated key function
        #: ``fn(store, event)`` for this share, built on first dispatch.
        self.fn = None

    def empty(self) -> bool:
        return not (self.init_names or self.body or self.cleanup_names)


def _skipped_step(cr, event, hub) -> None:
    """Stands in for a step whose generation faulted (see
    :meth:`TeslaRuntime._build_key_fn`)."""


class _KeyPlan:
    """Everything one dispatch key triggers, pre-split by context.

    Computed once per key and cached — the indexes never change after
    installation, so dispatch does no per-event index walking.  ``epoch``
    is the interest epoch it was built under: the key functions it holds
    bind generated steps valid for that epoch only, so a bump anywhere in
    the process (another runtime's install, a hook attach) rebuilds it.
    """

    __slots__ = ("glob", "local", "initiated", "epoch")

    def __init__(
        self,
        glob: Optional[_ContextPlan],
        local: Optional[_ContextPlan],
        initiated: frozenset,
        epoch: int,
    ) -> None:
        self.glob = glob
        self.local = local
        self.initiated = initiated
        self.epoch = epoch


#: Every constructed runtime, for test hygiene (see ``reset_all_runtimes``).
_live_runtimes: "weakref.WeakSet[TeslaRuntime]" = weakref.WeakSet()


def live_runtimes() -> List["TeslaRuntime"]:
    """Every :class:`TeslaRuntime` still referenced by the process."""
    return list(_live_runtimes)


def reset_all_runtimes() -> None:
    """Reset every live runtime: expunge instances and close bounds.

    The runtime layer's analogue of the instrumentation registries'
    ``detach_all`` — test fixtures call it so automata state and bound
    trackers never leak across tests.
    """
    for runtime in live_runtimes():
        runtime.reset()


class TeslaRuntime:
    """Tracks automata instances and their state across all contexts."""

    def __init__(self, **knobs) -> None:
        self._configure(RuntimeConfig(**knobs))

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "TeslaRuntime":
        """The runtime ``config`` describes; ``TeslaRuntime(**knobs)`` is
        ``TeslaRuntime.from_config(RuntimeConfig(**knobs))``."""
        runtime = cls.__new__(cls)
        runtime._configure(config)
        return runtime

    def _configure(self, config: RuntimeConfig) -> None:
        #: The validated knobs this runtime was built from (DESIGN §5.11);
        #: the ones dispatch reads are copied to plain attributes below.
        self.config = config
        self.lazy = config.lazy
        self.compiled = config.compile
        #: Key functions generated (``dispatch_stats``/``codegen_report``).
        self.key_fns_built = 0
        #: Memoized :class:`~repro.runtime.codegen.CodegenFacts` snapshot,
        #: keyed by interest epoch (installs both change lint facts and
        #: bump the epoch, so staleness rides the same invalidation).
        self._facts_epoch = -1
        self._facts = None
        #: The runtime's one time source (DESIGN §5.9) for capture stamps,
        #: timer expiry and the governor's cost accounting.
        self.clock = as_clock(config.clock)
        self.stamp_capture = config.stamp_capture
        #: Largest event timestamp observed, for timer expiry when events
        #: arrive pre-stamped: "now" is then defined by the trace itself,
        #: not by this process's clock.
        self._max_event_ts = 0.0
        #: Classes carrying a ``deadline(...)`` obligation — the only ones
        #: the sync-point timer check must visit.
        self._timed_classes: List[str] = []
        #: Timer-check accounting, surfaced via dispatch_stats.
        self.timer_checks = 0
        self.timer_expiries = 0
        self.hub = NotificationHub(config.policy)
        #: The containment boundary for faults in the monitor itself:
        #: ``failure_policy`` selects fail-stop (default), fail-open,
        #: callback, or quarantine — the internal-fault counterpart of the
        #: violation ``policy``.  Quarantine state changes clear dispatch
        #: plans and rebuild translator chains via ``_on_supervisor_change``.
        self.supervisor = Supervisor(
            config.failure_policy, on_change=self._on_supervisor_change
        )
        self.hub.fault_sink = self.supervisor.record_handler_fault
        #: Adaptive overhead governor (DESIGN §5.8): graduated shedding
        #: (sample, demote to journal-only, shed) holds monitoring cost to
        #: ``overhead_budget``.  ``None`` keeps the hot path
        #: un-instrumented.
        self.governor: Optional[OverheadGovernor] = (
            OverheadGovernor(
                config.overhead_budget,
                clock=self.clock,
                shed=self.supervisor.governor_shed,
                unshed=self.supervisor.governor_unshed,
                on_demote_change=self._on_governor_change,
            )
            if config.overhead_budget is not None
            else None
        )
        #: Event translators feeding this runtime, re-filtered when the
        #: supervisor sheds or re-arms a class (weak: translators die with
        #: their instrumentation session).
        self._translators: "weakref.WeakSet" = weakref.WeakSet()
        #: The global store: every global-context class behind one lock.
        self.global_store = GlobalStore(config.capacity, config.compile)
        self.thread_stores = PerThreadStores(config.capacity, config.compile)
        self.automata: Dict[str, Automaton] = {}
        self.contexts: Dict[str, Context] = {}
        self.bounds: Dict[str, BoundId] = {}
        self._init_index: Dict[DispatchKey, List[str]] = {}
        self._cleanup_index: Dict[DispatchKey, List[str]] = {}
        self._body_index: Dict[DispatchKey, List[str]] = {}
        #: Dispatch plans, one per key, built lazily from the indexes.
        self._key_plans: Dict[DispatchKey, _KeyPlan] = {}
        #: Each class's generated cleanup (:meth:`_cleanup_fn`).
        self._cleanup_fns: Dict[str, object] = {}
        #: ``handle_event``'s per-key dispatch entries (DESIGN §5.7); each
        #: registered translator keeps its own, built by
        #: :meth:`build_entry` and retired with these.
        self._entries: Dict[DispatchKey, object] = {}
        self.entries_built = 0
        #: Event counter, for the benchmarks' sanity reporting.
        self.events_processed = 0
        #: Durable trace journal (DESIGN §5.6): the drain appends every
        #: merged slot before evaluating it.
        self.journal: Optional[JournalWriter] = None
        journal = config.journal
        if journal is not None:
            # Anything already quacking like a journal sink (JournalWriter
            # or a custom append_batch/close object) is used as-is; paths
            # and binary streams get wrapped, with the pool capacity in
            # the metadata: a replay at another capacity would drop (or
            # keep) different instances.
            self.journal = (
                journal
                if hasattr(journal, "append_batch")
                else JournalWriter(journal, {"capacity": config.capacity})
            )
        self.drain: Optional[DrainController] = (
            DrainController(
                self,
                ring_capacity=config.ring_capacity,
                background=(config.deferred is True),
                drain_interval=config.drain_interval,
                journal=self.journal,
            )
            if config.deferred
            else None
        )
        #: Dispatch keys whose events may themselves produce a verdict —
        #: bound entry/exit, assertion sites, and any event a ``strict``
        #: automaton references.  In deferred mode these are the
        #: synchronization points: capturing one forces a flush so
        #: violations are raised exactly where synchronous dispatch would
        #: raise them.
        self._sync_keys: frozenset = frozenset()
        #: Keys observed by a thread-local (perthread) automaton.  Their
        #: local share is always evaluated inline on the capturing thread
        #: — a per-thread automaton's serialisation *is* that thread, and
        #: its state lives in the capturing thread's store, which a drain
        #: running on another thread could never reach.
        self._local_keys: frozenset = frozenset()
        #: Accumulated lint results across installed batches (``None``
        #: until the first lint-enabled install).  Consumed by the event
        #: translator's check-elision fast path and by ``health_report``.
        self.lint_report = None
        #: Accumulated prove results across installed batches (``None``
        #: until the first prove-enabled install).
        self.prove_report = None
        #: Assertion names statically discharged and elided at install
        #: (only under ``prove="prune"``); instrumenters consult this to
        #: skip hook weaving and site attachment.
        self.prove_elided: Set[str] = set()
        _live_runtimes.add(self)

    # -- supervision -----------------------------------------------------------

    def register_translator(self, translator) -> None:
        """Track a translator so quarantine changes re-filter its chains."""
        self._translators.add(translator)

    def _on_supervisor_change(self) -> None:
        """A class was quarantined or re-armed: rebuild every derived
        dispatch structure, then bump the interest epoch so hook-point and
        interposition caches (and per-class plan caches) follow."""
        self._key_plans.clear()
        for translator in list(self._translators):
            translator._rebuild()
        self._retire_entries()
        interest_epoch.bump()

    def _retire_entries(self) -> None:
        """Drop every dispatch entry of this runtime and its translators.
        Each caller bumps the interest epoch next, so hooks holding an
        entry resolve a fresh one on their next call."""
        self._entries.clear()
        for translator in list(self._translators):
            translator._entries.clear()

    def _on_governor_change(self) -> None:
        """The governor demoted or restored a class: rebuild dispatch plans
        only.  Deliberately *not* ``_on_supervisor_change`` — a demoted
        class must keep capturing events (the journal is its evidence
        trail), so hook interest and translator chains stay untouched; the
        class merely disappears from evaluation plans."""
        self._key_plans.clear()

    def _govern(self, events: int) -> None:
        """One governor control tick, fail-safe: any governor fault trips
        it (all restrictions lift, decisions stop) and is contained under
        the pseudo-label ``(governor)`` — a broken controller degrades to
        "no shedding", never to dropped verdicts."""
        gov = self.governor
        try:
            gov.maybe_control(events)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            gov.trip()
            if not self.supervisor.contain("(governor)", "governor", exc):
                raise

    def _charge(self, gov: OverheadGovernor, name: str, seconds: float) -> None:
        """Attribute measured evaluation time to a class's cost ledger,
        with the same trip-and-contain fail-safety as ``_govern``."""
        try:
            gov.charge(name, seconds)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            gov.trip()
            if not self.supervisor.contain("(governor)", "governor", exc):
                raise

    # -- installation ----------------------------------------------------------

    def install_assertion(self, assertion: TemporalAssertion) -> Automaton:
        return self.install_assertions([assertion])[0]

    def install_assertions(
        self, assertions: Sequence[TemporalAssertion]
    ) -> List[Automaton]:
        batch = list(assertions)
        self._lint_batch(batch)
        self._prove_batch(batch)
        if self.journal is not None:
            # Embed the source assertions so the journal is self-contained:
            # offline replay re-derives the automata from the log alone.
            self.journal.record_assertions(batch)
        automata = translate_all(batch)
        for automaton, assertion in zip(automata, batch):
            if automaton.name in self.prove_elided:
                # Statically discharged under prove="prune": the class is
                # never registered, so no dispatch index references its
                # events and instrumenters skip its hooks entirely.
                continue
            self.install_automaton(automaton, assertion.context)
        return automata

    def _lint_batch(self, assertions: Sequence[TemporalAssertion]) -> None:
        """The install-time tesla-lint gate (mode per ``config.lint``).

        Runs the batch and automaton layers only; accumulates results on
        ``self.lint_report`` so the translators' check-elision fast path
        and ``health_report`` can consume them.
        """
        if self.config.lint == "off" or not assertions:
            return
        from ..analysis.lint import lint_assertions

        report = lint_assertions(assertions)
        if self.lint_report is None:
            self.lint_report = report
        else:
            self.lint_report.extend(report)
        if report.errors and self.config.lint == "error":
            from ..errors import LintError

            raise LintError(report)
        if report.findings:
            import warnings

            warnings.warn(
                "tesla-lint findings on installed assertions:\n"
                + "\n".join(f.format() for f in report.findings),
                stacklevel=3,
            )

    def _prove_batch(self, assertions: Sequence[TemporalAssertion]) -> None:
        """The install-time tesla-prove gate (mode per ``config.prove``).

        Only the automaton proof basis runs here — the runtime has no
        program CFG (instrumenters know the sources; ``repro.cli prove``
        runs the product basis offline).  That basis is strictly weaker,
        so anything it discharges the full engine would too.
        """
        if self.config.prove == "off" or not assertions:
            return
        from ..analysis.prove import PROVED, prove_assertions

        report = prove_assertions(assertions)
        if self.config.prove == "prune":
            self.prove_elided |= {
                r.assertion for r in report.results if r.verdict == PROVED
            }
        if self.prove_report is None:
            self.prove_report = report
        else:
            self.prove_report.extend(report)

    def install_automaton(self, automaton: Automaton, context: Context) -> None:
        if automaton.name in self.automata:
            raise ContextError(f"automaton {automaton.name!r} already installed")
        self.automata[automaton.name] = automaton
        self.contexts[automaton.name] = context
        keys = _dispatch_keys_of(automaton)
        if len(keys["init"]) != 1 or len(keys["cleanup"]) != 1:
            raise ContextError(
                f"automaton {automaton.name!r} must have exactly one init "
                f"and one cleanup event"
            )
        bound: BoundId = (next(iter(keys["init"])), next(iter(keys["cleanup"])))
        self.bounds[automaton.name] = bound
        self._init_index.setdefault(bound[0], []).append(automaton.name)
        self._cleanup_index.setdefault(bound[1], []).append(automaton.name)
        for key in keys["body"]:
            self._body_index.setdefault(key, []).append(automaton.name)
        if automaton.deadline_s is not None:
            self._timed_classes.append(automaton.name)
        if context is Context.GLOBAL:
            self.global_store.register(automaton)
        else:
            self.thread_stores.register(automaton)
        # Nothing uninstalls, so the sync-point and thread-local key sets
        # (see ``_sync_keys``/``_local_keys``) only grow by this
        # automaton's keys.
        sync = keys["init"] | keys["cleanup"]
        for key in keys["body"]:
            if key[0] is EventKind.ASSERTION_SITE:
                sync.add(key)
        if automaton.strict:
            # A strict automaton can raise on any referenced body event
            # it cannot consume, so each is a sync point.
            sync |= keys["body"]
        self._sync_keys = self._sync_keys | sync
        if context is not Context.GLOBAL:
            self._local_keys = (
                self._local_keys | keys["init"] | keys["cleanup"] | keys["body"]
            )
        # The indexes changed; plans are rebuilt on next dispatch, and the
        # interest epoch bump invalidates every hook-point interest cache
        # and per-class transition-plan cache in the process.
        self._key_plans.clear()
        self._retire_entries()
        interest_epoch.bump()

    # -- store access ------------------------------------------------------------

    def _store_for(self, name: str) -> Store:
        if self.contexts[name] is Context.GLOBAL:
            return self.global_store.store
        return self.thread_stores.current()

    def class_runtime(self, name: str) -> ClassRuntime:
        cr = self._store_for(name).get(name)
        if cr is None:
            raise ContextError(f"automaton {name!r} not installed in this store")
        return cr

    def all_class_runtimes(self, name: str) -> List[ClassRuntime]:
        """Every context's runtime for one class (for post-run introspection)."""
        out = []
        if self.contexts[name] is Context.GLOBAL:
            cr = self.global_store.get(name)
            if cr is not None:
                out.append(cr)
        else:
            for store in self.thread_stores.all_stores():
                cr = store.get(name)
                if cr is not None:
                    out.append(cr)
        return out

    # -- dispatch planning --------------------------------------------------------

    def _codegen_facts(self, epoch: int):
        """The lint-facts snapshot the generator may rely on, memoized per
        interest epoch (every install bumps the epoch after updating
        ``lint_report``, so a stale snapshot is impossible)."""
        if self._facts_epoch != epoch:
            from .codegen import CodegenFacts

            self._facts = CodegenFacts.from_report(
                self.lint_report, prove=self.prove_report
            )
            self._facts_epoch = epoch
        return self._facts

    def _plan_for(self, key: DispatchKey) -> _KeyPlan:
        plan = self._key_plans.get(key)
        if plan is None or plan.epoch != interest_epoch.value:
            plan = self._build_plan(key)
            self._key_plans[key] = plan
        return plan

    def _build_plan(self, key: DispatchKey) -> _KeyPlan:
        epoch = interest_epoch.value
        glob = _ContextPlan()
        local = _ContextPlan()
        # Quarantined classes are shed at plan-build time: the supervisor's
        # change hook clears ``_key_plans``, so a trip or re-arm takes
        # effect on the very next event.  Governor-demoted classes are
        # excluded from evaluation the same way, but their hooks stay
        # attached (``_on_governor_change`` skips the epoch bump) so the
        # journal keeps recording their events.
        shed = self.supervisor.shed_classes
        gov = self.governor
        if gov is not None and gov.demoted:
            shed = shed | gov.demoted

        def context_plan(name: str) -> _ContextPlan:
            return glob if self.contexts[name] is Context.GLOBAL else local

        init_names = [
            name
            for name in self._init_index.get(key, ())
            if name not in shed
        ]
        for name in init_names:
            plan = context_plan(name)
            plan.init_names.append(name)
            bound = self.bounds[name]
            if bound not in plan.init_bounds:
                plan.init_bounds.append(bound)
        for name in self._body_index.get(key, ()):
            if name in shed:
                continue
            context_plan(name).body.append((name, self.bounds[name]))
        for name in self._cleanup_index.get(key, ()):
            if name in shed:
                continue
            plan = context_plan(name)
            plan.cleanup_names.append(name)
            bound = self.bounds[name]
            if bound not in plan.cleanup_bounds:
                plan.cleanup_bounds.append(bound)

        return _KeyPlan(
            glob=None if glob.empty() else glob,
            local=None if local.empty() else local,
            initiated=frozenset(init_names),
            epoch=epoch,
        )

    def _build_key_fn(
        self, work: _ContextPlan, store: Store, plan: _KeyPlan,
        key: DispatchKey,
    ):
        """Build one context's dispatch function for ``key`` (caller holds
        the lock serialising ``store``): the generated key function over
        every body class's generated step, kept on ``work``.

        A fault while generating class X's step (``plans.build``,
        ``store.plan_for``) is contained and attributed to X, and X's
        step is skipped for this event only: the function is built
        around the gap, run once by the caller and not kept, so the next
        event generates X again.
        """
        from .codegen import compile_key_function

        context = "global" if store is self.global_store.store else "local"
        epoch = plan.epoch
        facts = self._codegen_facts(epoch)
        steps = []
        complete = True
        for name, _bound in work.body:
            if name in plan.initiated:
                continue
            try:
                steps.append(store.get(name).gen_entry(key, epoch, facts).step)
            except TemporalAssertionError:
                raise
            except Exception as exc:
                if not self.supervisor.contain(name, "body", exc):
                    raise
                steps.append(_skipped_step)
                complete = False
        gov = self.governor
        cleanups = None
        if work.cleanup_names:
            # Every class this key can close, whatever its plan says: a
            # class shed after it joined is still touched and still closes.
            cleanups = {
                name: self._cleanup_fn(name)
                for name in self._cleanup_index[key]
            }
        run = compile_key_function(
            key, context, work, plan.initiated, self.lazy, gov is not None,
            self.automata, steps,
            {
                "_hub": self.hub,
                "_contain": self.supervisor.contain,
                "_join": lazy_join_bound,
                "_init": rows.init,
                "_CU": cleanups,
                "_gov": gov,
                "_now": gov.now if gov is not None else None,
                "_charge": self._charge,
                "_admit": gov.admit_bound if gov is not None else None,
                "_rate": gov.sample_rate if gov is not None else None,
            },
        )
        self.key_fns_built += 1
        if complete:
            work.fn = run
        return run

    def _cleanup_fn(self, name: str):
        """Class ``name``'s generated cleanup, built on first use and
        kept: it depends only on the automaton."""
        fn = self._cleanup_fns.get(name)
        if fn is None:
            from .codegen import compile_cleanup

            fn = self._cleanup_fns[name] = compile_cleanup(
                self.automata[name], self.hub, handle_cleanup
            )
        return fn

    def key_fn_summary(self) -> Dict[str, object]:
        """Key-function accounting for ``dispatch_stats`` and
        ``codegen_report``: functions built and the resident ones."""
        resident = []
        for key, plan in list(self._key_plans.items()):
            for context, work in (("global", plan.glob),
                                  ("local", plan.local)):
                if work is not None and work.fn is not None:
                    resident.append(f"{key[0].value}:{key[1]}@{context}")
        return {
            "built": self.key_fns_built,
            "resident": sorted(resident),
            "entries_built": self.entries_built,
            "entries_resident": len(self._entries) + sum(
                len(t._entries) for t in list(self._translators)
            ),
        }

    def key_function_sources(self):
        """``(key, context, source)`` for every dispatch key and context,
        in deterministic key order — the CLI's ``codegen --dump``
        surface."""
        from .codegen import generate_key_source

        keys = set(self._init_index) | set(self._body_index)
        keys |= set(self._cleanup_index)
        out = []
        for key in sorted(keys, key=lambda k: (k[0].value, k[1])):
            plan = self._build_plan(key)
            for context, work in (("global", plan.glob),
                                  ("local", plan.local)):
                if work is None:
                    continue
                source = generate_key_source(
                    key, context, work, plan.initiated, self.lazy,
                    self.governor is not None, self.automata,
                ).source
                out.append((key, context, source))
        return out

    # -- dispatch ---------------------------------------------------------------

    def build_entry(self, key: DispatchKey, chain=None, counts=None):
        """Build ``key``'s dispatch entry: ``entry(event)`` runs everything
        the key fixes between a hook and the key functions (DESIGN §5.7).

        With ``chain=None`` it is ``handle_event``'s own entry.  An event
        translator passes its static-check chain for the key
        (``(symbol, elide_arity)`` pairs, empty to forward every event)
        and its ``[forwarded, dropped]`` cell.  A synchronous runtime's
        entry inlines the dispatch prologue; a deferred one's captures,
        with the key's thread-local and sync-point membership fixed.
        Entries are retired on install and quarantine changes
        (:meth:`_retire_entries`); the key plan is still probed on every
        event, so a governor demotion takes effect on the next one.
        """
        from .codegen import compile_entry

        if chain is not None and "handle_event" in vars(self):
            dispatch = "call"
        elif self.drain is not None:
            dispatch = "deferred"
        else:
            dispatch = "sync"
        contexts = self.contexts
        names = self._init_index.get(key, []) + self._body_index.get(
            key, []
        ) + self._cleanup_index.get(key, [])
        clock = self.clock
        drain = self.drain
        entry = compile_entry(
            key, chain, dispatch, self.stamp_capture,
            self.governor is not None,
            (
                any(contexts[n] is Context.GLOBAL for n in names),
                any(contexts[n] is not Context.GLOBAL for n in names),
            ),
            key in self._local_keys, key in self._sync_keys,
            {
                "_rt": self,
                "_now": (
                    perf_counter if type(clock) is MonotonicClock
                    else clock.now
                ),
                "_sup": self.supervisor,
                "_govern": self._govern,
                "_plans": self._key_plans,
                "_plan_for": self._plan_for,
                "_ep": interest_epoch,
                "_lock": self.global_store.lock,
                "_gstore": self.global_store.store,
                "_local": self.thread_stores._local,
                "_current": self.thread_stores.current,
                "_run_context": self._run_context,
                "_dispatch_local": self._dispatch_local,
                "_enqueue": drain.enqueue if drain is not None else None,
                "_drain": drain,
                "_handle": self.handle_event,
                "_cnt": counts,
            },
        )
        self.entries_built += 1
        return entry

    def handle_event(self, event: RuntimeEvent) -> None:
        """Route one concrete event to every automaton that observes it,
        through its key's dispatch entry (:meth:`build_entry`).

        In deferred mode this is the *capture* path: the event is stamped
        and appended to the calling thread's ring (thread-local automata
        are still evaluated inline — see ``_local_keys``), and only a
        synchronization-point key forces evaluation before returning.
        """
        key = (event.kind, event.name)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = self.build_entry(key)
        entry(event)

    def _dispatch_local(self, event: RuntimeEvent, key: DispatchKey) -> None:
        """Evaluate one event's thread-local share inline (deferred mode).

        Per-thread automata never ride the rings: their state lives in the
        capturing thread's store and their event order *is* that thread's
        program order, so inline evaluation is both required and already
        verdict-exact.  The drain side skips local work
        (``include_local=False``) so nothing runs twice.
        """
        plan = self._plan_for(key)
        work = plan.local
        if work is not None:
            store = self.thread_stores.current()
            fn = work.fn
            if fn is not None:
                fn(store, event)
            else:
                self._run_context(work, store, event, plan, key)

    def dispatch_batch(
        self, events: Iterable[RuntimeEvent], include_local: bool = True
    ) -> int:
        """Batched event ingestion: the global lock is taken once.

        The batch is replayed in one pass, in event order, holding the
        global lock from the first event with global work to the end of
        the batch.  Each event runs its global share and then its
        thread-local share through the one per-event path (its key
        function, or the interpreter's :meth:`_run_plan`), exactly as :meth:`handle_event`
        does, so every observable stream — violation order across classes
        included — is the one per-event dispatch produces.

        Under a fail-stop policy a violation raises mid-batch and the
        remaining events are not processed, exactly as if the same events
        had been dispatched one at a time (``events_processed`` then counts
        up to and including the violating event).  Returns the number of
        events ingested.

        ``include_local=False`` is the drain pass calling: thread-local
        work was already evaluated inline at capture time on the owning
        thread, so only the global share runs here.  An external caller in
        deferred mode first flushes the rings so the explicit batch cannot
        overtake events captured before it.
        """
        if self.drain is not None and include_local:
            self.drain.flush()
        events = list(events)
        n = len(events)
        if include_local:
            # External batch entry: same capture-stamping contract as
            # handle_event.  The drain's internal passes come through with
            # include_local=False and never re-stamp — their events were
            # stamped when the capturing thread enqueued them.
            if self.stamp_capture:
                now = self.clock.now()
                for event in events:
                    event.timestamp = now
            else:
                for event in events:
                    if event.timestamp > self._max_event_ts:
                        self._max_event_ts = event.timestamp
        gs = self.global_store
        lock = None
        local_store = None
        i = -1  # index of the event being dispatched
        try:
            self.supervisor.advance(n)
            if self.governor is not None and events:
                self._govern(n)
            for i, event in enumerate(events):
                key = (event.kind, event.name)
                plan = self._plan_for(key)
                work = plan.glob
                if work is not None:
                    if lock is None:
                        lock = gs.lock
                        lock.acquire()
                    fn = work.fn
                    if fn is not None:
                        fn(gs.store, event)
                    else:
                        self._run_context(work, gs.store, event, plan, key)
                work = plan.local if include_local else None
                if work is not None:
                    if local_store is None:
                        local_store = self.thread_stores.current()
                    fn = work.fn
                    if fn is not None:
                        fn(local_store, event)
                    else:
                        self._run_context(work, local_store, event, plan,
                                          key)
        finally:
            if lock is not None:
                lock.release()
            self.events_processed += i + 1
        return n

    def _run_context(
        self,
        work: _ContextPlan,
        store: Store,
        event: RuntimeEvent,
        plan: _KeyPlan,
        key: DispatchKey,
    ) -> None:
        """One context's share of one event when it has no key function:
        a compiled runtime builds one and runs it; a ``compile=False``
        runtime interprets."""
        if self.compiled:
            self._build_key_fn(work, store, plan, key)(store, event)
        else:
            self._run_plan(work, store, store.tracker, event,
                           plan.initiated)

    def _run_plan(
        self,
        work: _ContextPlan,
        store: Store,
        tracker: BoundTracker,
        event: RuntimeEvent,
        initiated: frozenset,
    ) -> None:
        """One context's share of one event, walking the plan (caller
        holds the global lock for the global context; thread-local
        contexts need none).  This is ``compile=False``'s reference
        interpreter.

        Every per-class unit of work runs inside a containment boundary:
        a fault in one class's matchers, plans or pool is routed through
        the supervisor's :class:`~repro.runtime.supervisor.FailurePolicy`
        (attributed to that class, which is what lets quarantine find the
        faulty one) without disturbing the other classes on this event.
        ``TemporalAssertionError`` always propagates — it is the fail-stop
        *violation* policy speaking, not a monitor fault.
        """
        supervisor = self.supervisor
        gov = self.governor
        if self.lazy:
            # One epoch bump per distinct bound — "a per-context record of
            # common initialisation events" — independent of how many
            # classes share that bound.  The entry timestamp rides along so
            # lazily-joining timed classes know when the bound opened.
            for bound in work.init_bounds:
                tracker.begin(bound, event.timestamp)
        else:
            for name in work.init_names:
                t0 = gov.now() if gov is not None else 0.0
                try:
                    cr = store.get(name)
                    if gov is not None and not cr.active:
                        # Rung-1 shedding: 1-in-N bound instantiation.  A
                        # skipped occurrence never materialises (the class
                        # stays inactive, so its events take the ignore
                        # path); an admitted one stamps its rate so any
                        # violation it finds carries the honesty annotation.
                        if not gov.admit_bound(name):
                            continue
                        cr.sample_rate = gov.sample_rate(name)
                    handle_init(cr, event, self.hub, lazy=False)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not supervisor.contain(name, "init", exc):
                        raise
                finally:
                    if gov is not None:
                        self._charge(gov, name, gov.now() - t0)
        for name, bound in work.body:
            if name in initiated:
                # An event that opens a class's bound is not also one of its
                # body events for the same occurrence.
                continue
            t0 = gov.now() if gov is not None else 0.0
            try:
                cr = store.get(name)
                if self.lazy:
                    lazy_join_bound(cr, bound, tracker, governor=gov)
                tesla_update_state(cr, event, self.hub, self.lazy)
            except TemporalAssertionError:
                raise
            except Exception as exc:
                if not supervisor.contain(name, "body", exc):
                    raise
            finally:
                if gov is not None:
                    self._charge(gov, name, gov.now() - t0)
        if self.lazy:
            # Cleanup visits only the classes actually touched during the
            # bound, not every class sharing it.
            for bound in work.cleanup_bounds:
                for name in sorted(tracker.end(bound)):
                    t0 = gov.now() if gov is not None else 0.0
                    try:
                        cr = store.get(name)
                        handle_cleanup(cr, event, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "cleanup", exc):
                            raise
                    finally:
                        if gov is not None:
                            self._charge(gov, name, gov.now() - t0)
        else:
            for name in work.cleanup_names:
                t0 = gov.now() if gov is not None else 0.0
                try:
                    cr = store.get(name)
                    handle_cleanup(cr, event, self.hub)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not supervisor.contain(name, "cleanup", exc):
                        raise
                finally:
                    if gov is not None:
                        self._charge(gov, name, gov.now() - t0)

    # -- maintenance --------------------------------------------------------------

    def check_timers(self) -> int:
        """Expire overdue deadline obligations with no successor event.

        This is the sync-point half of the timed semantics (DESIGN §5.9):
        per-event expiry inside ``tesla_update_state`` catches deadlines
        that pass *before a later event*, while this check catches the
        case where no further event ever arrives — the drain controller
        and ``flush_deferred`` call it so a missed deadline surfaces as a
        violation at the next flush rather than never.

        "Now" is the later of the runtime clock and the largest event
        timestamp seen, so pre-stamped (replayed) traces expire by trace
        time, not this process's clock.  Per-class faults are contained
        through the supervisor: a faulting timer path degrades that class
        to ordinal semantics (the obligation still reports at cleanup),
        never to a dropped verdict.  Returns the number of instances
        expired.
        """
        if not self._timed_classes:
            return 0
        self.timer_checks += 1
        now = self.clock.now()
        if self._max_event_ts > now:
            now = self._max_event_ts
        expired = 0
        supervisor = self.supervisor
        expire = rows.expire if self.compiled else expire_deadlines
        for name in self._timed_classes:
            if self.contexts[name] is Context.GLOBAL:
                gs = self.global_store
                with gs.lock:
                    cr = gs.store.get(name)
                    if cr is None:
                        continue
                    try:
                        expired += expire(cr, now, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "timer", exc):
                            raise
            else:
                for store in self.thread_stores.all_stores():
                    cr = store.get(name)
                    if cr is None:
                        continue
                    try:
                        expired += expire(cr, now, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "timer", exc):
                            raise
        self.timer_expiries += expired
        return expired

    def flush_deferred(self) -> None:
        """Evaluate everything captured so far and expire overdue timers
        (the sync-point contract; a synchronous runtime only has the timer
        half).

        Introspection readers (``health_report``/``coverage_report``/…)
        call this so reads never observe a store that lags capture.
        """
        if self.drain is not None:
            self.drain.flush()
        else:
            self.check_timers()

    def discard_deferred(self) -> int:
        """Drop captured-but-unevaluated events (teardown after an
        application failure).  Returns how many were dropped."""
        if self.drain is not None:
            return self.drain.discard_pending()
        return 0

    def deferred_queue_depth(self) -> int:
        if self.drain is not None:
            return self.drain.queue_depth()
        return 0

    def close_journal(self) -> None:
        """Footer-close the trace journal (idempotent).

        Does *not* flush the rings first: teardown decides whether pending
        captures are evaluated (clean exit) or discarded (the block body
        raised), and the journal must mirror that choice.
        """
        if self.journal is not None and not self.journal.closed:
            self.journal.close()

    def reset(self) -> None:
        """Expunge all instances and close all bounds (e.g. between runs).

        In deferred mode the background drainer is stopped and pending
        captures discarded *first*, so nothing can repopulate the stores
        mid-reset; the ring objects themselves survive (threads may hold
        references) but come back empty with zeroed accounting.
        """
        if self.drain is not None:
            self.drain.reset()
        self.global_store.reset()
        self.thread_stores.reset()
        self.events_processed = 0
        self._max_event_ts = 0.0
        self.timer_checks = 0
        self.timer_expiries = 0
        self.hub.reset_counts()
        self.supervisor.reset()
        if self.governor is not None:
            self.governor.reset()

    def observes(self, key: DispatchKey) -> bool:
        """Whether any installed automaton cares about this dispatch key."""
        return (
            key in self._body_index
            or key in self._init_index
            or key in self._cleanup_index
        )
