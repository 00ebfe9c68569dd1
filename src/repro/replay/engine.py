"""Re-run a recorded journal window through any runtime configuration.

The journal is the drain boundary's merged, seqno-sorted event stream —
exactly the order verdicts were computed from — so replaying it through a
fresh runtime reproduces the live run's verdict and violation streams.
Global-context automata replay the full merged stream; per-thread
automata replay each recorded thread's subsequence through its own store,
mirroring how the live runtime evaluated them inline on the capturing
thread.

``state_at`` stops the replay at a chosen seqno *without* closing the
temporal bounds, exposing every automaton instance, its variable binding
and its NFA state set — the offline debugging workflow ("show me the
monitor in the 10k events before this violation").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.ast import Context, TemporalAssertion
from ..core.translate import automaton_for
from ..errors import JournalError
from ..runtime.clock import FakeClock
from ..runtime.config import RuntimeConfig
from ..runtime.journal import Journal, read_journal
from ..runtime.manager import TeslaRuntime
from ..runtime.notify import LogAndContinue

__all__ = ["REPLAY_CONFIGS", "ClassVerdict", "ReplayEngine", "ReplayResult"]

#: Named replay configurations.  ``naive`` is the reference interpreter
#: the differential suite anchors on; the others re-check the recorded
#: window through the optimised paths.
REPLAY_CONFIGS: Dict[str, RuntimeConfig] = {
    "naive": RuntimeConfig(lazy=False, compile=False),
    "lazy": RuntimeConfig(compile=False),
    "compiled": RuntimeConfig(),
    "deferred": RuntimeConfig(deferred="manual"),
}

@dataclass(frozen=True)
class ClassVerdict:
    """One automaton class's replayed outcome (summed across contexts)."""

    accepts: int
    errors: int
    sites_reached: int
    live: int

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.accepts, self.errors, self.sites_reached, self.live)


@dataclass
class ReplayResult:
    """The outcome of one journal replay."""

    config: str
    events: int
    threads: int
    classes: Dict[str, ClassVerdict] = field(default_factory=dict)
    #: Per-class violation reasons, in detection order.
    violations: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations and all(
            verdict.errors == 0 for verdict in self.classes.values()
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "events": self.events,
            "threads": self.threads,
            "clean": self.clean,
            "classes": {
                name: {
                    "accepts": v.accepts,
                    "errors": v.errors,
                    "sites_reached": v.sites_reached,
                    "live": v.live,
                    "violations": self.violations.get(name, []),
                }
                for name, v in sorted(self.classes.items())
            },
        }


class ReplayEngine:
    """Replay any window of a recorded journal through any configuration.

    ``journal`` is a :class:`~repro.runtime.journal.Journal`, anything
    :func:`~repro.runtime.journal.read_journal` accepts (path, bytes,
    binary stream), or a bare list of ``(seqno, event)`` slots.
    ``assertions`` supplies or overrides the assertion set; a journal
    recorded through ``install_assertions`` already embeds its own.
    """

    def __init__(
        self,
        journal: Union[Journal, str, bytes, Any],
        assertions: Optional[List[TemporalAssertion]] = None,
    ) -> None:
        if isinstance(journal, Journal):
            self.journal: Optional[Journal] = journal
            self.slots = list(journal.slots)
        elif isinstance(journal, list):
            self.journal = None
            self.slots = list(journal)
        else:
            self.journal = read_journal(journal)
            self.slots = list(self.journal.slots)
        self.slots.sort(key=lambda slot: slot[0])
        if assertions is not None:
            self.assertions = list(assertions)
        elif self.journal is not None:
            self.assertions = list(self.journal.assertions)
        else:
            self.assertions = []
        if not self.assertions and self.slots:
            raise JournalError(
                "journal carries no assertion manifest; pass assertions= "
                "(or replay with --manifest)"
            )
        self.automata = [
            (automaton_for(assertion), assertion)
            for assertion in self.assertions
        ]

    # -- configuration -----------------------------------------------------

    def _resolve_config(
        self, config: Union[str, RuntimeConfig, Dict[str, Any]]
    ) -> Tuple[str, RuntimeConfig]:
        """The named or given config, run at the recorded pool capacity
        when the journal's metadata has one and the config does not name
        its own (a :class:`RuntimeConfig` value always does)."""
        recorded = self.journal.meta.get("capacity") if self.journal else None
        if isinstance(config, str):
            resolved = REPLAY_CONFIGS.get(config)
            if resolved is None:
                raise JournalError(
                    f"unknown replay config {config!r}; known: "
                    f"{', '.join(sorted(REPLAY_CONFIGS))}"
                )
            if recorded is not None:
                resolved = replace(resolved, capacity=recorded)
            return config, resolved
        if not isinstance(config, RuntimeConfig):
            knobs = dict(config)
            if "clock" in knobs:
                knobs.setdefault("stamp_capture", False)
            else:  # the replay's own clock keeps the recorded stamps
                knobs.pop("stamp_capture", None)
            if recorded is not None:
                knobs.setdefault("capacity", recorded)
            config = RuntimeConfig(**knobs)
        if config.deferred is True:
            # A background drainer adds nothing to a deterministic replay
            # and would leak a thread per run; manual mode is equivalent.
            config = replace(config, deferred="manual")
        return "custom", config

    def _build_runtime(self, config: RuntimeConfig, automata) -> TeslaRuntime:
        # Journalled events carry their capture timestamps; the replay
        # runtime must judge clock guards against *those*, not against
        # its own platform clock (which is a different epoch entirely).
        # Unless the config names a clock, each runtime keeps the recorded
        # stamps on a fresh FakeClock advanced along the trace, so timer
        # expiry is a pure function of the journal.
        if config.clock is None:
            config = replace(config, clock=FakeClock(), stamp_capture=False)
        runtime = TeslaRuntime.from_config(
            replace(config, policy=LogAndContinue())
        )
        for automaton, assertion in automata:
            runtime.install_automaton(automaton, assertion.context)
        return runtime

    def _window(self, upto_seqno: Optional[int]):
        if upto_seqno is None:
            return self.slots
        return [slot for slot in self.slots if slot[0] <= upto_seqno]

    def _plan_runtimes(self, config: RuntimeConfig, slots):
        """(runtime, its event slice) pairs reproducing live evaluation
        order: global automata see the merged stream, per-thread automata
        see their own thread's subsequence."""
        thread_ids: List[int] = []
        for _, event in slots:
            if event.thread_id not in thread_ids:
                thread_ids.append(event.thread_id)
        global_autos = [
            pair for pair in self.automata if pair[1].context is Context.GLOBAL
        ]
        thread_autos = [
            pair
            for pair in self.automata
            if pair[1].context is not Context.GLOBAL
        ]
        if len(thread_ids) <= 1 or not thread_autos:
            return [(self._build_runtime(config, self.automata), slots)]
        plans = []
        if global_autos:
            plans.append((self._build_runtime(config, global_autos), slots))
        for tid in thread_ids:
            subsequence = [
                slot for slot in slots if slot[1].thread_id == tid
            ]
            plans.append(
                (self._build_runtime(config, thread_autos), subsequence)
            )
        return plans

    def _feed(self, runtime: TeslaRuntime, slots, end_ts: float) -> None:
        clock = runtime.clock
        advance = getattr(clock, "advance", None)
        for _, event in slots:
            if advance is not None and event.timestamp > clock.now():
                # Clamp, don't set: a fake clock is still monotonic, and
                # merged multi-thread traces can interleave stamps.
                advance(event.timestamp - clock.now())
            runtime.handle_event(event)
        if advance is not None and end_ts > clock.now():
            # Per-thread slices may end before the global trace does;
            # the live flush happened at the *global* end of capture, so
            # deadline expiry is judged there for every runtime.
            advance(end_ts - clock.now())
        runtime.flush_deferred()

    # -- replay ------------------------------------------------------------

    def run(
        self,
        config: Union[str, RuntimeConfig, Dict[str, Any]] = "naive",
        upto_seqno: Optional[int] = None,
    ) -> ReplayResult:
        """Replay the window and return per-class verdicts + violations."""
        name, resolved = self._resolve_config(config)
        slots = self._window(upto_seqno)
        plans = self._plan_runtimes(resolved, slots)
        end_ts = max((event.timestamp for _, event in slots), default=0.0)
        for runtime, slice_ in plans:
            self._feed(runtime, slice_, end_ts)
        thread_ids = {event.thread_id for _, event in slots}
        result = ReplayResult(
            config=name,
            events=len(slots),
            threads=len(thread_ids),
        )
        for _, assertion in self.automata:
            accepts = errors = sites = live = 0
            reasons: List[str] = []
            for runtime, _ in plans:
                if assertion.name not in runtime.automata:
                    continue
                for cr in runtime.all_class_runtimes(assertion.name):
                    accepts += cr.accepts
                    errors += cr.errors
                    sites += cr.sites_reached
                    live += len(cr.pool)
                for violation in runtime.hub.policy.violations:
                    if violation.automaton == assertion.name:
                        reasons.append(violation.reason)
            result.classes[assertion.name] = ClassVerdict(
                accepts, errors, sites, live
            )
            if reasons:
                result.violations[assertion.name] = reasons
        return result

    def state_at(
        self,
        seqno: int,
        config: Union[str, RuntimeConfig, Dict[str, Any]] = "naive",
    ) -> Dict[str, Any]:
        """Automaton-state introspection after replaying up to ``seqno``.

        Bounds are left open: the dump shows the monitor *mid-flight*,
        with every live instance's binding and NFA state set.  Timed
        automata additionally see a timer check at the window's last
        capture timestamp, so instances whose deadline already expired
        within the window show up as errors, not as live state.
        """
        name, resolved = self._resolve_config(config)
        slots = self._window(seqno)
        plans = self._plan_runtimes(resolved, slots)
        end_ts = max((event.timestamp for _, event in slots), default=0.0)
        for runtime, slice_ in plans:
            self._feed(runtime, slice_, end_ts)
        classes = []
        for automaton, assertion in self.automata:
            instances = []
            active = False
            accepts = errors = sites = 0
            for runtime, _ in plans:
                if assertion.name not in runtime.automata:
                    continue
                for cr in runtime.all_class_runtimes(assertion.name):
                    active = active or cr.active
                    accepts += cr.accepts
                    errors += cr.errors
                    sites += cr.sites_reached
                    for instance in cr.pool:
                        instances.append(
                            {
                                "name": instance.name,
                                "binding": {
                                    key: repr(value)
                                    for key, value in sorted(
                                        instance.binding_items()
                                    )
                                },
                                "states": sorted(instance.states),
                                "saw_site": instance.saw_site,
                                "accepting": instance.accepting_at_cleanup(),
                            }
                        )
            classes.append(
                {
                    "automaton": assertion.name,
                    "context": assertion.context.value,
                    "active": active,
                    "accepts": accepts,
                    "errors": errors,
                    "sites_reached": sites,
                    "accept_state": automaton.accept,
                    "instances": instances,
                }
            )
        return {
            "seqno": seqno,
            "config": name,
            "events_replayed": len(slots),
            "classes": classes,
        }
