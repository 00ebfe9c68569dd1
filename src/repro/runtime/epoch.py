"""The interest-set epoch: one clock invalidating every dispatch cache.

The compiled fast path (section 5.2's "do less work per event" family of
optimisations) caches three kinds of derived state:

* each :class:`~repro.instrument.hooks.HookPoint` (and each caller-side
  wrapper) caches which of its sinks are interested in its CALL key and
  which in its RETURN key, so a hook builds only the
  :class:`~repro.core.events.RuntimeEvent` values some automaton
  observes;
* the :class:`~repro.instrument.interpose.InterpositionTable` caches, per
  selector and per phase, the hooks whose sinks still care about that
  selector's send or return;
* each :class:`~repro.runtime.store.ClassRuntime` caches compiled
  per-(class, event-key) transition plans.

All three verdicts depend on *which automata classes are attached where*,
which changes rarely (installation, ``uninstrument()``, test teardown) but
must invalidate promptly — a detached sink whose cached "interested"
verdict survived would keep receiving events for a dead runtime.  Rather
than registering observers everywhere, every mutation of the listening set
bumps this module's single process-wide generation counter; caches compare
their recorded epoch against the current value on each use (two attribute
loads and an integer compare) and rebuild lazily when stale.
"""

from __future__ import annotations


class InterestEpoch:
    """A monotonically increasing generation counter for the interest set.

    Bumped on automaton installation, hook-point sink attach/detach,
    interposition-table install/remove/clear, and event-translator chain
    rebuilds.  Never reset: consumers cache the value they last saw, and a
    reset could alias a stale cache onto a fresh epoch.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        """Advance the epoch; every dependent cache is now stale."""
        self.value += 1
        return self.value


#: The process-wide epoch (one per process, like the registries it guards).
interest_epoch = InterestEpoch()


class InterestStats:
    """Process-global effectiveness counters for the interest fast path.

    Surfaced through :func:`repro.introspect.dispatch_stats`; benchmarks
    snapshot before/after deltas.  ``reset()`` only zeroes counters — the
    epoch itself is never rewound.
    """

    __slots__ = (
        "hook_short_circuits",
        "hook_kind_skips",
        "hook_refreshes",
        "interpose_short_circuits",
        "interpose_kind_skips",
        "interpose_refreshes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Instrumented hook invocations that skipped event construction
        #: because no attached sink was interested in the event name.
        self.hook_short_circuits = 0
        #: CALL or RETURN events a callee- or caller-side hook wrapper did
        #: not build because no sink wanted that kind (callee invocations
        #: that build neither count once in ``hook_short_circuits``).
        self.hook_kind_skips = 0
        #: Hook-point interest-cache rebuilds (epoch misses).
        self.hook_refreshes = 0
        #: Message sends whose selector had hooks installed but no
        #: interested sink.
        self.interpose_short_circuits = 0
        #: Message-send events a TESLA interposition hook did not build
        #: because its sink did not want that phase's kind (``send`` is
        #: CALL, ``return`` is RETURN).
        self.interpose_kind_skips = 0
        #: Interposition-table per-selector cache rebuilds.
        self.interpose_refreshes = 0


#: The process-wide counters matching :data:`interest_epoch`.
interest_stats = InterestStats()
