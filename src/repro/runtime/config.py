"""One value for the runtime's fourteen knobs (DESIGN §5.11).

:class:`RuntimeConfig` owns every knob's default, range check and
cross-knob constraint.  ``TeslaRuntime(**knobs)``, ``monitoring()`` and
the replay engine all build one, so a bad knob raises the same error,
whichever entry point it came through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .notify import ErrorPolicy
from .prealloc import DEFAULT_CAPACITY
from .ringbuf import DEFAULT_RING_CAPACITY
from .supervisor import FailurePolicy

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """The runtime's knobs, validated at construction."""

    #: ``False`` selects the paper's pre-optimisation (eager) runtime, the
    #: figure 13 ablation; ``True`` is the §5.2.2 lazy runtime.
    lazy: bool = True
    #: Per-class instance pool size (>= 1); an overflow is reported once
    #: per bound (§4.4.1).
    capacity: int = DEFAULT_CAPACITY
    #: Violation policy: fail-stop (``None``) or e.g. ``LogAndContinue``.
    policy: Optional[ErrorPolicy] = None
    #: ``True`` runs tesla-jit's generated code (DESIGN §5.7); ``False``
    #: runs the reference interpreter.
    compile: bool = True
    #: How faults *inside the monitor* are handled: fail-stop (``None``),
    #: fail-open, callback or quarantine (DESIGN §5.3).
    failure_policy: Optional[FailurePolicy] = None
    #: ``False``: synchronous dispatch.  ``True``: capture rings drained by
    #: a background thread.  ``"manual"``: drained at sync points and
    #: explicit flushes only (DESIGN §5.4).
    deferred: object = False
    #: Slots preallocated per thread ring (>= 1); a full ring is retired
    #: by its own producer with one inline drain pass.
    ring_capacity: int = DEFAULT_RING_CAPACITY
    #: The background drainer's poll period in seconds (> 0).
    drain_interval: float = 0.002
    #: Install-time tesla-lint gate: ``"warn"``, ``"error"`` (refuse a
    #: batch with lint errors) or ``"off"`` (DESIGN §5.5).
    lint: str = "warn"
    #: Install-time tesla-prove gate: ``"off"``, ``"report"`` or
    #: ``"prune"`` (PROVED assertions are not installed; DESIGN §5.10).
    prove: str = "off"
    #: Trace journal at the drain boundary: a path, binary file or
    #: ``JournalWriter`` (DESIGN §5.6).  Requires ``deferred``.
    journal: object = None
    #: Arms the overhead governor: monitoring may spend at most this
    #: fraction of wall time, in ``(0.0, 1.0]`` (DESIGN §5.8).
    overhead_budget: Optional[float] = None
    #: The one monotonic time source (DESIGN §5.9): an object with
    #: ``now()`` or a callable returning seconds; ``None`` is perf_counter.
    clock: object = None
    #: ``False``: events arrive pre-stamped (a replayed journal) and keep
    #: their stamps.  Requires the ``clock`` they came from.
    stamp_capture: bool = True

    def __post_init__(self) -> None:
        if self.deferred not in (False, True, "manual"):
            raise ValueError(
                "deferred must be False (synchronous), True (background "
                f"drainer) or 'manual' (explicit drain), got {self.deferred!r}"
            )
        # Range checks up front, not as a confusing failure deep inside
        # pool or ring construction, far from the misconfigured call.
        if self.capacity < 1:
            raise ValueError(
                f"capacity is the per-class instance pool size; it must be "
                f">= 1, got {self.capacity!r}"
            )
        if self.ring_capacity < 1:
            raise ValueError(
                f"ring_capacity is the per-thread capture ring size; it "
                f"must be >= 1, got {self.ring_capacity!r}"
            )
        if self.drain_interval <= 0:
            raise ValueError(
                f"drain_interval is the background drainer's period in "
                f"seconds; it must be > 0, got {self.drain_interval!r}"
            )
        if self.overhead_budget is not None and not (
            0.0 < self.overhead_budget <= 1.0
        ):
            raise ValueError(
                "overhead_budget is a fraction of wall time; it must be "
                f"in (0.0, 1.0], got {self.overhead_budget!r}"
            )
        if not self.stamp_capture and self.clock is None:
            raise ValueError(
                "stamp_capture=False means events arrive pre-stamped by "
                "some external clock; timer expiry would then read an "
                "unrelated monotonic epoch — pass the clock= those "
                "timestamps came from (conflicting clock sources)"
            )
        if self.journal is not None and not self.deferred:
            raise ValueError(
                "journal= records at the drain boundary (DESIGN §5.6); it "
                "requires deferred=True or deferred='manual'"
            )
        if self.lint not in ("error", "warn", "off"):
            raise ValueError(
                f"lint must be 'error', 'warn' or 'off', got {self.lint!r}"
            )
        if self.prove not in ("off", "report", "prune"):
            raise ValueError(
                f"prove must be 'off', 'report' or 'prune', got {self.prove!r}"
            )
