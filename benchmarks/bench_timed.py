"""Timed assertions: what the capture clock costs (DESIGN §5.9).

The timed layer's bargain is that *every* captured event carries a
monotonic stamp — clock guards then evaluate against capture time with
no extra instrumentation — and that untimed assertions keep paying
nothing for machinery they don't use.  Three numbers pin that down:

* **stamping overhead** — µs/event for deferred enqueue with capture
  stamping on (the default) vs off (the PR-4 pre-stamped baseline).
  Stamping is one clock read plus one slot write per event; the
  acceptance bar is ≤ 1.10× the unstamped capture path.
* **timed dispatch tax** — µs/event dispatching a guard-bearing
  automaton synchronously vs a structurally identical ordinal one.
  Guard checks ride the existing transition loop (one float compare on
  guarded edges only), reported so regressions are visible.
* **timer sweep cost** — µs per ``check_timers`` sweep over live timed
  instances, the price of a sync-point flush discovering deadline
  expiries with no successor event; plus the untimed early-out, which
  must stay effectively free.

Verdict-affecting work is asserted in the same run (the sweep really
expires overdue obligations).  Smoke mode (``TESLA_BENCH_SMOKE=1``)
shrinks counts and skips the timing-ratio assertion while keeping the
correctness assertions.
"""

from __future__ import annotations

import os

from repro.bench import median_time, time_once
from repro.core.dsl import (
    call,
    deadline,
    eventually,
    previously,
    tesla_within,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.runtime.clock import FakeClock
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit, interleaved_best

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
N_EVENTS = 400 if SMOKE else 20_000
REPEATS = 1 if SMOKE else 7
N_SWEEP_CLASSES = 16 if SMOKE else 128
BOUND = "tb_op"


def _assertion(timed: bool, name: str):
    body = call("tb_step")
    expression = (
        eventually(deadline(10_000.0, body)) if timed
        else eventually(body)
    )
    return tesla_within(BOUND, expression, name=name)


def _runtime(assertion, **kwargs):
    kwargs.setdefault("policy", LogAndContinue())
    runtime = TeslaRuntime(lazy=True, compile=True, **kwargs)
    runtime.install_assertion(assertion)
    return runtime


def _body_events(count):
    return [call_event("tb_step", ()) for _ in range(count)]


def test_timed_overhead(benchmark, results_dir):
    body = _body_events(N_EVENTS)

    # -- capture stamping: deferred enqueue, stamped vs pre-stamped -------
    ring = N_EVENTS * (REPEATS + 3)
    stamping = _runtime(
        _assertion(False, "tb_stamp"), deferred="manual", ring_capacity=ring
    )
    prestamped_clock = FakeClock()
    prestamped = _runtime(
        _assertion(False, "tb_prestamp"),
        deferred="manual",
        ring_capacity=ring,
        stamp_capture=False,
        clock=prestamped_clock,
    )
    for event in body:
        event.timestamp = 0.0

    def enqueue(runtime):
        handle = runtime.handle_event
        for event in body:
            handle(event)
        runtime.flush_deferred()

    def measure_capture():
        best = interleaved_best(
            {
                "stamped": lambda: time_once(lambda: enqueue(stamping)),
                "prestamped": lambda: time_once(lambda: enqueue(prestamped)),
            },
            repeats=REPEATS,
        )
        return (
            best["stamped"] * 1e6 / N_EVENTS,
            best["prestamped"] * 1e6 / N_EVENTS,
        )

    # -- timed dispatch tax: guarded vs ordinal synchronous dispatch ------
    timed_rt = _runtime(_assertion(True, "tb_timed"))
    plain_rt = _runtime(_assertion(False, "tb_plain"))
    for runtime in (timed_rt, plain_rt):
        runtime.handle_event(call_event(BOUND, ()))

    def dispatch(runtime):
        handle = runtime.handle_event
        for event in body:
            handle(event)

    def measure_dispatch():
        best = interleaved_best(
            {
                "timed": lambda: time_once(lambda: dispatch(timed_rt)),
                "plain": lambda: time_once(lambda: dispatch(plain_rt)),
            },
            repeats=REPEATS,
        )
        return (
            best["timed"] * 1e6 / N_EVENTS,
            best["plain"] * 1e6 / N_EVENTS,
        )

    # -- timer sweep over live timed obligations --------------------------
    # One live obligation per class (identical instances within a class
    # dedup in the store): the sweep's cost scales with how much timed
    # state is outstanding at the sync point.
    sweep_clock = FakeClock()
    sweep_rt = TeslaRuntime(
        policy=LogAndContinue(), lazy=True, compile=True, clock=sweep_clock
    )
    for i in range(N_SWEEP_CLASSES):
        sweep_rt.install_assertion(_assertion(True, f"tb_sweep{i}"))
    sweep_rt.handle_event(call_event(BOUND, ()))
    for i in range(N_SWEEP_CLASSES):
        sweep_rt.handle_event(assertion_site_event(f"tb_sweep{i}", {}))
    sweep_us = (
        median_time(sweep_rt.check_timers, repeats=max(3, REPEATS)) * 1e6
    )
    untimed_sweep_us = (
        median_time(plain_rt.check_timers, repeats=max(3, REPEATS)) * 1e6
    )

    stamped_us, prestamped_us = benchmark.pedantic(
        measure_capture, rounds=1, iterations=1
    )
    timed_us, plain_us = measure_dispatch()
    stamp_ratio = stamped_us / prestamped_us
    dispatch_ratio = timed_us / plain_us

    lines = [
        "Timed assertions: capture-clock stamping and guard overhead",
        "-----------------------------------------------------------",
        f"{'prestamped enqueue':<28}{prestamped_us:>10.3f} us/event",
        f"{'stamped enqueue':<28}{stamped_us:>10.3f} us/event",
        f"{'stamping overhead':<28}{stamp_ratio:>10.3f} x",
        f"{'ordinal dispatch':<28}{plain_us:>10.3f} us/event",
        f"{'timed dispatch':<28}{timed_us:>10.3f} us/event",
        f"{'timed dispatch tax':<28}{dispatch_ratio:>10.3f} x",
        f"{f'timer sweep, {N_SWEEP_CLASSES} live':<28}{sweep_us:>10.1f} us",
        f"{'timer sweep, untimed':<28}{untimed_sweep_us:>10.3f} us",
    ]
    emit(results_dir, "timed_overhead", "\n".join(lines))

    # The sweep did real verdict work: advance past the deadline and the
    # same sweep expires every live obligation.
    sweep_clock.advance(11.0)
    assert sweep_rt.check_timers() == N_SWEEP_CLASSES
    assert sweep_rt.timer_expiries == N_SWEEP_CLASSES
    # The untimed runtime's sweep is the early-out: nothing even counted.
    assert plain_rt.timer_checks == 0

    if not SMOKE:
        # Acceptance bar: one clock read + slot write per event must stay
        # within 10% of the unstamped capture path.
        assert stamp_ratio <= 1.10, stamp_ratio
        # The sweep walks live instances; the untimed early-out must be
        # orders of magnitude below it, not merely cheaper.
        assert untimed_sweep_us < sweep_us


def test_timed_and_untimed_verdicts_unchanged(results_dir):
    """The stamping knob is not a semantics change: the same ordinal
    trace produces identical verdicts with capture stamping on and off,
    and a timed runtime accepts the in-budget trace either way."""
    def trace(name):
        yield call_event(BOUND, ())
        yield assertion_site_event(name, {})
        yield call_event("tb_step", ())
        yield return_event(BOUND, (), 0)

    def verdict(runtime, name):
        cr = runtime.class_runtime(name)
        return (
            cr.accepts,
            cr.errors,
            [v.reason for v in runtime.hub.policy.violations],
        )

    stamped = _runtime(_assertion(True, "tb_v1"))
    for event in trace("tb_v1"):
        stamped.handle_event(event)

    unstamped = _runtime(
        _assertion(True, "tb_v2"), stamp_capture=False, clock=FakeClock()
    )
    for event in trace("tb_v2"):
        event.timestamp = 0.0
        unstamped.handle_event(event)

    assert verdict(stamped, "tb_v1") == verdict(unstamped, "tb_v2") == (
        1, 0, []
    )
