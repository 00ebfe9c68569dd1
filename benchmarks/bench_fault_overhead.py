"""Supervision overhead: disarmed fault points + containment boundaries.

The fault-contained runtime threads two things through the dispatch hot
path: guarded fault points (``if _active is not None`` before any call)
and per-unit try/except containment boundaries in the generated key
functions (``_run_plan`` on the plan walk) and the hook fan-out loops.  Both are designed to be free when nothing faults —
CPython 3.11's zero-cost exception handling makes an untaken ``try``
costless, and a disarmed fault point is one module-attribute load — so the
PR-2 compiled-dispatch numbers must survive.

This bench replays the dispatch-fastpath workload through the compiled
runtime twice — supervised-but-disarmed (the new default) and with an
armed injector at rate 0 (every fault point consults the injector but
never fires) — and pins:

* disarmed overhead vs the recorded events/s of the same workload is a
  no-op by construction (same code path); what we pin instead is the
  **armed-at-rate-0 tax**, the worst case of leaving chaos plumbing in
  production: must stay under 2x;
* the fail-open containment boundary itself (a supervised runtime with a
  ``FailOpen`` policy, still disarmed) within 3% of the default — the
  issue's acceptance bar for the supervision layer.

Smoke mode (``TESLA_BENCH_SMOKE=1``) shrinks iterations and skips the
timing-ratio assertions while keeping every correctness assertion.
"""

from __future__ import annotations

import os

from repro.bench import time_once
from repro.core.dsl import ANY, call, either, fn, previously, returnfrom, tesla_global, var
from repro.core.events import assertion_site_event, call_event, return_event
from repro.introspect import format_health, health_report
from repro.runtime.faultinject import FaultInjector, arm, disarm
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.supervisor import FailOpen

from conftest import emit, interleaved_best

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
ROUNDS = 2 if SMOKE else 40
REPEATS = 1 if SMOKE else 5

N_CLASSES = 6
N_STEPS = 3
N_BRANCHES = 4
N_VALUES = 3
BOUND = "fo_syscall"


def _assertions():
    """The dispatch-fastpath workload shape (see bench_dispatch_fastpath)."""
    out = []
    for i in range(N_CLASSES):
        steps = [
            either(
                *[
                    fn(f"fo_check{i}_{s}_{b}", ANY("c"), var("v")) == 0
                    for b in range(N_BRANCHES)
                ]
            )
            for s in range(N_STEPS)
        ]
        out.append(
            tesla_global(
                call(BOUND),
                returnfrom(BOUND),
                previously(*steps),
                name=f"fo_cls{i}",
            )
        )
    return out


def _trace(rounds):
    events = []
    for round_no in range(rounds):
        events.append(call_event(BOUND, ()))
        for i in range(N_CLASSES):
            for s in range(N_STEPS):
                for v in range(N_VALUES):
                    b = (v + s + round_no) % N_BRANCHES
                    events.append(
                        return_event(
                            f"fo_check{i}_{s}_{b}", ("c", f"val{v}"), 0
                        )
                    )
            for v in range(N_VALUES):
                events.append(
                    assertion_site_event(f"fo_cls{i}", {"v": f"val{v}"})
                )
        events.append(return_event(BOUND, (), 0))
    return events


def _verdict(runtime):
    return [
        (
            runtime.class_runtime(f"fo_cls{i}").accepts,
            runtime.class_runtime(f"fo_cls{i}").errors,
        )
        for i in range(N_CLASSES)
    ]


def _build_runtime(events, failure_policy=None):
    runtime = TeslaRuntime(
        lazy=True,
        policy=LogAndContinue(),
        compile=True,
        failure_policy=failure_policy,
    )
    for assertion in _assertions():
        runtime.install_assertion(assertion)

    def replay():
        for event in events:
            runtime.handle_event(event)

    return runtime, replay


def test_fault_plumbing_overhead(benchmark, results_dir):
    events = _trace(ROUNDS)

    def measure():
        # Interleaved GC-controlled min-of-samples (see conftest): the
        # 3% bar is tighter than sequential-run noise, so the three
        # configurations must sample A/B/C, A/B/C, … with the best
        # observed run as each side's estimate.
        default, replay_default = _build_runtime(events)
        failopen, replay_failopen = _build_runtime(
            events, failure_policy=FailOpen()
        )
        armed, replay_armed = _build_runtime(
            events, failure_policy=FailOpen()
        )
        injector = FaultInjector(seed=1, rate=0.0)

        def sample_armed():
            # Arm/disarm outside the timed region: the tax under test is
            # the per-fault-point consultation, not injector setup.
            arm(injector)
            try:
                return time_once(replay_armed)
            finally:
                disarm()

        best = interleaved_best(
            {
                "default": lambda: time_once(replay_default),
                "failopen": lambda: time_once(replay_failopen),
                "armed": sample_armed,
            },
            repeats=REPEATS * 3,
        )
        return (
            default,
            best["default"],
            failopen,
            best["failopen"],
            armed,
            best["armed"],
        )

    default, default_s, failopen, failopen_s, armed, armed_s = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    failopen_tax = failopen_s / default_s
    armed_tax = armed_s / default_s
    lines = [
        "Fault containment overhead (compiled dispatch workload)",
        "-------------------------------------------------------",
        f"({N_CLASSES} classes x {N_STEPS}-step sequences, "
        f"{len(events)} events/replay)",
        f"{'configuration':<28}{'events/s':>12}",
        f"{'supervised (disarmed)':<28}{len(events) / default_s:>12.0f}",
        f"{'fail-open (disarmed)':<28}{len(events) / failopen_s:>12.0f}",
        f"{'armed injector, rate 0':<28}{len(events) / armed_s:>12.0f}",
        f"{'fail-open tax':<28}{failopen_tax:>12.3f}",
        f"{'armed-at-rate-0 tax':<28}{armed_tax:>12.2f}",
    ]
    emit(results_dir, "fault_overhead", "\n".join(lines))

    # Correctness before speed: all three runs reach identical verdicts
    # and the supervised runs contained nothing (there was nothing to
    # contain — the plumbing must be inert).
    assert _verdict(default) == _verdict(failopen) == _verdict(armed)
    assert default.supervisor.total_faults == 0
    assert failopen.supervisor.total_faults == 0
    assert armed.supervisor.total_faults == 0
    # Rate 0 armed: every fault point consulted the injector, none fired.
    report = health_report(armed)
    assert not report.degraded
    if not SMOKE:
        # The acceptance bar: the supervision boundary costs <= 3% on the
        # compiled dispatch path when disarmed (policies share the exact
        # same code path, so this pins measurement noise + boundary cost).
        assert failopen_tax <= 1.03, failopen_tax
        # Leaving an armed injector in place is the worst case: every
        # guarded site takes a lock per visit.  It must still be bounded.
        assert armed_tax <= 2.0, armed_tax


def test_health_report_renders_after_chaos(benchmark, results_dir):
    """Not a timing test: pin the operator-facing artifact.  A short
    chaotic run's health report must render and account every fault."""
    from repro.runtime.faultinject import injection

    events = _trace(2)

    def measure():
        runtime = TeslaRuntime(
            lazy=True,
            policy=LogAndContinue(),
            compile=True,
            failure_policy=FailOpen(),
        )
        for assertion in _assertions():
            runtime.install_assertion(assertion)
        with injection(seed=9, rate=0.05) as injector:
            for event in events:
                runtime.handle_event(event)
            return runtime, injector

    runtime, injector = benchmark.pedantic(measure, rounds=1, iterations=1)
    report = health_report(runtime)
    text = format_health(report)
    emit(results_dir, "fault_health_report", text)
    assert report.injected_recorded == injector.total_fired
    assert report.propagated == 0
    assert "DEGRADED" in text or injector.total_fired == 0
