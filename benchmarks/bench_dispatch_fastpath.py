"""The compiled event fast path: interest filtering + transition plans.

Section 5.2 and figure 13 establish that per-event instrumentation cost —
not automaton logic — dominates TESLA's overhead, so every optimisation
amounts to doing less work per event.  This bench measures the two layers
the compiled fast path adds on top of the lazy runtime:

* **hook costs** — a plain Python call, an ``@instrumentable`` hook with
  no sinks attached (uninstrumented), a hook whose attached translator is
  *not interested* in its events (the interest filter must short-circuit
  before a ``RuntimeEvent`` is ever constructed), and a fully watched
  hook, in µs/call.  The uninterested hook must stay within 1.5× of the
  uninstrumented one — before interest filtering it built two events per
  call no matter who was listening.

* **dispatch throughput** — a figure-13-style workload (several global
  classes sharing one syscall bound, multi-step ``previously`` sequences
  with variable bindings, per-value clones, sites, drain) replayed through
  ``compile=False`` (the paper-faithful interpreted engine) and
  ``compile=True`` (tesla-jit's generated per-(key, context) key
  functions and per-(class, event-key) step functions).  Verdicts must be identical;
  the compiled engine must be ≥ 2× faster single-threaded.  Timing is
  best-of-N after a warm-up replay, so the one-off source generation and
  ``compile()`` of each step stays outside the timed window; the report
  shows that warm-up cost separately, for a first runtime and for a
  second one that finds every step in the process-wide code cache.

Smoke mode (``TESLA_BENCH_SMOKE=1``, used by CI) shrinks iteration counts
and skips the timing-ratio assertions while keeping every correctness
assertion — an import error or verdict divergence still fails fast.
"""

from __future__ import annotations

import os

from repro.bench import median_time, time_once
from repro.core.dsl import (
    ANY,
    call,
    either,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.instrument.hooks import HookRegistry, instrumentable
from repro.instrument.translator import EventTranslator
from repro.introspect import (
    codegen_report,
    dispatch_stats,
    format_dispatch_stats,
)
from repro.runtime.epoch import interest_stats
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit, interleaved_best

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
HOOK_CALLS = 500 if SMOKE else 50_000
ROUNDS = 2 if SMOKE else 40
REPEATS = 1 if SMOKE else 5

# -- part A: per-hook-call costs ----------------------------------------------


def _per_call_us(workload, calls):
    """Median seconds for ``calls`` invocations, scaled to µs/call."""
    return median_time(workload, repeats=REPEATS) * 1e6 / calls


def _watching_runtime(check_name):
    """A runtime whose one assertion observes ``check_name`` returns."""
    runtime = TeslaRuntime(policy=LogAndContinue())
    runtime.install_assertion(
        tesla_global(
            call("fp_hook_bound"),
            returnfrom("fp_hook_bound"),
            previously(fn(check_name, ANY("c"), var("v")) == 0),
            name="fp_hook_cls",
        )
    )
    return runtime


def test_hook_interest_costs(benchmark, results_dir):
    registry = HookRegistry()

    def plain(c, v):
        return 0

    @instrumentable(registry=registry)
    def fp_unattached(c, v):
        return 0

    @instrumentable(registry=registry)
    def fp_uninterested(c, v):
        return 0

    @instrumentable(registry=registry)
    def fp_watched(c, v):
        return 0

    translator = EventTranslator(_watching_runtime("fp_watched"))
    registry.require("fp_uninterested").attach(translator)
    registry.require("fp_watched").attach(translator)

    def loop(fn_):
        def run():
            for _ in range(HOOK_CALLS):
                fn_("c", "x")

        return run

    def measure():
        interest_stats.reset()
        rows = {
            "plain function": _per_call_us(loop(plain), HOOK_CALLS),
            "uninstrumented hook": _per_call_us(
                loop(fp_unattached), HOOK_CALLS
            ),
            "uninterested hook": _per_call_us(
                loop(fp_uninterested), HOOK_CALLS
            ),
            "watched hook": _per_call_us(loop(fp_watched), HOOK_CALLS),
        }
        return rows, interest_stats.hook_short_circuits

    rows, short_circuits = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = rows["uninterested hook"] / rows["uninstrumented hook"]
    lines = [
        "Dispatch fast path (a): hook-point call costs",
        "---------------------------------------------",
        f"{'configuration':<24}{'us/call':>10}",
    ]
    for label, value in rows.items():
        lines.append(f"{label:<24}{value:>10.3f}")
    lines.append(f"{'uninterested/uninstr.':<24}{overhead:>10.2f}")
    lines.append(f"{'interest short-circuits':<24}{short_circuits:>10d}")
    emit(results_dir, "dispatch_fastpath_hooks", "\n".join(lines))

    # Every uninterested call must have short-circuited before event
    # construction (each timed run is warmup + REPEATS measurements).
    assert short_circuits >= HOOK_CALLS * (REPEATS + 1)
    if not SMOKE:
        # The acceptance bar: an attached-but-uninterested hook costs no
        # more than 1.5x an uninstrumented one.  (Before interest
        # filtering it built a call + return RuntimeEvent per call and
        # was an order of magnitude off.)
        assert overhead < 1.5, overhead
        # A watched hook pays full event construction + dispatch; it must
        # be clearly distinguishable or the filter measured nothing.
        assert rows["watched hook"] > 2 * rows["uninterested hook"]


# -- part B: compiled vs interpreted dispatch throughput ----------------------

N_CLASSES = 6
N_STEPS = 3
N_BRANCHES = 4
N_VALUES = 3
BOUND = "fp_syscall"


def _assertions():
    """Figure-13-style set: N global classes sharing one syscall bound.

    Each class is a multi-step ``previously`` sequence whose steps accept
    any of several alternative checks (``either``) — the shape of the
    paper's MAC assertions, where one site is guarded by whichever of a
    family of checks ran.  Wide states are where the interpreted engine
    pays per event: every outgoing branch's symbol is re-matched, while
    the compiled plan touches only the one transition keyed by the event.
    """
    out = []
    for i in range(N_CLASSES):
        steps = [
            either(
                *[
                    fn(f"fp_check{i}_{s}_{b}", ANY("c"), var("v")) == 0
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
                name=f"fp_cls{i}",
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
                    # Satisfy each step via one of its branches, varying
                    # which branch by value and round.
                    b = (v + s + round_no) % N_BRANCHES
                    events.append(
                        return_event(
                            f"fp_check{i}_{s}_{b}", ("c", f"val{v}"), 0
                        )
                    )
            for v in range(N_VALUES):
                events.append(
                    assertion_site_event(f"fp_cls{i}", {"v": f"val{v}"})
                )
        events.append(return_event(BOUND, (), 0))
    return events


def _verdict(runtime):
    out = []
    for i in range(N_CLASSES):
        cr = runtime.class_runtime(f"fp_cls{i}")
        out.append((cr.accepts, cr.errors, cr.sites_reached))
    return out


def _build(events, compile=True):
    runtime = TeslaRuntime(
        lazy=True, policy=LogAndContinue(), compile=compile,
    )
    for assertion in _assertions():
        runtime.install_assertion(assertion)

    def replay():
        for event in events:
            runtime.handle_event(event)

    return runtime, replay


def _warmup_gen_seconds(events):
    """Step-generation seconds in a fresh compiled runtime's first
    replay: the whole warm-up cost tesla-jit adds to a new runtime."""
    runtime, replay = _build(events, compile=True)
    replay()
    return dispatch_stats(runtime).gen_seconds


def test_dispatch_throughput(benchmark, results_dir):
    events = _trace(ROUNDS)

    def measure():
        # The first runtime in the process compile()s every generated
        # step; the second finds each one in the process-wide code cache.
        # Both run before the timed runtimes are built, and the timed
        # window starts after interleaved_best's warm-up round.
        cold_s = _warmup_gen_seconds(events)
        warm_s = _warmup_gen_seconds(events)
        interpreted, replay_i = _build(events, compile=False)
        compiled, replay_c = _build(events, compile=True)
        best = interleaved_best(
            {
                "interpreted": lambda: time_once(replay_i),
                "compiled": lambda: time_once(replay_c),
            },
            repeats=REPEATS,
        )
        return (
            interpreted, best["interpreted"],
            compiled, best["compiled"], cold_s, warm_s,
        )

    interpreted, interp_s, compiled, compiled_s, cold_s, warm_s = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    speedup = interp_s / compiled_s
    stats = dispatch_stats(compiled)
    lines = [
        "Dispatch fast path (b): compiled vs interpreted throughput",
        "----------------------------------------------------------",
        f"({N_CLASSES} classes x {N_STEPS}-step sequences, "
        f"{len(events)} events/replay)",
        f"{'configuration':<24}{'events/s':>12}",
        f"{'interpreted':<24}{len(events) / interp_s:>12.0f}",
        f"{'compiled (tesla-jit)':<24}{len(events) / compiled_s:>12.0f}",
        f"{'speedup':<24}{speedup:>12.2f}",
        "",
        "step generation (warm-up, outside the timed window)",
        f"{'first runtime':<24}{cold_s * 1e3:>10.2f}ms",
        f"{'second runtime':<24}{warm_s * 1e3:>10.2f}ms  (code cache hit)",
        "",
        format_dispatch_stats(stats),
    ]
    emit(results_dir, "dispatch_fastpath_throughput", "\n".join(lines))

    # Correctness before speed: identical per-class verdicts, no errors,
    # and every class actually accepted instances (the workload is live).
    assert _verdict(compiled) == _verdict(interpreted)
    assert all(errors == 0 for _, errors, _ in _verdict(compiled))
    assert all(accepts > 0 for accepts, _, _ in _verdict(compiled))
    # Steady state: every dispatched key runs a resident generated key
    # function (all classes are global), whose steps hit the step cache.
    dispatched = {
        f"{event.kind.value}:{event.name}@global"
        for event in events
        if compiled.observes((event.kind, event.name))
    }
    resident = set(codegen_report(compiled)["key_functions"]["resident"])
    assert dispatched and dispatched <= resident
    assert stats.gen_hits > stats.gen_misses
    if not SMOKE:
        # The acceptance bar: >= 2x single-thread dispatch throughput.
        assert speedup >= 2.0, speedup

