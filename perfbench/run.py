"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0

A run alternates blocks of the monitored program with blocks of the
Release arm (the same program, uninstrumented) on the same seeded
operations until ``--seconds`` have passed, checks every operation, then
runs the known-answer injections and the journal replay outside the timed
region.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: The probe loop's time at the reference host speed that absolute
#: metrics are scaled to (about its time on a 2-core Xeon VM, fast mode).
PROBE_REFERENCE_S = 0.0005


def host_probe() -> float:
    """Time a fixed pure-Python loop (best of three, about 0.5 ms each).

    Shared hosts drift: the same process runs up to 1.6x slower for
    seconds at a time, and its fastest speed moves by 10-20% over minutes,
    so unscaled absolute times of runs made minutes apart disagree by more
    than any useful bound.  Every absolute time the benchmark reports is
    therefore scaled by the probe time measured around it, to read as if
    the probe took ``PROBE_REFERENCE_S``.  The loop is the benchmark's own
    code, so no change to the program can move it.
    """
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        table: Dict[int, int] = {}
        for i in range(6000):
            key = i & 255
            table[key] = table.get(key, 0) + i
        best = min(best, perf_counter() - start)
    return best


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Bench:
    """One run of one workload: timed block pairs, then the checks."""

    def __init__(self, workload, seconds: float, trace: bool, workdir: str) -> None:
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        #: One dict per block pair: host speed against the reference,
        #: set-up time, monitored block rate, slowdown and op latencies.
        self.pairs: List[dict] = []
        self.mon_arm = workload.new_arm()
        self.rel_arm = workload.new_arm()
        #: The traced run's untraced monitored blocks get an arm of their
        #: own, so all three arms see each operation exactly once.
        self.untraced_arm = workload.new_arm() if trace else None
        self.journals = 0
        #: Kernel workloads record their replay samples on an arm of their
        #: own, so the monitored and Release arms stay in step.
        self.journal_arm = workload.new_arm() if workload.journal_ops else None
        #: One dict per replayed journal: host speed, rate, density and
        #: read/run seconds per event.
        self.replays: List[dict] = []
        self.replayed_events = 0
        self.last_replay = None
        self.summary = "traced run"
        self.oracle_s = 0.0
        self.graded = 0
        self.ledger = None
        if trace:
            from ledger import Ledger

            self.ledger = Ledger()
        #: Per-layer counters summed over traced monitored blocks.
        self.counts: Dict[str, float] = dict.fromkeys(
            (
                "ops_traced", "ops_release", "ops_untraced_s", "ops_untraced",
                "ops_traced_s", "short_circuits", "forwarded", "dropped",
                "events", "plan_hits", "plan_misses", "overflows", "instances",
                "violations", "flushes", "drained", "journal_bytes", "setups",
            ),
            0,
        )

    # -- operations ---------------------------------------------------------

    def _run_ops(self, arm, ops, traced: bool = False):
        """Run ``ops``; returns (elapsed, per-op ok flags, outputs,
        latencies).  Every op counts as attempted."""
        run = self.wl.run_op
        if traced:
            run = self.ledger.wrap("op", run)
        oks: List[bool] = []
        outputs: List[Any] = []
        latencies: List[float] = []
        start = perf_counter()
        for op in ops:
            t0 = perf_counter()
            ok, out = run(arm, op)
            latencies.append(perf_counter() - t0)
            oks.append(ok)
            outputs.append(out)
        elapsed = perf_counter() - start
        self.attempted += len(ops)
        return elapsed, oks, outputs, latencies

    def _program(self, arm, traced: bool) -> None:
        """Route the arm's program calls through a span, or not."""
        owner, attr, span = arm.program
        current = getattr(owner, attr)
        original = getattr(current, "span_target", current)
        setattr(owner, attr, self.ledger.wrap(span, original) if traced else original)

    # -- blocks -------------------------------------------------------------

    def monitored_block(self, ops, traced: bool = False, arm=None):
        wl, ledger = self.wl, self.ledger
        arm = arm or self.mon_arm
        wl.begin_block(arm, monitored=True)
        journal = None
        if wl.name == "gui-journal":
            self.journals += 1
            journal = os.path.join(self.workdir, f"block{self.journals}.tjournal")
        if ledger is not None:
            ledger.phase = "setup"
            if traced:
                ledger.install()
            self._program(arm, traced)
        gc.collect()
        t0 = perf_counter()
        runtime = wl.runtime(journal)
        session = wl.instrumenter(runtime)
        session.instrument(wl.installed())
        _, oks, _, _ = self._run_ops(arm, wl.warmup)
        setup = perf_counter() - t0
        self.failed += oks.count(False)
        if traced:
            ledger.wrap_interposition()
            ledger.phase = "monitored"
        from repro.runtime.epoch import interest_stats

        short_before = interest_stats.hook_short_circuits
        elapsed, oks, outputs, latencies = self._run_ops(arm, ops, traced)
        short_circuits = interest_stats.hook_short_circuits - short_before
        if runtime.drain is not None:
            runtime.flush_deferred()
            runtime.drain.stop()
            runtime.close_journal()
        if traced:
            ledger.unwrap_interposition()
            ledger.uninstall()
            ledger.phase = "setup"
        session.uninstrument()
        wl.end_block(arm)
        violations = len(runtime.hub.policy.violations)
        self.failed += violations
        if journal is not None:
            journal = self._check_block_journal(runtime, journal)
        if traced:
            self._count_layers(runtime, session, len(ops), short_circuits, violations)
        return setup, elapsed, oks, outputs, latencies, journal

    def release_block(self, ops, traced: bool = False):
        wl, arm = self.wl, self.rel_arm
        wl.begin_block(arm, monitored=False)
        if self.ledger is not None:
            self._program(arm, traced)
        _, oks, _, _ = self._run_ops(arm, wl.warmup)
        self.failed += oks.count(False)
        gc.collect()
        if self.ledger is not None:
            self.ledger.phase = "release"
        result = self._run_ops(arm, ops, traced)
        wl.end_block(arm)
        if self.ledger is not None:
            self.ledger.phase = "setup"
        return result

    def _check_block_journal(self, runtime, path: str):
        """Every block's journal must hold exactly the events captured and
        close cleanly.  Returns (path, events, live verdicts)."""
        stats = runtime.drain.stats()
        journal = stats["journal"]
        self.attempted += 1
        if not journal["closed"] or journal["events"] != stats["events_enqueued"]:
            self.failed += 1
        live = _live_verdicts(runtime, self.wl.installed())
        return path, stats["events_enqueued"], live

    def _count_layers(self, runtime, session, ops: int, short_circuits: int,
                      violations: int) -> None:
        from repro.introspect import dispatch_stats

        c = self.counts
        c["ops_traced"] += ops
        c["short_circuits"] += short_circuits
        c["forwarded"] += session.translator.forwarded
        c["dropped"] += session.translator.dropped
        c["events"] += runtime.events_processed
        stats = dispatch_stats(runtime)
        c["plan_hits"] += stats.plan_hits
        c["plan_misses"] += stats.plan_misses
        instances = 0
        stores = list(runtime.global_store.all_stores())
        stores.extend(runtime.thread_stores.all_stores())
        for store in stores:
            for cr in store:
                pool = cr.pool.stats()
                c["overflows"] += pool["overflows"]
                instances += pool["high_water"]
        c["instances"] = max(c["instances"], instances)
        c["violations"] += violations
        if runtime.drain is not None:
            drain = runtime.drain.stats()
            c["flushes"] += drain["flushes"]
            c["drained"] += drain["events_drained"]
            c["journal_bytes"] += drain["journal"]["bytes"] if drain["journal"] else 0

    # -- the timed phase ----------------------------------------------------

    def timed_phase(self) -> None:
        wall, cpu = perf_counter(), process_time()
        deadline = wall + self.seconds
        index = 0
        while index < 2 or perf_counter() < deadline:
            ops = self.wl.block(index)
            if self.trace:
                self._traced_triple(index, ops)
            else:
                self._pair(index, ops)
            index += 1
        self.blocks = index
        #: CPU time over wall time: 1.0 on one busy thread, so slower
        #: stretches come from the host's speed, not from scheduling.
        self.cpu_share = (process_time() - cpu) / (perf_counter() - wall)

    def _pair(self, index: int, ops) -> None:
        probe = host_probe()
        # Alternate which arm runs first, so host drift within a pair
        # cancels over the run.
        if index % 2 == 0:
            mon = self.monitored_block(ops)
            rel = self.release_block(ops)
        else:
            rel = self.release_block(ops)
            mon = self.monitored_block(ops)
        setup, mon_elapsed, mon_oks, mon_out, latencies, journal = mon
        rel_elapsed, rel_oks, rel_out, _ = rel
        self.failed += rel_oks.count(False)
        self.failed += sum(
            1 for ok, a, b in zip(mon_oks, mon_out, rel_out) if not ok or a != b
        )
        self.pairs.append(
            {
                "speed": PROBE_REFERENCE_S / ((probe + host_probe()) / 2),
                "setup": setup,
                "rate": len(ops) / mon_elapsed,
                "ratio": mon_elapsed / rel_elapsed,
                "latencies": latencies,
            }
        )
        self._replay_round(index, ops, journal)

    def _traced_triple(self, index: int, ops) -> None:
        c = self.counts
        order = ("traced", "release", "untraced")
        if index % 2:
            order = order[::-1]
        outputs = {}
        journal = None
        for kind in order:
            if kind == "release":
                elapsed, oks, out, _ = self.release_block(ops, traced=True)
                c["ops_release"] += len(ops)
                self.failed += oks.count(False)
                outputs[kind] = (oks, out)
                continue
            traced = kind == "traced"
            arm = self.mon_arm if traced else self.untraced_arm
            setup, elapsed, oks, out, _, block_journal = self.monitored_block(
                ops, traced, arm
            )
            outputs[kind] = (oks, out)
            if block_journal is not None and not traced:
                os.remove(block_journal[0])
            elif traced:
                journal = block_journal
            c["ops_traced_s" if traced else "ops_untraced_s"] += elapsed
            if traced:
                c["setups"] += 1
            else:
                c["ops_untraced"] += len(ops)
        _, reference = outputs["release"]
        for kind in ("traced", "untraced"):
            oks, out = outputs[kind]
            self.failed += sum(
                1 for ok, a, b in zip(oks, out, reference) if not ok or a != b
            )
        self._replay_round(index, ops, journal)

    # -- checks outside the timed region ------------------------------------

    def known_answer(self) -> None:
        from repro.runtime.manager import TeslaRuntime
        from repro.runtime.notify import LogAndContinue

        if self.wl.injected_assertion is None:
            return
        runtime = TeslaRuntime(policy=LogAndContinue())
        session = self.wl.instrumenter(runtime)
        session.instrument(self.wl.installed())
        try:
            attempted, failed = self.wl.known_answer(self.mon_arm, runtime)
        finally:
            session.uninstrument()
        self.attempted += attempted
        self.failed += failed

    # -- journal replay -----------------------------------------------------

    def _replay_round(self, index: int, ops, journal) -> None:
        """Replay one journal every ``replay_every`` rounds: the monitored
        block's own (``gui-journal``) or a recorded sample of ``ops``."""
        if index % self.wl.replay_every:
            if journal is not None:
                os.remove(journal[0])
            return
        self.replay_sample(journal or self.journal_sample(ops))

    def journal_sample(self, ops):
        """Kernel workloads: record the first operations of a block into
        a journal on a deferred runtime, for the replay measurement
        (``gui-journal`` replays the journal of its own live block).
        Returns (path, events, live verdicts)."""
        from repro.runtime.manager import TeslaRuntime
        from repro.runtime.notify import LogAndContinue

        wl = self.wl
        self.journals += 1
        path = os.path.join(self.workdir, f"sample{self.journals}.tjournal")
        runtime = TeslaRuntime(
            policy=LogAndContinue(), deferred="manual", journal=path
        )
        session = wl.instrumenter(runtime)
        session.instrument(wl.installed())
        try:
            _, oks, _, _ = self._run_ops(self.journal_arm, ops[: wl.journal_ops])
            self.failed += oks.count(False)
            runtime.flush_deferred()
        finally:
            runtime.drain.stop()
            runtime.close_journal()
            session.uninstrument()
        self.failed += len(runtime.hub.policy.violations)
        enqueued = runtime.drain.stats()["events_enqueued"]
        return path, enqueued, _live_verdicts(runtime, wl.installed())

    def replay_sample(self, journal) -> None:
        """Read and replay one journal the way ``repro replay`` does by
        default (``read_journal``, then ``ReplayEngine.run()``), timed,
        and check the replay against the live run.  Any disagreement
        counts as a failed operation."""
        from repro.replay import ReplayEngine
        from repro.runtime.journal import read_journal

        path, enqueued, live = journal
        gc.collect()
        probe = host_probe()
        t0 = perf_counter()
        decoded = read_journal(path)
        t1 = perf_counter()
        engine = ReplayEngine(decoded)
        result = engine.run()
        t2 = perf_counter()
        events = len(decoded.slots)
        self.replays.append(
            {
                "speed": PROBE_REFERENCE_S / ((probe + host_probe()) / 2),
                "rate": events / (t2 - t0),
                "density": decoded.byte_size / events,
                "read": (t1 - t0) / events,
                "run": (t2 - t1) / events,
            }
        )
        self.replayed_events += events
        self.attempted += 1
        bad = events != enqueued or not decoded.clean_close or not result.clean
        for name, verdict in live.items():
            replayed = result.classes.get(name)
            bad |= replayed is None or replayed.as_tuple()[:3] != verdict
        self.failed += int(bad)
        os.remove(path)
        self.last_replay = (engine, result, live)

    def oracle(self) -> None:
        """Grade the last replayed journal with the independent LTL oracle,
        as ``repro replay`` does by default: every assertion the oracle
        models must agree with the replay and the live run."""
        from repro.replay import LTLUnsupported, ltl_verdict

        engine, result, live = self.last_replay
        t0 = perf_counter()
        graded = {}
        for assertion in engine.assertions:
            try:
                graded[assertion.name] = ltl_verdict(assertion, engine.slots)
            except LTLUnsupported:
                continue
        self.oracle_s = (perf_counter() - t0) / max(1, len(engine.slots))
        self.graded = len(graded)
        self.attempted += 1
        bad = False
        for name, verdict in graded.items():
            bad |= (verdict.accepts, verdict.errors, verdict.satisfied_sites) != live[name]
            bad |= result.violations.get(name, []) != verdict.reason_stream()
        # The tracing assertion is a plain sequence: the oracle must grade it.
        bad |= self.wl.name == "gui-journal" and len(graded) != len(live)
        self.failed += int(bad)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """Medians over the run's pairs and replays.  Ratios and sizes are
        as measured; absolute times are scaled to the reference host speed
        (see :func:`host_probe`), and their unscaled medians are printed
        on the summary line."""
        pairs, replays = self.pairs, self.replays
        latencies = sorted(
            x * pair["speed"] for pair in pairs for x in pair["latencies"]
        )
        speeds = [p["speed"] for p in pairs]
        self.summary = (
            f"{len(latencies)} latency samples over {len(pairs)} pairs; host "
            f"speed {min(speeds):.2f}-{max(speeds):.2f}x the reference; "
            f"unscaled medians {statistics.median(p['rate'] for p in pairs):.0f} "
            f"ops/s, set-up {statistics.median(p['setup'] for p in pairs):.4f} s, "
            f"replay {statistics.median(r['rate'] for r in replays):.0f} events/s; "
            f"CPU/wall time {self.cpu_share:.3f}"
        )
        return {
            "slowdown_x": (statistics.median(p["ratio"] for p in pairs), "x"),
            "throughput_ops_s": (
                statistics.median(p["rate"] / p["speed"] for p in pairs), "1/s"),
            "latency_p50_us": (percentile(latencies, 50) * 1e6, "us"),
            "latency_p99_us": (percentile(latencies, 99) * 1e6, "us"),
            "setup_s": (statistics.median(p["setup"] * p["speed"] for p in pairs), "s"),
            "replay_events_s": (
                statistics.median(r["rate"] / r["speed"] for r in replays), "1/s"),
            "journal_bytes_per_event": (
                statistics.median(r["density"] for r in replays), "B/event"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        ledger, c = self.ledger, self.counts
        n_mon = max(1, c["ops_traced"])
        n_rel = max(1, c["ops_release"])
        setups = max(1, c["setups"])

        def mon(*names):
            return ledger.row("monitored", *names)

        metrics: Dict[str, Tuple[float, str]] = {}
        program = self.mon_arm.program[2]
        for name in ("kernel.syscall", "gui.run_loop"):
            rel = ledger.row("release", name) if name == program else None
            metrics[f"{name}.calls"] = (rel.calls / n_rel if rel else 0.0, "calls/op")
            metrics[f"{name}.self_s"] = (rel.self / n_rel if rel else 0.0, "s/op")
        glue = mon(program).self / n_mon - ledger.row("release", program).self / n_rel
        translator = mon("instrument.translator")
        interpose = mon("instrument.interpose")
        manager = mon("runtime.manager")
        body = mon("runtime.update.body")
        init = mon("runtime.update.init")
        cleanup = mon("runtime.update.cleanup")
        drain = mon("runtime.drain")
        journal = mon("runtime.journal")
        plans = c["plan_hits"] + c["plan_misses"]
        routed = c["forwarded"] + c["dropped"]
        op = ledger.row("monitored", "op", main_only=True)
        untraced = c["ops_untraced_s"] / max(1, c["ops_untraced"])
        traced = c["ops_traced_s"] / n_mon
        metrics.update(
            {
                "instrument.hooks.short_circuits": (c["short_circuits"] / n_mon, "calls/op"),
                "instrument.hooks.glue_s": (glue, "s/op"),
                "instrument.translator.calls": (translator.calls / n_mon, "calls/op"),
                "instrument.translator.self_s": (translator.self / n_mon, "s/op"),
                "instrument.translator.forward_ratio": (
                    c["forwarded"] / routed if routed else 0.0, "ratio"),
                "instrument.interpose.calls": (interpose.calls / n_mon, "calls/op"),
                "instrument.interpose.self_s": (interpose.self / n_mon, "s/op"),
                "runtime.manager.events": (c["events"] / n_mon, "events/op"),
                "runtime.manager.self_s": (manager.self / n_mon, "s/op"),
                "runtime.plans.hit_ratio": (
                    c["plan_hits"] / plans if plans else 0.0, "ratio"),
                "runtime.update.body_calls": (body.calls / n_mon, "calls/op"),
                "runtime.update.init_calls": (init.calls / n_mon, "calls/op"),
                "runtime.update.cleanup_calls": (cleanup.calls / n_mon, "calls/op"),
                "runtime.update.self_s": (
                    (body.self + init.self + cleanup.self) / n_mon, "s/op"),
                "runtime.store.instances": (c["instances"], "count"),
                "runtime.prealloc.overflows": (c["overflows"], "count"),
                "runtime.notify.violations": (c["violations"], "count"),
                "runtime.drain.flushes": (c["flushes"] / n_mon, "calls/op"),
                "runtime.drain.events_per_flush": (
                    c["drained"] / c["flushes"] if c["flushes"] else 0.0, "events"),
                "runtime.drain.self_s": (drain.self / n_mon, "s/op"),
                "runtime.journal.appends": (journal.calls / n_mon, "calls/op"),
                "runtime.journal.bytes": (c["journal_bytes"] / n_mon, "B/op"),
                "runtime.journal.self_s": (journal.self / n_mon, "s/op"),
                "replay.read_s": (
                    statistics.median(r["read"] for r in self.replays), "s/event"),
                "replay.run_s": (
                    statistics.median(r["run"] for r in self.replays), "s/event"),
                "replay.oracle_s": (self.oracle_s, "s/event"),
                "setup.instrument_s": (
                    ledger.row("setup", "setup.instrument").self / setups, "s"),
                "setup.translate_s": (
                    ledger.row("setup", "setup.translate").total / setups, "s"),
                "setup.lint_s": (ledger.row("setup", "setup.lint").total / setups, "s"),
                "trace.unattributed_frac": (
                    op.self / op.total if op.total else 0.0, "ratio"),
                "trace.overhead_x": (traced / untraced if untraced else 0.0, "x"),
            }
        )
        return metrics


def _live_verdicts(runtime, assertions) -> Dict[str, Tuple[int, int, int]]:
    """(accepts, errors, sites reached) per assertion, over all contexts."""
    verdicts = {}
    for assertion in assertions:
        accepts = errors = sites = 0
        for cr in runtime.all_class_runtimes(assertion.name):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
        verdicts[assertion.name] = (accepts, errors, sites)
    return verdicts


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oltp", "build", "gui-journal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--omit-assertion", action="append", default=[], metavar="NAME",
        help="leave an assertion out of the monitored set (self-test: the "
             "known-answer check must then report failed operations)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.omit_assertion)
        bench = Bench(workload, args.seconds, bool(args.trace), str(workdir))
        bench.timed_phase()
        bench.known_answer()
        bench.oracle()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = bench.per_layer()
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        ledger = bench.ledger.to_json()
        ledger["metrics"] = {k: v for k, (v, _) in metrics.items()}
        out.write_text(json.dumps(ledger, indent=1))
    else:
        metrics = bench.end_to_end()
    print(
        f"# {args.workload} seed={args.seed}: {bench.blocks} blocks rounds, "
        f"{bench.replayed_events} journal events replayed, "
        f"{bench.graded} assertions graded by the oracle; {bench.summary}"
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
