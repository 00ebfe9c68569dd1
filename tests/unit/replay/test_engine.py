"""Unit tests for :class:`repro.replay.engine.ReplayEngine`.

The differential suite proves replay ≡ live over the randomized corpus;
these tests pin the engine's *mechanics*: input flexibility, window
slicing, per-thread context handling, state introspection, and the
``monitoring(journal=…)`` end-to-end path through real instrumentation.
"""

from __future__ import annotations

import io

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_within,
    var,
)
from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.errors import JournalError
from repro.instrument.hooks import instrumentable, tesla_site
from repro.introspect import format_health, health_report
from repro.replay import REPLAY_CONFIGS, ReplayEngine
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.session import monitoring


def global_assertion(name="eng.cls"):
    return tesla_global(
        call("eng_bound"),
        returnfrom("eng_bound"),
        previously(fn("eng_check", ANY("c"), var("v")) == 0),
        name=name,
    )


def perthread_assertion(name="eng.thread.cls"):
    return tesla_within(
        "eng_bound",
        previously(fn("eng_check", ANY("c"), var("v")) == 0),
        name=name,
    )


def _slot(seqno, event):
    return (seqno, event)


def _thread_trace(thread_id, satisfied):
    """One thread's bound window; ``satisfied=False`` leaves the site
    unmatched (a violation)."""

    def ev(kind, name, **kwargs):
        return RuntimeEvent(
            kind=kind, name=name, thread_id=thread_id, **kwargs
        )

    events = [ev(EventKind.CALL, "eng_bound", args=())]
    if satisfied:
        events.append(
            ev(EventKind.RETURN, "eng_check", args=("c", 1), retval=0)
        )
    events.append(
        ev(EventKind.ASSERTION_SITE, "eng.thread.cls", scope={"v": 1})
    )
    events.append(ev(EventKind.RETURN, "eng_bound", args=(), retval=0))
    return events


def record_journal(ops, **knobs):
    buf = io.BytesIO()
    runtime = TeslaRuntime(
        deferred="manual", journal=buf, policy=LogAndContinue(), **knobs
    )
    try:
        runtime.install_assertions([global_assertion()])
        for event in ops:
            runtime.handle_event(event)
        runtime.flush_deferred()
        runtime.close_journal()
    finally:
        runtime.reset()
    return buf


VIOLATING_OPS = [
    call_event("eng_bound", ()),
    return_event("eng_check", ("c", 1), 0),
    assertion_site_event("eng.cls", {"v": 1}),
    assertion_site_event("eng.cls", {"v": 2}),
    return_event("eng_bound", (), 0),
]


class TestInputs:
    def test_accepts_journal_bytes_stream_and_slots(self):
        buf = record_journal(VIOLATING_OPS)
        journal = read_journal(buf)
        by_journal = ReplayEngine(journal).run()
        by_bytes = ReplayEngine(buf.getvalue()).run()
        by_stream = ReplayEngine(io.BytesIO(buf.getvalue())).run()
        by_slots = ReplayEngine(
            list(journal.slots), assertions=[global_assertion()]
        ).run()
        baseline = by_journal.to_json()
        assert by_bytes.to_json() == baseline
        assert by_stream.to_json() == baseline
        assert by_slots.to_json() == baseline

    def test_slots_without_assertions_refused(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        with pytest.raises(JournalError, match="no assertion manifest"):
            ReplayEngine(list(journal.slots))

    def test_assertions_override_journal_manifest(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        other = global_assertion(name="eng.other")
        engine = ReplayEngine(journal, assertions=[other])
        result = engine.run()
        # The override's site name never appears in the trace: no sites,
        # one clean bound window, nothing else.
        assert result.classes["eng.other"].sites_reached == 0
        assert "eng.cls" not in result.classes

    def test_unknown_config_name(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        with pytest.raises(JournalError, match="unknown replay config"):
            ReplayEngine(journal).run("warp")

    def test_custom_config_dict_and_background_coercion(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        engine = ReplayEngine(journal)
        result = engine.run(dict(lazy=False, deferred=True))
        assert result.config == "custom"
        assert result.classes["eng.cls"].errors == 1

    def test_named_configs_replay_at_the_recorded_capacity(self):
        """A run whose pool overflowed replays to its own verdicts: the
        journal records the capacity and named configs use it, while an
        explicit config, or a journal without the key, keeps its own."""
        ops = [
            call_event("eng_bound", ()),
            return_event("eng_check", ("c", 1), 0),
            return_event("eng_check", ("c", 2), 0),
            assertion_site_event("eng.cls", {"v": 3}),
            return_event("eng_bound", (), 0),
        ]
        journal = read_journal(record_journal(ops, capacity=1))
        assert journal.meta["capacity"] == 1
        engine = ReplayEngine(journal)
        for name in REPLAY_CONFIGS:
            assert engine.run(name).classes["eng.cls"].errors == 0, name
        assert engine.run(dict(lazy=False)).classes["eng.cls"].errors == 0
        explicit = engine.run(REPLAY_CONFIGS["naive"])
        assert explicit.classes["eng.cls"].errors == 1
        unrecorded = ReplayEngine(
            list(journal.slots), assertions=[global_assertion()]
        )
        assert unrecorded.run("naive").classes["eng.cls"].errors == 1

    def test_all_named_configs_agree(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        engine = ReplayEngine(journal)
        verdicts = {
            name: engine.run(name).classes["eng.cls"].as_tuple()
            for name in REPLAY_CONFIGS
        }
        assert len(set(verdicts.values())) == 1, verdicts


class TestWindows:
    def test_upto_seqno_truncates_replay(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        engine = ReplayEngine(journal)
        # Stop before the violating site (seqno 3): one satisfied site,
        # no errors, and the still-open bound leaves instances live.
        result = engine.run(upto_seqno=2)
        verdict = result.classes["eng.cls"]
        assert result.events == 3
        assert verdict.errors == 0
        assert verdict.sites_reached == 1
        assert verdict.live > 0

    def test_state_at_exposes_instances(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        state = ReplayEngine(journal).state_at(2)
        [cls] = state["classes"]
        assert cls["automaton"] == "eng.cls"
        assert cls["active"] is True
        bindings = [inst["binding"] for inst in cls["instances"]]
        assert {"v": "1"} in bindings
        sited = [inst for inst in cls["instances"] if inst["saw_site"]]
        assert sited and all(
            inst["accepting"] for inst in sited
        )

    def test_state_at_reads_compiled_rows(self):
        """A compiled replay's rows read back as the instances the
        interpreter keeps, wildcard first."""
        journal = read_journal(record_journal(VIOLATING_OPS))
        engine = ReplayEngine(journal)
        for seqno in range(len(VIOLATING_OPS)):
            rows = engine.state_at(seqno, "compiled")["classes"]
            objects = engine.state_at(seqno, "lazy")["classes"]
            assert rows == objects, seqno
        [cls] = engine.state_at(2, "compiled")["classes"]
        assert [inst["name"] for inst in cls["instances"]] == [
            "(*)", "(v=1)",
        ]

    def test_state_at_before_any_event(self):
        journal = read_journal(record_journal(VIOLATING_OPS))
        state = ReplayEngine(journal).state_at(-1)
        assert state["events_replayed"] == 0
        [cls] = state["classes"]
        assert cls["active"] is False
        assert cls["instances"] == []


class TestPerThreadContexts:
    def test_thread_slices_replay_independently(self):
        # Thread 7 satisfies its site, thread 9 does not.  A per-thread
        # automaton must see each thread's subsequence in isolation:
        # thread 9's missing check cannot borrow thread 7's.
        slots = []
        seqno = 0
        t7 = _thread_trace(7, satisfied=True)
        t9 = _thread_trace(9, satisfied=False)
        # Interleave to prove slicing, not luck of ordering.
        for pair in zip(t7, t9):
            for event in pair:
                slots.append(_slot(seqno, event))
                seqno += 1
        slots.append(_slot(seqno, t7[-1]))
        engine = ReplayEngine(
            slots, assertions=[perthread_assertion()]
        )
        verdict = engine.run().classes["eng.thread.cls"]
        assert verdict.accepts == 1
        assert verdict.errors == 1

    def test_global_and_perthread_mix(self):
        # Same interleaving, but a *global* automaton reads the merged
        # stream: thread 7's check happens before thread 9's site, so
        # globally both sites are satisfied.
        slots = []
        seqno = 0
        for pair in zip(
            _thread_trace(7, satisfied=True),
            _thread_trace(9, satisfied=False),
        ):
            for event in pair:
                slots.append(_slot(seqno, event))
                seqno += 1
        g = tesla_global(
            call("eng_bound"),
            returnfrom("eng_bound"),
            previously(fn("eng_check", ANY("c"), var("v")) == 0),
            name="eng.thread.cls",
        )
        verdict = (
            ReplayEngine(slots, assertions=[g])
            .run()
            .classes["eng.thread.cls"]
        )
        assert verdict.errors == 0


# -- end-to-end through real instrumentation ----------------------------------


@instrumentable("replay_e2e_enter")
def replay_e2e_enter() -> int:
    return 1


@instrumentable("replay_e2e_exit")
def replay_e2e_exit() -> int:
    return 1


@instrumentable("replay_e2e_check")
def replay_e2e_check(cred: str, value: str) -> int:
    return 0


def e2e_assertion():
    from repro.core.dsl import tesla_perthread

    return tesla_perthread(
        call("replay_e2e_enter"),
        returnfrom("replay_e2e_exit"),
        previously(fn("replay_e2e_check", ANY("c"), var("v")) == 0),
        name="replay.e2e",
    )


class TestMonitoringIntegration:
    def test_monitoring_journal_end_to_end(self, tmp_path):
        path = tmp_path / "e2e.tjournal"
        with monitoring(
            [e2e_assertion()],
            policy=LogAndContinue(),
            deferred="manual",
            journal=str(path),
        ) as runtime:
            replay_e2e_enter()
            replay_e2e_check("cred", "x")
            tesla_site("replay.e2e", v="x")
            tesla_site("replay.e2e", v="y")  # violation
            replay_e2e_exit()
        live = [
            (cr.accepts, cr.errors)
            for cr in runtime.all_class_runtimes("replay.e2e")
        ]
        journal = read_journal(path)
        assert journal.clean_close, "monitoring() exit must close the journal"
        assert [a.name for a in journal.assertions] == ["replay.e2e"]
        result = ReplayEngine(journal).run()
        verdict = result.classes["replay.e2e"]
        assert (verdict.accepts, verdict.errors) == (
            sum(a for a, _ in live),
            sum(e for _, e in live),
        )
        assert verdict.errors == 1

    def test_journal_requires_deferred(self):
        with pytest.raises(ValueError, match="requires deferred"):
            TeslaRuntime(journal=io.BytesIO())

    def test_journal_counters_in_health_report(self):
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            deferred="manual", journal=buf, policy=LogAndContinue()
        )
        try:
            runtime.install_assertions([global_assertion()])
            for event in VIOLATING_OPS:
                runtime.handle_event(event)
            report = health_report(runtime)
            assert report.deferred["journal"]["events"] == len(VIOLATING_OPS)
            assert report.deferred["journal"]["errors"] == 0
            text = format_health(report)
            assert "journal:" in text
            assert "path=(stream)" in text
        finally:
            runtime.close_journal()
            runtime.reset()

    def test_journal_fault_is_contained_and_counted(self):
        class ExplodingSink:
            closed = False

            def append_batch(self, slots):
                raise OSError("disk gone")

            def record_assertions(self, batch):
                pass

            def stats(self):
                return {"events": 0, "records": 0, "bytes": 0,
                        "opaque_values": 0, "path": None, "closed": False}

            def close(self):
                self.closed = True

        from repro.runtime.supervisor import FailOpen

        runtime = TeslaRuntime(
            deferred="manual",
            journal=ExplodingSink(),
            policy=LogAndContinue(),
            failure_policy=FailOpen(),
        )
        try:
            runtime.install_assertions([global_assertion()])
            for event in VIOLATING_OPS:
                runtime.handle_event(event)
            runtime.flush_deferred()
            # The journal sink failed, but evaluation still happened and
            # the fault is visible in the counters — never silent.
            assert runtime.drain.journal_errors > 0
            verdict = [
                (cr.accepts, cr.errors)
                for cr in runtime.all_class_runtimes("eng.cls")
            ]
            assert sum(e for _, e in verdict) == 1
        finally:
            runtime.reset()
