"""Unit tests for concrete runtime events."""

import dataclasses
import threading

from repro.core.ast import AssignOp
from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    current_thread_id,
    field_assign_event,
    return_event,
)


class TestConstructors:
    def test_call_event(self):
        event = call_event("f", (1, 2))
        assert event.kind is EventKind.CALL
        assert event.name == "f"
        assert event.args == (1, 2)
        assert event.thread_id == current_thread_id()

    def test_return_event(self):
        event = return_event("f", (1,), "result")
        assert event.kind is EventKind.RETURN
        assert event.retval == "result"

    def test_field_assign_event_name_combines_struct_and_field(self):
        target = object()
        event = field_assign_event("proc", "p_flag", target, 0x1, AssignOp.OR)
        assert event.name == "proc.p_flag"
        assert event.target is target
        assert event.op is AssignOp.OR
        assert event.retval == 0x1

    def test_site_event_copies_scope(self):
        scope = {"vp": "v1"}
        event = assertion_site_event("a", scope)
        scope["vp"] = "mutated"
        assert event.scope == {"vp": "v1"}

    def test_site_event_default_scope(self):
        assert assertion_site_event("a").scope == {}


class TestDescribe:
    def test_call_describe(self):
        assert "call f" in call_event("f", (1,)).describe()

    def test_return_describe_shows_value(self):
        assert "-> 0" in return_event("f", (), 0).describe()

    def test_field_describe_shows_operator(self):
        event = field_assign_event("s", "n", object(), 5, AssignOp.ADD)
        assert "+=" in event.describe()

    def test_site_describe(self):
        assert "assertion-site a" in assertion_site_event("a").describe()


class TestThreadIds:
    def test_thread_ids_differ_across_threads(self):
        ids = {}

        def worker():
            ids["worker"] = call_event("f", ()).thread_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert ids["worker"] != call_event("f", ()).thread_id


class TestRecordShape:
    """The journal encoder reads event fields out of the instance
    ``__dict__``, and the runtime stamps ``timestamp`` by plain
    assignment at capture — both depend on ``RuntimeEvent`` staying a
    plain (non-frozen, non-slots) dataclass."""

    FIELDS = [f.name for f in dataclasses.fields(RuntimeEvent)]

    def _all_kinds(self):
        return [
            call_event("f", (1, 2), stack=("outer",)),
            return_event("f", (1,), "r", stack=("outer",)),
            field_assign_event("s", "n", object(), 5, AssignOp.ADD),
            assertion_site_event("a", {"vp": "v1"}),
        ]

    def test_instances_keep_a_dict_with_every_field(self):
        assert "__slots__" not in vars(RuntimeEvent)
        for event in self._all_kinds():
            assert list(event.__dict__) == self.FIELDS

    def test_timestamp_is_stamped_by_plain_assignment(self):
        event = call_event("f", ())
        assert event.timestamp == 0.0
        event.timestamp = 1.5
        assert event.__dict__["timestamp"] == 1.5

    def test_positional_factories_match_keyword_construction(self):
        """The factories build events positionally for speed; pin that
        each value lands in the field it names."""
        tid = current_thread_id()
        target = object()
        assert call_event("f", (1,), ("s",)) == RuntimeEvent(
            kind=EventKind.CALL, name="f", args=(1,), thread_id=tid,
            stack=("s",),
        )
        assert return_event("f", (1,), 7, ("s",)) == RuntimeEvent(
            kind=EventKind.RETURN, name="f", args=(1,), retval=7,
            thread_id=tid, stack=("s",),
        )
        assert field_assign_event(
            "s", "n", target, 5, AssignOp.OR, ("t",)
        ) == RuntimeEvent(
            kind=EventKind.FIELD_ASSIGN, name="s.n", retval=5,
            op=AssignOp.OR, target=target, thread_id=tid, stack=("t",),
        )
        assert assertion_site_event("a", {"x": 1}, ("u",)) == RuntimeEvent(
            kind=EventKind.ASSERTION_SITE, name="a", scope={"x": 1},
            thread_id=tid, stack=("u",),
        )
