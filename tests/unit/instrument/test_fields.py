"""Unit tests for structure-field instrumentation."""

import pytest

from repro.core.ast import AssignOp
from repro.core.events import EventKind
from repro.errors import InstrumentationError
from repro.instrument.fields import (
    FieldHookRegistry,
    TeslaStruct,
    attach_field_hook,
    detach_field_hook,
    field_add,
    field_and,
    field_dec,
    field_inc,
    field_or,
    instrumentable_struct,
)


class Widget(TeslaStruct):
    def __init__(self):
        self.count = 0
        self.flagword = 0
        self.state = "idle"


class SubWidget(Widget):
    pass


@pytest.fixture(autouse=True)
def reset_widget_hooks():
    yield
    Widget._tesla_field_sinks = None
    SubWidget._tesla_field_sinks = None


class TestSetattr:
    def test_uninstrumented_assignment_is_plain(self):
        widget = Widget()
        widget.state = "busy"
        assert widget.state == "busy"

    def test_hooked_field_emits_event(self):
        events = []
        widget = Widget()
        attach_field_hook(Widget, "state", events.append)
        widget.state = "busy"
        assert len(events) == 1
        event = events[0]
        assert event.kind is EventKind.FIELD_ASSIGN
        assert event.name == "Widget.state"
        assert event.retval == "busy"
        assert event.target is widget
        assert event.op is AssignOp.SET

    def test_other_fields_unaffected(self):
        events = []
        attach_field_hook(Widget, "state", events.append)
        widget = Widget()  # __init__ assigns state once
        widget.count = 5
        assert len(events) == 1  # only the constructor's state store

    def test_detach(self):
        events = []
        attach_field_hook(Widget, "state", events.append)
        detach_field_hook(Widget, "state", events.append)
        Widget().state = "x"
        assert not events

    def test_subclass_hooks_do_not_leak_to_parent(self):
        events = []
        attach_field_hook(SubWidget, "state", events.append)
        Widget().state = "x"
        assert not events  # the parent class is not instrumented
        SubWidget().state = "y"
        assert events

    def test_subclass_sinks_are_its_own(self):
        parent, child = [], []
        widget = Widget()
        attach_field_hook(Widget, "state", parent.append)
        attach_field_hook(SubWidget, "state", child.append)
        widget.state = "x"
        assert [e.retval for e in parent] == ["x"]
        assert child == []
        detach_field_hook(SubWidget, "state", child.append)
        widget.state = "y"
        assert [e.retval for e in parent] == ["x", "y"]
        assert Widget._tesla_field_sinks["state"] == [parent.append]


class TestCompoundHelpers:
    def test_field_inc_emits_increment_op(self):
        events = []
        widget = Widget()
        attach_field_hook(Widget, "count", events.append)
        result = field_inc(widget, "count")
        assert result == 1 and widget.count == 1
        assert events[-1].op is AssignOp.INCREMENT

    def test_field_dec(self):
        widget = Widget()
        widget.count = 5
        assert field_dec(widget, "count") == 4

    def test_field_add_emits_add_op(self):
        events = []
        widget = Widget()
        attach_field_hook(Widget, "count", events.append)
        field_add(widget, "count", 10)
        assert widget.count == 10
        assert events[-1].op is AssignOp.ADD

    def test_field_or_sets_bits(self):
        events = []
        widget = Widget()
        attach_field_hook(Widget, "flagword", events.append)
        field_or(widget, "flagword", 0x4)
        field_or(widget, "flagword", 0x1)
        assert widget.flagword == 0x5
        assert all(e.op is AssignOp.OR for e in events[-2:])

    def test_field_and_masks_bits(self):
        widget = Widget()
        widget.flagword = 0x7
        field_and(widget, "flagword", 0x3)
        assert widget.flagword == 0x3

    def test_compound_helpers_do_not_double_report(self):
        events = []
        widget = Widget()
        attach_field_hook(Widget, "count", events.append)
        field_inc(widget, "count")
        # One INCREMENT event, not an extra SET from __setattr__.
        assert [e.op for e in events] == [AssignOp.INCREMENT]


class TestRegistry:
    def test_instrumentable_struct_requires_teslastruct(self):
        with pytest.raises(InstrumentationError):
            @instrumentable_struct
            class Plain:  # not a TeslaStruct
                pass

    def test_struct_name_override(self):
        registry = FieldHookRegistry()

        class KernelProc(TeslaStruct):
            TESLA_STRUCT_NAME = "proc2"

        registry.register(KernelProc)
        assert registry.require("proc2") is KernelProc

    def test_conflicting_names_rejected(self):
        registry = FieldHookRegistry()

        class A(TeslaStruct):
            TESLA_STRUCT_NAME = "same2"

        class B(TeslaStruct):
            TESLA_STRUCT_NAME = "same2"

        registry.register(A)
        with pytest.raises(InstrumentationError):
            registry.register(B)

    def test_require_unknown(self):
        with pytest.raises(InstrumentationError):
            FieldHookRegistry().require("ghost")
