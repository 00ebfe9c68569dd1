"""``RuntimeConfig``: the runtime's knobs in one validated value
(DESIGN §5.11), and the valid configuration space the differential
suites draw from (``tests/configspace.py``)."""

import inspect
import threading
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.dsl import (
    call, previously, returnfrom, tesla_global, tesla_within,
)
from repro.core.events import call_event, return_event
from repro.instrument.hooks import instrumentable
from repro.runtime.clock import FakeClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.drain import DRAINER_THREAD_NAME
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.session import monitoring

from ...configspace import build, cases

#: The runtime's knobs, in their positional order.
KNOBS = (
    "lazy", "capacity", "policy", "compile", "failure_policy", "deferred",
    "ring_capacity", "drain_interval", "lint", "prove", "journal",
    "overhead_budget", "clock", "stamp_capture",
)


@instrumentable("cfg_fwd_bound")
def cfg_fwd_bound():
    return cfg_fwd_f()


@instrumentable("cfg_fwd_f")
def cfg_fwd_f():
    return 0


def _drainers():
    return [
        t for t in threading.enumerate()
        if t.name == DRAINER_THREAD_NAME and t.is_alive()
    ]


class TestRuntimeConfig:
    def test_the_fourteen_knobs(self):
        assert tuple(f.name for f in fields(RuntimeConfig)) == KNOBS

    def test_runtime_takes_only_keywords(self):
        (knobs,) = [
            p for p in inspect.signature(TeslaRuntime).parameters.values()
        ]
        assert knobs.kind is inspect.Parameter.VAR_KEYWORD

    def test_runtime_builds_one_config_from_its_keywords(self):
        clock = FakeClock()
        runtime = TeslaRuntime(lazy=False, capacity=7, clock=clock)
        assert runtime.config == RuntimeConfig(
            lazy=False, capacity=7, clock=clock
        )
        assert runtime.lazy is False
        assert runtime.clock is clock
        runtime.install_assertion(tesla_global(
            call("cfg_bound"), returnfrom("cfg_bound"),
            previously(call("f")), name="cfg-cap",
        ))
        (cr,) = runtime.all_class_runtimes("cfg-cap")
        assert cr.pool.capacity == 7

    def test_defaults(self):
        runtime = TeslaRuntime()
        assert runtime.config == RuntimeConfig()
        assert runtime.lazy and runtime.compiled
        assert runtime.drain is None
        assert runtime.journal is None and runtime.governor is None
        assert runtime.stamp_capture is True

    def test_from_config_is_the_keyword_constructor(self):
        config = RuntimeConfig(compile=False, deferred="manual")
        runtime = TeslaRuntime.from_config(config)
        assert runtime.config is config
        assert not runtime.compiled
        assert runtime.drain is not None

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            RuntimeConfig().lazy = False

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="capacity"):
            replace(RuntimeConfig(), capacity=0)

    def test_monitoring_forwards_knobs(self):
        with monitoring(
            [tesla_within(
                "cfg_fwd_bound", previously(call("cfg_fwd_f")), name="cfg-fwd"
            )],
            policy=LogAndContinue(), lazy=False, capacity=None,
        ) as runtime:
            assert cfg_fwd_bound() == 0
        assert runtime.config.lazy is False
        # A knob passed as None keeps its default.
        assert runtime.config.capacity == RuntimeConfig().capacity
        assert isinstance(runtime.config.policy, LogAndContinue)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_every_drawn_config_runs_and_stops_cleanly(case):
    """Any valid config constructs, installs, dispatches and comes apart
    through ``reset()`` and ``drain.stop()`` with no drainer left."""
    _, config, _ = case
    runtime = build(config, policy=LogAndContinue())
    runtime.install_assertions(
        [tesla_within("cfg_bound", previously(call("cfg_f")), name="cfg")]
    )
    for event in (
        call_event("cfg_bound", ()),
        call_event("cfg_f", ()),
        return_event("cfg_bound", (), 0),
    ):
        runtime.handle_event(event)
    runtime.flush_deferred()
    runtime.reset()
    if runtime.drain is not None:
        runtime.drain.stop()
    assert not _drainers()
    runtime.close_journal()
