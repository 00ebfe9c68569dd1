"""Shared fixtures: global-registry hygiene between tests.

The instrumentation layer keeps process-wide registries (hook points,
assertion sites, field hooks, the interposition table) and the substrates
keep process-wide switches (bug injection, MAC policies, procfs mount
state, the cursor stack).  Every test runs against a clean slate.
"""

from __future__ import annotations

import importlib.util
import threading

import pytest

from repro.gui.cursor import NSCursor
from repro.instrument.fields import field_registry
from repro.instrument.hooks import hook_registry, site_registry
from repro.instrument.interpose import interposition_table
from repro.kernel.bugs import bugs
from repro.kernel.mac.framework import mac_framework
from repro.kernel.procfs import procfs_unmount
from repro.runtime.drain import DRAINER_THREAD_NAME
from repro.runtime.epoch import interest_stats
from repro.runtime.faultinject import disarm
from repro.runtime.manager import (
    TeslaRuntime,
    live_runtimes,
    reset_all_runtimes,
)


def _drainer_threads():
    return [
        t for t in threading.enumerate()
        if t.name == DRAINER_THREAD_NAME and t.is_alive()
    ]


@pytest.fixture(autouse=True)
def clean_global_state():
    # Catch leaks at the *source*: if a previous test escaped its cleanup
    # (e.g. by hard-killing a thread mid-instrumentation), fail the next
    # test here with a clear message instead of somewhere downstream.
    assert interposition_table.hooks is None, (
        "interposition table not empty at test start — a previous test "
        f"leaked hooks for {sorted(interposition_table.hooks)}"
    )
    assert interposition_table.wildcard is None, (
        "interposition table not empty at test start — a previous test "
        "leaked wildcard hooks"
    )
    assert not _drainer_threads(), (
        "a previous test leaked a live tesla-drainer thread — deferred "
        "runtimes must be stopped (monitoring() exit, runtime.reset() or "
        "runtime.drain.stop()) before the test ends"
    )
    for stale in live_runtimes():
        if stale.drain is not None:
            assert stale.drain.queue_depth() == 0, (
                "a previous test leaked captured-but-unevaluated events "
                f"({stale.drain.queue_depth()} pending) in a deferred "
                "runtime's rings"
            )
    yield
    hook_registry.detach_all()
    site_registry.detach_all()
    field_registry.detach_all()
    interposition_table.clear()
    bugs.disable_all()
    mac_framework.unregister_all()
    procfs_unmount()
    NSCursor.reset_stack()
    # Runtime-level global registries: every live TeslaRuntime's stores
    # keep instances and bound-tracker epochs; expunge them all so no
    # automata state crosses tests.
    reset_all_runtimes()
    # A leaked armed fault injector would make every later test chaotic.
    disarm()
    # Interest-cache counters are process-global; zero them so tests that
    # assert on deltas start clean.  (The interest *epoch* is never reset —
    # caches key on its value, not on zero.)
    interest_stats.reset()


@pytest.fixture
def import_source(tmp_path):
    """Write Python source to a file under ``tmp_path`` and import it.

    Its ``@instrumentable`` decorators register hooks as usual (hook
    names are process-wide, so each source needs its own), and
    ``ProgramCFG.from_modules`` reads the same file back.
    """

    def load(name: str, source: str):
        path = tmp_path / f"{name}.py"
        path.write_text(source)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def runtime() -> TeslaRuntime:
    """A fresh lazy-mode runtime with the default fail-stop policy."""
    return TeslaRuntime()


@pytest.fixture
def quiet_runtime() -> TeslaRuntime:
    """A runtime that records violations instead of raising."""
    from repro.runtime.notify import LogAndContinue

    return TeslaRuntime(policy=LogAndContinue())
