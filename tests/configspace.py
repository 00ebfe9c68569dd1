"""The valid runtime configurations the differential suites draw from.

A *case* is ``(name, config, feed)``: a
:class:`~repro.runtime.config.RuntimeConfig` and how the harness feeds a
trace to it — ``"event"`` (``handle_event`` per event) or ``"batch"``
(``dispatch_batch`` in odd-sized chunks, synchronous configs only).

* :func:`cases` draws valid cases.  Every knob varies over values that
  construct (``journal`` only with ``deferred``, ``stamp_capture=False``
  only with a clock), so combinations no hand-written table listed —
  governed + timed, governed + batched, eager + deferred,
  ``prove="prune"`` + batched — come up on their own.
* :data:`PINNED` names the rows the suites pinned before the space was
  generated.  :func:`pinned` selects the rows a harness can run, and each
  suite runs them on every example next to its drawn cases.
* :func:`build` makes a case's runtime (and :func:`fresh` its config)
  with a fresh fake clock and journal buffer, so one config builds any
  number of independent runtimes.

A suite narrows the space in two ways: ``where`` keeps the configs its
harness can judge, and knob keywords fix a knob (a plain value) or
narrow its values (a strategy).
"""

from __future__ import annotations

import io
from dataclasses import fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.runtime.clock import FakeClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.manager import TeslaRuntime
from repro.runtime.prealloc import DEFAULT_CAPACITY
from repro.runtime.ringbuf import DEFAULT_RING_CAPACITY
from repro.runtime.supervisor import FailOpen, QuarantinePolicy

Case = Tuple[str, RuntimeConfig, str]
FEEDS = ("event", "batch")

#: Stands for "journal on": :func:`build` gives each runtime its own
#: buffer, read back through ``runtime.config.journal``.
JOURNAL = io.BytesIO()

#: The reference every suite diffs against: the paper's eager runtime on
#: the interpreter.
NAIVE = RuntimeConfig(lazy=False, compile=False)

PINNED: Dict[str, Tuple[RuntimeConfig, str]] = {
    "naive": (NAIVE, "event"),
    "lazy": (RuntimeConfig(compile=False), "event"),
    "batched": (RuntimeConfig(compile=False), "batch"),
    "compiled": (RuntimeConfig(), "event"),
    "compiled-naive": (RuntimeConfig(lazy=False), "event"),
    "compiled-batched": (RuntimeConfig(), "batch"),
    # Governed, with a clock that never advances: no window ever closes,
    # so nothing escalates, but the generated key functions carry their
    # governor-charging code on every event.
    "compiled-governed": (
        RuntimeConfig(overhead_budget=0.5, clock=FakeClock()), "event"
    ),
    # Governed on the real clock: the ladder may act, so only harnesses
    # that judge the application rather than verdicts run it.
    "governed": (RuntimeConfig(overhead_budget=0.9), "event"),
    "deferred": (RuntimeConfig(compile=False, deferred="manual"), "event"),
    "deferred-compiled": (RuntimeConfig(deferred="manual"), "event"),
    "deferred-bg": (RuntimeConfig(deferred=True), "event"),
}


def steady(config: RuntimeConfig) -> bool:
    """Whether verdicts are a function of the trace alone: a governor on
    the real clock may sample or shed a class, so it is judged by the
    chaos harness, not diffed against the reference."""
    return config.overhead_budget is None or isinstance(
        config.clock, FakeClock
    )


#: The values each knob is drawn from, its default first, so a shrunk
#: config reads as the defaults.  ``policy`` is the harness's to set.
VALUES = {
    "lazy": (True, False),
    "capacity": (DEFAULT_CAPACITY, 1, 3),
    "compile": (True, False),
    "failure_policy": (None, FailOpen(), QuarantinePolicy()),
    "deferred": (False, "manual", True),
    "ring_capacity": (DEFAULT_RING_CAPACITY, 1, 3),
    "drain_interval": (0.002, 5e-4),
    "lint": ("warn", "off", "error"),
    "prove": ("off", "report", "prune"),
    "journal": (None, JOURNAL),
    "overhead_budget": (None, 0.5, 1.0),
    "clock": (None, FakeClock()),
    "stamp_capture": (True, False),
}
_SPACE = 1
for _values in VALUES.values():
    _SPACE *= len(_values)


@st.composite
def _configs(draw, knobs):
    # One integer picks every free knob (one draw is far cheaper than
    # thirteen); a knob keyword fixes a value or draws from a strategy.
    index = draw(st.integers(0, _SPACE - 1))
    picked = {}
    for name, values in VALUES.items():
        index, digit = divmod(index, len(values))
        given = knobs.get(name, values[digit])
        if isinstance(given, st.SearchStrategy):
            given = draw(given)
        picked[name] = given
    # Knobs that only construct together.
    if not picked["deferred"] and "journal" not in knobs:
        picked["journal"] = None
    if picked["clock"] is None and "stamp_capture" not in knobs:
        picked["stamp_capture"] = True
    return RuntimeConfig(**picked)


def cases(
    where: Optional[Callable[[RuntimeConfig], bool]] = None,
    feeds: Sequence[str] = FEEDS,
    **knobs,
):
    """Drawn ``("drawn", config, feed)`` cases over valid configs."""
    configs = _configs(knobs)
    if where is not None:
        configs = configs.filter(where)
    return _cases(configs, tuple(feeds))


@st.composite
def _cases(draw, configs, feeds):
    config = draw(configs)
    usable = [f for f in feeds if f == "event" or not config.deferred]
    return "drawn", config, draw(st.sampled_from(usable))


def pinned(
    where: Optional[Callable[[RuntimeConfig], bool]] = None,
    feeds: Sequence[str] = FEEDS,
    **knobs,
) -> List[Case]:
    """The pinned rows a harness can run, with ``knobs`` fixed."""
    rows: List[Case] = []
    seen = []
    for name, (config, feed) in PINNED.items():
        if feed not in feeds or (feed == "batch" and knobs.get("deferred")):
            continue
        config = replace(config, **knobs)
        if (where is None or where(config)) and (config, feed) not in seen:
            seen.append((config, feed))
            rows.append((name, config, feed))
    return rows


def fresh(config: RuntimeConfig, **overrides) -> RuntimeConfig:
    """``config`` with its own fake clock and journal buffer, and
    ``overrides`` applied."""
    own = {}
    if isinstance(config.clock, FakeClock):
        own["clock"] = FakeClock()
    if config.journal is not None:
        own["journal"] = io.BytesIO()
    own.update(overrides)
    return replace(config, **own)


def build(config: RuntimeConfig, **overrides) -> TeslaRuntime:
    """``config``'s runtime, with its own fake clock and journal buffer."""
    return TeslaRuntime.from_config(fresh(config, **overrides))


def knobs(config: RuntimeConfig) -> Dict[str, object]:
    """``config`` as keyword arguments, for ``monitoring()``."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def drive(runtime: TeslaRuntime, how: str, events) -> None:
    """Feed ``events`` per event or in odd-sized batches (so batch edges
    fall mid-bound, mid-clone, everywhere), then flush."""
    if how == "batch":
        for start in range(0, len(events), 7):
            runtime.dispatch_batch(events[start : start + 7])
    else:
        for event in events:
            runtime.handle_event(event)
    runtime.flush_deferred()


def stop(runtime: TeslaRuntime) -> None:
    """Stop a deferred runtime's drainer thread, if it started one."""
    if runtime.drain is not None:
        runtime.drain.stop()


def agree(rows, run, reference: RuntimeConfig = NAIVE):
    """Diff ``run(config, feed)`` for each row against ``run`` of the
    ``reference`` at the row's pool capacity, fed per event (a row that
    *is* the reference serves as it); returns the observations by row
    name."""
    observed = {}
    expected = {}
    for name, config, how in rows:
        got = run(config, how)
        own = replace(reference, capacity=config.capacity)
        if config.capacity not in expected:
            expected[config.capacity] = (
                got if (config, how) == (own, "event") else run(own, "event")
            )
        assert got == expected[config.capacity], (
            f"{name} {config} ({how}) diverged from the reference: "
            f"{got} != {expected[config.capacity]}"
        )
        observed[name] = got
    return observed
