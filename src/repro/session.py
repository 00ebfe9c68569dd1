"""One-call monitoring sessions.

Most users want exactly one thing: "check these assertions while this code
runs".  :func:`monitoring` composes a :class:`~repro.runtime.manager.TeslaRuntime`
and an :class:`~repro.instrument.module.Instrumenter` into a context
manager::

    with monitoring([assertion]) as runtime:
        run_the_workload()
    print(runtime.class_runtime(assertion.name).accepts)

The instrumentation is fully removed on exit, even when the block raises
(including on a fail-stop :class:`~repro.errors.TemporalAssertionError`).
"""

from __future__ import annotations

import contextlib
import types
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core.ast import TemporalAssertion
from .core.manifest import ProgramManifest
from .instrument.module import Instrumenter
from .runtime.manager import TeslaRuntime
from .runtime.notify import ErrorPolicy


@contextlib.contextmanager
def monitoring(
    assertions: Union[ProgramManifest, Sequence[TemporalAssertion]],
    policy: Optional[ErrorPolicy] = None,
    caller_modules: Sequence[types.ModuleType] = (),
    objc_selectors: Iterable[str] = (),
    **knobs,
) -> Iterator[TeslaRuntime]:
    """Instrument ``assertions`` for the duration of the ``with`` block.

    ``policy`` selects fail-stop (default) or log-and-continue;
    ``caller_modules`` enables caller-side weaving for uninstrumentable
    callees; ``objc_selectors`` routes those names through the
    interposition table.  Every other keyword is a runtime knob
    (:class:`~repro.runtime.config.RuntimeConfig`); ``None`` keeps the
    knob's default.

    A clean exit flushes pending events, so deferred verdicts (a fail-stop
    :class:`~repro.errors.TemporalAssertionError` included) arrive by the
    block's exit, and footer-closes a ``journal``.  If the block raised,
    pending events are discarded so no verdict masks the error.
    """
    runtime = TeslaRuntime(
        policy=policy,
        **{knob: value for knob, value in knobs.items() if value is not None},
    )
    session = Instrumenter(
        runtime,
        caller_modules=caller_modules,
        objc_selectors=objc_selectors,
    )
    session.instrument(assertions)
    try:
        yield runtime
    except BaseException:
        # The block body (or a flush inside it) raised: drop pending
        # captures so teardown evaluation cannot mask the original error,
        # then stop the drainer before uninstrumenting.
        if runtime.drain is not None:
            runtime.drain.stop()
            runtime.discard_deferred()
        runtime.close_journal()
        raise
    else:
        # Clean exit is a synchronization point: evaluate everything the
        # block captured.  A deferred fail-stop violation (or an error
        # parked by the background drainer) surfaces here, exactly at the
        # block boundary.
        if runtime.drain is not None:
            try:
                runtime.flush_deferred()
            finally:
                runtime.drain.stop()
                runtime.close_journal()
    finally:
        session.uninstrument()
