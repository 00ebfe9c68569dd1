"""tesla-lint: the multi-pass static assertion verifier (DESIGN §5.5).

The driver ties the layers together.  For each assertion in a batch it

1. checks batch-level invariants (TESLA011 duplicate names),
2. translates it, converting analyser rejections into TESLA012 findings
   instead of exceptions,
3. runs the automaton-layer passes (:mod:`repro.analysis.machine`), and
4. when a :class:`~repro.analysis.program.ProgramModel` is supplied, runs
   the program cross-checks (:mod:`repro.analysis.program`) and collects
   the ``arity_safe`` facts the runtime handoff consumes.

The module also knows how to assemble the in-repo assertion corpus — the
``examples``/``kernel``/``sslx``/``gui`` suites the CLI, CI job and
benchmarks lint — including each suite's program model (which modules to
import, which selectors are dynamically dispatched).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ast import TemporalAssertion
from ..core.automaton import Automaton
from ..core.translate import translate
from ..errors import AssertionParseError
from .cfg import ProgramCFG
from .diagnostics import LintReport, diagnostic
from .machine import lint_automaton
from .program import ProgramModel, lint_program
from .prove import ProveReport, prove_assertions


def lint_assertions(
    assertions: Sequence[TemporalAssertion],
    program: Optional[ProgramModel] = None,
    automata: Optional[Sequence[Automaton]] = None,
) -> LintReport:
    """Lint a batch of assertions; never raises on a malformed assertion.

    With ``program=None`` only the batch and automaton layers run — the
    configuration the runtime's install-time gate uses, since the runtime
    cannot know which caller modules or selectors an instrumenter will
    later supply.  ``automata`` is the batch's translation, when the
    caller already has it (the gate does); otherwise each assertion is
    translated here.
    """
    start = time.perf_counter()
    report = LintReport()
    seen: Dict[str, int] = {}
    for i, assertion in enumerate(assertions):
        report.assertions_checked += 1
        count = seen.get(assertion.name, 0)
        seen[assertion.name] = count + 1
        if count:
            report.add(
                [
                    diagnostic(
                        "TESLA011",
                        assertion.name,
                        "assertion name declared more than once: automaton "
                        "classes and dispatch are keyed by name, so the "
                        "declarations would share one automaton",
                        location=assertion.location,
                        detail=assertion.describe(),
                    )
                ]
            )
            continue
        try:
            automaton = translate(assertion) if automata is None else automata[i]
        except AssertionParseError as error:
            report.add(
                [
                    diagnostic(
                        "TESLA012",
                        assertion.name,
                        f"analyser rejected the assertion: {error.plain_message}",
                        location=assertion.location,
                        detail=assertion.describe(),
                    )
                ]
            )
            continue
        report.add(lint_automaton(automaton, assertion))
        if program is not None:
            findings, safe = lint_program(assertion, program)
            report.add(findings)
            report.arity_safe = report.arity_safe | safe
    report.elapsed_seconds = time.perf_counter() - start
    return report


def lint_automata(automata: Sequence[Automaton]) -> LintReport:
    """Lint pre-translated automata (machine layer only): the path for
    hand-built or manifest-loaded automata with no assertion AST."""
    start = time.perf_counter()
    report = LintReport()
    for automaton in automata:
        report.assertions_checked += 1
        report.add(lint_automaton(automaton))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# the in-repo corpus
# ---------------------------------------------------------------------------

#: Module name under which ``examples/quickstart.py`` is imported (cached
#: in ``sys.modules`` — its hook points register once per process).
_QUICKSTART_MODULE = "repro_lint_examples_quickstart"


def _load_quickstart():
    """Import ``examples/quickstart.py`` by path, once per process."""
    cached = sys.modules.get(_QUICKSTART_MODULE)
    if cached is not None:
        return cached
    path = Path(__file__).resolve().parents[3] / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location(_QUICKSTART_MODULE, path)
    if spec is None or spec.loader is None:  # pragma: no cover - bad checkout
        raise FileNotFoundError(f"cannot load quickstart example from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_QUICKSTART_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:  # pragma: no cover - keep sys.modules consistent
        sys.modules.pop(_QUICKSTART_MODULE, None)
        raise
    return module


#: The kernel implementation modules the kernel suite's program model
#: covers (``repro elide`` proves over the same graph).
_KERNEL_MODULES = (
    "repro.kernel.mac.checks",
    "repro.kernel.net.select",
    "repro.kernel.net.socket",
    "repro.kernel.process",
    "repro.kernel.procfs",
    "repro.kernel.syscalls",
    "repro.kernel.types",
    "repro.kernel.vfs.ufs",
    "repro.kernel.vfs.vfs_ops",
    "repro.kernel.vfs.vnode",
)


def _kernel_model() -> ProgramModel:
    modules = [importlib.import_module(name) for name in _KERNEL_MODULES]
    return ProgramModel.from_registries(cfg=ProgramCFG.from_modules(modules))


def _suite_examples() -> Tuple[List[TemporalAssertion], ProgramModel]:
    module = _load_quickstart()
    assertions = [
        value
        for value in vars(module).values()
        if isinstance(value, TemporalAssertion)
    ]
    model = ProgramModel.from_registries(
        cfg=ProgramCFG.from_modules([module])
    )
    return assertions, model


def _suite_kernel() -> Tuple[List[TemporalAssertion], ProgramModel]:
    from ..kernel.assertions import assertion_sets

    return list(assertion_sets()["All"]), _kernel_model()


def _suite_sslx() -> Tuple[List[TemporalAssertion], ProgramModel]:
    from ..sslx import crypto, fetch, libssl

    model = ProgramModel.from_registries(
        cfg=ProgramCFG.from_modules([fetch, libssl, crypto])
    )
    return [fetch.fetch_assertion()], model


def _suite_gui() -> Tuple[List[TemporalAssertion], ProgramModel]:
    from ..gui.teslag_ops import all_selectors, tracing_assertion

    model = ProgramModel.from_registries(selectors=all_selectors())
    return [tracing_assertion()], model


def _suite_slo() -> Tuple[List[TemporalAssertion], ProgramModel]:
    """The timed SLO assertions over the VFS workload — a suite of their
    own so the pinned 99-assertion corpus counts stay untouched."""
    from ..kernel.slo import slo_assertions

    return list(slo_assertions()), _kernel_model()


_SUITES = {
    "examples": _suite_examples,
    "kernel": _suite_kernel,
    "sslx": _suite_sslx,
    "gui": _suite_gui,
    "slo": _suite_slo,
}


def available_suites() -> Tuple[str, ...]:
    """The lintable corpus suite names, in canonical order."""
    return tuple(_SUITES)


def load_suite(name: str) -> Tuple[List[TemporalAssertion], ProgramModel]:
    """One corpus suite's assertions and its program model."""
    try:
        loader = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; known: {', '.join(_SUITES)}"
        ) from None
    return loader()


def lint_suite(name: str) -> LintReport:
    """Lint one corpus suite with its full program model."""
    assertions, model = load_suite(name)
    return lint_assertions(assertions, program=model)


def lint_corpus(names: Optional[Sequence[str]] = None) -> LintReport:
    """Lint several suites (default: all) into one merged report."""
    report = LintReport()
    for name in names if names is not None else available_suites():
        report.extend(lint_suite(name))
    return report


# ---------------------------------------------------------------------------
# the prove drivers (tesla-prove over the same corpus)
# ---------------------------------------------------------------------------


def prove_suite(name: str) -> ProveReport:
    """Prove one corpus suite against its control-flow model (``None``
    for suites with only dynamic selectors, such as gui: the automaton
    basis still applies)."""
    assertions, model = load_suite(name)
    return prove_assertions(assertions, cfg=model.cfg)


def prove_corpus(names: Optional[Sequence[str]] = None) -> ProveReport:
    """Prove several suites (default: all) into one merged report."""
    report = ProveReport()
    for name in names if names is not None else available_suites():
        report.extend(prove_suite(name))
    return report
