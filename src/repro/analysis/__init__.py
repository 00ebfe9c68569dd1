"""Static analysis: tesla-lint and tesla-prove over one program model.

tesla-lint (:mod:`repro.analysis.lint` and friends) proves assertions
sane *before* instrumentation, reporting stable ``TESLA0xx`` diagnostics
(DESIGN §5.5).  tesla-prove (:mod:`repro.analysis.prove`, DESIGN §5.10)
is the paper's section-7 static analysis: it model-checks each assertion
against the product of its scope-bounded program CFG and translated
automaton, discharging assertions entirely (PROVED — ``repro elide``
reports them as needing no instrumentation), refuting them with a
concrete counterexample path (VIOLATED, ``TESLA014``: a failure reported
at "compile time"), or leaving them to runtime monitoring (UNKNOWN,
``TESLA015``).

Both read the same :class:`~repro.analysis.cfg.ProgramCFG`: lint's
symbol resolution and call-graph pass (TESLA007, TESLA010) and prove's
product exploration.
"""

from .cfg import FunctionCFG, ProgramCFG
from .diagnostics import (
    CODES,
    SCHEMA_VERSION,
    Diagnostic,
    LintReport,
    Severity,
    diagnostic,
)
from .lint import (
    available_suites,
    lint_assertions,
    lint_automata,
    lint_corpus,
    lint_suite,
    load_suite,
    prove_corpus,
    prove_suite,
)
from .machine import MACHINE_PASSES, lint_automaton
from .prove import (
    PROVED,
    UNKNOWN,
    VIOLATED,
    ProveReport,
    ProveResult,
    automaton_safety,
    prove_assertion,
    prove_assertions,
)
from .program import ProgramModel, fixed_arity, lint_program, signature_arity

__all__ = [
    "CODES",
    "SCHEMA_VERSION",
    "Diagnostic",
    "FunctionCFG",
    "LintReport",
    "MACHINE_PASSES",
    "PROVED",
    "ProgramCFG",
    "ProgramModel",
    "ProveReport",
    "ProveResult",
    "Severity",
    "UNKNOWN",
    "VIOLATED",
    "automaton_safety",
    "available_suites",
    "diagnostic",
    "fixed_arity",
    "lint_assertions",
    "lint_automata",
    "lint_automaton",
    "lint_corpus",
    "lint_program",
    "lint_suite",
    "load_suite",
    "prove_assertion",
    "prove_assertions",
    "prove_corpus",
    "prove_suite",
    "signature_arity",
]
