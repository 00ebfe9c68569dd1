"""TESLA: Temporally Enhanced System Logic Assertions — Python reproduction.

A description, analysis and validation tool for *temporal* safety
properties: assertions about events in the past or future relative to the
assertion site, mechanically translated into finite-state automata, woven
into programs by instrumentation and checked at run time by libtesla.

Reproduces Anderson et al., "TESLA: Temporally Enhanced System Logic
Assertions", EuroSys 2014, including the paper's three case-study
substrates, rebuilt in miniature:

* :mod:`repro.kernel` — a FreeBSD-like kernel with the MAC framework;
* :mod:`repro.sslx` — an OpenSSL-like layered TLS stack (CVE-2008-5077);
* :mod:`repro.gui` — a GNUstep-like GUI stack with dynamic dispatch.

Quickstart::

    from repro import (
        TeslaRuntime, Instrumenter, tesla_within, previously, fn, ANY, var,
        instrumentable, tesla_site,
    )

    @instrumentable()
    def security_check(subject, obj, op):
        return 0

    def do_operation(obj, op):
        tesla_site("checked-before-use", o=obj, op=op)

    @instrumentable()
    def enclosing_fn(obj, op):
        security_check("me", obj, op)
        do_operation(obj, op)

    assertion = tesla_within(
        "enclosing_fn",
        previously(fn("security_check", ANY("ptr"), var("o"), var("op")) == 0),
        name="checked-before-use",
    )
    runtime = TeslaRuntime()
    with Instrumenter(runtime) as session:
        session.instrument([assertion])
        enclosing_fn("obj", 42)   # passes; remove the check and it raises
"""

from .core import (
    ANY,
    AssertionRegistry,
    Automaton,
    Context,
    ProgramManifest,
    Ref,
    TemporalAssertion,
    UnitManifest,
    addr,
    analyse_module,
    analyse_program,
    assertion_site,
    atleast,
    bitmask,
    call,
    caller_side,
    combine,
    compile_assertions,
    either,
    eventually,
    field_assign,
    field_increment,
    flags,
    fn,
    one_of,
    optionally,
    previously,
    returned,
    returnfrom,
    strictly,
    tesla_assert,
    tesla_global,
    tesla_perthread,
    tesla_within,
    translate,
    tsequence,
    var,
)
from .errors import (
    AssertionParseError,
    BoundsOverflowError,
    ContextError,
    InstrumentationError,
    ManifestError,
    TemporalAssertionError,
    TemporalViolation,
    TeslaError,
)
from .instrument import (
    BuildSystem,
    CompileUnit,
    Instrumenter,
    TeslaStruct,
    hook_registry,
    instrumentable,
    instrumentable_struct,
    site_registry,
    tesla_site,
)
# tesla-lint and tesla-prove load with the package: ``repro.analysis`` is
# there after ``import repro``.
from . import analysis  # noqa: F401
from .session import monitoring
from .runtime import (
    CollectingHandler,
    FailStop,
    LogAndContinue,
    NotificationKind,
    ObjectMonitor,
    RuntimeConfig,
    TeslaRuntime,
    instrument_object_assertion,
)

__version__ = "1.0.0"

__all__ = [
    "ANY",
    "AssertionRegistry",
    "Automaton",
    "Context",
    "ProgramManifest",
    "Ref",
    "TemporalAssertion",
    "UnitManifest",
    "addr",
    "analyse_module",
    "analyse_program",
    "assertion_site",
    "atleast",
    "bitmask",
    "call",
    "caller_side",
    "combine",
    "compile_assertions",
    "either",
    "eventually",
    "field_assign",
    "field_increment",
    "flags",
    "fn",
    "one_of",
    "optionally",
    "previously",
    "returned",
    "returnfrom",
    "strictly",
    "tesla_assert",
    "tesla_global",
    "tesla_perthread",
    "tesla_within",
    "translate",
    "tsequence",
    "var",
    "AssertionParseError",
    "BoundsOverflowError",
    "ContextError",
    "InstrumentationError",
    "ManifestError",
    "TemporalAssertionError",
    "TemporalViolation",
    "TeslaError",
    "BuildSystem",
    "CompileUnit",
    "Instrumenter",
    "TeslaStruct",
    "hook_registry",
    "instrumentable",
    "instrumentable_struct",
    "site_registry",
    "tesla_site",
    "CollectingHandler",
    "FailStop",
    "LogAndContinue",
    "NotificationKind",
    "ObjectMonitor",
    "RuntimeConfig",
    "TeslaRuntime",
    "instrument_object_assertion",
    "monitoring",
    "__version__",
]
