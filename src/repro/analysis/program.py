"""Program-layer lint passes: assertions cross-checked against real code.

The machine layer (:mod:`repro.analysis.machine`) proves an automaton
sane in isolation; this layer proves it sane *for this program*, via
Python's ``ast``/``inspect`` instead of the paper's Clang AST walk:

* TESLA007 — every referenced function resolves to an instrumentable
  symbol: a registered hook point, an interposition selector, or a
  function defined in the modelled sources (caller-side weaving).
* TESLA008 — argument patterns are arity- and type-compatible with the
  resolved function's real signature: a pattern arity no call can produce
  means the event can never match, and a constant pattern whose type
  contradicts a concrete annotation means the same.
* TESLA009 — field-assignment events name a registered
  :class:`~repro.instrument.fields.TeslaStruct` and an attribute that
  struct's code actually assigns.
* TESLA010 — an event whose callee the modelled call graph proves
  uncalled can never fire (warning; suppressed whenever the model
  contains opaque calls, since indirection could hide the caller —
  the same soundness posture as tesla-prove over the same
  :class:`~repro.analysis.cfg.ProgramCFG`).

The layer also produces the report's ``arity_safe`` set: ``(function,
arity)`` pairs where the hooked signature *fixes* the event arity (no
defaults, no ``*args``/``**kwargs``), which is the proof the event
translator needs to elide its dynamic ``len(event.args)`` checks.
"""

from __future__ import annotations

import inspect
import textwrap
import ast as pyast
import sys
from dataclasses import dataclass, field
from typing import (
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.ast import (
    FieldAssign,
    FunctionCall,
    FunctionReturn,
    TemporalAssertion,
    referenced_fields,
    walk,
)
from ..core.patterns import Const
from .cfg import ProgramCFG
from .diagnostics import Diagnostic, diagnostic

#: Field-helper functions whose second argument names the assigned field
#: (:mod:`repro.instrument.fields`): ``field_inc(obj, "p_flag")`` etc.
_FIELD_HELPERS = frozenset(
    {"field_inc", "field_dec", "field_add", "field_or", "field_and"}
)


def signature_arity(fn: Callable) -> Optional[Tuple[int, int, bool]]:
    """``(min_arity, max_arity, variadic)`` of a hooked function.

    Hook wrappers flatten every bound argument — positional and keyword —
    into ``event.args`` (see :mod:`repro.instrument.hooks`), so the event
    arity of any successful call lies between the count of
    default-less parameters and the count of all named parameters;
    ``variadic`` lifts the upper bound.  Returns ``None`` when the
    signature cannot be introspected (builtins, C callables).
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    minimum = 0
    maximum = 0
    variadic = False
    for param in sig.parameters.values():
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            variadic = True
            continue
        maximum += 1
        if param.default is inspect.Parameter.empty:
            minimum += 1
    return (minimum, maximum, variadic)


def fixed_arity(fn: Callable) -> Optional[int]:
    """The single event arity every call of ``fn`` must produce, or
    ``None`` when the arity can vary (defaults/variadics) or is unknown."""
    arity = signature_arity(fn)
    if arity is None:
        return None
    minimum, maximum, variadic = arity
    if variadic or minimum != maximum:
        return None
    return minimum


@dataclass
class ProgramModel:
    """Everything the program layer can resolve symbols against.

    Built from the process-wide instrumentation registries by default;
    suites with dynamic dispatch add their ``selectors``, and suites with
    modelled sources add their :class:`~repro.analysis.cfg.ProgramCFG`
    for the call-graph pass (tesla-prove reads the same graph).
    """

    #: name -> callable for registered hook points.
    hooks: dict = field(default_factory=dict)
    #: registered struct name -> class.
    structs: dict = field(default_factory=dict)
    #: dynamically dispatched selector names (interposition targets).
    selectors: FrozenSet[str] = frozenset()
    #: control-flow model of the program's sources, when available.
    cfg: Optional[ProgramCFG] = None

    @classmethod
    def from_registries(
        cls,
        selectors: Sequence[str] = (),
        cfg: Optional[ProgramCFG] = None,
    ) -> "ProgramModel":
        """Snapshot the global hook/field registries into a model."""
        from ..instrument.fields import field_registry
        from ..instrument.hooks import hook_registry

        hooks = {
            name: point.function
            for name in hook_registry.names()
            for point in (hook_registry.get(name),)
            if point is not None
        }
        structs = {
            name: field_registry.require(name)
            for name in field_registry.names()
        }
        return cls(
            hooks=hooks,
            structs=structs,
            selectors=frozenset(selectors),
            cfg=cfg,
        )

    def resolves(self, name: str) -> bool:
        """Whether ``name`` is instrumentable by *some* mechanism."""
        if name in self.hooks or name in self.selectors:
            return True
        return self.cfg is not None and self.cfg.defines(name)

    def has_opaque_calls(self) -> bool:
        """Whether the modelled sources contain unresolvable calls
        (function pointers, method tables) that could hide callers."""
        if self.cfg is None:
            return True
        return any(fn.opaque for fn in self.cfg.functions.values())


def _function_events(assertion: TemporalAssertion):
    """Every function event in the assertion, bound events included."""
    for root in (
        assertion.bound.entry,
        assertion.bound.exit,
        assertion.expression,
    ):
        for node in walk(root):
            if isinstance(node, (FunctionCall, FunctionReturn)):
                yield node


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def check_functions_resolve(
    assertion: TemporalAssertion, model: ProgramModel
) -> List[Diagnostic]:
    """TESLA007: every referenced function must be instrumentable."""
    out: List[Diagnostic] = []
    seen: Set[str] = set()
    for node in _function_events(assertion):
        name = node.function
        if name in seen or model.resolves(name):
            continue
        seen.add(name)
        out.append(
            diagnostic(
                "TESLA007",
                assertion.name,
                f"function {name!r} resolves to no instrumentable symbol "
                "(not a hook point, selector, or modelled definition)",
                location=assertion.location,
            )
        )
    return out


def check_signatures(
    assertion: TemporalAssertion, model: ProgramModel
) -> Tuple[List[Diagnostic], FrozenSet[Tuple[str, int]]]:
    """TESLA008 plus the ``arity_safe`` facts for the runtime handoff."""
    out: List[Diagnostic] = []
    safe: Set[Tuple[str, int]] = set()
    for node in _function_events(assertion):
        if node.args is None:
            continue
        fn = model.hooks.get(node.function)
        if fn is None:
            continue
        arity = signature_arity(fn)
        if arity is None:
            continue
        minimum, maximum, variadic = arity
        n = len(node.args)
        if n < minimum or (not variadic and n > maximum):
            bounds = (
                f"{minimum}" if minimum == maximum else f"{minimum}..{maximum}"
            )
            bounds += "+" if variadic else ""
            out.append(
                diagnostic(
                    "TESLA008",
                    assertion.name,
                    f"pattern for {node.function!r} has {n} argument(s) but "
                    f"calls bind {bounds}: the event can never match",
                    location=assertion.location,
                    detail=node.describe(),
                )
            )
            continue
        if not variadic and minimum == maximum == n:
            safe.add((node.function, n))
            out.extend(_check_types(assertion, node, fn))
    return out, frozenset(safe)


def _check_types(
    assertion: TemporalAssertion, node, fn: Callable
) -> List[Diagnostic]:
    """Constant patterns vs concrete annotations (fixed-arity case only,
    where pattern position maps one-to-one onto parameters)."""
    out: List[Diagnostic] = []
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return out
    for pattern, param in zip(node.args, params):
        annotation = param.annotation
        if not isinstance(annotation, type) or annotation is object:
            continue
        if not isinstance(pattern, Const) or pattern.value is None:
            continue
        value = pattern.value
        if isinstance(value, annotation):
            continue
        if isinstance(value, int) and annotation in (float, complex):
            continue  # numeric widening is fine at runtime
        out.append(
            diagnostic(
                "TESLA008",
                assertion.name,
                f"constant pattern {value!r} for parameter "
                f"{param.name!r} of {node.function!r} is a "
                f"{type(value).__name__}, but the parameter is annotated "
                f"{annotation.__name__}: the event can never match",
                location=assertion.location,
                detail=node.describe(),
            )
        )
    return out


def _assigned_attributes(cls: type) -> Optional[Set[str]]:
    """Attribute names ``cls``'s code provably assigns, or ``None`` when
    the sources cannot be inspected (assume anything may be assigned).

    Scans the class body for ``self.x = …`` stores and class-level
    attributes, and the defining module for compound-assignment helper
    calls (``field_or(proc, "p_flag", …)``) and attribute stores — the
    shapes :mod:`repro.instrument.fields` can actually observe.
    """
    sources: List[str] = []
    try:
        sources.append(textwrap.dedent(inspect.getsource(cls)))
    except (OSError, TypeError):
        return None
    module = sys.modules.get(cls.__module__)
    if module is not None:
        try:
            sources.append(inspect.getsource(module))
        except (OSError, TypeError):
            pass
    assigned: Set[str] = set()
    for source in sources:
        try:
            tree = pyast.parse(source)
        except SyntaxError:
            return None
        for node in pyast.walk(tree):
            if isinstance(node, (pyast.Assign, pyast.AugAssign, pyast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, pyast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, pyast.Attribute):
                        assigned.add(target.attr)
                    elif isinstance(target, pyast.Name):
                        assigned.add(target.id)
            elif isinstance(node, pyast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in _FIELD_HELPERS and len(node.args) >= 2:
                    arg = node.args[1]
                    if isinstance(arg, pyast.Constant) and isinstance(
                        arg.value, str
                    ):
                        assigned.add(arg.value)
    return assigned


def check_fields(
    assertion: TemporalAssertion, model: ProgramModel
) -> List[Diagnostic]:
    """TESLA009: field events must name a registered struct and an
    attribute that struct's code assigns."""
    out: List[Diagnostic] = []
    for struct, field_name in referenced_fields(assertion):
        cls = model.structs.get(struct)
        if cls is None:
            out.append(
                diagnostic(
                    "TESLA009",
                    assertion.name,
                    f"no instrumentable struct named {struct!r} is "
                    "registered",
                    location=assertion.location,
                )
            )
            continue
        assigned = _assigned_attributes(cls)
        if assigned is not None and field_name not in assigned:
            out.append(
                diagnostic(
                    "TESLA009",
                    assertion.name,
                    f"struct {struct!r} never assigns field "
                    f"{field_name!r}: the event can never fire",
                    location=assertion.location,
                )
            )
    return out


def check_callgraph(
    assertion: TemporalAssertion, model: ProgramModel
) -> List[Diagnostic]:
    """TESLA010: body events whose callee the call graph proves uncalled.

    Only claims never-fires when the model is airtight: the callee is
    defined in the modelled sources, nothing calls it, and no opaque call
    anywhere could be hiding the caller.
    """
    if model.cfg is None or model.has_opaque_calls():
        return []
    bound_functions = {
        node.function
        for root in (assertion.bound.entry, assertion.bound.exit)
        for node in walk(root)
        if isinstance(node, (FunctionCall, FunctionReturn))
    }
    out: List[Diagnostic] = []
    seen: Set[str] = set()
    for node in walk(assertion.expression):
        if not isinstance(node, (FunctionCall, FunctionReturn)):
            continue
        name = node.function
        if name in seen or name in bound_functions:
            continue
        seen.add(name)
        if not model.cfg.defines(name):
            continue
        if model.cfg.callers_of(name):
            continue
        out.append(
            diagnostic(
                "TESLA010",
                assertion.name,
                f"no modelled function calls {name!r}: the event can "
                "never fire on any modelled path",
                location=assertion.location,
            )
        )
    return out


def lint_program(
    assertion: TemporalAssertion, model: ProgramModel
) -> Tuple[List[Diagnostic], FrozenSet[Tuple[str, int]]]:
    """Run every program-layer pass over one assertion."""
    findings: List[Diagnostic] = []
    findings.extend(check_functions_resolve(assertion, model))
    sig_findings, safe = check_signatures(assertion, model)
    findings.extend(sig_findings)
    findings.extend(check_fields(assertion, model))
    findings.extend(check_callgraph(assertion, model))
    return findings, safe
