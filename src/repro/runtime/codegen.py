"""tesla-jit: compile :class:`TransitionPlan` objects to generated Python.

A :class:`TransitionPlan` hoists everything one automaton does for one
dispatch key out of the event loop (DESIGN §5.2), but walking it would
still *interpret* a chain of closures per event.  Every ``compile=True``
runtime therefore evaluates body events through code this module emits:
specialized Python *source* per (automaton, dispatch-key) plan — matcher
checks, bind extraction and transition application fused into a single
``exec``-compiled function with no per-step closure dispatch:

* a compiled class keeps its instances as rows of a
  :class:`~repro.runtime.prealloc.RowPool` — binding key → interned
  state-set number — and the wildcard as one number beside them;
* event-static work (arity checks, ``Const``/``Flags``/``Bitmask``/
  ``AddressOf`` filters, ``Var`` value extraction) is evaluated once per
  event;
* when the key's one symbol binds every variable of the class, the
  event's values *are* its row's key: the row steps by a memoised
  ``number → outcome`` lookup (:class:`~repro.runtime.rows.Outcomes`),
  and with no such row the wildcard's outcome becomes the new row — no
  scan, no instance object, no clone;
* every other key (several symbols, a partial binding, a pattern the
  generator cannot decompose, a timed class), and an event whose value
  cannot be hashed, runs :func:`~repro.runtime.rows.walk`, the
  interpreter's walk over rows, which applies clock guards through the
  interpreter's ``_filter_guards`` and ``rate_violations`` — one copy
  of the guard semantics.

Every event, synchronous or drained in a batch, is evaluated by the one
per-event ``step(cr, event, hub)``.  One level up, the manager runs each
dispatch key's share of a context through a generated *key function*
(:func:`compile_key_function`): the lazy bound record (begin, join, end)
inlined, and each class's ``step`` called in plan order behind its own
containment boundary.  The bound lifecycle (§4.4.1) is generated too:
an ungoverned lazy key function joins a class to a new bound occurrence
inline, the step materialises the pending wildcard inline (a state
number, counted in the population), and each touched class closes
through its own generated cleanup (:func:`compile_cleanup`), which
reads each row's verdict from its number; transition counts are list
slots bumped by constant index.  ``lazy_join_bound`` and
``handle_cleanup`` stay the reference semantics: the governed join
calls the first, and a detailed hub runs the second (and the step runs
``tesla_update_state``) on instance copies of the rows
(:func:`~repro.runtime.rows.interpret`).

Generation never declines: generated code is the only evaluator behind
``compile=True``.  Steps visit the ``update.step`` fault point and
cleanups ``update.cleanup``, each behind the disarmed ``_fi._active``
test, and a row insertion visits ``prealloc.insert``, so armed fault
injection runs the same code.  A generated step hands over to the
interpreter at call time when the notification hub is in detailed mode,
whose lifecycle notifications the lean generated code deliberately
omits (it emits only the always-on ERROR and OVERFLOW notifications).

Each distinct generated function is ``compile()``d once per process
(:data:`_CODE_CACHE`, :data:`_KEY_CODE_CACHE`); a later runtime
installing the same assertions only regenerates the source and
``exec``s the cached code object into a fresh namespace holding its own
constants.

Lint facts (DESIGN §5.5) feed the generator: under a lint-clean report,
arity guards re-proven by ``arity_safe`` are simply never emitted, and
transitions whose source state can never be occupied (outside the
forward closure of the entry states over EVENT/SITE transitions) are
dropped from the generated code entirely — guard elision extended from
"skip a check" to "the check never exists".

Determinism contract: for one (automaton, key, facts) triple the
generated source is byte-identical across runs and processes — all
runtime values (transitions, pattern constants, variable names) are
injected through the ``exec`` namespace as numbered constants, never
``repr``-ed into the source, and generation never iterates an unordered
collection.  ``tests/property/test_codegen_props.py`` pins this with
Hypothesis and ``tests/fixtures/golden_codegen.txt`` byte-pins one
representative function (bump :data:`CODEGEN_VERSION` on any layout
change, mirroring the journal's ``golden.tjournal`` protocol).
"""

from __future__ import annotations

from types import CodeType
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..core.ast import (
    AssertionSite,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
)
from ..core.automaton import (
    Automaton,
    Transition,
    TransitionKind,
    _match_nothing,
)
from ..core.events import EventKind
from ..core.patterns import (
    EMPTY_BINDING,
    AddressOf,
    Any_,
    Bitmask,
    Const,
    Flags,
    Pattern,
    Ref,
    Var,
    compile_static_check,
)
from ..errors import TemporalAssertionError, TemporalViolation
from . import faultinject as _fi
from .notify import Notification, NotificationKind
from .plans import PlanKey, TransitionPlan, build_transition_plan
from .prealloc import (
    _FP_INSERT,
    TimedRow,
    class_variables,
    state_sets,
    symbol_variables,
)
from .rows import Outcomes, already, expire, interpret, overflow, walk
from .update import (
    _FP_CLEANUP,
    _FP_STEP,
    cleanup_error,
    tesla_update_state,
)

#: Bump on any change to the generated source layout (see the golden
#: fixture's upgrade protocol in
#: ``tests/unit/runtime/test_codegen_golden.py``).
CODEGEN_VERSION = 8


class CodegenFacts:
    """The lint-derived facts the generator may rely on.

    ``clean`` is the gate: elisions are only sound when the installed
    batches linted without errors *or warnings* (the same bar the event
    translator uses for its dynamic-guard elision).  ``arity_safe`` holds
    ``(function-name, arity)`` pairs statically proven against the hook
    registry by TESLA010's analysis.

    ``occupancy`` carries tesla-prove's per-automaton occupiable-state
    sets (DESIGN §5.10): the union of states over every configuration its
    subset-stepping fixpoint explored.  Unlike the lint facts it needs no
    ``clean`` gate — the fixpoint itself is the proof that a state outside
    the set is never occupied, whatever else lint had to say — so a prove
    report *widens* dead-transition elision to batches lint left dirty.
    """

    __slots__ = ("clean", "arity_safe", "occupancy")

    NONE: "CodegenFacts"

    def __init__(
        self,
        clean: bool = False,
        arity_safe: FrozenSet[Tuple[str, int]] = frozenset(),
        occupancy: object = (),
    ) -> None:
        self.clean = clean
        self.arity_safe = frozenset(arity_safe)
        #: automaton name -> frozenset of prove-occupiable states.
        self.occupancy: Dict[str, FrozenSet[int]] = dict(occupancy)

    @classmethod
    def from_report(cls, report, prove=None) -> "CodegenFacts":
        """Facts from a :class:`~repro.analysis.diagnostics.LintReport`
        and optionally a :class:`~repro.analysis.prove.ProveReport`
        (``None``: no report means no facts, never an error)."""
        if report is None and prove is None:
            return cls.NONE
        return cls(
            clean=bool(report.clean) if report is not None else False,
            arity_safe=(
                frozenset(getattr(report, "arity_safe", ()))
                if report is not None
                else frozenset()
            ),
            occupancy=(
                prove.occupiable_states() if prove is not None else ()
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CodegenFacts)
            and self.clean == other.clean
            and self.arity_safe == other.arity_safe
            and self.occupancy == other.occupancy
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.clean,
                self.arity_safe,
                frozenset(self.occupancy.items()),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"<CodegenFacts clean={self.clean} "
            f"arity_safe={len(self.arity_safe)} "
            f"occupancy={len(self.occupancy)}>"
        )


CodegenFacts.NONE = CodegenFacts()


class GeneratedSource:
    """The outcome of source generation for one plan."""

    __slots__ = (
        "source",
        "elided_guards",
        "elided_transitions",
        "namespace",
    )

    def __init__(
        self,
        source: str = "",
        elided_guards: int = 0,
        elided_transitions: int = 0,
        namespace: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.source = source
        self.elided_guards = elided_guards
        self.elided_transitions = elided_transitions
        self.namespace = namespace


class CompiledStep:
    """An ``exec``-compiled plan: the fused per-event function plus the
    generation accounting."""

    __slots__ = (
        "step",
        "source",
        "elided_guards",
        "elided_transitions",
    )

    def __init__(
        self,
        step,
        source: str,
        elided_guards: int,
        elided_transitions: int,
    ) -> None:
        self.step = step
        self.source = source
        self.elided_guards = elided_guards
        self.elided_transitions = elided_transitions


# ---------------------------------------------------------------------------
# Verdict helpers (injected into every generated namespace)
# ---------------------------------------------------------------------------


def _site_error(cr, event, hub) -> None:
    """The assertion-site miss (always-on ERROR notification)."""
    violation = TemporalViolation(
        automaton=cr.automaton.name,
        reason=(
            "no automaton instance could accept the assertion site "
            "(the expected prior events never occurred with these values)"
        ),
        event=event,
        binding=tuple(sorted(event.scope.items())),
        sampling_rate=cr.sample_rate,
    )
    hub.emit(
        Notification(
            kind=NotificationKind.ERROR,
            automaton=cr.automaton.name,
            event=event,
            violation=violation,
        )
    )


def _strict_error(cr, event, hub) -> None:
    violation = TemporalViolation(
        automaton=cr.automaton.name,
        reason="strict automaton observed an event it cannot consume",
        event=event,
        sampling_rate=cr.sample_rate,
    )
    hub.emit(
        Notification(
            kind=NotificationKind.ERROR,
            automaton=cr.automaton.name,
            event=event,
            violation=violation,
        )
    )


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


class _Emitter:
    """Accumulates source lines and the exec namespace side by side, so a
    constant is *named* in the source and *bound* in the namespace in one
    step (values never appear in the text — the determinism contract)."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {}
        self._const_n = 0

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const(self, value: Any, stem: str) -> str:
        name = f"_{stem}{self._const_n}"
        self._const_n += 1
        self.namespace[name] = value
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _decomposable(pattern: Pattern) -> bool:
    """Whether :func:`_pattern_value_checks` can split ``pattern`` into
    event-static tests and variable extraction."""
    if isinstance(pattern, AddressOf):
        return _decomposable(pattern.inner)
    return isinstance(pattern, (Any_, Const, Var, Flags, Bitmask))


def _symbol_decomposable(expr) -> bool:
    """Whether every pattern of a body symbol's event expression is
    :func:`_decomposable` (a site symbol always is)."""
    if isinstance(expr, AssertionSite):
        return True
    if isinstance(expr, (FunctionCall, FunctionReturn)):
        patterns = list(expr.args or ())
        if isinstance(expr, FunctionReturn) and expr.retval is not None:
            patterns.append(expr.retval)
    elif isinstance(expr, FieldAssign):
        patterns = [p for p in (expr.target, expr.value) if p is not None]
    else:
        return False
    return all(_decomposable(p) for p in patterns)


def _pattern_value_checks(
    em: _Emitter,
    pattern: Pattern,
    value_expr: str,
    static: List[str],
    variables: List[Tuple[str, str]],
    extract: List[Tuple[str, str]],
) -> None:
    """Decompose one pattern against one value expression.

    Appends the pattern's *event-static* predicate to ``static``, and for
    ``Var`` patterns records ``(name, local)`` in ``variables`` plus the
    guarded extraction assignment in ``extract``.  ``pattern`` must be
    :func:`_decomposable`.
    """
    if isinstance(pattern, Any_):
        return
    if isinstance(pattern, Const):
        const = em.const(pattern.value, "K")
        static.append(f"{value_expr} == {const}")
        return
    if isinstance(pattern, Var):
        local = f"_x{len(variables)}"
        variables.append((pattern.name, local))
        extract.append((local, value_expr))
        return
    if isinstance(pattern, Flags):
        const = em.const(pattern.flags, "K")
        static.append(
            f"isinstance({value_expr}, int) "
            f"and ({value_expr} & {const}) == {const}"
        )
        return
    if isinstance(pattern, Bitmask):
        const = em.const(~pattern.mask, "K")
        static.append(
            f"isinstance({value_expr}, int) "
            f"and ({value_expr} & {const}) == 0"
        )
        return
    if isinstance(pattern, AddressOf):
        static.append(f"isinstance({value_expr}, _Ref)")
        _pattern_value_checks(
            em, pattern.inner, f"{value_expr}.value", static, variables, extract
        )


def _compile_symbol(
    em: _Emitter,
    symbol,
    facts: CodegenFacts,
) -> Tuple[List[Tuple[int, str]], Optional[str], Dict[str, str], int]:
    """Generate one decomposable symbol's event-static evaluation.

    Returns the prologue lines (at abstract indent 0), the name of the
    local that says whether the event matches (``None``: every event of
    the key matches), the local holding each bound variable's value, and
    the number of arity guards elided.  A site symbol's test is that the
    scope supplies every site variable.
    """
    expr = symbol.expr
    static: List[str] = []
    variables: List[Tuple[str, str]] = []
    extract: List[Tuple[str, str]] = []
    elided_guards = 0

    if isinstance(expr, AssertionSite):
        for k, name in enumerate(symbol.site_variables):
            n_const = em.const(name, "N")
            static.append(f"{n_const} in _scope")
            local = f"_x{k}"
            variables.append((name, local))
            extract.append((local, f"_scope[{n_const}]"))
    elif isinstance(expr, (FunctionCall, FunctionReturn)):
        if expr.args is not None:
            arity = len(expr.args)
            if facts.clean and (expr.function, arity) in facts.arity_safe:
                elided_guards += 1
            else:
                static.append(f"len(_args) == {arity}")
            for k, pattern in enumerate(expr.args):
                _pattern_value_checks(
                    em, pattern, f"_args[{k}]", static, variables, extract
                )
        if isinstance(expr, FunctionReturn) and expr.retval is not None:
            _pattern_value_checks(
                em, expr.retval, "_ret", static, variables, extract
            )
    elif isinstance(expr, FieldAssign):
        if expr.op is not None:
            op_const = em.const(expr.op, "K")
            static.append(f"_op is {op_const}")
        if expr.target is not None:
            _pattern_value_checks(
                em, expr.target, "_target", static, variables, extract
            )
        if expr.value is not None:
            _pattern_value_checks(
                em, expr.value, "_ret", static, variables, extract
            )

    # Deduplicate repeated variables: the first occurrence binds, later
    # occurrences must agree with it (``match_all``'s scratch-consistency
    # rule).
    first_local: Dict[str, str] = {}
    consistency: List[str] = []
    for name, local in variables:
        seen = first_local.get(name)
        if seen is None:
            first_local[name] = local
        else:
            consistency.append(f"({seen} is {local} or {seen} == {local})")

    prologue: List[Tuple[int, str]] = []
    if not static and not extract:
        return prologue, None, first_local, elided_guards
    ok = "_ok"
    prologue.append((0, f"{ok} = " + (" and ".join(static) or "True")))
    if extract:
        prologue.append((0, f"if {ok}:"))
        for local, value_expr in extract:
            prologue.append((1, f"{local} = {value_expr}"))
        for check in consistency:
            prologue.append((1, f"if not {check}:"))
            prologue.append((2, f"{ok} = False"))
    return prologue, ok, first_local, elided_guards


def _keyed_symbol(automaton: Automaton, body, variables) -> Optional[int]:
    """The symbol of a key whose event names its row: every body triple
    has this one symbol, the generator can decompose it, and it binds
    exactly the class's variables (or the class has none).  ``None``
    otherwise, and for timed classes (clock guards differ per row)."""
    symbols = {sid for _, _, sid in body}
    if automaton.timed or len(symbols) != 1:
        return None
    sid = symbols.pop()
    symbol = automaton.symbols[sid]
    expr = symbol.expr
    if not _symbol_decomposable(expr):
        return None
    names = symbol_variables(symbol)
    return sid if names == set(variables) else None


def _occupiable_states(automaton: Automaton) -> FrozenSet[int]:
    """States an instance can ever occupy: the forward closure of the
    entry states over EVENT/SITE transitions.

    Under the runtime's move-or-stay stepping a state is only ever
    *added* when some EVENT/SITE transition targets it from an occupied
    state, so transitions whose source lies outside this closure can
    never fire — eliding them from generated code is verdict-preserving.
    (TESLA002's co-reachability is deliberately *not* used here: a
    transition that cannot reach accept can still fire and change the
    verdict under move-or-stay semantics.)
    """
    seen = set(automaton.entry_states)
    frontier = list(automaton.entry_states)
    while frontier:
        state = frontier.pop()
        for t in automaton.outgoing(state):
            if t.kind in (TransitionKind.EVENT, TransitionKind.SITE):
                if t.dst not in seen:
                    seen.add(t.dst)
                    frontier.append(t.dst)
    return frozenset(seen)


def _emit_counts(em: _Emitter, base: int) -> None:
    """Apply a memoised outcome ``_o``: transition counts and the site."""
    em.emit(base, "for _i in _o[1]:")
    em.emit(base + 1, "_tc[_i] += 1")
    em.emit(base, "if _o[2]:")
    em.emit(base + 1, "cr.sites_reached += 1")
    em.emit(base + 1, "_site = True")


def _emit_keyed(
    em: _Emitter,
    base: int,
    key_tuple: Optional[str],
    site: bool,
    ok: Optional[str],
) -> None:
    """The walk for a key whose event names its row (see
    :func:`_keyed_symbol`): the row ``key_tuple`` steps by its memoised
    outcome, or, when there is no such row, the wildcard's outcome
    becomes a new row — the interpreter's clone, which dedupes against
    the existing row and re-steps on this event.  A class without
    variables only has the wildcard, which steps in place.  Rows a
    one-key probe cannot see (``irregular``), a site that leaves a
    variable unsupplied and an unhashable value take :func:`rows.walk`.
    """
    em.emit(base, "_prog = False")
    em.emit(base, "_site = False")
    em.emit(base, "_tc = cr.counts")
    walk = "_prog, _site = _walk(cr, event, hub, _BODY)"
    if site and ok is not None:
        em.emit(base, f"if _pool.irregular or not {ok}:")
        em.emit(base + 1, walk)
        em.emit(base, "else:")
    else:
        em.emit(base, "if _pool.irregular:")
        em.emit(base + 1, walk)
        em.emit(base, "else:" if ok is None else f"elif {ok}:")
    inner = base + 1
    if key_tuple is None:
        em.emit(inner, "_w = _pool.wild")
        em.emit(inner, "if _w is not None:")
        em.emit(inner + 1, "_o = _OT[_w]")
        em.emit(inner + 1, "if _o is not None:")
        em.emit(inner + 2, "_prog = True")
        em.emit(inner + 2, "_pool.wild = _o[0]")
        _emit_counts(em, inner + 2)
        return
    em.emit(inner, f"_k = {key_tuple}")
    em.emit(inner, "_rows = _pool.rows")
    em.emit(inner, "try:")
    em.emit(inner + 1, "_r = _rows.get(_k)")
    em.emit(inner, "except TypeError:")
    em.emit(inner + 1, walk)
    em.emit(inner, "else:")
    em.emit(inner + 1, "if _r is not None:")
    em.emit(inner + 2, "_o = _OT[_r]")
    em.emit(inner + 2, "if _o is not None:")
    em.emit(inner + 3, "_prog = True")
    em.emit(inner + 3, "_rows[_k] = _o[0]")
    _emit_counts(em, inner + 3)
    em.emit(inner + 1, "else:")
    em.emit(inner + 2, "_w = _pool.wild")
    em.emit(inner + 2, "if _w is not None:")
    em.emit(inner + 3, "_o = _OT[_w]")
    em.emit(inner + 3, "if _o is not None:")
    at = inner + 4
    em.emit(at, "_prog = True")
    _emit_counts(em, at)
    em.emit(at, "if _fi._active is not None:")
    em.emit(at + 1, "_fi.fault_point(_FPI)")
    em.emit(at, "_n = len(_rows) + 1")
    em.emit(at, "if _n < _pool.capacity:")
    em.emit(at + 1, "_rows[_k] = _o[0]")
    em.emit(at + 1, "if _n >= _pool.high_water:")
    em.emit(at + 2, "_pool.high_water = _n + 1")
    em.emit(at, "else:")
    em.emit(at + 1, "_pool.overflows += 1")
    em.emit(at + 1, "_ovf(cr, hub, _pool.binding_of(_k))")


def _emit_materialise(em: _Emitter, base: int, timed: bool) -> None:
    """Lazy initialisation (section 5.2.2): the first relevant event of
    a bound materialises the wildcard — its entry-state number, counted
    in the population — or reports the overflow (``rows.overflow``)."""
    em.emit(base, "if cr.pending:")
    em.emit(base + 1, "cr.pending = False")
    em.emit(base + 1, "if _fi._active is not None:")
    em.emit(base + 2, "_fi.fault_point(_FPI)")
    em.emit(base + 1, "_n = len(_pool.rows) + (_pool.wild is not None)")
    em.emit(base + 1, "if _n < _pool.capacity:")
    if timed:
        em.emit(base + 2, "_pool.wild = _TR(_ENTRY, cr.lazy_entry_ts, "
                          "cr.lazy_entry_ts)")
    else:
        em.emit(base + 2, "_pool.wild = _ENTRY")
    em.emit(base + 2, "_pool.entry_ts = cr.lazy_entry_ts")
    em.emit(base + 2, "if _n >= _pool.high_water:")
    em.emit(base + 3, "_pool.high_water = _n + 1")
    em.emit(base + 1, "else:")
    em.emit(base + 2, "_pool.overflows += 1")
    em.emit(base + 2, "_ovf(cr, hub, _E)")


def _emit_endgame(em: _Emitter, base: int, is_site_key: bool, strict: bool) -> None:
    """The interpreter's post-walk verdict chain with the is-site-event /
    strict / references() terms folded at gentime.

    ``references(event)`` is constant-true here: a generated step only
    ever runs for keys the automaton observes as body keys (or its own
    site), exactly the dispatch-index condition ``references`` tests.
    """
    if is_site_key:
        em.emit(base, "if not _site:")
        em.emit(base + 1, "if _already(cr, event):")
        em.emit(base + 2, "cr.sites_reached += 1")
        em.emit(base + 2, "_site = True")
        em.emit(base + 1, "elif _pool.overflows > cr.overflow_mark:")
        em.emit(base + 2, "cr.sites_reached += 1")
        em.emit(base + 2, "_site = True")
        em.emit(base, "if not _site:")
        em.emit(base + 1, "cr.errors += 1")
        em.emit(base + 1, "_serr(cr, event, hub)")
        if strict:
            em.emit(base, "elif not _prog:")
            em.emit(base + 1, "cr.errors += 1")
            em.emit(base + 1, "_xerr(cr, event, hub)")
    elif strict:
        em.emit(base, "if not _prog:")
        em.emit(base + 1, "cr.errors += 1")
        em.emit(base + 1, "_xerr(cr, event, hub)")


def generate_source(
    automaton: Automaton,
    plan: TransitionPlan,
    facts: Optional[CodegenFacts] = None,
) -> GeneratedSource:
    """Generate the specialized ``step`` source for one plan."""
    if facts is None:
        facts = CodegenFacts.NONE
    key = plan.key
    em = _Emitter()
    occupiable = _occupiable_states(automaton)
    # tesla-prove widening: an occupancy fact intersects the forward
    # closure with the prove fixpoint's occupied-state union and —
    # being a proof in its own right — lifts the lint-clean gate.
    proved_occ = facts.occupancy.get(automaton.name)
    if proved_occ is not None:
        occupiable = occupiable & proved_occ
    may_elide = facts.clean or proved_occ is not None
    body: List[Tuple[int, Transition, Any]] = []
    elided_transitions = 0
    for src, transition, matcher in plan.body:
        if may_elide and src not in occupiable:
            elided_transitions += 1
            continue
        body.append((src, transition, matcher))

    sets = state_sets(automaton)
    variables = class_variables(automaton)
    kind = key[0]
    is_site_key = kind is EventKind.ASSERTION_SITE
    keyed = (
        _keyed_symbol(
            automaton, [(s, t, t.symbol) for s, t, _ in body], variables
        )
        if body else None
    )
    elided_guards = 0
    prologue: List[Tuple[int, str]] = []
    ok: Optional[str] = None
    key_tuple: Optional[str] = None
    if keyed is not None:
        prologue, ok, locals_, elided_guards = _compile_symbol(
            em, automaton.symbols[keyed], facts
        )
        if variables:
            key_tuple = "(" + ", ".join(
                locals_[name] for name in variables
            ) + ("," if len(variables) == 1 else "") + ")"

    header = (
        f"# tesla-jit v{CODEGEN_VERSION} automaton={automaton.name} "
        f"key={key[0].name}:{key[1]} strict={automaton.strict} "
        f"timed={automaton.timed} triples={len(body)} "
        f"keyed={keyed is not None} elided_guards={elided_guards} "
        f"elided_transitions={elided_transitions}"
    )
    em.lines.append(header)
    em.emit(0, "def step(cr, event, hub):")
    em.emit(1, "if hub.detailed:")
    em.emit(2, "return _interp(_update, cr, event, hub, True)")
    em.emit(1, "if _fi._active is not None:")
    em.emit(2, "_fi.fault_point(_FP)")
    em.emit(1, "if not cr.active:")
    em.emit(2, "return")
    em.emit(1, "_pool = cr.pool")
    if automaton.deadline_s is not None:
        # Pre-event expiry (DESIGN §5.9), before the event is processed.
        em.emit(1, "_expire(cr, event.timestamp, hub, event)")
    _emit_materialise(em, 1, automaton.timed)
    if not body:
        # Every body transition was elided (or the plan was empty): no
        # row can ever step on this key; only the endgame remains.
        em.emit(1, "_prog = False")
        em.emit(1, "_site = False")
    elif keyed is None:
        em.emit(1, "_prog, _site = _walk(cr, event, hub, _BODY)")
    else:
        if prologue:
            if kind is EventKind.CALL:
                em.emit(1, "_args = event.args")
            elif kind is EventKind.RETURN:
                em.emit(1, "_args = event.args")
                em.emit(1, "_ret = event.retval")
            elif kind is EventKind.FIELD_ASSIGN:
                em.emit(1, "_op = event.op")
                em.emit(1, "_target = event.target")
                em.emit(1, "_ret = event.retval")
            else:
                em.emit(1, "_scope = event.scope")
        for ind, text in prologue:
            em.emit(1 + ind, text)
        _emit_keyed(em, 1, key_tuple, is_site_key, ok)
    _emit_endgame(em, 1, is_site_key, automaton.strict)

    namespace = dict(em.namespace)
    namespace.update(
        {
            "_interp": interpret,
            "_update": tesla_update_state,
            "_FP": _FP_STEP,
            "_FPI": _FP_INSERT,
            "_fi": _fi,
            "_ENTRY": sets.number(automaton.entry_states, False),
            "_TR": TimedRow,
            "_ovf": overflow,
            "_walk": walk,
            "_BODY": tuple(body),
            "_OT": Outcomes(sets, [(src, t) for src, t, _ in body]),
            "_already": already,
            "_serr": _site_error,
            "_xerr": _strict_error,
            "_expire": expire,
            "_E": EMPTY_BINDING,
            "_Ref": Ref,
        }
    )
    return GeneratedSource(
        source=em.source(),
        elided_guards=elided_guards,
        elided_transitions=elided_transitions,
        namespace=namespace,
    )


#: Process-wide ``(generated source, filename) -> code object`` cache.
#: The determinism contract makes the source a complete key: every
#: runtime value reaches the function through the ``exec`` namespace, so
#: a later runtime installing the same assertions skips ``compile()``
#: (the dominant warm-up cost) and only binds its own constants.
_CODE_CACHE: Dict[Tuple[str, str], CodeType] = {}

#: The same cache for key functions, kept apart so that adding them never
#: shortens how long a step's code object stays resident.
_KEY_CODE_CACHE: Dict[Tuple[str, str], CodeType] = {}

#: And for dispatch entries, whose source names no key: every key of one
#: shape shares a code object.
_ENTRY_CODE_CACHE: Dict[Tuple[str, str], CodeType] = {}

#: Bound on each code cache; a full cache is cleared, not evicted
#: piecemeal (the replay engine's translation cache does the same).
CODE_CACHE_LIMIT = 512


def compile_plan_step(
    automaton: Automaton,
    plan: TransitionPlan,
    facts: Optional[CodegenFacts] = None,
):
    """Compile one plan to a :class:`CompiledStep`."""
    generated = generate_source(automaton, plan, facts)
    namespace = generated.namespace
    key_label = f"{plan.key[0].name}:{plan.key[1]}"
    filename = f"<tesla-jit {automaton.name} {key_label}>"
    exec(_cached_code(_CODE_CACHE, generated.source, filename), namespace)
    return CompiledStep(
        step=namespace["step"],
        source=generated.source,
        elided_guards=generated.elided_guards,
        elided_transitions=generated.elided_transitions,
    )


def _cached_code(cache: Dict, source: str, filename: str) -> CodeType:
    cache_key = (source, filename)
    code = cache.get(cache_key)
    if code is None:
        code = compile(source, filename, "exec")
        if len(cache) >= CODE_CACHE_LIMIT:
            cache.clear()
        cache[cache_key] = code
    return code


# ---------------------------------------------------------------------------
# Key functions: one generated dispatch function per (key, context)
# ---------------------------------------------------------------------------


def _emit_unit(
    em: _Emitter,
    indent: int,
    name: str,
    stage: str,
    governed: bool,
    body: List[str],
) -> None:
    """One class's unit of work inside its own containment boundary: a
    fault is attributed to that class (``name`` is a source expression)
    and the other classes of the event run on; ``TemporalAssertionError``
    (the fail-stop violation policy) always propagates.  Governed
    runtimes charge the unit's time to the class."""
    if governed:
        em.emit(indent, "_t0 = _now()")
    em.emit(indent, "try:")
    for text in body:
        em.emit(indent + 1, text)
    em.emit(indent, "except _TAE:")
    em.emit(indent + 1, "raise")
    em.emit(indent, "except Exception as _exc:")
    em.emit(indent + 1, f'if not _contain({name}, "{stage}", _exc):')
    em.emit(indent + 2, "raise")
    if governed:
        em.emit(indent, "finally:")
        em.emit(indent + 1, f"_charge(_gov, {name}, _now() - _t0)")


def generate_key_source(
    key: PlanKey,
    context: str,
    work,
    initiated: FrozenSet[str],
    lazy: bool,
    governed: bool,
    automata: Dict[str, Automaton],
) -> GeneratedSource:
    """Generate ``run(store, event)``: one dispatch key's whole share of
    one context (``work`` is the manager's per-context plan; ``automata``
    maps its class names to their automata).

    Lazy mode inlines the §5.2.2 bound record — ``begin`` of every bound
    the key opens, the join of every body class and ``end`` of every
    bound it closes, visiting only touched classes — and calls each
    class's generated step in plan order.  Ungoverned, the join is
    inlined whole (a new epoch resets the class, counts its «init»
    transitions and records it as touched); governed, the join's
    new-epoch branch is ``lazy_join_bound`` (its admission gate).  Each
    touched class closes through its generated cleanup
    (:func:`compile_cleanup`, ``_CU`` maps class names to them).  Eager
    mode opens each class with ``_init`` (``rows.init``) and closes it
    through its generated cleanup.  The namespace holds the plan's class
    names (``_N*``), bounds (``_B*``) and «init» transition indices
    (``_I*``); the caller binds the steps (``_S<i>``, one per body class
    in order) and the runtime's collaborators.
    """
    em = _Emitter()
    names: Dict[str, str] = {}
    bounds: Dict[Any, str] = {}

    def name_const(name: str) -> str:
        if name not in names:
            names[name] = em.const(name, "N")
        return names[name]

    def bound_const(bound) -> str:
        if bound not in bounds:
            bounds[bound] = em.const(bound, "B")
        return bounds[bound]

    body = [(name, bound) for name, bound in work.body
            if name not in initiated]
    em.lines.append(
        f"# tesla-jit v{CODEGEN_VERSION} key={key[0].name}:{key[1]} "
        f"context={context} lazy={lazy} governed={governed} "
        f"inits={len(work.init_names)} body={len(body)} "
        f"cleanups={len(work.cleanup_names)}"
    )
    em.emit(0, "def run(store, event):")
    em.emit(1, "_cls = store._classes")
    if lazy:
        # The tracker's dicts are cleared in place, never replaced.
        em.emit(1, "_tr = store.tracker")
        em.emit(1, "_open = _tr.open")
        em.emit(1, "_eps = _tr.epoch")
        em.emit(1, "_tch = _tr.touched")
        for bound in work.init_bounds:
            b = bound_const(bound)
            em.emit(1, f"if not _open.get({b}):")
            em.emit(2, f"_open[{b}] = True")
            em.emit(2, f"_eps[{b}] = _eps.get({b}, 0) + 1")
            em.emit(2, f"_tch[{b}] = set()")
            em.emit(2, f"_tr.entry_ts[{b}] = event.timestamp")
    else:
        init = "_init(cr, event, _hub)"
        for name in work.init_names:
            n = name_const(name)
            if governed:
                # Rung-1 shedding: 1-in-N admission of a bound occurrence.
                lines = [
                    f"cr = _cls[{n}]",
                    f"if cr.active or _admit({n}):",
                    "    if not cr.active:",
                    f"        cr.sample_rate = _rate({n})",
                    f"    {init}",
                ]
            else:
                lines = [f"cr = _cls[{n}]", init]
            _emit_unit(em, 1, n, "init", governed, lines)
    for index, (name, bound) in enumerate(body):
        n = name_const(name)
        lines = [f"cr = _cls[{n}]"]
        if lazy:
            b = bound_const(bound)
            lines += [
                f"if _open.get({b}):",
                f"    if cr.seen_epoch == _eps[{b}]:",
                "        if cr.active:",
                f"            _tch[{b}].add({n})",
                "    else:",
            ]
            if governed:
                lines.append(f"        _join(cr, {b}, _tr, _gov)")
            else:
                # lazy_join_bound's ungoverned new-epoch branch.
                automaton = automata[name]
                lines += [
                    f"        cr.seen_epoch = _eps[{b}]",
                    "        _p = cr.pool",
                    "        if _p.rows:",
                    "            _p.clear()",
                    "        _p.wild = None",
                    "        cr.active = True",
                    "        cr.pending = True",
                    f"        cr.lazy_entry_ts = _tr.entry_ts.get({b}, 0.0)",
                    "        cr.overflow_mark = _p.overflows",
                    "        cr.overflow_reported = False",
                ]
                for transition in automaton.init_transitions:
                    i = em.const(automaton.transition_index[transition], "I")
                    lines.append(f"        cr.counts[{i}] += 1")
                lines.append(f"        _tch[{b}].add({n})")
            lines += [
                "else:",
                "    cr.active = False",
            ]
        lines += ["cr.gen_hits += 1", f"_S{index}(cr, event, _hub)"]
        _emit_unit(em, 1, n, "body", governed, lines)
    if lazy:
        for bound in work.cleanup_bounds:
            b = bound_const(bound)
            em.emit(1, f"if _open.get({b}):")
            em.emit(2, f"_open[{b}] = False")
            em.emit(2, f"_t = _tch.pop({b}, ())")
            em.emit(2, "for _n in (_t if len(_t) < 2 else sorted(_t)):")
            _emit_unit(em, 3, "_n", "cleanup", governed,
                       ["cr = _cls[_n]", "_CU[_n](cr, event)"])
    else:
        for name in work.cleanup_names:
            n = name_const(name)
            _emit_unit(em, 1, n, "cleanup", governed,
                       [f"cr = _cls[{n}]", f"_CU[{n}](cr, event)"])
    return GeneratedSource(source=em.source(), namespace=dict(em.namespace))


def compile_key_function(
    key: PlanKey,
    context: str,
    work,
    initiated: FrozenSet[str],
    lazy: bool,
    governed: bool,
    automata: Dict[str, Automaton],
    steps: List[Any],
    bindings: Dict[str, Any],
):
    """Compile one key function (see :func:`generate_key_source`) through
    the process-wide code cache and return its ``run``.  ``steps`` are
    the body classes' generated steps in plan order; ``bindings``
    supplies the runtime's collaborators (``_hub``, ``_contain``,
    ``_join``, ``_init``, ``_CU``, ``_gov``, ``_now``,
    ``_charge``, ``_admit``, ``_rate``)."""
    generated = generate_key_source(key, context, work, initiated, lazy,
                                    governed, automata)
    namespace = generated.namespace
    namespace.update(bindings)
    namespace["_TAE"] = TemporalAssertionError
    for index, step in enumerate(steps):
        namespace[f"_S{index}"] = step
    filename = f"<tesla-jit key {key[0].name}:{key[1]} {context}>"
    exec(_cached_code(_KEY_CODE_CACHE, generated.source, filename),
         namespace)
    return namespace["run"]


# ---------------------------------------------------------------------------
# Cleanup functions: one generated bound close per class
# ---------------------------------------------------------------------------


def _emit_verdict(em: _Emitter, base: int, num: str, key: str,
                  row: str) -> None:
    """One closing row's verdict: an accept, an error or a bypass."""
    em.emit(base, f"_v = _V[{num}]")
    em.emit(base, "if _v == 1:")
    em.emit(base + 1, "cr.accepts += 1")
    em.emit(base, "elif _v == 2:")
    em.emit(base + 1, "cr.errors += 1")
    em.emit(base + 1, f"_cerr(cr, event, _hub, _pool.view({key}, {row}))")


def generate_cleanup_source(automaton: Automaton) -> GeneratedSource:
    """Generate ``cleanup(cr, event)``: ``handle_cleanup`` for one class,
    with the class's facts computed here once — which cleanup transition
    the event takes and which state numbers accept.  A class has exactly
    one cleanup key, so its cleanup transitions are all on that key.

    When the first cleanup transition's symbol constrains nothing, it
    matches every event of the key, so its count is folded in; otherwise
    the symbols' compiled matchers are tried in order.  A deadline class
    first expires late obligations (``rows.expire``).  Then the class
    closes: the wildcard and every row are dropped, and each counts by
    its number's verdict — an accept, an error (reported with an
    instance view) or a silent bypass.  Lifecycle notifications are the
    reference's: under ``hub.detailed`` the class runs ``handle_cleanup``
    on instance copies of its rows.
    """
    em = _Emitter()
    entries = [
        (t, automaton.symbols[t.symbol].compile_matcher())
        for t in automaton.transitions
        if t.kind is TransitionKind.CLEANUP and t.symbol is not None
    ]
    deadline = automaton.deadline_s is not None
    timed = automaton.timed
    folded = bool(entries) and entries[0][1] is _match_nothing
    em.lines.append(
        f"# tesla-jit v{CODEGEN_VERSION} cleanup deadline={deadline} "
        f"timed={timed} folded={folded} "
        f"matchers={0 if folded else len(entries)}"
    )
    em.emit(0, "def cleanup(cr, event):")
    em.emit(1, "if not cr.active:")
    em.emit(2, "return")
    em.emit(1, "if _hub.detailed:")
    em.emit(2, "return _interp(_cleanup, cr, event, _hub)")
    em.emit(1, "if _fi._active is not None:")
    em.emit(2, "_fi.fault_point(_FP)")
    if deadline:
        em.emit(1, "_expire(cr, event.timestamp, _hub, event)")
    for k, (transition, matcher) in enumerate(entries):
        i = em.const(automaton.transition_index[transition], "I")
        if folded:
            em.emit(1, f"cr.counts[{i}] += 1")
            break
        m = em.const(matcher, "M")
        em.emit(1, f"{'if' if k == 0 else 'elif'} {m}(event, _E) is not None:")
        em.emit(2, f"cr.counts[{i}] += 1")
    em.emit(1, "cr.active = False")
    em.emit(1, "cr.pending = False")
    em.emit(1, "_pool = cr.pool")
    em.emit(1, "_w = _pool.wild")
    em.emit(1, "_rows = _pool.rows")
    em.emit(1, "if _w is not None or _rows:")
    em.emit(2, "_pool.clear()")
    em.emit(2, "if _w is not None:")
    _emit_verdict(em, 3, "_w.num" if timed else "_w", "None", "_w")
    em.emit(2, "for _k, _r in _rows.items():")
    _emit_verdict(em, 3, "_r.num" if timed else "_r", "_k", "_r")
    return GeneratedSource(source=em.source(), namespace=em.namespace)


def compile_cleanup(automaton: Automaton, hub, cleanup):
    """Compile one class's cleanup (see :func:`generate_cleanup_source`)
    through the key functions' code cache, bound to the runtime's
    ``hub`` and reference ``cleanup`` (the manager's ``handle_cleanup``)."""
    generated = generate_cleanup_source(automaton)
    namespace = generated.namespace
    namespace.update(
        {
            "_hub": hub,
            "_cleanup": cleanup,
            "_interp": interpret,
            "_expire": expire,
            "_cerr": cleanup_error,
            "_V": state_sets(automaton).verdict,
            "_fi": _fi,
            "_FP": _FP_CLEANUP,
            "_E": EMPTY_BINDING,
        }
    )
    exec(_cached_code(_KEY_CODE_CACHE, generated.source,
                      "<tesla-jit cleanup>"), namespace)
    return namespace["cleanup"]


# ---------------------------------------------------------------------------
# Dispatch entries: one generated function per dispatch key
# ---------------------------------------------------------------------------


def _static_tests(
    em: _Emitter, pattern: Pattern, value_expr: str, tests: List[str]
) -> None:
    """Append one pattern's event-static tests (``Var``/``Any_`` add
    none); a pattern the generator cannot decompose is tested by its
    compiled predicate."""
    if _decomposable(pattern):
        _pattern_value_checks(em, pattern, value_expr, tests, [], [])
    else:
        check = em.const(compile_static_check(pattern), "P")
        tests.append(f"{check}({value_expr})")


def _symbol_test(em: _Emitter, symbol, elide_arity: bool) -> Optional[str]:
    """One symbol's static checks (the translator's ``static_match``) as
    a conjunction over ``event`` and its arguments ``_a``, or ``None``
    when the symbol constrains nothing.  ``elide_arity`` drops the arity
    guard tesla-lint proved redundant (DESIGN §5.5)."""
    expr = symbol.expr
    tests: List[str] = []
    if isinstance(expr, (FunctionCall, FunctionReturn)):
        if expr.args is not None:
            if not elide_arity:
                tests.append(f"len(_a) == {len(expr.args)}")
            for i, pattern in enumerate(expr.args):
                _static_tests(em, pattern, f"_a[{i}]", tests)
        if isinstance(expr, FunctionReturn) and expr.retval is not None:
            _static_tests(em, expr.retval, "event.retval", tests)
    elif isinstance(expr, FieldAssign):
        if expr.op is not None:
            tests.append(f"event.op is {em.const(expr.op, 'K')}")
        if expr.target is not None:
            _static_tests(em, expr.target, "event.target", tests)
        if expr.value is not None:
            _static_tests(em, expr.value, "event.retval", tests)
    return " and ".join(tests) or None


def generate_entry_source(
    chain,
    dispatch: str,
    stamp: bool,
    governed: bool = False,
    contexts: Tuple[bool, bool] = (False, False),
    local: bool = False,
    sync: bool = False,
) -> GeneratedSource:
    """Generate ``entry(event)``: everything one dispatch key's events
    do between a hook and the key functions (DESIGN §5.7).

    ``chain`` is an event translator's static-check chain for the key,
    as ``(symbol, elide_arity)`` pairs: an event is forwarded (counted in
    ``_cnt[0]``) when any symbol's static checks pass and dropped
    (``_cnt[1]``) otherwise; an empty chain, or one symbol without
    static constraints, forwards every event.  ``chain=None`` is the
    runtime's own entry behind ``handle_event``: no checks, no counts.

    ``dispatch`` selects what a forwarded event meets:

    * ``"sync"`` — the synchronous prologue, inlined: the capture stamp
      (``stamp``; otherwise the trace-time high-water mark), the events
      counter, the supervisor tick, the governor's control tick
      (``governed``), the key-plan probe, then the key function of each
      context the key can touch (``contexts`` is (global, thread-local))
      or, when it cannot run, ``_run_context``.  The probe is a dict
      lookup plus the epoch on every event, because governor demotions
      clear plans without moving the epoch;
    * ``"deferred"`` — the capture path: the stamp, the ring append, a
      flush when ``sync`` (a synchronization-point key), then the
      thread-local share inline when ``local``;
    * ``"call"`` — ``_handle(event)``: the runtime's ``handle_event`` was
      replaced on the instance, and the replacement sees every forwarded
      event.
    """
    em = _Emitter()
    em.lines.append(
        f"# tesla-jit v{CODEGEN_VERSION} entry dispatch={dispatch} "
        f"stamp={stamp} governed={governed}"
    )
    em.emit(0, "def entry(event):")
    if chain is not None:
        alternatives = []
        for symbol, elide_arity in chain:
            test = _symbol_test(em, symbol, elide_arity)
            if test is None:
                alternatives = []
                break
            alternatives.append(f"({test})")
        if alternatives:
            em.emit(1, "_a = event.args")
            em.emit(1, f"if not ({' or '.join(alternatives)}):")
            em.emit(2, "_cnt[1] += 1")
            em.emit(2, "return")
        em.emit(1, "_cnt[0] += 1")
    if dispatch == "call":
        em.emit(1, "_handle(event)")
        return GeneratedSource(source=em.source(), namespace=em.namespace)
    if stamp:
        em.emit(1, "event.timestamp = _now()")
    else:
        em.emit(1, "if event.timestamp > _rt._max_event_ts:")
        em.emit(2, "_rt._max_event_ts = event.timestamp")
    if dispatch == "deferred":
        # The event reaches the ring (and so the journal) before any
        # verdict on it can raise: global share first, as in "sync".
        em.emit(1, "_enqueue(event)")
        if sync:
            em.emit(1, "_drain.flush(sync=True)")
        if local:
            em.emit(1, "_dispatch_local(event, _KEY)")
        return GeneratedSource(source=em.source(), namespace=em.namespace)
    em.emit(1, "_rt.events_processed += 1")
    em.emit(1, "_sup.tick += 1")
    em.emit(1, "if _sup._has_records:")
    em.emit(2, "_sup._poll()")
    if governed:
        em.emit(1, "_govern(1)")
    if any(contexts):
        em.emit(1, "plan = _plans.get(_KEY)")
        em.emit(1, "if plan is None or plan.epoch != _ep.value:")
        em.emit(2, "plan = _plan_for(_KEY)")
    for attribute, store, possible in (("glob", "_gstore", contexts[0]),
                                       ("local", "store", contexts[1])):
        if not possible:
            continue
        em.emit(1, f"work = plan.{attribute}")
        em.emit(1, "if work is not None:")
        indent = 2
        if attribute == "glob":
            em.emit(2, "with _lock:")
            indent = 3
        else:
            em.emit(2, "try:")
            em.emit(3, "store = _local.store")
            em.emit(2, "except AttributeError:")
            em.emit(3, "store = _current()")
        em.emit(indent, "fn = work.fn")
        em.emit(indent, "if fn is not None:")
        em.emit(indent + 1, f"fn({store}, event)")
        em.emit(indent, "else:")
        em.emit(indent + 1, f"_run_context(work, {store}, event, plan, _KEY)")
    return GeneratedSource(source=em.source(), namespace=em.namespace)


def compile_entry(
    key: PlanKey,
    chain,
    dispatch: str,
    stamp: bool,
    governed: bool,
    contexts: Tuple[bool, bool],
    local: bool,
    sync: bool,
    bindings: Dict[str, Any],
):
    """Compile one dispatch entry (see :func:`generate_entry_source`)
    through the process-wide code cache and return it.  ``bindings``
    supplies the runtime's collaborators (``_rt``, ``_now``, ``_sup``,
    ``_govern``, ``_plans``, ``_plan_for``, ``_ep``, ``_lock``,
    ``_gstore``, ``_local``, ``_current``, ``_run_context``,
    ``_dispatch_local``, ``_enqueue``, ``_drain``, ``_handle``) and the
    translator's ``_cnt`` cell."""
    generated = generate_entry_source(chain, dispatch, stamp, governed,
                                      contexts, local, sync)
    namespace = generated.namespace
    namespace.update(bindings)
    namespace["_KEY"] = key
    namespace["_Ref"] = Ref
    exec(_cached_code(_ENTRY_CODE_CACHE, generated.source,
                      "<tesla-jit entry>"), namespace)
    return namespace["entry"]


def dump_sources(
    automaton: Automaton, facts: Optional[CodegenFacts] = None
) -> List[Tuple[PlanKey, GeneratedSource]]:
    """Generated source for every body dispatch key of one automaton,
    in deterministic key order (the CLI's ``codegen --dump`` surface)."""
    keys = set()
    for t in automaton.transitions:
        if t.kind not in (TransitionKind.EVENT, TransitionKind.SITE):
            continue
        if t.symbol is None:
            continue
        kind, name = automaton.symbols[t.symbol].dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            keys.add((kind, automaton.name))
        else:
            keys.add((kind, name))
    out: List[Tuple[PlanKey, GeneratedSource]] = []
    for key in sorted(keys, key=lambda k: (k[0].value, k[1])):
        plan = build_transition_plan(automaton, key)
        out.append((key, generate_source(automaton, plan, facts)))
    return out
