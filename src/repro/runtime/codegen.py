"""tesla-jit: compile :class:`TransitionPlan` objects to generated Python.

Walking a compiled plan (DESIGN §5.2) still *interprets* a chain of
closures per event: ``plan.enabled`` probes each body triple, each triple
calls a compiled matcher closure, and every match result is re-examined
by ``tesla_update_state``.  Every ``compile=True`` runtime therefore
evaluates body events through this module instead, which emits
specialized Python *source* per (automaton, dispatch-key) plan — matcher
checks, bind extraction and transition application fused into a single
``exec``-compiled function with no per-step closure dispatch:

* event-static work (arity checks, ``Const``/``Flags``/``Bitmask``/
  ``AddressOf`` filters, ``Var`` value extraction) is hoisted out of the
  instance loop and evaluated once per event;
* the per-instance loop is unrolled over the plan's body triples, with
  the dominant single-match/no-new-binding case stepped inline
  (``frozenset`` state update + transition counting, no function calls);
* multi-match and clone-producing cases delegate to
  :func:`_instance_slow_step`, which reuses the interpreter's own
  ``_step``/dedupe/clone machinery so verdicts stay bit-identical.

Every event, synchronous or drained in a batch, is evaluated by the one
per-event ``step(cr, event, hub)``.  One level up, the manager runs each
dispatch key's share of a context through a generated *key function*
(:func:`compile_key_function`): the lazy bound record (begin, join, end)
inlined, and each class's ``step`` called in plan order behind its own
containment boundary.  The bound lifecycle (§4.4.1) is generated too:
an ungoverned lazy key function joins a class to a new bound occurrence
inline, the step materialises the pending wildcard inline, and each
touched class closes through its own generated cleanup
(:func:`compile_cleanup`); transition counts are list slots bumped by
constant index.  ``lazy_join_bound``, ``_materialise`` and
``handle_cleanup`` stay the reference semantics and are still called
where the generated form would differ: governed admission (the join
only), a full pool,
armed fault injection, a detailed hub and deadline classes.

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

The generator is deliberately *loud* about its limits: any plan it
cannot specialize (an unknown :class:`Pattern` subclass, an exotic
event expression, a timed automaton) yields a :class:`GenerationFallback`
carrying the reason, the whole key falls back to the compiled plan walk,
and the fallback is counted in ``dispatch_stats``.  Generated code has no
fault points, so the runtime walks the compiled plans instead of calling
it while fault injection is armed; and a generated function bails out to
the interpreter at call time when the notification hub is in detailed
mode, whose lifecycle notifications the lean generated code deliberately
omits (it emits only the always-on ERROR and OVERFLOW notifications).

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
    UNBOUND,
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
from .epoch import interest_epoch
from .instance import AutomatonInstance
from .notify import Notification, NotificationKind
from .plans import PlanKey, TransitionPlan, build_transition_plan
from .update import (
    _already_satisfied as _upd_already_satisfied,
    _materialise,
    _same_binding,
    _step,
    cleanup_error,
    tesla_update_state,
)

#: Bump on any change to the generated source layout (see the golden
#: fixture's upgrade protocol in
#: ``tests/unit/runtime/test_codegen_golden.py``).
CODEGEN_VERSION = 5

#: Sentinel for "this symbol did not match" in generated code.  Distinct
#: from ``None`` so generated locals can never be confused with a
#: matcher's ``NO_MATCH`` contract leaking out of the function.
_NO = object()


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


class GenerationFallback:
    """Why a plan could not be specialized (stored in the step cache so
    the decision is made once per key, not per event).

    ``step`` is a ``None`` class attribute so cache consumers
    discriminate with one attribute load, no isinstance.
    """

    __slots__ = ("reason",)

    step = None

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<GenerationFallback {self.reason!r}>"


class GeneratedSource:
    """The outcome of source generation for one plan."""

    __slots__ = (
        "source",
        "fallback_reason",
        "elided_guards",
        "elided_transitions",
        "namespace",
    )

    def __init__(
        self,
        source: str = "",
        fallback_reason: Optional[str] = None,
        elided_guards: int = 0,
        elided_transitions: int = 0,
        namespace: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.source = source
        self.fallback_reason = fallback_reason
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
# Shared slow-path helpers (injected into every generated namespace)
# ---------------------------------------------------------------------------


def _instance_slow_step(cr, instance, matched_pairs, hub, event, clones, enabled):
    """The multi-match / clone-producing tail of the instance walk.

    Byte-for-byte the same algorithm as the general branch of
    ``tesla_update_state`` (split by new bindings, dedupe extensions,
    clone, re-step the clone), reusing the interpreter's ``_step`` so
    transition counting and site accounting stay identical.  Returns
    ``(any_progress, site_taken)`` for this instance.
    """
    progress = False
    site = False
    empty: List[Transition] = []
    extensions: List[Dict[str, Any]] = []
    for transition, new in matched_pairs:
        if new:
            if not any(_same_binding(new, seen) for seen in extensions):
                extensions.append(new)
        else:
            empty.append(transition)
    if empty:
        progress = True
        if _step(cr, instance, empty, hub, event):
            site = True
    for extension in extensions:
        merged = dict(instance.binding)
        merged.update(extension)
        if cr.pool.find(merged) is not None or any(
            c.same_binding(merged) for c in clones
        ):
            continue
        clone = instance.clone(extension)
        clone_matches = enabled(clone.states, event, clone.binding)
        complete = [t for t, new in clone_matches if not new]
        if complete:
            progress = True
            if _step(cr, clone, complete, hub, event):
                site = True
        clones.append(clone)
    return progress, site


def _add_clones(cr, clones, hub) -> None:
    """Pool-add accumulated clones with the once-per-bound OVERFLOW."""
    for clone in clones:
        if not cr.pool.add(clone):
            if not cr.overflow_reported:
                cr.overflow_reported = True
                hub.emit(
                    Notification(
                        kind=NotificationKind.OVERFLOW,
                        automaton=cr.automaton.name,
                        instance_name=clone.name,
                    )
                )


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


class _Unsupported(Exception):
    """Raised internally when a plan cannot be specialized."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


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


class _SymbolPlan:
    """Per-symbol generated fragments: the event-static prologue and the
    per-instance match block (both as line lists at abstract indent 0)."""

    __slots__ = ("match_var", "prologue", "instance_block")

    def __init__(self, match_var: str) -> None:
        self.match_var = match_var
        self.prologue: List[Tuple[int, str]] = []
        self.instance_block: List[Tuple[int, str]] = []


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
    guarded extraction assignment in ``extract``.
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
        return
    raise _Unsupported(f"unsupported-pattern:{type(pattern).__name__}")


def _compile_symbol(
    em: _Emitter,
    symbol_id: int,
    symbol,
    automaton: Automaton,
    facts: CodegenFacts,
) -> Tuple[_SymbolPlan, int]:
    """Generate the prologue + per-instance block for one event symbol.

    Returns the fragments and the number of arity guards elided.
    """
    expr = symbol.expr
    plan = _SymbolPlan(f"_m{symbol_id}")
    elided_guards = 0

    if isinstance(expr, AssertionSite):
        # Site symbols constrain only the scope variables the site
        # supplies; membership and extraction are event-static.
        has: List[Tuple[str, str, str]] = []  # (name, has-local, val-local)
        for k, name in enumerate(symbol.site_variables):
            n_const = em.const(name, "N")
            h = f"_h{symbol_id}_{k}"
            x = f"_sv{symbol_id}_{k}"
            plan.prologue.append((0, f"{h} = {n_const} in _scope"))
            plan.prologue.append((0, f"{x} = _scope.get({n_const})"))
            has.append((n_const, h, x))
        m = plan.match_var
        if not has:
            plan.instance_block.append((0, f"{m} = _E"))
            return plan, elided_guards
        plan.instance_block.append((0, f"{m} = _E"))
        plan.instance_block.append((0, "_nb = None"))
        for n_const, h, x in has:
            plan.instance_block.append((0, f"if {h}:"))
            plan.instance_block.append(
                (1, f"_b = _bind.get({n_const}, _UB)")
            )
            plan.instance_block.append((1, "if _b is _UB:"))
            plan.instance_block.append((2, "if _nb is None:"))
            plan.instance_block.append((3, f"_nb = {{{n_const}: {x}}}"))
            plan.instance_block.append((2, "else:"))
            plan.instance_block.append((3, f"_nb[{n_const}] = {x}"))
            plan.instance_block.append(
                (1, f"elif not (_b is {x} or _b == {x}):")
            )
            plan.instance_block.append((2, f"{m} = _NO"))
        plan.instance_block.append(
            (0, f"if {m} is not _NO and _nb is not None:")
        )
        plan.instance_block.append((1, f"{m} = _nb"))
        return plan, elided_guards

    static: List[str] = []
    variables: List[Tuple[str, str]] = []
    extract: List[Tuple[str, str]] = []

    if isinstance(expr, FunctionCall):
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
    elif isinstance(expr, FunctionReturn):
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
        if expr.retval is not None:
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
    else:
        raise _Unsupported(f"unsupported-event:{type(expr).__name__}")

    ok = f"_ok{symbol_id}"
    m = plan.match_var

    # Deduplicate repeated variables: the first occurrence binds, later
    # occurrences must agree with it — checked once per event against the
    # extracted values (``match_all``'s scratch-consistency rule).
    first_local: Dict[str, str] = {}
    consistency: List[str] = []
    deduped: List[Tuple[str, str]] = []
    for name, local in variables:
        seen = first_local.get(name)
        if seen is None:
            first_local[name] = local
            deduped.append((name, local))
        else:
            consistency.append(f"({seen} is {local} or {seen} == {local})")

    if not static and not extract:
        # No constraints at all (or args=None): every event of this key
        # matches, learning nothing.
        plan.instance_block.append((0, f"{m} = _E"))
        return plan, elided_guards

    if static:
        plan.prologue.append((0, f"{ok} = " + " and ".join(static)))
    else:
        plan.prologue.append((0, f"{ok} = True"))
    if extract:
        plan.prologue.append((0, f"if {ok}:"))
        for local, value_expr in extract:
            plan.prologue.append((1, f"{local} = {value_expr}"))
        for check in consistency:
            plan.prologue.append((1, f"if not {check}:"))
            plan.prologue.append((2, f"{ok} = False"))

    if not deduped:
        plan.instance_block.append((0, f"{m} = _E if {ok} else _NO"))
        return plan, elided_guards

    plan.instance_block.append((0, f"if {ok}:"))
    plan.instance_block.append((1, f"{m} = _E"))
    plan.instance_block.append((1, "_nb = None"))
    for name, local in deduped:
        n_const = em.const(name, "N")
        plan.instance_block.append((1, f"_b = _bind.get({n_const}, _UB)"))
        plan.instance_block.append((1, "if _b is _UB:"))
        plan.instance_block.append((2, "if _nb is None:"))
        plan.instance_block.append((3, f"_nb = {{{n_const}: {local}}}"))
        plan.instance_block.append((2, "else:"))
        plan.instance_block.append((3, f"_nb[{n_const}] = {local}"))
        plan.instance_block.append(
            (1, f"elif not (_b is {local} or _b == {local}):")
        )
        plan.instance_block.append((2, f"{m} = _NO"))
    plan.instance_block.append((1, f"if {m} is not _NO and _nb is not None:"))
    plan.instance_block.append((2, f"{m} = _nb"))
    plan.instance_block.append((0, "else:"))
    plan.instance_block.append((1, f"{m} = _NO"))
    return plan, elided_guards


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


def _emit_event_body(
    em: _Emitter,
    base: int,
    automaton: Automaton,
    key: PlanKey,
    body: List[Tuple[int, Transition, int]],
    symbol_plans: Dict[int, _SymbolPlan],
    triple_consts: List[Tuple[str, str, str, str, str, bool]],
) -> None:
    """Emit the per-event evaluation (lazy materialise, prologue,
    instance walk, endgame) at indentation ``base``."""
    kind = key[0]
    is_site_key = kind is EventKind.ASSERTION_SITE
    strict = automaton.strict

    # Lazy initialisation (section 5.2.2): the first relevant event of a
    # bound materialises the wildcard instance — inline while the pool has
    # room; a full pool (the once-per-bound OVERFLOW report) or armed fault
    # injection takes ``_materialise``.
    em.emit(base, "if cr.pending:")
    em.emit(base + 1, "cr.pending = False")
    em.emit(base + 1, "_inst = _pool._instances")
    em.emit(base + 1,
            "if len(_inst) < _pool.capacity and _fi._active is None:")
    em.emit(base + 2, "_inst.append(_AI(_A, _ENTRY, cr.lazy_binding, "
                      "False, cr.lazy_entry_ts))")
    em.emit(base + 2, "if len(_inst) > _pool.high_water:")
    em.emit(base + 3, "_pool.high_water = len(_inst)")
    em.emit(base + 1, "else:")
    em.emit(base + 2,
            "_mat(cr, hub, dict(cr.lazy_binding), cr.lazy_entry_ts)")

    if not body:
        # Every body transition was elided (or the plan was empty): no
        # instance can ever step on this key; only the endgame remains.
        em.emit(base, "_prog = False")
        em.emit(base, "_site = False")
        _emit_endgame(em, base, is_site_key, strict)
        return

    # Event field loads + per-symbol static evaluation.
    if kind is EventKind.CALL:
        em.emit(base, "_args = event.args")
    elif kind is EventKind.RETURN:
        em.emit(base, "_args = event.args")
        em.emit(base, "_ret = event.retval")
    elif kind is EventKind.FIELD_ASSIGN:
        em.emit(base, "_op = event.op")
        em.emit(base, "_target = event.target")
        em.emit(base, "_ret = event.retval")
    else:
        em.emit(base, "_scope = event.scope")
    for sid in sorted(symbol_plans):
        for ind, text in symbol_plans[sid].prologue:
            em.emit(base + ind, text)

    em.emit(base, "_prog = False")
    em.emit(base, "_site = False")
    em.emit(base, "_clones = []")
    em.emit(base, "_tc = cr.counts")
    em.emit(base, "for instance in _pool.live():")
    em.emit(base + 1, "_st = instance.states")
    em.emit(base + 1, "_bind = instance.binding")
    for sid in sorted(symbol_plans):
        for ind, text in symbol_plans[sid].instance_block:
            em.emit(base + 1 + ind, text)
    # Per-triple enabled flags and the match count.
    flags = []
    for i, (src_c, _, _, _, _, _) in enumerate(triple_consts):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        f = f"_f{i}"
        flags.append(f)
        em.emit(base + 1, f"{f} = {src_c} in _st and {m} is not _NO")
    em.emit(base + 1, f"_n = {' + '.join(flags)}")
    em.emit(base + 1, "if not _n:")
    em.emit(base + 2, "continue")
    em.emit(base + 1, "if _n == 1:")
    first = True
    for i, (src_c, tr_c, ix_c, srct_c, dfs_c, took_site) in enumerate(
        triple_consts
    ):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        dst_c = dfs_c  # strict: frozenset const; else dst tuple const
        kw = "if" if first else "elif"
        first = False
        em.emit(base + 2, f"{kw} _f{i}:")
        em.emit(base + 3, f"if {m} is _E:")
        # Inline single-transition step (update._step's len==1 branch,
        # hub.detailed known False here).
        em.emit(base + 4, "_prog = True")
        if strict:
            em.emit(base + 4, f"instance.states = {dst_c}")
        else:
            em.emit(
                base + 4,
                f"instance.states = _st.difference({srct_c})"
                f".union({dst_c})",
            )
        em.emit(base + 4, f"_tc[{ix_c}] += 1")
        if took_site:
            em.emit(base + 4, "instance.saw_site = True")
            em.emit(base + 4, "cr.sites_reached += 1")
            em.emit(base + 4, "_site = True")
        em.emit(base + 4, "continue")
        # Single match with a new binding: the clone's only completing
        # transition is this one (any other triple that could complete
        # for the clone would have matched this instance too, making
        # _n >= 2), so the interpreter's clone-and-re-step collapses to
        # a dedupe probe plus an inline step — no matcher re-evaluation.
        em.emit(base + 3, "_nb2 = dict(_bind)")
        em.emit(base + 3, f"_nb2.update({m})")
        em.emit(base + 3, "if _pool.find(_nb2) is None:")
        em.emit(base + 4, "for _c in _clones:")
        em.emit(base + 5, "if _c.same_binding(_nb2):")
        em.emit(base + 6, "break")
        em.emit(base + 4, "else:")
        em.emit(base + 5, f"_cl = instance.clone({m})")
        em.emit(base + 5, "_prog = True")
        if strict:
            em.emit(base + 5, f"_cl.states = {dst_c}")
        else:
            em.emit(
                base + 5,
                f"_cl.states = _st.difference({srct_c}).union({dst_c})",
            )
        em.emit(base + 5, f"_tc[{ix_c}] += 1")
        if took_site:
            em.emit(base + 5, "_cl.saw_site = True")
            em.emit(base + 5, "cr.sites_reached += 1")
            em.emit(base + 5, "_site = True")
        em.emit(base + 5, "_clones.append(_cl)")
        em.emit(base + 3, "continue")
    em.emit(base + 1, "else:")
    em.emit(base + 2, "_mt = []")
    for i, (_, tr_c, _, _, _, _) in enumerate(triple_consts):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        em.emit(base + 2, f"if _f{i}:")
        em.emit(base + 3, f"_mt.append(({tr_c}, {m}))")
    em.emit(
        base + 1,
        "_p, _s = _slow(cr, instance, _mt, hub, event, _clones, _enabled)",
    )
    em.emit(base + 1, "if _p:")
    em.emit(base + 2, "_prog = True")
    em.emit(base + 1, "if _s:")
    em.emit(base + 2, "_site = True")
    em.emit(base, "if _clones:")
    em.emit(base + 1, "_addc(cr, _clones, hub)")

    _emit_endgame(em, base, is_site_key, strict)


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
    """Generate the specialized ``step`` source for one plan.

    Returns a :class:`GeneratedSource`; an unspecializable plan yields
    one with ``fallback_reason`` set and no source.
    """
    if facts is None:
        facts = CodegenFacts.NONE
    key = plan.key
    em = _Emitter()
    try:
        if automaton.timed:
            # Timed automata (DESIGN §5.9) need per-event deadline expiry
            # and clock-guard filtering, which live in the interpreter's
            # tesla_update_state; a generated step would bypass both.
            # Refuse every plan of a timed automaton — the loud, counted
            # fallback keeps verdicts exact at interpreter speed.
            raise _Unsupported("timed-automaton:clock-guards")
        occupiable = _occupiable_states(automaton)
        # tesla-prove widening: an occupancy fact intersects the forward
        # closure with the prove fixpoint's occupied-state union and —
        # being a proof in its own right — lifts the lint-clean gate.
        proved_occ = facts.occupancy.get(automaton.name)
        if proved_occ is not None:
            occupiable = occupiable & proved_occ
        may_elide = facts.clean or proved_occ is not None
        body: List[Tuple[int, Transition, int]] = []
        elided_transitions = 0
        for src, transition, _matcher in plan.body:
            if may_elide and src not in occupiable:
                elided_transitions += 1
                continue
            body.append((src, transition, transition.symbol))

        symbol_plans: Dict[int, _SymbolPlan] = {}
        elided_guards = 0
        for _, _, sid in body:
            if sid not in symbol_plans:
                sym_plan, elided = _compile_symbol(
                    em, sid, automaton.symbols[sid], automaton, facts
                )
                symbol_plans[sid] = sym_plan
                elided_guards += elided
    except _Unsupported as exc:
        return GeneratedSource(fallback_reason=exc.reason)

    triple_consts: List[Tuple[str, str, str, str, str, bool]] = []
    for src, transition, _sid in body:
        src_c = em.const(src, "S")
        tr_c = em.const(transition, "T")
        ix_c = em.const(automaton.transition_index[transition], "I")
        srct_c = em.const((src,), "ST")
        if automaton.strict:
            dfs_c = em.const(frozenset((transition.dst,)), "D")
        else:
            dfs_c = em.const((transition.dst,), "D")
        triple_consts.append(
            (src_c, tr_c, ix_c, srct_c, dfs_c,
             transition.kind is TransitionKind.SITE)
        )

    header = (
        f"# tesla-jit v{CODEGEN_VERSION} automaton={automaton.name} "
        f"key={key[0].name}:{key[1]} strict={automaton.strict} "
        f"triples={len(body)} elided_guards={elided_guards} "
        f"elided_transitions={elided_transitions}"
    )
    em.lines.append(header)
    em.emit(0, "def step(cr, event, hub):")
    em.emit(1, "if hub.detailed:")
    em.emit(2, "return _interp(cr, event, hub, True, _plan)")
    em.emit(1, "if not cr.active:")
    em.emit(2, "return")
    em.emit(1, "_pool = cr.pool")
    _emit_event_body(em, 1, automaton, key, body, symbol_plans, triple_consts)

    namespace = dict(em.namespace)
    namespace.update(
        {
            "_interp": tesla_update_state,
            "_plan": plan,
            "_mat": _materialise,
            "_AI": AutomatonInstance,
            "_A": automaton,
            "_ENTRY": automaton.entry_states,
            "_fi": _fi,
            "_slow": _instance_slow_step,
            "_addc": _add_clones,
            "_already": _upd_already_satisfied,
            "_serr": _site_error,
            "_xerr": _strict_error,
            "_enabled": plan.enabled,
            "_E": EMPTY_BINDING,
            "_NO": _NO,
            "_UB": UNBOUND,
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
    """Compile one plan to a :class:`CompiledStep`, or a
    :class:`GenerationFallback` naming why it could not be specialized."""
    generated = generate_source(automaton, plan, facts)
    if generated.fallback_reason is not None:
        return GenerationFallback(generated.fallback_reason)
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
    mode calls ``handle_init``/``handle_cleanup`` per class.  The namespace holds the plan's class
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
        init = "_init(cr, event, _hub, False, cr.plan_for(_KEY, _EPOCH))"
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
                    "        cr.pool._instances = []",
                    "        cr.active = True",
                    "        cr.pending = True",
                    "        cr.lazy_binding = {}",
                    f"        cr.lazy_entry_ts = _tr.entry_ts.get({b}, 0.0)",
                    "        cr.overflow_mark = cr.pool.overflows",
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
            em.emit(2, f"for _n in sorted(_tch.pop({b}, ())):")
            _emit_unit(em, 3, "_n", "cleanup", governed,
                       ["cr = _cls[_n]", "_CU[_n](cr, event)"])
    else:
        cleanup = "_cleanup(cr, event, _hub, cr.plan_for(_KEY, _EPOCH))"
        for name in work.cleanup_names:
            n = name_const(name)
            _emit_unit(em, 1, n, "cleanup", governed,
                       [f"cr = _cls[{n}]", cleanup])
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
    ``_join``, ``_init``, ``_cleanup``, ``_CU``, ``_gov``, ``_now``,
    ``_charge``, ``_admit``, ``_rate``, ``_KEY``, ``_EPOCH``)."""
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


def generate_cleanup_source(
    automaton: Automaton, plan: TransitionPlan
) -> GeneratedSource:
    """Generate ``cleanup(cr, event)``: ``handle_cleanup`` for one class
    (``plan`` is its plan for its cleanup key), with the class's facts
    computed here once — which cleanup transition the event takes and
    which states accept.

    When the first cleanup transition's symbol constrains nothing, it
    matches every event of the key, so its count is folded in; otherwise
    the plan's matchers are tried in order.  Then the class closes: every instance is
    expunged, accepting ones count as accepts, and ones that passed the
    site but cannot accept are errors.  Lifecycle notifications are the
    reference's (``hub.detailed`` calls ``handle_cleanup``), and so is a
    deadline class's whole cleanup, which first expires late
    obligations.
    """
    em = _Emitter()
    entries = plan.cleanup
    deadline = automaton.deadline_s is not None
    folded = bool(entries) and entries[0][1] is _match_nothing
    em.lines.append(
        f"# tesla-jit v{CODEGEN_VERSION} cleanup deadline={deadline} "
        f"folded={folded} matchers={0 if folded else len(entries)}"
    )
    em.emit(0, "def cleanup(cr, event):")
    reference = "_cleanup(cr, event, _hub, cr.plan_for(_KEY, _ep.value))"
    if deadline:
        em.emit(1, reference)
        return GeneratedSource(source=em.source(), namespace=em.namespace)
    em.emit(1, "if not cr.active:")
    em.emit(2, "return")
    em.emit(1, "if _hub.detailed:")
    em.emit(2, f"return {reference}")
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
    em.emit(1, "_inst = _pool._instances")
    em.emit(1, "if _inst:")
    em.emit(2, "_pool._instances = []")
    em.emit(2, "for instance in _inst:")
    em.emit(3, "if _CS.isdisjoint(instance.states):")
    em.emit(4, "if instance.saw_site:")
    em.emit(5, "cr.errors += 1")
    em.emit(5, "_cerr(cr, event, _hub, instance)")
    em.emit(3, "else:")
    em.emit(4, "cr.accepts += 1")
    return GeneratedSource(source=em.source(), namespace=em.namespace)


def compile_cleanup(automaton: Automaton, key: PlanKey, hub, cleanup):
    """Compile one class's cleanup (see :func:`generate_cleanup_source`)
    for its cleanup ``key`` through the key functions' code cache, bound
    to the runtime's ``hub`` and reference ``cleanup`` (the manager's
    ``handle_cleanup``)."""
    plan = build_transition_plan(automaton, key)
    generated = generate_cleanup_source(automaton, plan)
    namespace = generated.namespace
    namespace.update(
        {
            "_hub": hub,
            "_cleanup": cleanup,
            "_cerr": cleanup_error,
            "_CS": automaton.cleanup_states,
            "_KEY": key,
            "_ep": interest_epoch,
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
    static: List[str] = []
    try:
        _pattern_value_checks(em, pattern, value_expr, static, [], [])
    except _Unsupported:
        check = em.const(compile_static_check(pattern), "P")
        static = [f"{check}({value_expr})"]
    tests.extend(static)


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
    * ``"deferred"`` — the capture path: the stamp, the thread-local
      share inline when ``local``, the ring append, and a flush when
      ``sync`` (a synchronization-point key);
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
        if local:
            em.emit(1, "_dispatch_local(event, _KEY)")
        em.emit(1, "_enqueue(event)")
        if sync:
            em.emit(1, "_drain.flush(sync=True)")
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
            em.emit(2, "store = _current()")
        em.emit(indent, "fn = work.fn")
        em.emit(indent, "if fn is not None and _fi._active is None:")
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
    ``_gstore``, ``_current``, ``_fi``, ``_run_context``,
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
