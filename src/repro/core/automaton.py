"""Finite-state automata derived from TESLA assertions.

An :class:`Automaton` is the analyser's output: a nondeterministic
finite-state machine whose alphabet is a list of :class:`EventSymbol`
values (symbolic program events carrying argument patterns) plus the three
structural transition kinds ``init``, ``cleanup`` and ``assertion-site``.

The representation mirrors figure 9 of the paper: state 0 is the dormant
state, an «init» transition (entry into the temporal bound) creates a live
instance, symbolic-event and assertion-site transitions advance it, and a
«cleanup» transition (exit from the bound) finalises it.  Rather than
materialising the paper's explicit *bypass* cleanup transitions on every
pre-assertion-site state, the runtime treats "cleanup while the assertion
site was never reached" as a silent discard — an equivalent and much
smaller encoding; see :mod:`repro.runtime.update`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import AssertionParseError
from .ast import (
    AssertionSite,
    AssignOp,
    Expression,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
    InstrumentationSide,
)
from .events import EventKind, RuntimeEvent
from .patterns import (
    EMPTY_BINDING,
    NO_MATCH,
    UNBOUND,
    Binding,
    compile_args_matcher,
    compile_pattern,
    match_all,
)

#: A compiled event matcher: ``(event, binding) -> None | new-bindings``.
#: Produced by :meth:`EventSymbol.compile_matcher`; the kind/name guards of
#: the interpreted :meth:`EventSymbol.match` are elided because transition
#: plans only ever route an event to matchers for its own dispatch key.
EventMatcher = Callable[[RuntimeEvent, Binding], Optional[Binding]]


def _match_nothing(event: RuntimeEvent, binding: Binding) -> Binding:
    """Matcher for symbols with no argument constraints at all."""
    return EMPTY_BINDING


class TransitionKind(enum.Enum):
    """The structural role of a transition: bound entry/exit, a symbolic
    event, the assertion site, or a construction-time epsilon."""
    INIT = "init"
    CLEANUP = "cleanup"
    EVENT = "event"
    SITE = "assertion-site"
    EPSILON = "epsilon"

    # Identity hashing (members are singletons); Enum's default re-hashes
    # the member name string on every bound-tracker / dispatch dict probe.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class EventSymbol:
    """One letter of an automaton's alphabet: a symbolic program event.

    ``expr`` is a *concrete event* AST node (function call/return, field
    assignment or assertion site).  ``site_variables`` is only used for
    assertion-site symbols: the dynamic variables whose site-scope values
    the event translator passes in.
    """

    expr: Expression
    site_variables: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(
            self.expr, (FunctionCall, FunctionReturn, FieldAssign, AssertionSite)
        ):
            raise AssertionParseError(
                f"not a concrete event: {self.expr.describe()}"
            )

    @property
    def dispatch_key(self) -> Tuple[EventKind, str]:
        """The (kind, name) pair the runtime indexes hooks by."""
        expr = self.expr
        if isinstance(expr, FunctionCall):
            return (EventKind.CALL, expr.function)
        if isinstance(expr, FunctionReturn):
            return (EventKind.RETURN, expr.function)
        if isinstance(expr, FieldAssign):
            return (EventKind.FIELD_ASSIGN, f"{expr.struct}.{expr.field_name}")
        return (EventKind.ASSERTION_SITE, "")

    def match(self, event: RuntimeEvent, binding: Binding) -> Optional[Binding]:
        """Match a concrete event under ``binding``.

        Returns ``None`` on mismatch, ``{}`` on a match learning nothing, or
        the dict of new variable bindings (which triggers instance cloning).
        """
        expr = self.expr
        if isinstance(expr, FunctionCall):
            if event.kind is not EventKind.CALL or event.name != expr.function:
                return None
            if expr.args is None:
                return {}
            return match_all(expr.args, event.args, binding)
        if isinstance(expr, FunctionReturn):
            if event.kind is not EventKind.RETURN or event.name != expr.function:
                return None
            new: Binding = {}
            if expr.args is not None:
                got = match_all(expr.args, event.args, binding)
                if got is None:
                    return None
                new.update(got)
            if expr.retval is not None:
                scratch = dict(binding)
                scratch.update(new)
                got = expr.retval.match(event.retval, scratch)
                if got is None:
                    return None
                new.update(got)
            return new
        if isinstance(expr, FieldAssign):
            if event.kind is not EventKind.FIELD_ASSIGN:
                return None
            if event.name != f"{expr.struct}.{expr.field_name}":
                return None
            if expr.op is not None and event.op is not expr.op:
                return None
            new = {}
            if expr.target is not None:
                got = expr.target.match(event.target, binding)
                if got is None:
                    return None
                new.update(got)
            if expr.value is not None:
                scratch = dict(binding)
                scratch.update(new)
                got = expr.value.match(event.retval, scratch)
                if got is None:
                    return None
                new.update(got)
            return new
        # Assertion site: match the site's scope values against our
        # variables.  Only variables the site actually supplies constrain
        # the match; each may check or extend the binding.
        if event.kind is not EventKind.ASSERTION_SITE:
            return None
        new = {}
        for var in self.site_variables:
            if var not in event.scope:
                continue
            value = event.scope[var]
            if var in binding:
                bound = binding[var]
                if not (bound is value or bound == value):
                    return None
            else:
                new[var] = value
        return new

    def compile_matcher(self) -> EventMatcher:
        """Compile :meth:`match` into a closure for the transition-plan path.

        The kind/name guards are deliberately elided: plans are built per
        dispatch key, so a compiled matcher is only ever invoked on events
        whose (kind, name) already equal this symbol's.  Everything else —
        argument patterns, return-value patterns, assign-op checks,
        site-scope variable checks — is resolved here once, so the per-event
        work is a chain of comparisons with no isinstance dispatch.
        """
        expr = self.expr
        if isinstance(expr, FunctionCall):
            if expr.args is None:
                return _match_nothing
            args_m = compile_args_matcher(expr.args)

            def match_call(event: RuntimeEvent, binding: Binding, _a=args_m):
                return _a(event.args, binding)

            return match_call
        if isinstance(expr, FunctionReturn):
            args_m = (
                compile_args_matcher(expr.args)
                if expr.args is not None
                else None
            )
            ret_m = (
                compile_pattern(expr.retval)
                if expr.retval is not None
                else None
            )
            if args_m is None and ret_m is None:
                return _match_nothing
            if ret_m is None:

                def match_return_args(
                    event: RuntimeEvent, binding: Binding, _a=args_m
                ):
                    return _a(event.args, binding)

                return match_return_args
            if args_m is None:

                def match_return_ret(
                    event: RuntimeEvent, binding: Binding, _r=ret_m
                ):
                    return _r(event.retval, binding)

                return match_return_ret

            def match_return(
                event: RuntimeEvent, binding: Binding, _a=args_m, _r=ret_m
            ):
                new = _a(event.args, binding)
                if new is NO_MATCH:
                    return NO_MATCH
                if new:
                    scratch = dict(binding)
                    scratch.update(new)
                    got = _r(event.retval, scratch)
                else:
                    got = _r(event.retval, binding)
                if got is NO_MATCH:
                    return NO_MATCH
                if not got:
                    return new
                if not new:
                    return got
                merged = dict(new)
                merged.update(got)
                return merged

            return match_return
        if isinstance(expr, FieldAssign):
            op = expr.op
            target_m = (
                compile_pattern(expr.target)
                if expr.target is not None
                else None
            )
            value_m = (
                compile_pattern(expr.value) if expr.value is not None else None
            )

            def match_field(
                event: RuntimeEvent,
                binding: Binding,
                _op=op,
                _t=target_m,
                _v=value_m,
            ):
                if _op is not None and event.op is not _op:
                    return NO_MATCH
                new = EMPTY_BINDING
                if _t is not None:
                    new = _t(event.target, binding)
                    if new is NO_MATCH:
                        return NO_MATCH
                if _v is not None:
                    if new:
                        scratch = dict(binding)
                        scratch.update(new)
                        got = _v(event.retval, scratch)
                    else:
                        got = _v(event.retval, binding)
                    if got is NO_MATCH:
                        return NO_MATCH
                    if got:
                        if new:
                            merged = dict(new)
                            merged.update(got)
                            return merged
                        return got
                return new

            return match_field
        # Assertion site.
        variables = self.site_variables

        def match_site(
            event: RuntimeEvent, binding: Binding, _vars=variables
        ):
            scope = event.scope
            new: Optional[Binding] = None
            for var in _vars:
                if var not in scope:
                    continue
                value = scope[var]
                bound = binding.get(var, UNBOUND)
                if bound is UNBOUND:
                    if new is None:
                        new = {var: value}
                    else:
                        new[var] = value
                elif not (bound is value or bound == value):
                    return NO_MATCH
            return new if new else EMPTY_BINDING

        return match_site

    def describe(self) -> str:
        return self.expr.describe()


@dataclass(frozen=True)
class ClockGuard:
    """A clock constraint on a transition (DESIGN §5.9).

    ``kind`` selects the reference point the elapsed time is measured
    from: ``"since_entry"`` (the instance's bound-entry timestamp, used by
    ``deadline(...)``), ``"since_prev"`` (the timestamp of the previous
    transition this instance took, used by ``within_ms(...)``), or
    ``"rate"`` (a sliding window: at most ``count`` matching events in any
    ``limit_s`` span, used by ``rate_atmost(...)``).  ``limit_s`` is in
    seconds — the same unit the capture clock stamps events in.
    """

    kind: str
    limit_s: float
    count: int = 0

    def sort_key(self) -> Tuple[str, float, int]:
        return (self.kind, self.limit_s, self.count)

    def describe(self) -> str:
        ms = self.limit_s * 1000.0
        if self.kind == "rate":
            return f"≤{self.count}/{ms:g}ms"
        if self.kind == "since_entry":
            return f"≤{ms:g}ms from entry"
        return f"≤{ms:g}ms"


#: Sort key for a transition's (possibly absent) guard.
_NO_GUARD_KEY = ("", -1.0, -1)


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    kind: TransitionKind
    #: Index into :attr:`Automaton.symbols` for EVENT/SITE transitions.
    symbol: Optional[int] = None
    #: Clock constraint the event must satisfy for the transition to be
    #: enabled; ``None`` for ordinary (ordinal) transitions.
    guard: Optional[ClockGuard] = None

    def __post_init__(self) -> None:
        # Transitions are hashed on every interpreted ``count_transition``
        # (once per transition taken); the generated frozen-dataclass hash rebuilds
        # a field tuple each call, so cache it once.  Equality is still
        # field-based, matching the generated hash's equivalence classes.
        object.__setattr__(
            self,
            "_hash",
            hash((self.src, self.dst, self.kind, self.symbol, self.guard)),
        )

    def __hash__(self) -> int:
        return self._hash

    def describe(self, automaton: "Automaton") -> str:
        if self.kind in (TransitionKind.EVENT, TransitionKind.SITE):
            label = automaton.symbols[self.symbol].describe()
        else:
            label = f"«{self.kind.value}»"
        if self.guard is not None:
            label = f"{label} [{self.guard.describe()}]"
        return f"{self.src} --{label}--> {self.dst}"


class Automaton:
    """A translated TESLA assertion, ready for instantiation by the runtime.

    States are integers.  ``start`` is the dormant pre-init state; ``init``
    transitions lead from it to the live entry state.  ``accept`` is the
    single post-cleanup success state.
    """

    def __init__(
        self,
        name: str,
        symbols: List[EventSymbol],
        transitions: Iterable[Transition],
        start: int,
        accept: int,
        n_states: int,
        strict: bool = False,
        description: str = "",
        deadline_s: Optional[float] = None,
    ) -> None:
        self.name = name
        self.symbols = list(symbols)
        self.transitions = list(transitions)
        self.start = start
        self.accept = accept
        self.n_states = n_states
        self.strict = strict
        self.description = description
        #: ``deadline(ms, ...)`` obligation: seconds after bound entry by
        #: which a live, site-touched instance must be able to accept.
        #: ``None`` for untimed assertions (the overwhelmingly common case).
        self.deadline_s = deadline_s
        #: True when any transition carries a clock guard or a deadline is
        #: set.  The runtime's timed machinery (guard filtering, per-event
        #: expiry, timer checks) is gated on this so untimed assertions pay
        #: nothing; codegen refuses timed automata and falls back loudly.
        self.timed = deadline_s is not None or any(
            t.guard is not None for t in self.transitions
        )
        self._outgoing: Dict[int, List[Transition]] = {}
        for t in self.transitions:
            self._outgoing.setdefault(t.src, []).append(t)
        #: Transition -> its position in ``transitions`` (the first, for
        #: equal transitions): the runtime's per-class transition counts
        #: are a list indexed by it.
        self.transition_index: Dict[Transition, int] = {}
        for i, t in enumerate(self.transitions):
            self.transition_index.setdefault(t, i)
        # Hot-path structure, computed once: the runtime consults these on
        # every bound open (init/entry) and close (cleanup) rather than
        # re-deriving them from the transition list.
        self._init_transitions = tuple(
            t for t in self.transitions if t.kind is TransitionKind.INIT
        )
        self._entry_states = frozenset(
            t.dst for t in self._init_transitions
        )
        self._cleanup_states = frozenset(
            t.src for t in self.transitions
            if t.kind is TransitionKind.CLEANUP
        )
        self._site_states = self._compute_site_states()
        self._dispatch_key_set = frozenset(self.dispatch_keys())
        site_vars: Tuple[str, ...] = ()
        for t in self.transitions:
            if t.kind is TransitionKind.SITE:
                site_vars = self.symbols[t.symbol].site_variables
                break
        self._site_variables = site_vars

    # -- structure ---------------------------------------------------------

    def outgoing(self, state: int) -> List[Transition]:
        return self._outgoing.get(state, [])

    @property
    def init_transitions(self) -> Tuple[Transition, ...]:
        return self._init_transitions

    @property
    def entry_states(self) -> FrozenSet[int]:
        """States a fresh instance starts in (targets of «init»)."""
        return self._entry_states

    def _compute_site_states(self) -> FrozenSet[int]:
        """States reachable only *after* an assertion-site transition."""
        post: Set[int] = set()
        frontier = [
            t.dst for t in self.transitions if t.kind is TransitionKind.SITE
        ]
        while frontier:
            state = frontier.pop()
            if state in post:
                continue
            post.add(state)
            for t in self.outgoing(state):
                frontier.append(t.dst)
        return frozenset(post)

    @property
    def post_site_states(self) -> FrozenSet[int]:
        return self._site_states

    @property
    def site_variables(self) -> Tuple[str, ...]:
        """Site-scope variables of the assertion-site symbol (cached; the
        runtime consults this on every already-satisfied site check)."""
        return self._site_variables

    @property
    def cleanup_states(self) -> FrozenSet[int]:
        """States with an enabled «cleanup» transition (they accept)."""
        return self._cleanup_states

    def cleanup_enabled(self, states: FrozenSet[int]) -> bool:
        """Whether an instance in ``states`` accepts at the cleanup event."""
        return not self._cleanup_states.isdisjoint(states)

    # -- dispatch indexing ---------------------------------------------------

    def dispatch_keys(self) -> Set[Tuple[EventKind, str]]:
        """Every (kind, name) pair this automaton must observe, including
        the init/cleanup bound events."""
        keys: Set[Tuple[EventKind, str]] = set()
        for t in self.transitions:
            if t.symbol is not None:
                kind, name = self.symbols[t.symbol].dispatch_key
                if kind is EventKind.ASSERTION_SITE:
                    keys.add((kind, self.name))
                else:
                    keys.add((kind, name))
        return keys

    # -- instance stepping (used by the runtime) ----------------------------

    def enabled(
        self, states: FrozenSet[int], event: RuntimeEvent, binding: Binding
    ) -> List[Tuple[Transition, Binding]]:
        """All transitions enabled from ``states`` on ``event``.

        Returns (transition, new-bindings) pairs; an empty new-binding dict
        means the instance can step in place, a non-empty one means a clone
        must take the step.
        """
        result: List[Tuple[Transition, Binding]] = []
        for state in states:
            for t in self.outgoing(state):
                if t.kind not in (TransitionKind.EVENT, TransitionKind.SITE):
                    continue
                symbol = self.symbols[t.symbol]
                if t.kind is TransitionKind.SITE:
                    # Site transitions are dispatched by assertion name.
                    if (
                        event.kind is not EventKind.ASSERTION_SITE
                        or event.name != self.name
                    ):
                        continue
                new = symbol.match(event, binding)
                if new is None:
                    continue
                result.append((t, new))
        return result

    def references(self, event: RuntimeEvent) -> bool:
        """Whether ``event``'s dispatch key appears in the alphabet at all
        (used by ``strict`` mode and by the dispatch index)."""
        if event.kind is EventKind.ASSERTION_SITE:
            return event.name == self.name
        return (event.kind, event.name) in self._dispatch_key_set

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        lines = [f"automaton {self.name} ({self.n_states} states)"]
        for t in sorted(self.transitions, key=lambda t: (t.src, t.dst)):
            lines.append("  " + t.describe(self))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<Automaton {self.name}: {self.n_states} states, {len(self.transitions)} transitions>"


# ---------------------------------------------------------------------------
# NFA fragments: the builder used by the translator
# ---------------------------------------------------------------------------


@dataclass
class Fragment:
    """A partially built NFA with a single entry and single exit state.

    Fragments use local state numbering and may contain epsilon
    transitions; :func:`assemble` renumbers, eliminates epsilons and
    produces the final :class:`Automaton`.
    """

    entry: int
    exit: int
    transitions: List[Transition] = field(default_factory=list)
    n_states: int = 0


class FragmentBuilder:
    """Allocates states and symbols while the translator descends the AST."""

    def __init__(self) -> None:
        self.symbols: List[EventSymbol] = []
        self._symbol_index: Dict[EventSymbol, int] = {}
        self.n_states = 0

    def state(self) -> int:
        s = self.n_states
        self.n_states += 1
        return s

    def symbol(self, sym: EventSymbol) -> int:
        new = len(self.symbols)
        try:
            idx = self._symbol_index.setdefault(sym, new)
        except TypeError:  # an unhashable constant: found by equality
            idx = next((i for i, s in enumerate(self.symbols) if s == sym), new)
        if idx == new:
            self.symbols.append(sym)
        return idx

    # -- fragment constructors ------------------------------------------------

    def event(self, sym: EventSymbol, kind: TransitionKind = TransitionKind.EVENT) -> Fragment:
        a, b = self.state(), self.state()
        idx = self.symbol(sym)
        return Fragment(a, b, [Transition(a, b, kind, idx)])

    def epsilon(self) -> Fragment:
        a, b = self.state(), self.state()
        return Fragment(a, b, [Transition(a, b, TransitionKind.EPSILON)])

    def concat(self, parts: List[Fragment]) -> Fragment:
        if not parts:
            return self.epsilon()
        transitions: List[Transition] = list(parts[0].transitions)
        for prev, nxt in zip(parts, parts[1:]):
            transitions.append(
                Transition(prev.exit, nxt.entry, TransitionKind.EPSILON)
            )
            transitions.extend(nxt.transitions)
        return Fragment(parts[0].entry, parts[-1].exit, transitions)

    def alternate(self, parts: List[Fragment]) -> Fragment:
        """Branching alternation (used for XOR and as the native encoding of
        OR once the inclusive semantics are expanded by the translator)."""
        entry, exit_ = self.state(), self.state()
        transitions: List[Transition] = []
        for part in parts:
            transitions.append(
                Transition(entry, part.entry, TransitionKind.EPSILON)
            )
            transitions.extend(part.transitions)
            transitions.append(
                Transition(part.exit, exit_, TransitionKind.EPSILON)
            )
        return Fragment(entry, exit_, transitions)

    def optional(self, part: Fragment) -> Fragment:
        entry, exit_ = self.state(), self.state()
        transitions = [
            Transition(entry, part.entry, TransitionKind.EPSILON),
            Transition(entry, exit_, TransitionKind.EPSILON),
            Transition(part.exit, exit_, TransitionKind.EPSILON),
        ]
        transitions.extend(part.transitions)
        return Fragment(entry, exit_, transitions)

    def at_least(self, minimum: int, syms: List[EventSymbol]) -> Fragment:
        """``ATLEAST(n, e…)``: a chain of ``n`` stages each consumed by any
        of the events, then a stage self-looping on all of them."""
        indices = [self.symbol(s) for s in syms]
        states = [self.state() for _ in range(minimum + 1)]
        transitions: List[Transition] = []
        for i in range(minimum):
            for idx in indices:
                transitions.append(
                    Transition(states[i], states[i + 1], TransitionKind.EVENT, idx)
                )
        last = states[-1]
        for idx in indices:
            transitions.append(Transition(last, last, TransitionKind.EVENT, idx))
        return Fragment(states[0], last, transitions)


def assemble(
    name: str,
    builder: FragmentBuilder,
    body: Fragment,
    init_symbol: EventSymbol,
    cleanup_symbol: EventSymbol,
    strict: bool = False,
    description: str = "",
    deadline_s: Optional[float] = None,
) -> Automaton:
    """Wrap a body fragment with init/cleanup bound transitions, eliminate
    epsilon transitions and renumber states reachable from start."""
    start = builder.state()
    accept = builder.state()
    init_idx = builder.symbol(init_symbol)
    cleanup_idx = builder.symbol(cleanup_symbol)
    transitions = list(body.transitions)
    transitions.append(
        Transition(start, body.entry, TransitionKind.INIT, init_idx)
    )
    transitions.append(
        Transition(body.exit, accept, TransitionKind.CLEANUP, cleanup_idx)
    )
    return _eliminate_epsilon(
        name, builder.symbols, transitions, start, accept, builder.n_states,
        strict, description, deadline_s,
    )


def _eliminate_epsilon(
    name: str,
    symbols: List[EventSymbol],
    transitions: List[Transition],
    start: int,
    accept: int,
    n_states: int,
    strict: bool,
    description: str,
    deadline_s: Optional[float] = None,
) -> Automaton:
    """Standard epsilon elimination followed by dead-state pruning.

    For every state ``s`` and non-epsilon transition ``t`` leaving a state
    in epsilon-closure(s), add ``s --t--> t.dst``.  Then keep states
    reachable from ``start`` via non-epsilon transitions.
    """
    eps: Dict[int, Set[int]] = {s: {s} for s in range(n_states)}
    adj: Dict[int, Set[int]] = {}
    for t in transitions:
        if t.kind is TransitionKind.EPSILON:
            adj.setdefault(t.src, set()).add(t.dst)
    for s in range(n_states):
        frontier = [s]
        closure = eps[s]
        while frontier:
            cur = frontier.pop()
            for nxt in adj.get(cur, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)

    concrete: Dict[int, List[Transition]] = {}
    for t in transitions:
        if t.kind is not TransitionKind.EPSILON:
            concrete.setdefault(t.src, []).append(t)

    lifted: Set[Transition] = set()
    for s in range(n_states):
        for mid in eps[s]:
            for t in concrete.get(mid, ()):
                # Standard single-sided lifting: transitions reachable via
                # epsilon from ``s`` leave from ``s`` and land on ``t.dst``
                # exactly — targets carry their own epsilon successors'
                # transitions via the same lifting.  Landing on every
                # epsilon *successor* of ``t.dst`` as well would duplicate
                # states that, under the runtime's move-or-stay stepping,
                # could never be revoked (breaking ``incallstack``).
                lifted.add(Transition(s, t.dst, t.kind, t.symbol, t.guard))

    # Reachability from start over lifted transitions.
    out: Dict[int, List[Transition]] = {}
    for t in lifted:
        out.setdefault(t.src, []).append(t)
    reachable: Set[int] = set()
    frontier = [start]
    while frontier:
        s = frontier.pop()
        if s in reachable:
            continue
        reachable.add(s)
        for t in out.get(s, ()):
            frontier.append(t.dst)

    keep = [t for t in lifted if t.src in reachable and t.dst in reachable]
    keep, reachable, start, accept = _merge_equivalent(
        keep, reachable, start, accept
    )
    # Renumber: start = 0, then ascending discovery order, accept last.
    order = sorted(reachable)
    if start in order:
        order.remove(start)
    order.insert(0, start)
    if accept in order:
        order.remove(accept)
        order.append(accept)
    renumber = {old: new for new, old in enumerate(order)}
    final = [
        Transition(renumber[t.src], renumber[t.dst], t.kind, t.symbol, t.guard)
        for t in keep
    ]
    # Deduplicate after renumbering.
    final = sorted(
        set(final),
        key=lambda t: (
            t.src,
            t.dst,
            t.kind.value,
            t.symbol if t.symbol is not None else -1,
            t.guard.sort_key() if t.guard is not None else _NO_GUARD_KEY,
        ),
    )
    return Automaton(
        name=name,
        symbols=symbols,
        transitions=final,
        start=renumber[start],
        accept=renumber.get(accept, len(order) - 1),
        n_states=len(order),
        strict=strict,
        description=description,
        deadline_s=deadline_s,
    )


def _merge_equivalent(
    transitions: List[Transition],
    states: Set[int],
    start: int,
    accept: int,
) -> Tuple[List[Transition], Set[int], int, int]:
    """Collapse states with identical behaviour.

    Epsilon elimination routinely leaves several states with exactly the
    same outgoing transitions (the "NFA:1,3" duplicates); merging them by
    repeated signature-partitioning (outgoing set + accept flag) keeps
    automata small and the figure 9 graphs readable.  This is a forward
    bisimulation merge, which preserves the recognised language.
    """
    while True:
        outgoing: Dict[int, FrozenSet[Tuple[Any, ...]]] = {
            s: frozenset() for s in states
        }
        grouped: Dict[int, Set[Tuple[Any, ...]]] = {}
        for t in transitions:
            grouped.setdefault(t.src, set()).add(
                (t.kind.value, t.symbol, t.dst, t.guard)
            )
        for s, out in grouped.items():
            outgoing[s] = frozenset(out)
        representative: Dict[int, int] = {}
        by_signature: Dict[Tuple[bool, FrozenSet], int] = {}
        for s in sorted(states):
            signature = (s == accept, outgoing[s])
            if signature in by_signature:
                representative[s] = by_signature[signature]
            else:
                by_signature[signature] = s
                representative[s] = s
        if all(rep == s for s, rep in representative.items()):
            return transitions, states, start, accept
        transitions = list(
            {
                Transition(
                    representative[t.src],
                    representative[t.dst],
                    t.kind,
                    t.symbol,
                    t.guard,
                )
                for t in transitions
            }
        )
        states = set(representative.values())
        start = representative[start]
        accept = representative[accept]
