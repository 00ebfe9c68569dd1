"""Event translators: the generated glue between hooks and libtesla.

Section 4.2: the instrumenter generates, per hook, a translator with "two
tasks per automaton that references the event.  First, the generated code
checks static event parameters … Otherwise, the translator branches to the
static checks for the next automaton.  Second, if the static checks passed,
it allocates a fixed-size data structure …, populates it with the dynamic
variable–value mapping and passes it to libtesla's ``tesla_update_state``."

:class:`EventTranslator` reproduces that structure: a per-dispatch-key
chain of *static* matchers (constants, flags, bitmasks — everything except
dynamic variables) decides whether the event reaches the runtime at all.
An event that fails every static check is dropped at the translator — the
"only conditional control flow" fast path — without touching any automaton
instance.

Static filtering happens *before* capture in the deferred pipeline: an
event the chains drop never reaches the runtime, so it is never stamped
into a ring — deferred mode pays ring slots only for events some
installed automaton could consume, and the replay oracle's merged
sequence contains exactly the post-filter stream.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..core.ast import FieldAssign, FunctionCall, FunctionReturn
from ..core.automaton import Automaton, EventSymbol
from ..core.events import EventKind, RuntimeEvent
from ..core.patterns import Any_, Pattern, Var
from ..runtime.epoch import interest_epoch
from ..runtime.manager import DispatchKey, TeslaRuntime


def _static_pattern_ok(pattern: Pattern, value: Any) -> bool:
    """Match only the statically checkable part of a pattern.

    ``Var`` and ``Any_`` always pass here — their values are the *dynamic*
    mapping handled by ``tesla_update_state``.
    """
    if isinstance(pattern, (Var, Any_)):
        return True
    return pattern.match(value, {}) is not None


def static_match(symbol: EventSymbol, event: RuntimeEvent) -> bool:
    """The translator's first task: check static event parameters."""
    expr = symbol.expr
    if isinstance(expr, FunctionCall):
        if expr.args is None:
            return True
        if len(expr.args) != len(event.args):
            return False
        return all(
            _static_pattern_ok(p, v) for p, v in zip(expr.args, event.args)
        )
    if isinstance(expr, FunctionReturn):
        if expr.args is not None:
            if len(expr.args) != len(event.args):
                return False
            if not all(
                _static_pattern_ok(p, v) for p, v in zip(expr.args, event.args)
            ):
                return False
        if expr.retval is not None:
            return _static_pattern_ok(expr.retval, event.retval)
        return True
    if isinstance(expr, FieldAssign):
        if expr.op is not None and event.op is not expr.op:
            return False
        if expr.target is not None and not _static_pattern_ok(
            expr.target, event.target
        ):
            return False
        if expr.value is not None and not _static_pattern_ok(
            expr.value, event.retval
        ):
            return False
        return True
    # Assertion sites have no static parameters.
    return True


class EventTranslator:
    """A sink that statically filters events before the runtime sees them.

    Each dispatch key gets one *entry* (DESIGN §5.7), built by the runtime
    on first use: the key's static-check chain, straight-line, with the
    forwarded/dropped counts and the runtime's dispatch prologue inlined
    behind it.  Hooks resolve this sink to the entry for their key
    (:meth:`entry_for`) and call it directly; calling the translator
    itself is a lookup into the same entries.
    """

    def __init__(self, runtime: TeslaRuntime) -> None:
        self.runtime = runtime
        #: The runtime's supervisor, exposed so hook-layer containment
        #: boundaries can route faults that escape this sink to it.
        self.supervisor = getattr(runtime, "supervisor", None)
        #: dispatch key -> ``(symbol, elide_arity)`` pairs whose static
        #: checks gate forwarding.
        self._chains: Dict[DispatchKey, List[Tuple[EventSymbol, bool]]] = {}
        #: keys observed by ``strict`` automata, which must see every
        #: referenced event even if its static parameters mismatch.
        self._strict_keys: set = set()
        #: dispatch key -> this translator's entry; cleared by
        #: ``_rebuild`` and by the runtime's installs.
        self._entries: Dict[DispatchKey, Callable[[RuntimeEvent], None]] = {}
        #: ``[forwarded, dropped]``, shared by every entry.
        self._counts = [0, 0]
        #: Arity guards compiled out under a clean lint report (the
        #: DESIGN §5.5 handoff); counted for benchmarks and health.
        self.arity_elided = 0
        self._rebuild()
        register = getattr(runtime, "register_translator", None)
        if register is not None:
            register(self)

    @property
    def forwarded(self) -> int:
        """Events passed to the runtime (visible to benchmarks/tests)."""
        return self._counts[0]

    @property
    def dropped(self) -> int:
        """Events dropped by key or by static checks."""
        return self._counts[1]

    def _rebuild(self) -> None:
        self._chains.clear()
        self._strict_keys.clear()
        self._entries.clear()
        supervisor = self.supervisor
        shed = supervisor.shed_classes if supervisor is not None else ()
        lint_clean = self._lint_clean()
        self.arity_elided = 0
        for automaton in self.runtime.automata.values():
            if automaton.name in shed:
                # Quarantined classes drop out of the static chains, so a
                # key only they observed short-circuits at the hook layer.
                continue
            for t in automaton.transitions:
                if t.symbol is None:
                    continue
                symbol = automaton.symbols[t.symbol]
                kind, name = symbol.dispatch_key
                if kind is EventKind.ASSERTION_SITE:
                    key: DispatchKey = (kind, automaton.name)
                else:
                    key = (kind, name)
                chain = self._chains.setdefault(key, [])
                if all(symbol != s for s, _ in chain):
                    elide = lint_clean and self._arity_proven(symbol)
                    self.arity_elided += elide
                    chain.append((symbol, elide))
                if automaton.strict:
                    self._strict_keys.add(key)

    def _lint_clean(self) -> bool:
        """Whether the runtime carries a clean tesla-lint report — the
        precondition for compiling out provably redundant dynamic checks."""
        report = getattr(self.runtime, "lint_report", None)
        return report is not None and report.clean

    @staticmethod
    def _arity_proven(symbol: EventSymbol) -> bool:
        """Whether the hooked signature fixes the event arity at exactly
        this symbol's pattern arity (the arity guard is then redundant:
        the hook wrapper flattens every bound argument, so a function
        with no defaults and no variadics always emits one arity)."""
        expr = symbol.expr
        if not isinstance(expr, (FunctionCall, FunctionReturn)):
            return False
        if expr.args is None:
            return False
        from .hooks import hook_registry

        point = hook_registry.get(expr.function)
        if point is None:
            return False
        from ..analysis.program import fixed_arity

        return fixed_arity(point.function) == len(expr.args)

    def refresh(self) -> None:
        """Rebuild chains after more automata are installed."""
        self._rebuild()
        # The set of keys this sink observes changed; hook points and the
        # interposition table must re-ask ``interested_in``.
        interest_epoch.bump()

    def interested_in(self, keys: Iterable[DispatchKey]) -> bool:
        """Whether this sink observes any of ``keys`` — the hook layer's
        interest probe (cached there against the interest epoch)."""
        chains = self._chains
        return any(key in chains for key in keys)

    def entry_for(self, key: DispatchKey) -> Callable[[RuntimeEvent], None]:
        """This translator's entry for ``key``, built on first use.  A
        strict key forwards every event; a key with no chain drops it."""
        entry = self._entries.get(key)
        if entry is None:
            chain = self._chains.get(key)
            if chain is None:
                return self._drop
            if key in self._strict_keys:
                chain = []
            entry = self._entries[key] = self.runtime.build_entry(
                key, chain, self._counts
            )
        return entry

    def _drop(self, event: RuntimeEvent) -> None:
        self._counts[1] += 1

    def __call__(self, event: RuntimeEvent) -> None:
        self.entry_for((event.kind, event.name))(event)
