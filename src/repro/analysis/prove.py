"""tesla-prove: a product model checker over program CFGs and automata.

Where tesla-lint (:mod:`repro.analysis.lint`) answers "is this assertion
*sane*?", this module answers "does this assertion *need* a monitor at
all?" — the paper's section-7 direction of entirely eliding "otherwise
expensive sequences of checks and state transitions".  Three verdicts:

PROVED
    No trace the program can produce violates the assertion, so the
    automaton — and every hook referenced only by it — can be elided at
    install time (``TeslaRuntime(prove="prune")``).  Two proof bases:

    * ``automaton`` — the automaton is safe over *arbitrary* event
      traces: no reachable configuration can refuse its assertion site
      or close its bound with an open ``eventually`` obligation.  This
      needs no program model and is how vacuously-safe shapes (e.g.
      ``previously(optionally(call(f)))``) discharge.
    * ``product`` — the exploration of the scope-bounded program CFG
      (:mod:`repro.analysis.cfg`) crossed with the automaton reaches a
      fixpoint in which every configuration accepts at every assertion
      site and at every normal bound exit.  An opaque node stands for
      arbitrary events: the exploration continues from every
      configuration they can reach, and each of those must accept the
      site, since opaque code may emit it, and accept at cleanup once
      the site was passed, since opaque code may call the bound
      function and close the bound on its nested return.

VIOLATED
    A concrete static path through the bound function drives a
    deterministic automaton instance into a violation.  Reported as
    ``TESLA014`` with the path as a readable counterexample.  Only
    claimed when every step of the simulation is forced (no pattern may
    fail, no clone may exist, no opaque call may interpose).

UNKNOWN
    Everything else — kept under runtime monitoring, reported as
    info-level ``TESLA015`` naming what blocked the proof.

Soundness posture.  The over-approximation explores, per configuration
and dispatch key, *every* non-empty subset of enabled transitions (plus
staying put), which covers the runtime's move-or-stay stepping whatever
each symbol's pattern matcher decides and however instances clone; a
configuration set in which *all* members accept therefore implies that
*some live instance* accepts, which is exactly the runtime's violation
predicate (:mod:`repro.runtime.update`).  Timed and ``strict`` automata,
site-variable bindings, re-entry into the bound function, opaque code
before the obligation is met, a site no modelled path reaches, and
configuration blow-ups all degrade to UNKNOWN — never to PROVED.
``tests/property/test_prove_soundness.py`` holds the automaton basis to
this with randomized traces across every engine configuration, and
``tests/property/test_prove_product_soundness.py`` the product basis
with generated programs run under the runtime.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.ast import (
    AssertionSite,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
    TemporalAssertion,
)
from ..core.automaton import Automaton, Transition, TransitionKind
from ..core.events import EventKind
from ..core.translate import translate
from ..errors import AssertionParseError
from .cfg import ProgramCFG
from .diagnostics import (
    CODES,
    SCHEMA_VERSION,
    Diagnostic,
    Severity,
    diagnostic,
)

__all__ = [
    "PROVED",
    "VIOLATED",
    "UNKNOWN",
    "ProveResult",
    "ProveReport",
    "automaton_safety",
    "prove_assertion",
    "prove_assertions",
]

PROVED = "proved"
VIOLATED = "violated"
UNKNOWN = "unknown"

#: Per-(configuration, dispatch-key) cap on interacting transitions: the
#: subset exploration is 2^n, so past this the verdict degrades to
#: UNKNOWN rather than stalling an install.
_SUBSET_CAP = 10
#: Cap on explored (states, saw-site) configurations per automaton.
_CONFIG_CAP = 4096
#: Caps on the interprocedural scope expansion.
_INLINE_DEPTH_CAP = 8
_NODE_BUDGET = 4000
#: Caps on the counterexample path search.
_PATH_BUDGET = 512
_PATH_LENGTH_CAP = 400

_EVENT_KINDS = (TransitionKind.EVENT, TransitionKind.SITE)

#: An automaton configuration: the set of states an instance may occupy,
#: and whether it has passed the assertion site.
Config = Tuple[FrozenSet[int], bool]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class ProveResult:
    """One assertion's verdict and the facts that justify it."""

    assertion: str
    verdict: str
    #: ``"automaton"`` or ``"product"`` for PROVED; ``""`` otherwise.
    basis: str = ""
    #: For UNKNOWN: what blocked the proof.  For VIOLATED: the failure.
    reason: str = ""
    #: For VIOLATED: readable per-step path descriptors.
    counterexample: Tuple[str, ...] = ()
    #: Exact over-approximation of runtime-occupiable automaton states
    #: (union over every explored configuration); ``None`` when the
    #: exploration was capped.  Codegen widens dead-transition elision
    #: with this — it is valid whatever the verdict.
    occupiable: Optional[FrozenSet[int]] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "assertion": self.assertion,
            "verdict": self.verdict,
            "basis": self.basis,
            "reason": self.reason,
            "counterexample": list(self.counterexample),
        }


@dataclass
class ProveReport:
    """The outcome of one prove run; mirrors :class:`LintReport`'s API so
    the CLI, health reports and the runtime gate treat them uniformly."""

    results: List[ProveResult] = field(default_factory=list)
    findings: List[Diagnostic] = field(default_factory=list)
    assertions_checked: int = 0
    elapsed_seconds: float = 0.0

    # -- aggregation ---------------------------------------------------------

    def add(self, result: ProveResult) -> None:
        self.results.append(result)
        if result.verdict == VIOLATED:
            self.findings.append(
                diagnostic(
                    "TESLA014",
                    result.assertion,
                    f"a static path violates the assertion: {result.reason}",
                    detail=" -> ".join(result.counterexample),
                )
            )
        elif result.verdict == UNKNOWN:
            self.findings.append(
                diagnostic(
                    "TESLA015",
                    result.assertion,
                    f"not statically dischargeable: {result.reason}",
                )
            )

    def extend(self, other: "ProveReport") -> None:
        self.results.extend(other.results)
        self.findings.extend(other.findings)
        self.assertions_checked += other.assertions_checked
        self.elapsed_seconds += other.elapsed_seconds

    # -- verdicts ------------------------------------------------------------

    @property
    def proved(self) -> List[ProveResult]:
        return [r for r in self.results if r.verdict == PROVED]

    @property
    def violated(self) -> List[ProveResult]:
        return [r for r in self.results if r.verdict == VIOLATED]

    @property
    def unknown(self) -> List[ProveResult]:
        return [r for r in self.results if r.verdict == UNKNOWN]

    @property
    def errors(self) -> List[Diagnostic]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """No VIOLATED verdicts (UNKNOWN does not spoil a prove run)."""
        return not self.violated

    def proved_names(self) -> FrozenSet[str]:
        return frozenset(r.assertion for r in self.proved)

    def occupiable_states(self) -> Dict[str, FrozenSet[int]]:
        """assertion name -> occupiable-state over-approximation, for the
        automata whose exploration completed (codegen widening input)."""
        return {
            r.assertion: r.occupiable
            for r in self.results
            if r.occupiable is not None
        }

    def codes(self) -> List[str]:
        return sorted({f.code for f in self.findings})

    def exit_code(self, fail_on: str = "error") -> int:
        """Same CLI contract as lint: 2 on errors (VIOLATED), 1 on
        warnings under ``--fail-on warning``, 0 otherwise; a TESLA code
        as ``fail_on`` additionally fails (2) when that code fired."""
        if fail_on == "never":
            return 0
        if self.errors:
            return 2
        if fail_on in CODES and any(
            f.code == fail_on for f in self.findings
        ):
            return 2
        if fail_on == "warning" and self.warnings:
            return 1
        return 0

    # -- rendering -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "assertions": self.assertions_checked,
            "proved": len(self.proved),
            "violated": len(self.violated),
            "unknown": len(self.unknown),
            "clean": self.clean,
            "codes": self.codes(),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "version": SCHEMA_VERSION,
            "summary": self.summary(),
            "findings": [f.to_json() for f in self.findings],
            "results": [r.to_json() for r in self.results],
        }

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def format_elision(self) -> str:
        """The ``repro elide`` view: PROVED assertions are discharged (no
        instrumentation needed), VIOLATED ones doomed, UNKNOWN ones
        monitored."""
        lines = [
            f"static elision: {len(self.proved)}/{self.assertions_checked} "
            f"discharged, {len(self.violated)} doomed, "
            f"{len(self.unknown)} monitored"
        ]
        for result in self.proved:
            lines.append(
                f"  discharged ({result.basis} basis): {result.assertion}"
            )
        for result in self.violated:
            lines.append(
                f"  DOOMED (will always fail): {result.assertion}: "
                f"{result.reason}"
            )
            lines.extend(f"    {step}" for step in result.counterexample)
        return "\n".join(lines)

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            f.format()
            for f in sorted(
                self.findings,
                key=lambda f: (-f.severity.rank, f.code, f.assertion),
            )
            if f.severity.rank >= min_severity.rank
        ]
        for result in self.violated:
            for step in result.counterexample:
                lines.append(f"    {step}")
        proved = sorted(r.assertion for r in self.proved)
        for name in proved:
            lines.append(f"PROVED   {name}")
        lines.append(
            f"proved {len(proved)}/{self.assertions_checked} assertion(s) "
            f"in {self.elapsed_seconds * 1e3:.1f} ms: "
            f"{len(self.violated)} violated, {len(self.unknown)} unknown"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared automaton machinery
# ---------------------------------------------------------------------------


def _transitions_by_key(
    automaton: Automaton,
) -> Dict[Tuple[EventKind, str], List[Transition]]:
    """EVENT/SITE transitions grouped by the runtime's dispatch key (site
    transitions dispatch by assertion name)."""
    by_key: Dict[Tuple[EventKind, str], List[Transition]] = {}
    for t in automaton.transitions:
        if t.kind not in _EVENT_KINDS:
            continue
        if t.kind is TransitionKind.SITE:
            key = (EventKind.ASSERTION_SITE, automaton.name)
        else:
            key = automaton.symbols[t.symbol].dispatch_key
        by_key.setdefault(key, []).append(t)
    return by_key


def _is_must_match(automaton: Automaton, t: Transition) -> bool:
    """Whether ``t``'s symbol matches *every* event of its dispatch key,
    learning nothing — i.e. the transition fires deterministically.

    Field-assignment symbols are never must-match here: the CFG only
    knows the assigned attribute name, not which registered struct the
    object belongs to, so the event itself may not occur.
    """
    expr = automaton.symbols[t.symbol].expr
    if isinstance(expr, FunctionCall):
        return expr.args is None
    if isinstance(expr, FunctionReturn):
        return expr.args is None and expr.retval is None
    if isinstance(expr, AssertionSite):
        return not automaton.symbols[t.symbol].site_variables
    return False


def _config_accepts_site(
    automaton: Automaton,
    site_srcs: FrozenSet[int],
    states: FrozenSet[int],
    saw: bool,
) -> bool:
    """The runtime's per-instance site predicate: the instance takes a
    site transition, or already passed the site (with no site variables
    the already-satisfied check is unconditionally compatible)."""
    if not site_srcs.isdisjoint(states):
        return True
    return saw and not automaton.site_variables


def _site_srcs(automaton: Automaton) -> FrozenSet[int]:
    return frozenset(
        t.src
        for t in automaton.transitions
        if t.kind is TransitionKind.SITE
    )


def _step_configs(
    states: FrozenSet[int],
    saw: bool,
    enabled: Sequence[Transition],
    forced: Sequence[Transition],
) -> List[Config]:
    """Successor configurations of one event under move-or-stay stepping.

    ``forced`` transitions always fire (must-match symbols); every subset
    of the remaining ``enabled`` ones may fire alongside them, covering
    whatever each pattern matcher decides at runtime.  When nothing is
    forced, the empty subset (the instance stays put) is included.
    """
    optional = [t for t in enabled if t not in forced]
    out: List[Config] = []
    n = len(optional)
    for mask in range(1 << n):
        fired = list(forced)
        fired.extend(optional[i] for i in range(n) if mask >> i & 1)
        if not fired:
            continue  # staying put is the caller's current configuration
        new_states = states.difference(t.src for t in fired).union(
            t.dst for t in fired
        )
        new_saw = saw or any(
            t.kind is TransitionKind.SITE for t in fired
        )
        out.append((new_states, new_saw))
    return out


# ---------------------------------------------------------------------------
# basis 1: safety over arbitrary traces
# ---------------------------------------------------------------------------


def _closure(
    by_key: Dict[Tuple[EventKind, str], List[Transition]], start: Config
) -> Tuple[Optional[Set[Config]], str]:
    """Every configuration reachable from ``start`` over *arbitrary*
    event traces, or ``(None, reason)`` when a cap stops the search."""
    seen: Set[Config] = {start}
    frontier: List[Config] = [start]
    while frontier:
        states, saw = frontier.pop()
        for key, group in by_key.items():
            enabled = [t for t in group if t.src in states]
            if not enabled:
                continue
            if len(enabled) > _SUBSET_CAP:
                return None, (
                    f"too many interacting transitions on "
                    f"{key[1] or key[0].value!r} "
                    f"({len(enabled)} > {_SUBSET_CAP})"
                )
            for config in _step_configs(states, saw, enabled, ()):
                if config in seen:
                    continue
                if len(seen) >= _CONFIG_CAP:
                    return None, (
                        f"configuration explosion (> {_CONFIG_CAP} configs)"
                    )
                seen.add(config)
                frontier.append(config)
    return seen, ""


def _site_refuser(
    automaton: Automaton, site_srcs: FrozenSet[int], configs: Iterable[Config]
) -> Optional[FrozenSet[int]]:
    """The states of a configuration that would refuse an assertion site,
    or ``None`` when every configuration accepts one."""
    for states, saw in configs:
        if not _config_accepts_site(automaton, site_srcs, states, saw):
            return states
    return None


def automaton_safety(
    automaton: Automaton,
) -> Tuple[Optional[bool], str, Optional[FrozenSet[int]]]:
    """Is the automaton safe over *every* possible event trace?

    Returns ``(safe, reason, occupiable)`` where ``safe`` is ``True``
    (no trace can violate), ``False`` (some trace can — not a program
    fact, so not VIOLATED) or ``None`` (analysis refused), ``reason``
    explains a non-True verdict, and ``occupiable`` is the union of
    states over every explored configuration — a valid over-
    approximation of runtime-occupiable states even when ``safe`` is
    not ``True`` (the subset stepping covers the runtime's stepping for
    timed, strict and binding automata alike), ``None`` only if a cap
    was hit.

    Safety needs every reachable configuration to accept its assertion
    site when one arrives (site events cannot be predicted away) and to
    be cleanup-acceptable once the site was passed (the bound may close
    at any time).  Preconditions that refuse (→ UNKNOWN): ``strict``
    stepping (an unconsumable referenced event is itself a violation),
    clock guards (verdicts depend on real time) and site variables
    (satisfaction is per dynamic binding).
    """
    seen, reason = _closure(
        _transitions_by_key(automaton), (automaton.entry_states, False)
    )
    if seen is None:
        return None, reason, None
    # Judge the configurations only after the exploration finished, so
    # ``occupiable`` is complete whatever the verdict.
    occupiable = frozenset().union(*(states for states, _ in seen))
    if automaton.strict:
        return None, (
            "strict automaton: any unconsumable referenced event is a "
            "runtime violation"
        ), occupiable
    if automaton.timed:
        return None, (
            "timed automaton: verdicts depend on the capture clock"
        ), occupiable
    if automaton.site_variables:
        return None, (
            "assertion site binds dynamic variables: satisfaction is "
            "per-binding"
        ), occupiable
    refuser = _site_refuser(automaton, _site_srcs(automaton), seen)
    if refuser is not None:
        return False, (
            "a reachable configuration cannot accept the assertion "
            f"site (states {sorted(refuser)})"
        ), occupiable
    for states, saw in seen:
        if saw and not automaton.cleanup_enabled(states):
            return False, (
                "a reachable configuration holds an open 'eventually' "
                f"obligation at cleanup (states {sorted(states)})"
            ), occupiable
    return True, "", occupiable


# ---------------------------------------------------------------------------
# the scope graph: the bound function's CFG, interprocedurally expanded
# ---------------------------------------------------------------------------


@dataclass
class _ScopeNode:
    id: int
    #: Same labels as :class:`repro.analysis.cfg.CFGNode`; ``None`` for
    #: structure.
    event: Optional[Tuple[str, str]]
    where: str  # "module.function:line" for counterexample rendering
    succs: List[int] = field(default_factory=list)


class _ScopeGraph:
    """The temporal bound's whole observable event structure: the bound
    entry function's CFG with relevant callees inlined."""

    def __init__(self) -> None:
        self.nodes: List[_ScopeNode] = []
        self.entry = 0
        self.exit = 0
        self.abort = 0
        #: Non-empty when expansion had to give up (recursion into the
        #: bound function, node budget) — the proof then refuses.
        self.truncated_reason = ""

    def new(self, event, where: str) -> int:
        node = _ScopeNode(id=len(self.nodes), event=event, where=where)
        self.nodes.append(node)
        return node.id


def _build_scope_graph(
    cfg: ProgramCFG,
    bound_function: str,
    relevant_calls: FrozenSet[str],
    relevant_fields: FrozenSet[str],
    site_name: str,
) -> Optional[_ScopeGraph]:
    """Inline-expand ``bound_function``; ``None`` when it is unmodelled."""
    if not cfg.defines(bound_function):
        return None
    sg = _ScopeGraph()
    sg.exit = sg.new(None, f"{bound_function}:return")
    sg.abort = sg.new(None, f"{bound_function}:raise")

    def relevant(name: str) -> bool:
        return (
            name in relevant_calls
            or name == site_name
            or name in relevant_fields
        )

    def expand(fn_name: str, stack: Tuple[str, ...],
               exit_to: int, abort_to: int) -> Optional[int]:
        """Copy ``fn_name``'s CFG into ``sg``; returns its entry node or
        ``None`` when the graph was truncated."""
        fcfg = cfg.functions[fn_name]
        if len(sg.nodes) + len(fcfg.nodes) > _NODE_BUDGET:
            sg.truncated_reason = (
                f"scope exceeds the {_NODE_BUDGET}-node inline budget"
            )
            return None
        mapping: Dict[int, int] = {
            fcfg.exit: exit_to,
            fcfg.abort: abort_to,
        }
        for node in fcfg.nodes:
            if node.id in mapping:
                continue
            where = f"{fcfg.filename}.{fcfg.name}:{node.line}"
            mapping[node.id] = sg.new(node.event, where)
        spliced: Set[int] = set()
        for node in fcfg.nodes:
            if node.id in spliced or node.id in (fcfg.exit, fcfg.abort):
                continue
            new_id = mapping[node.id]
            if node.event is not None and node.event[0] == "call":
                callee = node.event[1]
                ret_id = fcfg.call_pairs.get(node.id)
                entry_id = _expand_callee(
                    callee, stack,
                    mapping[ret_id] if ret_id is not None else None,
                    abort_to,
                )
                if entry_id is _TRUNCATED:
                    return None
                if isinstance(entry_id, str):
                    # Replace the call's event with an opaque taint but
                    # keep the flow shape.
                    sg.nodes[new_id].event = ("opaque", entry_id)
                elif entry_id is not None and ret_id is not None:
                    # call node -> callee body -> paired return node.
                    sg.nodes[new_id].succs = [entry_id]
                    spliced.add(node.id)
                    continue
            sg.nodes[new_id].succs = [mapping[s] for s in node.succs]
        return mapping[fcfg.entry]

    def _expand_callee(callee: str, stack: Tuple[str, ...],
                       ret_to: Optional[int], abort_to: int):
        """Entry node of the inlined callee body, ``None`` to keep the
        bare call/ret events (body contributes nothing observable), an
        opaque label to taint the call with, or ``_TRUNCATED`` on budget
        failure."""
        if callee == bound_function:
            # Re-entering the bound closes and reopens it mid-scope; the
            # single-occurrence model does not cover that.
            return _REENTRY
        if not cfg.defines(callee):
            # Closed world: unmodelled callees emit nothing themselves.
            return None
        emit, opaque = cfg.summary(callee)
        reenters = bound_function in emit
        if not (opaque or reenters or any(relevant(n) for n in emit)):
            return None
        if callee in stack or len(stack) >= _INLINE_DEPTH_CAP or ret_to is None:
            # Bounded summary for recursion/deep chains: the callee may
            # emit relevant events we cannot order — taint.
            return _REENTRY if reenters else f"<{callee}>"
        entry = expand(callee, stack + (callee,), ret_to, abort_to)
        return _TRUNCATED if entry is None else entry

    entry = expand(bound_function, (bound_function,), sg.exit, sg.abort)
    if entry is None:
        return sg  # truncated_reason is set
    sg.entry = entry
    return sg


#: Opaque label of a call that may re-enter the bound function: the
#: product stops there instead of crossing it.
_REENTRY = "<re-enters the bound>"
_TRUNCATED = object()


def _scope_relevance(
    automaton: Automaton,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(function names, field names) in the automaton's alphabet."""
    calls: Set[str] = set()
    fields: Set[str] = set()
    for symbol in automaton.symbols:
        expr = symbol.expr
        if isinstance(expr, (FunctionCall, FunctionReturn)):
            calls.add(expr.function)
        elif isinstance(expr, FieldAssign):
            fields.add(expr.field_name)
    return frozenset(calls), frozenset(fields)


def _node_key(
    automaton: Automaton, event: Tuple[str, str]
) -> Optional[List[Tuple[EventKind, str]]]:
    """The dispatch keys a scope node's event can hit, or ``None`` when
    the event is invisible to this automaton."""
    kind, name = event
    if kind == "call":
        return [(EventKind.CALL, name)]
    if kind == "ret":
        return [(EventKind.RETURN, name)]
    if kind == "site":
        if name == automaton.name:
            return [(EventKind.ASSERTION_SITE, automaton.name)]
        return None
    if kind == "field":
        # The CFG knows the attribute, not the struct: every field key
        # with this attribute name may (or may not) be this store.
        keys = [
            (EventKind.FIELD_ASSIGN, key_name)
            for key_kind, key_name in (
                s.dispatch_key for s in automaton.symbols
            )
            if key_kind is EventKind.FIELD_ASSIGN
            and key_name.rsplit(".", 1)[-1] == name
        ]
        return keys or None
    return None


# ---------------------------------------------------------------------------
# basis 2: the CFG × automaton product fixpoint
# ---------------------------------------------------------------------------


def _product_prove(
    sg: _ScopeGraph, automaton: Automaton
) -> Tuple[bool, str]:
    """Explore the product to fixpoint; ``(True, "")`` when every
    configuration accepts at every site and at the normal bound exit."""
    if automaton.strict:
        return False, "strict automaton: stepping commits differently"
    if automaton.timed:
        return False, "timed automaton: verdicts depend on the capture clock"
    if sg.truncated_reason:
        return False, sg.truncated_reason
    if not any(node.event == ("site", automaton.name) for node in sg.nodes):
        # Nothing modelled emits the site: it is reached, if at all,
        # from code the model cannot see, so no path proves anything.
        return False, "no modelled path reaches the assertion site"

    by_key = _transitions_by_key(automaton)
    site_srcs = _site_srcs(automaton)
    configs: Dict[int, Set[Config]] = {}
    entry_config = (automaton.entry_states, False)
    configs[sg.entry] = {entry_config}
    frontier: List[Tuple[int, Config]] = [(sg.entry, entry_config)]
    closures: Dict[Config, Set[Config]] = {}
    total = 1

    while frontier:
        node_id, (states, saw) = frontier.pop()
        node = sg.nodes[node_id]
        outputs: List[Config] = [(states, saw)]
        if node.event is not None:
            kind = node.event[0]
            if kind == "opaque":
                # Any events may happen here, the site included: continue
                # from every configuration they can reach, provided each
                # of those accepts the site.
                opaque = (
                    f"opaque code inside the bound at {node.where} "
                    f"({node.event[1]})"
                )
                if node.event[1] == _REENTRY:
                    return False, opaque
                reach = closures.get((states, saw))
                if reach is None:
                    reach, why = _closure(by_key, (states, saw))
                    if reach is None:
                        return False, f"{opaque}: {why}"
                    closures[(states, saw)] = reach
                refuser = _site_refuser(automaton, site_srcs, reach)
                if refuser is not None:
                    return False, (
                        f"{opaque} may reach a configuration that refuses "
                        f"the assertion site (states {sorted(refuser)})"
                    )
                # Opaque code may also call the bound function: the
                # nested return closes the bound in any of these.
                for r_states, r_saw in reach:
                    if r_saw and not automaton.cleanup_enabled(r_states):
                        return False, (
                            f"{opaque} may re-enter the bound and close it "
                            "with an 'eventually' obligation open"
                        )
                outputs = list(reach)
            keys = _node_key(automaton, node.event)
            if keys is not None:
                enabled: List[Transition] = []
                forced: List[Transition] = []
                for key in keys:
                    for t in by_key.get(key, ()):
                        if t.src not in states:
                            continue
                        enabled.append(t)
                        # A field store's struct is unknown, so even a
                        # must-match symbol may miss: only force when the
                        # event node pins the key exactly.
                        if kind != "field" and _is_must_match(automaton, t):
                            forced.append(t)
                if kind == "site" and not _config_accepts_site(
                    automaton, site_srcs, states, saw
                ):
                    return False, (
                        "a configuration can refuse the assertion site "
                        f"at {node.where} (states {sorted(states)})"
                    )
                if len(enabled) > _SUBSET_CAP:
                    return False, (
                        f"too many interacting transitions at {node.where}"
                    )
                if enabled:
                    stepped = _step_configs(states, saw, enabled, forced)
                    outputs = stepped if forced else stepped + outputs
        if node_id == sg.exit:
            if saw and not automaton.cleanup_enabled(states):
                return False, (
                    "an 'eventually' obligation can remain open at the "
                    "bound exit"
                )
            continue
        if node_id == sg.abort:
            # The bound function unwound: its return hook never fires, no
            # cleanup event closes the bound on this path.
            continue
        for succ in node.succs:
            bucket = configs.setdefault(succ, set())
            for config in outputs:
                if config in bucket:
                    continue
                total += 1
                if total > _CONFIG_CAP * 4:
                    return False, "product configuration explosion"
                bucket.add(config)
                frontier.append((succ, config))
    return True, ""


# ---------------------------------------------------------------------------
# the VIOLATED search: deterministic single-instance path simulation
# ---------------------------------------------------------------------------


def _find_violation(
    sg: _ScopeGraph, automaton: Automaton
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """A concrete violating path, or ``None``.

    Only forced steps are simulated: the moment a path meets an opaque
    node, a field store, or any transition whose pattern might fail (or
    bind — cloning breaks the single-instance model), the path is
    abandoned.  What survives is a trace the runtime *must* produce when
    the path executes, so a violation on it is real (modulo static path
    feasibility, which the diagnostic's wording owns).
    """
    if automaton.strict or automaton.timed or automaton.site_variables:
        return None
    if sg.truncated_reason:
        return None

    by_key = _transitions_by_key(automaton)
    site_srcs = _site_srcs(automaton)
    budget = [_PATH_BUDGET]

    def walk(
        node_id: int,
        states: FrozenSet[int],
        saw: bool,
        path: Tuple[str, ...],
        taken: FrozenSet[Tuple[int, int]],
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        if budget[0] <= 0 or len(path) > _PATH_LENGTH_CAP:
            return None
        node = sg.nodes[node_id]
        if node.event is not None:
            kind, name = node.event
            if kind == "opaque" or kind == "field":
                return None  # indeterminate trace
            keys = _node_key(automaton, node.event)
            if keys is not None:
                enabled = [
                    t
                    for key in keys
                    for t in by_key.get(key, ())
                    if t.src in states
                ]
                if any(
                    not _is_must_match(automaton, t) for t in enabled
                ):
                    return None  # a matcher might fail or clone
                # Any may-match symbol on this key could also *create*
                # a clone from a state not currently held — it cannot:
                # enabled is per current states; unseen srcs fire nothing.
                path = path + (f"{node.where} {kind} {name}",)
                if kind == "site" and not _config_accepts_site(
                    automaton, site_srcs, states, saw
                ):
                    return (
                        "no automaton instance can accept the assertion "
                        "site on this path",
                        path,
                    )
                if enabled:
                    states = states.difference(
                        t.src for t in enabled
                    ).union(t.dst for t in enabled)
                    saw = saw or any(
                        t.kind is TransitionKind.SITE for t in enabled
                    )
        if node_id == sg.exit:
            budget[0] -= 1
            if saw and not automaton.cleanup_enabled(states):
                return (
                    "the bound exits with an undischarged 'eventually' "
                    "obligation on this path",
                    path + (f"{sg.nodes[sg.exit].where} cleanup",),
                )
            return None
        if node_id == sg.abort:
            budget[0] -= 1
            return None
        for succ in node.succs:
            edge = (node_id, succ)
            if edge in taken:
                continue  # each loop body at most once per path
            found = walk(succ, states, saw, path, taken | {edge})
            if found is not None:
                return found
        return None

    entry = sg.nodes[sg.entry]
    return walk(
        sg.entry,
        automaton.entry_states,
        False,
        (f"{entry.where} bound entry",),
        frozenset(),
    )


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def prove_assertion(
    assertion: TemporalAssertion,
    cfg: Optional[ProgramCFG] = None,
    automaton: Optional[Automaton] = None,
) -> ProveResult:
    """Run every basis over one assertion, strongest verdict first.
    ``automaton`` is the assertion's translation, when the caller has it."""
    if automaton is None:
        try:
            automaton = translate(assertion)
        except AssertionParseError as error:
            return ProveResult(
                assertion=assertion.name,
                verdict=UNKNOWN,
                reason=f"untranslatable assertion: {error.plain_message}",
            )

    safe, safety_reason, occupiable = automaton_safety(automaton)
    if safe is True:
        return ProveResult(
            assertion=assertion.name,
            verdict=PROVED,
            basis="automaton",
            reason="safe over arbitrary event traces",
            occupiable=occupiable,
        )

    reasons = [safety_reason] if safety_reason else []
    sg: Optional[_ScopeGraph] = None
    if cfg is not None and isinstance(assertion.bound.entry, FunctionCall):
        relevant_calls, relevant_fields = _scope_relevance(automaton)
        sg = _build_scope_graph(
            cfg,
            assertion.bound.entry.function,
            relevant_calls,
            relevant_fields,
            assertion.name,
        )
        if sg is None:
            reasons.append(
                f"bound function {assertion.bound.entry.function!r} is "
                "not in the modelled sources"
            )
    elif cfg is None:
        reasons.append("no program model supplied")
    else:
        reasons.append("temporal bound is not a function-call event")

    if sg is not None:
        proved, product_reason = _product_prove(sg, automaton)
        if proved:
            return ProveResult(
                assertion=assertion.name,
                verdict=PROVED,
                basis="product",
                reason="no modelled path can violate",
                occupiable=occupiable,
            )
        reasons.append(product_reason)
        violation = _find_violation(sg, automaton)
        if violation is not None:
            why, path = violation
            return ProveResult(
                assertion=assertion.name,
                verdict=VIOLATED,
                reason=why,
                counterexample=path,
                occupiable=occupiable,
            )

    distinct = list(dict.fromkeys(r for r in reasons if r))
    return ProveResult(
        assertion=assertion.name,
        verdict=UNKNOWN,
        reason="; ".join(distinct) or "analysis refused",
        occupiable=occupiable,
    )


def prove_assertions(
    assertions: Iterable[TemporalAssertion],
    cfg: Optional[ProgramCFG] = None,
    automata: Optional[Sequence[Automaton]] = None,
) -> ProveReport:
    """Prove a batch; never raises on a malformed assertion.
    ``automata`` is the batch's translation, when the caller has it."""
    start = time.perf_counter()
    report = ProveReport()
    for i, assertion in enumerate(assertions):
        report.assertions_checked += 1
        report.add(prove_assertion(
            assertion, cfg=cfg,
            automaton=None if automata is None else automata[i],
        ))
    report.elapsed_seconds = time.perf_counter() - start
    return report
