"""The static program model: AST → branch-structured control-flow graphs.

Every static question about the program goes through this one model:
tesla-prove's product model checker (:mod:`repro.analysis.prove`), the
``repro elide`` view over its verdicts, and tesla-lint's program layer
(:mod:`repro.analysis.program`: symbol resolution and TESLA010's call
graph).  The model checker explores the cross product of the program's
control flow and a translated automaton, so this module builds
per-function control-flow graphs whose nodes are labelled with the events
instrumentation would observe there:

* ``("call", name)`` / ``("ret", name)`` — a resolvable call and its
  return, in evaluation order (arguments before the call, callee body
  between call and return once :class:`ScopeGraph` inlines it);
* ``("site", name)`` — a ``tesla_site("name")`` marker with a constant
  name;
* ``("field", name)`` — a store to an attribute (``obj.f = v`` or
  ``obj.f += v``), the shape TESLA's structure-field hooks observe;
* ``("opaque", why)`` — anything whose callee the model cannot resolve:
  dict-dispatch (``vp.v_op["lookup"](...)``), chained attribute lookups,
  calls through locally assigned names (lambdas, nested ``def``s, aliased
  methods, parameters), generator expressions that call anything, and
  computed site names.

Evaluation that may not happen is a branch: the right operand of
``and``/``or``, both arms of a conditional expression, and comprehension
bodies (zero or more iterations).  Bodies that run later, if ever — nested
``def``s and classes, lambdas, generator expressions — emit nothing where
they are written; their callee names still count for the call graph
(:meth:`ProgramCFG.callers_of`) and an unresolvable callee there still
makes the function :attr:`~FunctionCFG.opaque`.

Opacity is *loud* by design: an opaque node means "any event may happen
here".  A proof crosses it only if every automaton configuration such
events can reach is safe, and a counterexample may not contain it.  The
dynamic indirection that motivates TESLA also bounds what this graph can
decide.

Soundness posture (the closed-world assumption): only functions defined
in the supplied modules can emit instrumented events.  A call to a name
the model has never seen *and never saw assigned* is taken to be an
external, event-free call (``len``, ``dict.get``…).  A call through any
name that *is* assigned anywhere in the enclosing function — a lambda, a
nested ``def``, an aliased method, a parameter — is opaque, because the
binding may be anything.  ``tests/unit/analysis/test_cfg.py`` pins these
degradations.
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CFGNode",
    "FunctionCFG",
    "ProgramCFG",
]

#: Event labels a node may carry: (kind, name) with kind one of
#: "call" | "ret" | "site" | "field" | "opaque".
EventLabel = Tuple[str, str]


@dataclass
class CFGNode:
    """One control-flow node inside one function's graph."""

    id: int
    function: str
    #: ``None`` for pure structure (entry/exit/join); an event label for
    #: nodes where instrumentation observes something.
    event: Optional[EventLabel]
    line: int = 0
    succs: List[int] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable node description for counterexample paths."""
        if self.event is None:
            return f"{self.function}:{self.line}"
        kind, name = self.event
        return f"{self.function}:{self.line} {kind} {name}"


class FunctionCFG:
    """The control-flow graph of one function body.

    ``entry`` starts the body; ``exit`` is the single normal-return node
    (every ``return`` edge lands there); ``abort`` collects ``raise``
    paths — a path ending at ``abort`` leaves the function without
    returning, so a ``TESLA_WITHIN`` bound it opened never sees its
    cleanup event.
    """

    def __init__(self, name: str, filename: str = "<source>") -> None:
        self.name = name
        self.filename = filename
        self.nodes: List[CFGNode] = []
        self.entry = self._new(None, 0)
        self.exit = self._new(None, 0)
        self.abort = self._new(None, 0)
        #: call-node id -> its paired return-node id; the interprocedural
        #: expansion splices the callee's body between the two.
        self.call_pairs: Dict[int, int] = {}
        #: Names assigned anywhere in the body (params, locals, nested
        #: ``def``/``lambda`` names) — calls through them are opaque.
        self.local_names: FrozenSet[str] = frozenset()
        #: Callee names inside bodies that run later, if ever (nested
        #: ``def``s and classes, lambdas, generator expressions).
        self.deferred_calls: Set[str] = set()
        #: Whether such a body calls something no name resolves.
        self.deferred_opaque = False

    def _new(self, event: Optional[EventLabel], line: int) -> int:
        node = CFGNode(id=len(self.nodes), function=self.name, event=event,
                       line=line)
        self.nodes.append(node)
        return node.id

    def node(self, node_id: int) -> CFGNode:
        return self.nodes[node_id]

    @property
    def opaque(self) -> bool:
        return self.deferred_opaque or any(
            n.event is not None and n.event[0] == "opaque" for n in self.nodes
        )

    def event_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.event is not None]

    def called_names(self) -> Set[str]:
        """Names of resolvable calls (the intraprocedural call graph edge
        set this function contributes)."""
        return {
            n.event[1]
            for n in self.nodes
            if n.event is not None and n.event[0] == "call"
        }


# ---------------------------------------------------------------------------
# AST → CFG construction
# ---------------------------------------------------------------------------


def _assigned_names(fn: ast.AST) -> FrozenSet[str]:
    """Every name bound inside ``fn``'s body: parameters, assignment
    targets, ``for``/``with``/``except`` binders, nested ``def`` names.

    Used for the aliased-call degradation: a call through any of these is
    a call through a binding the model cannot resolve.
    """
    names: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(a.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return frozenset(names)


class _FunctionBuilder:
    """Builds one :class:`FunctionCFG` from one ``ast.FunctionDef``."""

    def __init__(self, fn: ast.AST, filename: str) -> None:
        self.cfg = FunctionCFG(fn.name, filename)  # type: ignore[attr-defined]
        self.cfg.local_names = _assigned_names(fn)
        #: (loop-exit frontier, loop-header id) stack for break/continue.
        self._loops: List[Tuple[List[int], int]] = []
        frontier = self._statements(
            fn.body, [self.cfg.entry]  # type: ignore[attr-defined]
        )
        self._connect(frontier, self.cfg.exit)

    # -- wiring helpers ----------------------------------------------------

    def _connect(self, frontier: Sequence[int], target: int) -> None:
        for node_id in frontier:
            succs = self.cfg.node(node_id).succs
            if target not in succs:
                succs.append(target)

    def _chain(self, frontier: List[int], event: EventLabel,
               line: int) -> List[int]:
        node_id = self.cfg._new(event, line)
        self._connect(frontier, node_id)
        return [node_id]

    # -- expression events -------------------------------------------------

    def _expression(self, expr: Optional[ast.AST],
                    frontier: List[int]) -> List[int]:
        """Append event nodes for every call inside ``expr`` in Python's
        evaluation order (arguments before their call), branching where
        evaluation may stop short."""
        if expr is None:
            return frontier
        if isinstance(expr, ast.Lambda):
            self._defer(expr)
            return frontier
        if isinstance(expr, ast.GeneratorExp):
            # Runs when (and if) someone iterates it: any of its calls
            # may happen at any later point.
            self._defer(expr)
            if any(isinstance(n, ast.Call) for n in ast.walk(expr)):
                return self._chain(
                    frontier, ("opaque", "<genexpr>"), expr.lineno
                )
            return frontier
        if isinstance(expr, ast.BoolOp):
            # ``a and b``: ``b`` runs only if ``a`` does not decide.
            frontier = self._expression(expr.values[0], frontier)
            decided: List[int] = []
            for value in expr.values[1:]:
                decided += frontier
                frontier = self._expression(value, list(frontier))
            return _unique(frontier + decided)
        if isinstance(expr, ast.IfExp):
            frontier = self._expression(expr.test, frontier)
            return _unique(
                self._expression(expr.body, list(frontier))
                + self._expression(expr.orelse, list(frontier))
            )
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return self._comprehension(expr, frontier)
        for child in ast.iter_child_nodes(expr):
            frontier = self._expression(child, frontier)
        if isinstance(expr, ast.Call):
            frontier = self._call(expr, frontier)
        return frontier

    def _comprehension(self, expr, frontier: List[int]) -> List[int]:
        """A loop of zero or more iterations.  Only the first iterable is
        evaluated unconditionally; every other part (filters, inner
        iterables, the element) may run any number of times, in any
        interleaving — filters and inner loops decide at run time."""
        first, *rest = expr.generators
        frontier = self._expression(first.iter, frontier)
        header = self.cfg._new(None, expr.lineno)
        self._connect(frontier, header)
        parts: List[ast.AST] = list(first.ifs)
        for generator in rest:
            parts += [generator.iter, *generator.ifs]
        if isinstance(expr, ast.DictComp):
            parts += [expr.key, expr.value]
        else:
            parts.append(expr.elt)
        for part in parts:
            out = self._expression(part, [header])
            if out != [header]:
                self._connect(out, header)
        return [header]

    def _defer(self, node: ast.AST) -> None:
        """Record the callees of a body this graph does not order."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                self.cfg.deferred_calls.add(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                self.cfg.deferred_calls.add(func.attr)
            else:
                self.cfg.deferred_opaque = True

    def _call(self, node: ast.Call, frontier: List[int]) -> List[int]:
        line = getattr(node, "lineno", 0)
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "tesla_site" and node.args:
                site = node.args[0]
                if isinstance(site, ast.Constant) and isinstance(
                    site.value, str
                ):
                    return self._chain(frontier, ("site", site.value), line)
                return self._chain(
                    frontier, ("opaque", "<dynamic-site>"), line
                )
            if name in self.cfg.local_names:
                # Lambda / nested def / alias / parameter: the binding is
                # dynamic, the callee could be anything.
                return self._chain(
                    frontier, ("opaque", f"<local:{name}>"), line
                )
            return self._call_pair(frontier, name, line)
        if isinstance(func, ast.Attribute):
            if func.attr == "tesla_site":
                return frontier  # not used qualified in this codebase
            if isinstance(func.value, ast.Name):
                # module.fn(...) / self.method(...): resolvable by attr.
                return self._call_pair(frontier, func.attr, line)
            return self._chain(
                frontier, ("opaque", f"<{func.attr}>"), line
            )
        # vp.v_op["lookup"](...), fp(...), (lambda: ...)(): unknown callee.
        return self._chain(frontier, ("opaque", "<indirect>"), line)

    def _call_pair(self, frontier: List[int], name: str,
                   line: int) -> List[int]:
        frontier = self._chain(frontier, ("call", name), line)
        call_id = frontier[0]
        frontier = self._chain(frontier, ("ret", name), line)
        self.cfg.call_pairs[call_id] = frontier[0]
        return frontier

    def _store_targets(self, targets: Sequence[ast.AST],
                       frontier: List[int]) -> List[int]:
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    frontier = self._chain(
                        frontier,
                        ("field", node.attr),
                        getattr(node, "lineno", 0),
                    )
        return frontier

    # -- statements --------------------------------------------------------

    def _statements(self, body: Sequence[ast.stmt],
                    frontier: List[int]) -> List[int]:
        for stmt in body:
            frontier = self._statement(stmt, frontier)
            if not frontier:
                break  # unreachable after return/raise/break/continue
        return frontier

    def _statement(self, stmt: ast.stmt,
                   frontier: List[int]) -> List[int]:
        line = getattr(stmt, "lineno", 0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Defining a nested callable emits nothing; calling it later
            # is opaque via local_names.
            self._defer(stmt)
            return frontier
        if isinstance(stmt, ast.Return):
            frontier = self._expression(stmt.value, frontier)
            self._connect(frontier, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            frontier = self._expression(stmt.exc, frontier)
            self._connect(frontier, self.cfg.abort)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].extend(frontier)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._connect(frontier, self._loops[-1][1])
            return []
        if isinstance(stmt, ast.If):
            frontier = self._expression(stmt.test, frontier)
            then_out = self._statements(stmt.body, list(frontier))
            else_out = self._statements(stmt.orelse, list(frontier))
            return then_out + else_out
        if isinstance(stmt, (ast.While, ast.For)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                frontier = self._expression(item.context_expr, frontier)
            body_out = self._statements(stmt.body, list(frontier))
            # __enter__ may raise: the body can be skipped entirely.
            return body_out + frontier
        if isinstance(stmt, ast.Assign):
            frontier = self._expression(stmt.value, frontier)
            return self._store_targets(stmt.targets, frontier)
        if isinstance(stmt, ast.AugAssign):
            frontier = self._expression(stmt.value, frontier)
            return self._store_targets([stmt.target], frontier)
        if isinstance(stmt, ast.AnnAssign):
            frontier = self._expression(stmt.value, frontier)
            if stmt.value is not None:
                return self._store_targets([stmt.target], frontier)
            return frontier
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            value = stmt.value if isinstance(stmt, ast.Expr) else stmt.test
            return self._expression(value, frontier)
        if isinstance(stmt, ast.Delete):
            return frontier
        if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Pass)):
            return frontier
        # Anything unmodelled (match statements, exotic nodes): walk its
        # expressions for events, keep straight-line flow.
        out = frontier
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                out = self._expression(child, out)
        return out

    def _loop(self, stmt, frontier: List[int]) -> List[int]:
        header = self.cfg._new(None, getattr(stmt, "lineno", 0))
        self._connect(frontier, header)
        cond = [header]
        if isinstance(stmt, ast.While):
            cond = self._expression(stmt.test, cond)
        else:
            cond = self._expression(stmt.iter, cond)
        breaks: List[int] = []
        self._loops.append((breaks, header))
        body_out = self._statements(stmt.body, list(cond))
        self._loops.pop()
        self._connect(body_out, header)  # back edge
        # Loop exit: condition false (zero iterations included) plus breaks.
        exits = list(cond) + breaks
        if stmt.orelse:
            exits = self._statements(stmt.orelse, exits)
        return exits

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        entry = list(frontier)
        body_out = self._statements(stmt.body, list(frontier))
        # Conservative exception edges: a handler may be entered from the
        # start of the try or after any event inside it.
        body_nodes = self._reachable_between(entry, body_out)
        outs: List[int] = list(body_out)
        for handler in stmt.handlers:
            sources = entry + body_nodes
            handler_out = self._statements(handler.body, list(sources))
            outs.extend(handler_out)
        if stmt.orelse:
            outs = self._statements(stmt.orelse, outs)
        if stmt.finalbody:
            outs = self._statements(stmt.finalbody, outs)
        return outs

    def _reachable_between(self, entry: List[int],
                           stop: List[int]) -> List[int]:
        """Event nodes appended while building a region — approximated as
        every node created after the region's entry frontier."""
        floor = max(entry) if entry else 0
        ceiling = len(self.cfg.nodes)
        return [
            n.id
            for n in self.cfg.nodes[floor:ceiling]
            if n.event is not None
        ]


def _unique(frontier: List[int]) -> List[int]:
    return list(dict.fromkeys(frontier))


# ---------------------------------------------------------------------------
# whole-program model
# ---------------------------------------------------------------------------


class ProgramCFG:
    """Per-function CFGs over a set of modules, plus the call-graph
    summaries the prove engine's interprocedural expansion consumes."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionCFG] = {}
        self._summary_cache: Dict[str, Tuple[FrozenSet[str], bool]] = {}

    @classmethod
    def from_modules(cls, modules: Sequence[types.ModuleType]) -> "ProgramCFG":
        """Read each module's file and model every top-level function."""
        model = cls()
        for module in modules:
            path = getattr(module, "__file__", None)
            if path is None:
                continue
            model.add_source(Path(path).read_text(), filename=module.__name__)
        return model

    def add_source(self, source: str, filename: str = "<source>") -> None:
        tree = ast.parse(source, filename=filename)
        for fn in _top_level_functions(tree):
            # Later definitions shadow earlier ones, as at import time.
            self.functions[fn.name] = _FunctionBuilder(fn, filename).cfg
        self._summary_cache.clear()

    def defines(self, name: str) -> bool:
        return name in self.functions

    def callers_of(self, name: str) -> List[str]:
        """Modelled functions that call ``name``, including from a body
        they define (nested ``def``, lambda, generator expression)."""
        return sorted(
            fn.name
            for fn in self.functions.values()
            if name in fn.called_names() or name in fn.deferred_calls
        )

    # -- bounded interprocedural summaries ----------------------------------

    def summary(self, name: str) -> Tuple[FrozenSet[str], bool]:
        """``(may_emit, may_opaque)`` for one function, transitively.

        ``may_emit`` is every call/ret/site/field name the function (or
        anything it transitively calls within the model) can touch;
        ``may_opaque`` is True when any reachable node is opaque — i.e.
        the summary is *incomplete* and the function may emit anything.
        Recursion terminates because the exploration visits each function
        once (the bounded-summary rule: a cycle contributes the names
        already collected, nothing more).
        """
        cached = self._summary_cache.get(name)
        if cached is not None:
            return cached
        emitted: Set[str] = set()
        opaque = False
        visited: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            cfg = self.functions.get(current)
            if cfg is None:
                continue  # closed world: unmodelled callees are event-free
            for node in cfg.event_nodes():
                kind, label = node.event  # type: ignore[misc]
                if kind == "opaque":
                    opaque = True
                    continue
                emitted.add(label)
                if kind == "call":
                    stack.append(label)
        result = (frozenset(emitted), opaque)
        self._summary_cache[name] = result
        return result


def _top_level_functions(tree: ast.Module):
    """Module-level functions and class methods — *not* defs nested inside
    other functions (those are runtime values, not static call targets)."""
    out = []
    stack: List[Tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, inside_fn = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not inside_fn:
                    out.append(child)
                stack.append((child, True))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, inside_fn))
            elif isinstance(child, ast.Lambda):
                continue
            else:
                stack.append((child, inside_fn))
    return out
