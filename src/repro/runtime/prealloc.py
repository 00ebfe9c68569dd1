"""Bounded instance pools (section 4.4.1).

"In the kernel we rely on preallocation to avoid dynamic allocation in code
paths that do not permit it (e.g., while holding mutexes). … we preallocate
a fixed-size memory block per thread, giving a deterministic memory
footprint, and report overflows so that we can adjust preallocation size on
the next run."

Python has no mutex-unsafe allocator, so what matters — and what this module
reproduces — is the *bounded, deterministic footprint with overflow
reporting*: an :class:`InstancePool` holds at most ``capacity`` instances;
insertions past the limit are dropped and counted, never silently grown.

An :class:`InstancePool` holds :class:`AutomatonInstance` objects and is
the ``compile=False`` reference.  A compiled runtime's classes keep a
:class:`RowPool` instead: one row per binding, each row an interned
state-set number (:class:`StateSets`), with the same capacity, high-water
and overflow accounting.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core.automaton import Automaton, Transition, TransitionKind
from ..core.patterns import UNBOUND, Pattern
from . import faultinject as _fi
from .faultinject import fault_site
from .instance import AutomatonInstance

_FP_INSERT = fault_site("prealloc.insert")

#: Matches libtesla's modest default; kernel configurations override it.
DEFAULT_CAPACITY = 128


class InstancePool:
    """A fixed-capacity container of automaton instances."""

    __slots__ = ("capacity", "_instances", "overflows", "high_water")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._instances: List[AutomatonInstance] = []
        #: Number of instances dropped because the pool was full.
        self.overflows = 0
        #: Largest simultaneous population — the number to size the next run.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[AutomatonInstance]:
        return iter(self._instances)

    def add(self, instance: AutomatonInstance) -> bool:
        """Insert; returns False (and counts an overflow) when full."""
        if _fi._active is not None:
            _fi.fault_point(_FP_INSERT)
        if len(self._instances) >= self.capacity:
            self.overflows += 1
            return False
        self._instances.append(instance)
        if len(self._instances) > self.high_water:
            self.high_water = len(self._instances)
        return True

    def find(self, binding) -> Optional[AutomatonInstance]:
        """The instance with exactly this binding, if present."""
        for instance in self._instances:
            if instance.same_binding(binding):
                return instance
        return None

    def prune(self, predicate) -> List[AutomatonInstance]:
        """Remove and return every instance ``predicate`` selects.

        Used by deadline expiry (DESIGN §5.9): expired instances leave the
        pool immediately so the population numbers stay honest and a later
        cleanup does not double-report the same obligation.
        """
        kept: List[AutomatonInstance] = []
        removed: List[AutomatonInstance] = []
        for instance in self._instances:
            (removed if predicate(instance) else kept).append(instance)
        if removed:
            self._instances = kept
        return removed

    def expunge(self) -> List[AutomatonInstance]:
        """Remove and return every instance (the «cleanup» reset)."""
        out = self._instances
        self._instances = []
        return out

    def snapshot(self) -> List[AutomatonInstance]:
        return list(self._instances)

    def live(self) -> List[AutomatonInstance]:
        """The live instance list itself, NOT a copy.

        For the dispatch hot loop, which walks the population once per
        event: the transition engine accumulates clones in a side list and
        only :meth:`add`\\ s them after the walk, so the list never mutates
        under iteration.  Callers that might add or expunge mid-walk must
        use :meth:`snapshot`.
        """
        return self._instances

    def stats(self) -> dict:
        """The overflow-report-then-resize numbers (§4.4.1), one pool.

        Kept per class so preallocation can be resized where the
        pressure actually is rather than globally.
        """
        return {
            "capacity": self.capacity,
            "population": len(self._instances),
            "high_water": self.high_water,
            "overflows": self.overflows,
        }


# ---------------------------------------------------------------------------
# Rows: the compiled runtime's pool contents
# ---------------------------------------------------------------------------


def symbol_variables(symbol) -> set:
    """The variables one event symbol can bind: its patterns' variables,
    or a site symbol's scope variables."""
    names = set(symbol.site_variables)
    expr = symbol.expr
    patterns = list(getattr(expr, "args", None) or ())
    for attribute in ("retval", "target", "value"):
        pattern = getattr(expr, attribute, None)
        if isinstance(pattern, Pattern):
            patterns.append(pattern)
    for pattern in patterns:
        names.update(pattern.variables)
    return names


def class_variables(automaton: Automaton) -> Tuple[str, ...]:
    """The variables an instance of ``automaton`` can bind, sorted: those
    of every symbol but the cleanup's, whose match binds nothing."""
    names = set()
    for t in automaton.transitions:
        if t.symbol is not None and t.kind is not TransitionKind.CLEANUP:
            names |= symbol_variables(automaton.symbols[t.symbol])
    return tuple(sorted(names))


class StateSets:
    """One automaton's state sets, numbered on first use.

    A number stands for an NFA state set *and* whether the instance has
    passed the assertion site, so everything the bound's close decides
    is a list lookup (:attr:`verdict`: 0 bypass, 1 accept, 2 error).
    :meth:`step` memoises ``(number, transitions) → number``.  Shared by
    every store and thread that runs the automaton; numbering a new set
    takes a lock, reading never does.
    """

    __slots__ = ("automaton", "sets", "site", "verdict", "_index",
                 "_steps", "_lock")

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton
        self.sets: List[FrozenSet[int]] = []
        self.site: List[bool] = []
        self.verdict: List[int] = []
        self._index: Dict[Tuple[FrozenSet[int], bool], int] = {}
        self._steps: Dict[Tuple[int, Tuple[Transition, ...]],
                          Tuple[int, bool]] = {}
        self._lock = threading.Lock()

    def number(self, states: FrozenSet[int], saw_site: bool) -> int:
        key = (states, saw_site)
        num = self._index.get(key)
        if num is None:
            with self._lock:
                num = self._index.get(key)
                if num is None:
                    num = len(self.sets)
                    self.sets.append(states)
                    self.site.append(saw_site)
                    if self.automaton.cleanup_enabled(states):
                        self.verdict.append(1)
                    else:
                        self.verdict.append(2 if saw_site else 0)
                    self._index[key] = num
        return num

    def step(self, num: int, transitions: Tuple[Transition, ...]):
        """``(new number, took a site transition)`` for moving the set
        ``num`` over ``transitions`` — ``update._step``'s state rule."""
        key = (num, transitions)
        out = self._steps.get(key)
        if out is None:
            states = self.sets[num]
            if self.automaton.strict:
                new = frozenset(t.dst for t in transitions)
            else:
                new = frozenset(
                    {t.dst for t in transitions}
                    | (set(states) - {t.src for t in transitions})
                )
            took = any(t.kind is TransitionKind.SITE for t in transitions)
            out = self._steps[key] = (
                self.number(new, self.site[num] or took), took
            )
        return out


_SETS_LOCK = threading.Lock()


def state_sets(automaton: Automaton) -> StateSets:
    """The automaton's :class:`StateSets`, created on first use."""
    sets = getattr(automaton, "_state_sets", None)
    if sets is None:
        with _SETS_LOCK:
            sets = getattr(automaton, "_state_sets", None)
            if sets is None:
                sets = automaton._state_sets = StateSets(automaton)
    return sets


class TimedRow:
    """A timed class's row value: the state number plus the clock state
    its guards read (``update._filter_guards`` reads these attributes)."""

    __slots__ = ("num", "entry_ts", "last_ts", "rate_marks")

    def __init__(self, num: int, entry_ts: float, last_ts: float,
                 rate_marks: Optional[Dict[Any, list]] = None) -> None:
        self.num = num
        self.entry_ts = entry_ts
        self.last_ts = last_ts
        self.rate_marks = rate_marks

    def copy(self) -> "TimedRow":
        marks = self.rate_marks
        return TimedRow(
            self.num, self.entry_ts, self.last_ts,
            None if marks is None else {g: list(m) for g, m in marks.items()},
        )


class _Odd:
    """The row key of a binding no plain key can hold: an unhashable
    value, or a variable the automaton does not declare.  Hashed by
    identity; :meth:`RowPool.find` compares its binding by scanning."""

    __slots__ = ("binding",)

    def __init__(self, binding: Dict[str, Any]) -> None:
        self.binding = binding


class RowPool:
    """A compiled class's instances as rows (§4.4.1 names an instance by
    its variable bindings).

    ``rows`` maps a binding key — the values of :attr:`vars` in order,
    ``UNBOUND`` for a free one — to the instance's state number
    (:class:`StateSets`), or to a :class:`TimedRow` for a timed class.
    The wildcard is ``wild``, the same kind of value, ``None`` when it
    does not exist.  ``irregular`` counts the rows a one-key probe cannot
    find (partial bindings and :class:`_Odd` keys); while it is zero, an
    event that binds every variable names its only row.  Capacity, high
    water and overflows count rows and the wildcard together, exactly as
    :class:`InstancePool` counts instances.

    :class:`~repro.runtime.instance.AutomatonInstance` objects appear
    only as views built by the cold readers (iteration, :meth:`expunge`,
    violation reports) and by :meth:`load`.
    """

    __slots__ = ("capacity", "overflows", "high_water", "rows", "wild",
                 "irregular", "odd", "entry_ts", "automaton", "sets",
                 "vars", "timed")

    def __init__(self, automaton: Automaton,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.overflows = 0
        self.high_water = 0
        self.rows: Dict[Any, Any] = {}
        self.wild: Any = None
        self.irregular = 0
        self.odd = 0
        #: The bound's entry stamp, for views of untimed rows.
        self.entry_ts = 0.0
        self.automaton = automaton
        self.sets = state_sets(automaton)
        self.vars = class_variables(automaton)
        self.timed = automaton.timed

    def __len__(self) -> int:
        return len(self.rows) + (self.wild is not None)

    # -- keys ----------------------------------------------------------------

    def key_of(self, binding: Dict[str, Any]):
        """The row key ``binding`` is stored under."""
        if not set(binding) <= set(self.vars):
            return _Odd(dict(binding))
        key = tuple(binding.get(name, UNBOUND) for name in self.vars)
        try:
            hash(key)
        except TypeError:
            return _Odd(dict(binding))
        return key

    def binding_of(self, key) -> Dict[str, Any]:
        if type(key) is _Odd:
            return dict(key.binding)
        return {
            name: value for name, value in zip(self.vars, key)
            if value is not UNBOUND
        }

    def find(self, binding: Dict[str, Any]):
        """The key of the row with exactly this binding, or ``None``:
        ``AutomatonInstance.same_binding``'s ``is``/``==`` semantics, by
        hash where the key is hashable and by scan otherwise."""
        key = self.key_of(binding)
        if type(key) is not _Odd:
            if key in self.rows:
                return key
            if not self.odd:
                return None
        for stored in self.rows:
            if _same_binding(self.binding_of(stored), binding):
                return stored
        return None

    # -- rows ----------------------------------------------------------------

    def admit(self) -> bool:
        """Count one insertion attempt against the capacity: ``False``
        (an overflow) when the pool is full."""
        if _fi._active is not None:
            _fi.fault_point(_FP_INSERT)
        population = len(self.rows) + (self.wild is not None)
        if population >= self.capacity:
            self.overflows += 1
            return False
        if population + 1 > self.high_water:
            self.high_water = population + 1
        return True

    def put(self, binding: Dict[str, Any], value) -> None:
        """Store a row admitted by :meth:`admit` (an empty binding is the
        wildcard)."""
        if not binding:
            self.wild = value
            return
        key = self.key_of(binding)
        if type(key) is _Odd:
            self.odd += 1
            self.irregular += 1
        elif UNBOUND in key:
            self.irregular += 1
        self.rows[key] = value

    def remove(self, key) -> None:
        if key is None:
            self.wild = None
            return
        del self.rows[key]
        if type(key) is _Odd:
            self.odd -= 1
            self.irregular -= 1
        elif UNBOUND in key:
            self.irregular -= 1

    def clear(self) -> None:
        self.rows = {}
        self.wild = None
        self.irregular = self.odd = 0

    # -- views ---------------------------------------------------------------

    def items(self) -> List[Tuple[Any, Any]]:
        """``(key, value)`` pairs in pool order, the wildcard (key
        ``None``) first."""
        out = [] if self.wild is None else [(None, self.wild)]
        out.extend(self.rows.items())
        return out

    def view(self, key, value) -> AutomatonInstance:
        """An :class:`AutomatonInstance` copy of one row."""
        timed = self.timed
        num = value.num if timed else value
        instance = AutomatonInstance(
            self.automaton, self.sets.sets[num],
            {} if key is None else self.binding_of(key),
            self.sets.site[num],
            value.entry_ts if timed else self.entry_ts,
        )
        if timed:
            copy = value.copy()
            instance.last_ts = copy.last_ts
            instance.rate_marks = copy.rate_marks
        return instance

    def instances(self) -> List[AutomatonInstance]:
        return [self.view(key, value) for key, value in self.items()]

    def __iter__(self) -> Iterator[AutomatonInstance]:
        return iter(self.instances())

    snapshot = live = instances

    def expunge(self) -> List[AutomatonInstance]:
        """Remove every row; return their views."""
        out = self.instances() if (self.rows or self.wild is not None) else []
        self.clear()
        return out

    def load(self, instances: List[AutomatonInstance]) -> None:
        """Replace the rows with ``instances`` (the inverse of
        :meth:`instances`)."""
        self.clear()
        number = self.sets.number
        for instance in instances:
            num = number(instance.states, instance.saw_site)
            if self.timed:
                value: Any = TimedRow(num, instance.entry_ts,
                                      instance.last_ts, instance.rate_marks)
            else:
                value = num
            self.entry_ts = instance.entry_ts
            self.put(instance.binding, value)

    def stats(self) -> dict:
        """:meth:`InstancePool.stats`, counted over rows."""
        return {
            "capacity": self.capacity,
            "population": len(self),
            "high_water": self.high_water,
            "overflows": self.overflows,
        }


def _same_binding(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if not (other is value or other == value):
            return False
    return True
