"""Automaton instances: variable-binding–named copies of an automaton class.

Section 4.4.1: each automaton *class* "can be instantiated a number of
times, differentiated by the variables they reference".  The wildcard
instance ``(∗)`` exists as soon as the temporal bound opens; observing an
event that supplies a value for a free variable *clones* a named instance
(``(vp1)``) which then advances independently.

An instance's current position is a *set* of NFA states (figure 9's
"NFA:1,3" labels), so nondeterministic automata need no up-front
determinization.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..core.automaton import Automaton

_instance_ids = itertools.count(1)


def binding_name(binding: Dict[str, Any]) -> str:
    """An instance's name from its binding (see :attr:`AutomatonInstance.name`)."""
    if not binding:
        return "(*)"
    inner = ", ".join(f"{k}={v!r}" for k, v in sorted(binding.items()))
    return f"({inner})"


class AutomatonInstance:
    """One live instance of an automaton class."""

    __slots__ = (
        "automaton",
        "binding",
        "states",
        "saw_site",
        "instance_id",
        "entry_ts",
        "last_ts",
        "rate_marks",
    )

    def __init__(
        self,
        automaton: Automaton,
        states: FrozenSet[int],
        binding: Optional[Dict[str, Any]] = None,
        saw_site: bool = False,
        entry_ts: float = 0.0,
    ) -> None:
        self.automaton = automaton
        self.states = states
        self.binding: Dict[str, Any] = dict(binding or {})
        self.saw_site = saw_site
        self.instance_id = next(_instance_ids)
        # Timed state (DESIGN §5.9); only consulted when automaton.timed.
        # ``entry_ts`` is the capture timestamp of the bound-entry event,
        # ``last_ts`` the timestamp of the last transition this instance
        # took (guards of kind "since_prev" measure from it), and
        # ``rate_marks`` the per-guard sliding windows of match timestamps.
        self.entry_ts = entry_ts
        self.last_ts = entry_ts
        self.rate_marks: Optional[Dict[Any, list]] = None

    # -- naming ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """The paper's instance name: ``(∗)`` for the wildcard, else the
        bound variable values in declaration order."""
        return binding_name(self.binding)

    def binding_items(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(self.binding.items(), key=lambda kv: kv[0]))

    def same_binding(self, other_binding: Dict[str, Any]) -> bool:
        if set(self.binding) != set(other_binding):
            return False
        for key, value in self.binding.items():
            other = other_binding[key]
            if not (other is value or other == value):
                return False
        return True

    # -- lifecycle --------------------------------------------------------------

    def clone(self, extension: Dict[str, Any]) -> "AutomatonInstance":
        """Clone with an extended binding (the «clone» transition)."""
        merged = dict(self.binding)
        merged.update(extension)
        child = AutomatonInstance(
            automaton=self.automaton,
            states=self.states,
            binding=merged,
            saw_site=self.saw_site,
            entry_ts=self.entry_ts,
        )
        child.last_ts = self.last_ts
        if self.rate_marks is not None:
            child.rate_marks = {g: list(m) for g, m in self.rate_marks.items()}
        return child

    def accepting_at_cleanup(self) -> bool:
        """Whether the instance accepts when the temporal bound closes."""
        return self.automaton.cleanup_enabled(self.states)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        states = ",".join(map(str, sorted(self.states)))
        return f"<Instance {self.automaton.name}{self.name} NFA:{states}>"
