"""Unit tests for bounded instance pools: ``InstancePool`` and the
compiled runtime's ``RowPool``."""

import sys
import threading

import pytest

from repro.core.dsl import call, fn, previously, tesla_within, var
from repro.core.translate import translate
from repro.runtime import faultinject
from repro.runtime.faultinject import FaultInjector, InjectedFault
from repro.runtime.instance import AutomatonInstance
from repro.runtime.prealloc import InstancePool, RowPool, StateSets


def make_instance(binding=None, name="pool-test"):
    automaton = translate(tesla_within("m", previously(call("f")), name=name))
    return AutomatonInstance(automaton, automaton.entry_states, binding=binding)


class TestCapacity:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            InstancePool(0)

    def test_add_within_capacity(self):
        pool = InstancePool(2)
        assert pool.add(make_instance(name="p1"))
        assert pool.add(make_instance(name="p2"))
        assert len(pool) == 2

    def test_overflow_drops_and_counts(self):
        pool = InstancePool(1)
        assert pool.add(make_instance(name="p3"))
        assert not pool.add(make_instance(name="p4"))
        assert not pool.add(make_instance(name="p5"))
        assert pool.overflows == 2
        assert len(pool) == 1

    def test_high_water_tracks_peak(self):
        pool = InstancePool(4)
        for i in range(3):
            pool.add(make_instance(name=f"hw{i}"))
        pool.expunge()
        pool.add(make_instance(name="hw-after"))
        assert pool.high_water == 3


class TestLookup:
    def test_find_by_binding(self):
        pool = InstancePool(4)
        target = make_instance(binding={"vp": 1}, name="f1")
        pool.add(target)
        pool.add(make_instance(binding={"vp": 2}, name="f2"))
        assert pool.find({"vp": 1}) is target
        assert pool.find({"vp": 3}) is None

    def test_expunge_empties_and_returns_all(self):
        pool = InstancePool(4)
        pool.add(make_instance(name="e1"))
        pool.add(make_instance(name="e2"))
        removed = pool.expunge()
        assert len(removed) == 2
        assert len(pool) == 0

    def test_snapshot_is_independent_copy(self):
        pool = InstancePool(4)
        pool.add(make_instance(name="s1"))
        snapshot = pool.snapshot()
        pool.expunge()
        assert len(snapshot) == 1

    def test_iteration(self):
        pool = InstancePool(4)
        pool.add(make_instance(name="i1"))
        assert len(list(pool)) == 1


def make_rows(capacity=4, name="rows-test"):
    automaton = translate(tesla_within(
        "m", previously(fn("f", var("v")) == 0), name=name,
    ))
    return RowPool(automaton, capacity), automaton


def put(pool, binding):
    """Admit and store one entry-state row; False on overflow."""
    if not pool.admit():
        return False
    pool.put(binding, pool.sets.number(pool.automaton.entry_states, False))
    return True


class TestRows:
    """The compiled runtime's pool: one row per binding, counted like
    instances, found with ``same_binding``'s ``is``/``==`` semantics."""

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_capacity_counts_rows_and_the_wildcard(self, capacity):
        pool, _ = make_rows(capacity)
        assert put(pool, {})
        accepted = [put(pool, {"v": i}) for i in range(3)]
        assert accepted == [True] * (capacity - 1) + [False] * (4 - capacity)
        assert pool.stats() == {
            "capacity": capacity, "population": capacity,
            "high_water": capacity, "overflows": 4 - capacity,
        }
        pool.expunge()
        assert len(pool) == 0 and pool.high_water == capacity

    def test_equal_values_share_a_row(self):
        pool, _ = make_rows()
        put(pool, {"v": 1})
        for same in (1.0, True, 1):
            assert pool.find({"v": same}) == (1,)
        assert pool.find({"v": 2}) is None
        put(pool, {"v": tuple(["t"])})
        assert pool.find({"v": tuple(["t"])}) is not None
        assert pool.irregular == 0

    def test_nan_matches_only_itself(self):
        pool, _ = make_rows()
        nan = float("nan")
        put(pool, {"v": nan})
        assert pool.find({"v": nan}) is not None
        assert pool.find({"v": float("nan")}) is None

    def test_unhashable_values_are_found_by_scan(self):
        pool, _ = make_rows()
        put(pool, {"v": "plain"})
        put(pool, {"v": [1]})
        put(pool, {"v": {"k": 1}})
        assert (pool.odd, pool.irregular) == (2, 2)
        assert pool.find({"v": [1]}) is not None
        assert pool.find({"v": {"k": 1}}) is not None
        assert pool.find({"v": [2]}) is None
        assert pool.find({"v": "plain"}) == ("plain",)
        assert [i.binding for i in pool] == [
            {"v": "plain"}, {"v": [1]}, {"v": {"k": 1}},
        ]

    def test_partial_and_undeclared_bindings_are_irregular(self):
        pool, _ = make_rows()
        put(pool, {"w": 1})  # a variable the automaton does not declare
        assert (pool.odd, pool.irregular) == (1, 1)
        assert pool.find({"w": 1}) is not None
        pool.clear()
        assert (pool.odd, pool.irregular, len(pool)) == (0, 0, 0)

    def test_views_round_trip_in_pool_order(self):
        pool, automaton = make_rows()
        put(pool, {})
        put(pool, {"v": "b"})
        put(pool, {"v": [1]})
        views = pool.instances()
        assert [i.name for i in views] == ["(*)", "(v='b')", "(v=[1])"]
        assert all(i.states == automaton.entry_states for i in views)
        views[1].saw_site = True
        pool.load(views)
        again = pool.instances()
        assert [(i.binding, i.saw_site) for i in again] == [
            (i.binding, i.saw_site) for i in views
        ]

    def test_armed_insert_fault_stores_nothing(self):
        pool, _ = make_rows()
        injector = FaultInjector(seed=0, rate=1.0, only={"prealloc.insert"})
        faultinject.arm(injector)
        try:
            with pytest.raises(InjectedFault):
                put(pool, {"v": 1})
        finally:
            faultinject.disarm()
        assert len(pool) == 0 and pool.high_water == 0
        assert put(pool, {"v": 1})

    def test_state_numbers_are_unique_across_threads(self):
        """Threads sharing an automaton number each state set once."""
        _, automaton = make_rows(name="rows-threads")
        sets = StateSets(automaton)
        subsets = [frozenset(range(k)) for k in range(1, 9)]
        results = []

        def number_all():
            results.append([
                sets.number(states, site)
                for _ in range(50)
                for states in subsets
                for site in (False, True)
            ])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=number_all) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6 and all(r == results[0] for r in results)
        assert len(sets.sets) == len(set(results[0])) == 2 * len(subsets)
        assert [(sets.sets[n], sets.site[n]) for n in results[0][:2]] == [
            (subsets[0], False), (subsets[0], True),
        ]
