"""Unit tests for automata stores."""

import threading

import pytest

from repro.core.dsl import call, previously, tesla_within
from repro.core.translate import automaton_for, translate
from repro.errors import ContextError
from repro.runtime.store import GlobalStore, PerThreadStores, Store


def make_automaton(name):
    return translate(tesla_within("m", previously(call("f")), name=name))


class TestStore:
    def test_install_and_get(self):
        store = Store()
        automaton = make_automaton("s1")
        cr = store.install(automaton)
        assert store.get("s1") is cr
        assert "s1" in store

    def test_install_idempotent_for_same_object(self):
        store = Store()
        automaton = make_automaton("s2")
        assert store.install(automaton) is store.install(automaton)

    def test_conflicting_definition_rejected(self):
        store = Store()
        store.install(make_automaton("s3"))
        other = translate(tesla_within("m", previously(call("g")), name="s3"))
        with pytest.raises(ContextError):
            store.install(other)

    def test_memoised_retranslation_installs_idempotently(self):
        store = Store()
        first = automaton_for(
            tesla_within("m", previously(call("f")), name="s3m")
        )
        again = automaton_for(
            tesla_within("m", previously(call("f")), name="s3m")
        )
        assert again is first
        assert store.install(first) is store.install(again)

    def test_reset_clears_runtime_state(self):
        store = Store()
        cr = store.install(make_automaton("s4"))
        cr.active = True
        store.reset()
        assert not cr.active

    def test_names_sorted(self):
        store = Store()
        store.install(make_automaton("zz"))
        store.install(make_automaton("aa"))
        assert store.names == ["aa", "zz"]


class TestPerThreadStores:
    def test_each_thread_gets_own_store(self):
        stores = PerThreadStores()
        stores.register(make_automaton("t1"))
        main_store = stores.current()
        seen = {}

        def worker():
            seen["store"] = stores.current()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["store"] is not main_store
        assert seen["store"].get("t1") is not None

    def test_same_thread_reuses_store(self):
        stores = PerThreadStores()
        assert stores.current() is stores.current()

    def test_late_registration_reaches_existing_stores(self):
        stores = PerThreadStores()
        store = stores.current()
        stores.register(make_automaton("t2"))
        assert store.get("t2") is not None

    def test_all_stores_enumerates(self):
        stores = PerThreadStores()
        stores.current()
        assert len(stores.all_stores()) == 1


class TestGlobalStore:
    def test_single_store_with_lock(self):
        store = GlobalStore()
        store.register(make_automaton("g1"))
        assert store.store.get("g1") is not None
        with store.lock:
            pass  # the lock is a usable RLock

    def test_reset(self):
        store = GlobalStore()
        store.register(make_automaton("g2"))
        cr = store.store.get("g2")
        cr.active = True
        store.reset()
        assert not cr.active
