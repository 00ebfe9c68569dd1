"""Ablations for the design choices DESIGN.md calls out.

Three mechanisms the reproduction implements as first-class design points,
each measured against its own absence:

1. **Event-translator static filtering** (section 4.2's "two tasks"):
   dropping events whose static parameters cannot match any automaton,
   before any instance work.  Ablated by forwarding every hook event
   straight to the runtime.
2. **Automaton-description caching at build time** (section 7's
   acknowledged inefficiency): parse + translate the combined manifest
   once per change instead of once per unit.
3. **Static elision** (section 7's future work, implemented in
   ``repro.analysis``): assertions tesla-prove discharges (PROVED) are
   not instrumented at all.
"""

from __future__ import annotations

import pytest

from repro.analysis import ProgramCFG, load_suite, prove_assertions
from repro.bench import median_time
from repro.core.dsl import ANY, call, fn, previously, tesla_within, var
from repro.core.events import call_event, return_event
from repro.instrument.build import BuildSystem
from repro.instrument.hooks import instrumentable, tesla_site
from repro.instrument.module import Instrumenter
from repro.runtime.manager import TeslaRuntime

from conftest import emit


# ---------------------------------------------------------------------------
# 1. translator static filtering
# ---------------------------------------------------------------------------


@instrumentable(name="abl_noisy")
def abl_noisy(mode, payload):
    """A hot function whose events mostly fail the static check: the
    assertion only cares about mode == 'commit'."""
    return 0


@instrumentable(name="abl_bound")
def abl_bound(n):
    for index in range(n):
        abl_noisy("prepare", index)
    abl_noisy("commit", n)
    tesla_site("abl.translator", n=n)
    return n


def translator_assertion():
    return tesla_within(
        "abl_bound",
        previously(fn("abl_noisy", "commit", ANY("p")) == 0),
        name="abl.translator",
    )


def run_translator_ablation():
    runtime = TeslaRuntime()
    session = Instrumenter(runtime)
    session.instrument([translator_assertion()])
    try:
        with_filter = median_time(lambda: abl_bound(200), repeats=5)
        # Ablate: bypass the static chains, forward everything.
        translator = session.translator
        original = translator._chains

        class ForwardAll(dict):
            def get(self, key, default=None):
                chain = original.get(key)
                return [] if chain is None else chain

        def forward_all(event):
            if original.get((event.kind, event.name)) is None:
                return
            translator.runtime.handle_event(event)

        for point_name in ("abl_noisy", "abl_bound"):
            from repro.instrument.hooks import hook_registry

            point = hook_registry.require(point_name)
            point.detach(translator)
            point.attach(forward_all)
        from repro.instrument.hooks import site_registry

        site_registry.detach("abl.translator", translator)
        site_registry.attach("abl.translator", forward_all)
        without_filter = median_time(lambda: abl_bound(200), repeats=5)
        site_registry.detach("abl.translator", forward_all)
        for point_name in ("abl_noisy", "abl_bound"):
            from repro.instrument.hooks import hook_registry

            hook_registry.require(point_name).detach(forward_all)
    finally:
        session.uninstrument()
    return with_filter, without_filter


def test_ablation_translator_filtering(benchmark, results_dir):
    with_filter, without_filter = benchmark.pedantic(
        run_translator_ablation, rounds=1, iterations=1
    )
    text = (
        "Ablation 1: event-translator static filtering\n"
        "---------------------------------------------\n"
        f"with static checks     {with_filter * 1e3:8.3f} ms\n"
        f"forward everything     {without_filter * 1e3:8.3f} ms\n"
        f"filtering saves        {(1 - with_filter / without_filter) * 100:5.1f}%"
    )
    emit(results_dir, "ablation_translator", text)
    # The translator's first task must pay for itself on mostly-mismatching
    # event streams.
    assert with_filter < without_filter


# ---------------------------------------------------------------------------
# 2. build-time automaton caching
# ---------------------------------------------------------------------------


def _build_tree():
    """The sslx tree, but carrying the kernel's 48-assertion M set — a
    manifest heavy enough that re-parsing it per unit is the dominant
    instrumentation cost (the situation section 7 complains about)."""
    from bench_fig10_build_overhead import make_tree

    from repro.kernel.assertions import assertion_sets

    units = make_tree()
    units[-1].assertions = list(assertion_sets()["M"])
    return units


@pytest.mark.parametrize("cached", [False, True], ids=["naive", "cached"])
def test_ablation_build_cache_modes(benchmark, tmp_path, cached):
    system = BuildSystem(_build_tree(), tmp_path, cache_automata=cached)
    system.clean_build(tesla=True)
    benchmark(
        lambda: system.incremental_build(
            "client_main", tesla=True, assertion_changed=True
        )
    )


def test_ablation_build_cache(benchmark, tmp_path, results_dir):
    def run():
        naive = BuildSystem(_build_tree(), tmp_path / "naive")
        naive.clean_build(tesla=True)
        naive_time = median_time(
            lambda: naive.incremental_build(
                "client_main", tesla=True, assertion_changed=True
            ),
            repeats=3,
        )
        cached = BuildSystem(
            _build_tree(), tmp_path / "cached", cache_automata=True
        )
        cached.clean_build(tesla=True)
        # Prime the cache with the post-change manifest, then measure the
        # steady-state rebuild (same manifest, all units re-instrumented).
        cached.incremental_build("client_main", tesla=True, assertion_changed=True)
        cached_time = median_time(
            lambda: cached.incremental_build(
                "client_main", tesla=True, assertion_changed=True
            ),
            repeats=3,
        )
        return naive_time, cached_time

    naive_time, cached_time = benchmark.pedantic(run, rounds=1, iterations=1)
    # With a 48-assertion manifest, the naive strategy re-parses and
    # re-translates it once per unit (6x); the cache does it once.
    text = (
        "Ablation 2: automaton-description caching (section 7)\n"
        "------------------------------------------------------\n"
        f"naive (re-parse per unit)  {naive_time * 1e3:8.3f} ms\n"
        f"cached                     {cached_time * 1e3:8.3f} ms\n"
        f"speedup                    {naive_time / cached_time:8.2f}x"
    )
    emit(results_dir, "ablation_build_cache", text)
    assert cached_time < naive_time


# ---------------------------------------------------------------------------
# 3. static elision
# ---------------------------------------------------------------------------

ELISION_SOURCE_TEMPLATE = '''
def se_check{i}(cred, obj):
    return 0

def se_site{i}(obj):
    tesla_site("abl.elide.{i}", obj=obj)

def se_bound{i}(obj):
    se_check{i}("cred", obj)
    se_site{i}(obj)
'''


def test_ablation_static_elision(benchmark, results_dir):
    """Instrumenting only what tesla-prove cannot discharge skips the
    run-time automata for provably satisfied assertions entirely.

    Three rows: a synthetic straight-line module asserting a prior
    ``call`` of its check (every assertion is discharged), the same
    module asserting the check *returned 0* (return values are not
    modelled, so everything stays monitored), and the kernel's MP set
    (the VOP/pr_usrreqs indirection of figure 3 defeats discharge, so
    everything stays monitored — the conservative answer)."""

    def run():
        from repro.kernel.assertions import assertion_sets

        synthetic_cfg = ProgramCFG()
        called, returned = [], []
        for i in range(8):
            synthetic_cfg.add_source(ELISION_SOURCE_TEMPLATE.format(i=i))
            called.append(
                tesla_within(
                    f"se_bound{i}",
                    previously(call(f"se_check{i}")),
                    name=f"abl.elide.{i}",
                )
            )
            returned.append(
                tesla_within(
                    f"se_bound{i}",
                    previously(fn(f"se_check{i}", ANY("c"), var("obj")) == 0),
                    name=f"abl.elide.{i}",
                )
            )
        kernel_cfg = load_suite("kernel")[1].cfg
        return (
            prove_assertions(called, cfg=synthetic_cfg),
            prove_assertions(returned, cfg=synthetic_cfg),
            prove_assertions(assertion_sets()["MP"], cfg=kernel_cfg),
        )

    called_report, returned_report, kernel_report = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    def row(report) -> str:
        return "  " + report.format_elision().replace("\n", "\n  ")

    text = "\n".join(
        [
            "Ablation 3: static elision (section 7, via tesla-prove)",
            "-------------------------------------------------------",
            "synthetic straight-line corpus, previously(call(check)):",
            row(called_report),
            "same corpus, previously(fn(check, ANY, var(obj)) == 0)"
            " (return values are not modelled):",
            row(returned_report),
            "kernel MP set (dynamic dispatch throughout):",
            row(kernel_report),
        ]
    )
    emit(results_dir, "ablation_static_elision", text)
    # Straight-line code: prove discharges everything on the product basis.
    assert len(called_report.proved) == 8
    assert {r.basis for r in called_report.proved} == {"product"}
    # A return-value pattern is never forced, so nothing is discharged
    # and nothing is wrongly doomed.
    assert len(returned_report.unknown) == 8
    # Real kernel code: conservative — no dooms, no false discharges
    # through the indirection the model cannot follow.
    assert not kernel_report.violated
    assert len(kernel_report.unknown) == 10
