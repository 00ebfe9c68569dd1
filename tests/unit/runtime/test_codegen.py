"""Unit tests for tesla-jit: source generation, the process-wide code
cache, the per-class step cache, and the runtime contract — generated
code is every compiled runtime's evaluator, with the interpreter only
behind a detailed hub (DESIGN §5.7)."""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    either,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.ast import FunctionReturn
from repro.core.patterns import EMPTY_BINDING, Pattern
from repro.core.translate import translate
from repro.runtime import codegen
from repro.runtime.clock import FakeClock
from repro.runtime.codegen import (
    CODEGEN_VERSION,
    CodegenFacts,
    compile_plan_step,
    generate_source,
)
from repro.runtime.epoch import interest_epoch
from repro.runtime.faultinject import FaultInjector, arm, disarm
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.plans import build_transition_plan
from repro.runtime.store import ClassRuntime


def _assertion(name="cg_cls", check="cg_check", bound="cg_bound"):
    return tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )


def _facts(check="cg_check"):
    return CodegenFacts(clean=True, arity_safe=frozenset({(check, 2)}))


def _body_entry(automaton, key, facts=None):
    plan = build_transition_plan(automaton, key)
    return compile_plan_step(automaton, plan, facts)


class _OpaquePattern(Pattern):
    """Matches anything via the interpreter's duck-typed protocol, but is
    unknown to the generator's isinstance chain: the generated step calls
    its own ``match``."""

    def match(self, value, binding):
        return binding

    def describe(self):
        return "opaque"


class _Suffix(Pattern):
    """An event-static custom pattern: strings ending in ``suffix``."""

    def __init__(self, suffix):
        self.suffix = suffix

    def match(self, value, binding):
        if isinstance(value, str) and value.endswith(self.suffix):
            return {}
        return None

    def describe(self):
        return f"*{self.suffix}"


class _SameLength(Pattern):
    """A binding-dependent custom pattern: binds ``name`` when it is
    free, else matches values as long as the bound one."""

    def __init__(self, name):
        self.name = name

    @property
    def variables(self):
        return (self.name,)

    def match(self, value, binding):
        if self.name not in binding:
            return {self.name: value}
        return {} if len(value) == len(binding[self.name]) else None

    def describe(self):
        return f"len=={self.name}"


class TestGenerateSource:
    def test_body_key_generates_both_variants(self):
        automaton = translate(_assertion())
        plan = build_transition_plan(automaton, (EventKind.RETURN, "cg_check"))
        gen = generate_source(automaton, plan, _facts())
        assert f"# tesla-jit v{CODEGEN_VERSION} " in gen.source
        assert "def step(cr, event, hub):" in gen.source
        # Batches run the per-event step; no batch variant is emitted.
        assert "def step_batch" not in gen.source
        # Constants live in the namespace, never in the text — values in
        # the source would break the byte-identical determinism contract.
        # (The plain name may appear in the header comment; a quoted
        # literal in code must not.)
        assert "'cg_check'" not in gen.source
        assert '"cg_check"' not in gen.source

    def test_unknown_pattern_generates_a_match_call(self):
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(fn("cg_check", _OpaquePattern(), var("v")) == 0),
            name="cg_weird",
        )
        automaton = translate(weird)
        entry = _body_entry(automaton, (EventKind.RETURN, "cg_check"))
        assert entry.step is not None
        # A symbol the generator cannot decompose is matched per row by
        # its compiled matcher, in the row walk (``rows.walk``).
        assert "_walk(cr, event, hub, _BODY)" in entry.source
        assert "keyed=False" in entry.source

    def test_arity_guards_elided_only_under_clean_facts(self):
        automaton = translate(_assertion())
        key = (EventKind.RETURN, "cg_check")
        bare = _body_entry(automaton, key)
        clean = _body_entry(automaton, key, _facts())
        dirty = _body_entry(
            automaton,
            key,
            CodegenFacts(clean=False, arity_safe=frozenset({("cg_check", 2)})),
        )
        unproven = _body_entry(
            automaton, key, CodegenFacts(clean=True, arity_safe=frozenset())
        )
        assert clean.elided_guards > 0
        assert bare.elided_guards == 0
        assert dirty.elided_guards == 0
        assert unproven.elided_guards == 0

    @pytest.mark.parametrize("suite", ["examples", "kernel", "sslx", "gui",
                                       "slo"])
    def test_every_corpus_plan_compiles(self, suite):
        """Generation declines nothing: every plan of every in-repo
        assertion (the timed SLO suite included) compiles to a step."""
        from repro.analysis.lint import load_suite
        from repro.core.translate import translate_all

        assertions, _ = load_suite(suite)
        steps = 0
        for automaton in translate_all(assertions):
            for key, _gen in codegen.dump_sources(automaton):
                entry = _body_entry(automaton, key)
                assert callable(entry.step), (automaton.name, key)
                steps += 1
        assert steps > 0

    def test_site_key_generates(self):
        automaton = translate(_assertion())
        entry = _body_entry(
            automaton, (EventKind.ASSERTION_SITE, automaton.name), _facts()
        )
        assert entry.step is not None


class TestStepCache:
    def test_miss_hit_and_epoch_invalidation(self):
        cr = ClassRuntime(translate(_assertion(name="cg_cache_cls")))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        facts = _facts()
        first = cr.gen_entry(key, epoch, facts)
        assert first.step is not None
        assert cr.gen_misses == 1
        assert cr.gen_entry(key, epoch, facts) is first
        assert cr.gen_misses == 1
        assert cr.gen_cache_size == 1
        assert cr.gen_seconds > 0.0
        assert cr.gen_elided_guards > 0
        stale_epoch = interest_epoch.bump()
        rebuilt = cr.gen_entry(key, stale_epoch, facts)
        assert rebuilt is not first
        assert cr.gen_invalidations == 1
        assert cr.gen_misses == 2

    def test_unknown_pattern_step_is_cached(self):
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(fn("cg_check", _OpaquePattern(), var("v")) == 0),
            name="cg_fb_cls",
        )
        cr = ClassRuntime(translate(weird))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        first = cr.gen_entry(key, epoch, None)
        assert first.step is not None
        assert cr.gen_entry(key, epoch, None) is first
        assert cr.gen_misses == 1
        assert cr.generated_keys() == ["return:cg_check"]

    def test_reset_keeps_cache_but_zeroes_traffic_counters(self):
        cr = ClassRuntime(translate(_assertion(name="cg_reset_cls")))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        cr.gen_entry(key, epoch, _facts())
        cr.gen_entry(key, epoch, _facts())
        elided = cr.gen_elided_guards
        cr.reset()
        assert cr.gen_cache_size == 1
        assert (cr.gen_misses, cr.gen_hits) == (0, 0)
        # Content counters describe what is resident, and it still is.
        assert cr.gen_elided_guards == elided
        assert cr.gen_seconds > 0.0


def _trace(rounds=6, n_values=3, check="cg_check", bound="cg_bound",
           cls="cg_cls"):
    """Bound windows with clone-producing checks and a mix of satisfied
    and violating sites."""
    events = []
    for r in range(rounds):
        events.append(call_event(bound, ()))
        for v in range(n_values):
            events.append(return_event(check, ("c", f"val{v}"), 0))
        events.append(
            assertion_site_event(cls, {"v": f"val{(r % (n_values + 1))}"})
        )
        events.append(return_event(bound, (), 0))
    return events


def _verdict(runtime, name="cg_cls"):
    cr = runtime.class_runtime(name)
    return (cr.accepts, cr.errors, cr.sites_reached)


def _run(events, **kwargs):
    runtime = TeslaRuntime(
        lazy=True, policy=LogAndContinue(), **kwargs
    )
    runtime.install_assertion(_assertion())
    for event in events:
        runtime.handle_event(event)
    return runtime


class TestCodeCache:
    """Each distinct generated function is ``compile()``d once per
    process; later runtimes only ``exec`` the cached code object into a
    fresh namespace carrying their own constants."""

    @staticmethod
    def _steps(runtime, name="cg_cls"):
        cr = runtime.class_runtime(name)
        return {key: entry.step for key, entry in cr._gen.items()}

    def test_fresh_runtimes_share_each_steps_code_object(self):
        events = _trace()
        first = self._steps(_run(events))
        second = self._steps(_run(events))
        assert first and first.keys() == second.keys()
        for key, step in first.items():
            assert step.__code__ is second[key].__code__, key
            # Shared code, separate namespaces: each runtime's step binds
            # its own plan and transition constants.
            assert step.__globals__ is not second[key].__globals__, key

    def test_one_compile_per_distinct_source(self, monkeypatch):
        compiled_sources = []
        real_compile = compile

        def counting_compile(source, filename, mode, *args, **kwargs):
            if filename.startswith("<tesla-jit "):
                compiled_sources.append(source)
            return real_compile(source, filename, mode, *args, **kwargs)

        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        monkeypatch.setattr(codegen, "compile", counting_compile,
                            raising=False)
        automaton = translate(_assertion(name="cg_once_cls"))
        keys = [
            (EventKind.RETURN, "cg_check"),
            (EventKind.ASSERTION_SITE, automaton.name),
        ]
        for _ in range(3):
            for key in keys:
                _body_entry(automaton, key, _facts())
        assert len(compiled_sources) == len(keys)
        assert len(set(compiled_sources)) == len(keys)

    def test_distinct_facts_give_distinct_code_objects(self, monkeypatch):
        # A fresh cache: steps generated earlier in the process may have
        # filled the shared one to its bound, which clears it mid-test.
        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        automaton = translate(_assertion(name="cg_facts_cls"))
        key = (EventKind.RETURN, "cg_check")
        elided = _body_entry(automaton, key, _facts())
        guarded = _body_entry(automaton, key, CodegenFacts.NONE)
        assert elided.elided_guards > 0 and guarded.elided_guards == 0
        assert elided.source != guarded.source
        assert elided.step.__code__ is not guarded.step.__code__
        assert (
            _body_entry(automaton, key, _facts()).step.__code__
            is elided.step.__code__
        )

    def test_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        monkeypatch.setattr(codegen, "CODE_CACHE_LIMIT", 4)
        key = (EventKind.RETURN, "cg_check")
        for index in range(11):
            automaton = translate(_assertion(name=f"cg_bound_cls{index}"))
            entry = _body_entry(automaton, key, _facts())
            assert entry.step is not None
            assert len(codegen._CODE_CACHE) <= 4


class TestRuntimeFallbackContract:
    def test_codegen_keyword_is_gone(self):
        # Generated steps are every compiled runtime's path; there is no
        # separate knob to turn them on.
        with pytest.raises(TypeError):
            TeslaRuntime(codegen=True)

    def test_codegen_matches_interpreters(self):
        events = _trace()
        naive = _run(events, compile=False)
        jitted = _run(events, compile=True)
        assert _verdict(naive) == _verdict(jitted)
        cr = jitted.class_runtime("cg_cls")
        assert cr.gen_hits > 0
        assert naive.class_runtime("cg_cls").gen_cache_size == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["sync", "batch"])
    def test_materialised_instances_keep_bound_entry_time(self, batched):
        """Generated steps stamp lazily materialised instances with the
        bound-entry capture time, exactly as the interpreter does."""

        def entry_stamps(compile):
            clock = FakeClock()
            runtime = TeslaRuntime(
                lazy=True, policy=LogAndContinue(),
                compile=compile, clock=clock,
            )
            runtime.install_assertion(_assertion())
            clock.advance(5.0)
            runtime.handle_event(call_event("cg_bound", ()))
            clock.advance(1.0)
            checks = [
                return_event("cg_check", ("c", f"val{v}"), 0)
                for v in range(3)
            ]
            if batched:
                runtime.dispatch_batch(checks)
            else:
                for event in checks:
                    runtime.handle_event(event)
            cr = runtime.class_runtime("cg_cls")
            return sorted(i.entry_ts for i in cr.pool.live()), cr

        reference, _ = entry_stamps(compile=False)
        generated, cr = entry_stamps(compile=True)
        assert cr.gen_hits + cr.gen_misses > 0
        assert reference == generated == [5.0] * 4

    def test_detailed_hub_defers_to_interpreter(self):
        """An attached handler flips ``hub.detailed``: the generated step's
        top guard must route through the interpreter so lifecycle
        notifications are still produced."""
        events = _trace()
        seen = []
        compiled = _run(events, compile=True)
        jitted = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=True,
        )
        jitted.hub.add_handler(seen.append)
        jitted.install_assertion(_assertion())
        for event in events:
            jitted.handle_event(event)
        assert _verdict(jitted) == _verdict(compiled)
        assert seen, "detailed handler saw no notifications"

    def test_armed_faultinject_runs_generated_code(self):
        """An armed injector runs the same generated code, whose fault
        points it visits; a rate-0 injector must not change verdicts."""
        events = _trace()
        jitted = _run(events, compile=True)
        injector = FaultInjector(seed=3, rate=0.0)
        arm(injector)
        try:
            armed = _run(events, compile=True)
        finally:
            disarm()
        assert _verdict(armed) == _verdict(jitted)
        cr = armed.class_runtime("cg_cls")
        assert cr.gen_hits == jitted.class_runtime("cg_cls").gen_hits > 0
        assert injector.checks["update.step"] == cr.gen_hits

    def test_batch_drain_matches_sync_dispatch(self):
        events = _trace(rounds=8)
        sync = _run(events, compile=True)
        batched = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=True,
        )
        batched.install_assertion(_assertion())
        for start in range(0, len(events), 16):
            batched.dispatch_batch(events[start:start + 16])
        assert _verdict(batched) == _verdict(sync)
        assert batched.class_runtime("cg_cls").gen_hits > 0

    def test_batch_drain_custom_pattern_class_runs_generated(self):
        """A class with a pattern the generator cannot decompose gets its
        verdicts from generated code through ``dispatch_batch`` too."""
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(
                either(
                    fn("cg_check", _OpaquePattern(), var("v")) == 0,
                    fn("cg_check", ANY("c"), var("v")) == 0,
                )
            ),
            name="cg_cls",
        )

        def run(batched, compile=True):
            runtime = TeslaRuntime(
                lazy=True, policy=LogAndContinue(), compile=compile,
            )
            runtime.install_assertion(weird)
            events = _trace(rounds=8)
            if batched:
                for start in range(0, len(events), 16):
                    runtime.dispatch_batch(events[start:start + 16])
            else:
                for event in events:
                    runtime.handle_event(event)
            return runtime

        compiled = run(False)
        jitted = run(True)
        assert _verdict(jitted) == _verdict(compiled)
        assert _verdict(jitted) == _verdict(run(True, compile=False))
        assert jitted.class_runtime("cg_cls").gen_hits > 0


class TestCustomPatterns:
    """Custom :class:`Pattern` subclasses generate, and the generated
    steps agree with the interpreter."""

    @staticmethod
    def _assertion():
        return tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(
                fn("cg_check", _Suffix("c"), _SameLength("v")) == 0
            ),
            name="cg_custom",
        )

    @staticmethod
    def _trace():
        events = []
        values = ["a", "bb", "cc", "ddd", "e"]
        for r in range(6):
            events.append(call_event("cg_bound", ()))
            for k, value in enumerate(values[r % 3:]):
                cred = "ac" if (r + k) % 3 else "ax"
                events.append(return_event("cg_check", (cred, value), 0))
            for value in ("bb", "zz", "ddd", "q"):
                events.append(assertion_site_event("cg_custom", {"v": value}))
            events.append(return_event("cg_bound", (), 0))
        return events

    def _observe(self, compile, batched):
        runtime = TeslaRuntime(policy=LogAndContinue(), compile=compile)
        runtime.install_assertion(self._assertion())
        events = self._trace()
        if batched:
            runtime.dispatch_batch(events)
        else:
            for event in events:
                runtime.handle_event(event)
        cr = runtime.class_runtime("cg_custom")
        return runtime, (
            (cr.accepts, cr.errors, cr.sites_reached),
            dict(cr.transition_counts),
            [(v.reason, v.binding) for v in runtime.hub.policy.violations],
        )

    @pytest.mark.parametrize("batched", [False, True], ids=["sync", "batch"])
    def test_custom_patterns_agree_with_the_interpreter(self, batched):
        jitted, generated = self._observe(True, batched)
        _, reference = self._observe(False, batched)
        assert generated == reference
        accepts, errors, _ = generated[0]
        assert accepts > 0 and errors > 0
        cr = jitted.class_runtime("cg_custom")
        assert cr.gen_hits > 0
        assert cr.generated_keys() == [
            "assertion-site:cg_custom", "return:cg_check",
        ]

    def test_matcher_learning_nothing_steps_in_place(self):
        """A return pattern alone is matched by the pattern's own
        ``match``, which returns a fresh empty dict here: the generated
        step must step the instance in place, not try to clone it."""
        assertion = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(FunctionReturn("cg_check", None, _Suffix("c"))),
            name="cg_raw",
        )
        automaton = translate(assertion)
        plan = build_transition_plan(automaton, (EventKind.RETURN, "cg_check"))
        ((_, _, matcher),) = plan.body
        got = matcher(return_event("cg_check", (), "abc"), EMPTY_BINDING)
        assert got == {} and got is not EMPTY_BINDING
        verdicts = []
        for compile in (True, False):
            runtime = TeslaRuntime(policy=LogAndContinue(), compile=compile)
            runtime.install_assertion(assertion)
            for retval in ("abc", "abd"):
                runtime.handle_event(call_event("cg_bound", ()))
                runtime.handle_event(return_event("cg_check", (), retval))
                runtime.handle_event(assertion_site_event("cg_raw", {}))
                runtime.handle_event(return_event("cg_bound", (), 0))
            cr = runtime.class_runtime("cg_raw")
            verdicts.append((cr.accepts, cr.errors, len(cr.pool)))
        assert verdicts[0] == verdicts[1] == (1, 1, 0)
