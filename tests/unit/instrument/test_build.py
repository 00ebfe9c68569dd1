"""Unit tests for the simulated TESLA build workflow."""

import pytest

from repro.core.dsl import call, previously, tesla_within
from repro.errors import InstrumentationError
from repro.instrument.build import BuildSystem, CompileUnit

from ..core.test_translate import counting_translations


def make_units(n=3, with_assertions=True):
    units = []
    for index in range(n):
        source = "\n".join(
            f"def fn_{index}_{j}(x):\n    return x * {j + 1} + {index}"
            for j in range(4)
        )
        assertions = []
        if with_assertions:
            assertions = [
                tesla_within(
                    f"fn_{index}_0",
                    previously(call(f"fn_{(index + 1) % n}_1")),
                    name=f"build-a{index}",
                )
            ]
        units.append(
            CompileUnit(name=f"unit{index}", source=source, assertions=assertions)
        )
    return units


class TestCompileUnit:
    def test_defined_functions(self):
        unit = make_units(1)[0]
        assert unit.defined_functions() == [
            "fn_0_0",
            "fn_0_1",
            "fn_0_2",
            "fn_0_3",
        ]

    def test_from_module(self):
        import repro.sslx.asn1 as asn1_module

        unit = CompileUnit.from_module(asn1_module)
        assert "encode_integer" in unit.defined_functions()


class TestCleanBuild:
    def test_default_build_compiles_all_units(self, tmp_path):
        system = BuildSystem(make_units(3), tmp_path)
        report = system.clean_build(tesla=False)
        assert report.units_compiled == 3
        assert report.units_instrumented == 0
        assert "frontend" in report.stage_seconds
        assert "analyse" not in report.stage_seconds

    def test_tesla_build_adds_stages_and_artifacts(self, tmp_path):
        system = BuildSystem(make_units(3), tmp_path)
        report = system.clean_build(tesla=True)
        assert report.units_instrumented == 3
        for stage in ("frontend", "analyse", "combine", "instrument", "optimise"):
            assert stage in report.stage_seconds
        assert (tmp_path / "program.tesla.json").exists()
        assert (tmp_path / "unit0.tesla.json").exists()
        assert (tmp_path / "unit1.instrumented").exists()

    @pytest.mark.parametrize("cached, translations", [(False, 4 * 4), (True, 4)])
    def test_translations_per_build(self, tmp_path, monkeypatch, cached,
                                    translations):
        """Figure 10's naive model re-translates the combined manifest for
        every unit (the paper's strategy); the cached mode translates it
        once.  Neither goes through the runtime's automaton memo."""
        calls = counting_translations(monkeypatch)
        system = BuildSystem(make_units(4), tmp_path, cache_automata=cached)
        system.clean_build(tesla=True)
        assert len(calls) == translations

    def test_tesla_build_slower_than_default(self, tmp_path):
        units = make_units(6)
        system = BuildSystem(units, tmp_path)
        default = system.clean_build(tesla=False)
        tesla = system.clean_build(tesla=True)
        assert tesla.total > default.total


class TestIncrementalBuild:
    def test_default_incremental_touches_one_unit(self, tmp_path):
        system = BuildSystem(make_units(4), tmp_path)
        system.clean_build(tesla=False)
        report = system.incremental_build("unit1", tesla=False)
        assert report.units_compiled == 1
        assert report.units_instrumented == 0

    def test_tesla_incremental_reinstruments_every_unit(self, tmp_path):
        system = BuildSystem(make_units(4), tmp_path)
        system.clean_build(tesla=True)
        report = system.incremental_build(
            "unit1", tesla=True, assertion_changed=True
        )
        # The one-to-many property: 1 unit recompiled, all 4 re-instrumented.
        assert report.units_compiled == 1
        assert report.units_instrumented == 4

    def test_tesla_incremental_without_assertion_change_is_local(self, tmp_path):
        system = BuildSystem(make_units(4), tmp_path)
        system.clean_build(tesla=True)
        report = system.incremental_build(
            "unit1", tesla=True, assertion_changed=False
        )
        assert report.units_instrumented == 1

    def test_incremental_without_prior_build_requires_combined(self, tmp_path):
        system = BuildSystem(make_units(2), tmp_path)
        with pytest.raises(InstrumentationError):
            system.incremental_build("unit0", tesla=True, assertion_changed=False)

    def test_unknown_unit_rejected(self, tmp_path):
        system = BuildSystem(make_units(2), tmp_path)
        with pytest.raises(InstrumentationError):
            system.incremental_build("ghost", tesla=False)

    def test_incremental_slowdown_shape(self, tmp_path):
        """The figure 10 shape: TESLA incremental ≈ TESLA clean (no big
        savings), while default incremental is far below default clean."""
        units = make_units(8)
        system = BuildSystem(units, tmp_path)
        default_clean = system.clean_build(tesla=False)
        default_incr = system.incremental_build("unit0", tesla=False)
        tesla_clean = system.clean_build(tesla=True)
        tesla_incr = system.incremental_build("unit0", tesla=True)
        assert default_incr.total < default_clean.total
        # TESLA's incremental rebuild re-instruments everything: it costs
        # a large fraction of (or more than) the clean TESLA build.
        assert tesla_incr.total > 0.5 * tesla_clean.total
        # And dwarfs the default incremental build.
        assert tesla_incr.total > 2 * default_incr.total
