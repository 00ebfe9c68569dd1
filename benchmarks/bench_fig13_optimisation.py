"""Figure 13: the lazy-initialisation optimisation (section 5.2.2).

The first, naive implementation did "work on every system-call–related
automaton" at every syscall entry: ~2× slower Clang builds and 10× slower
OLTP, with microbenchmarks near 100× overhead.  Keeping a per-context
record of common bounds and materialising instances lazily brought the
microbenchmarks under 7× and builds under 10% overhead.

Here "Pre" is the eager runtime (``lazy=False``) and "Post" the optimised
one (``lazy=True``), both on the paper-faithful interpreter
(``compile=False``), measured over the MAC and PROC assertion sets
(figure 13a's microbenchmark columns) and the OLTP and build
macrobenchmarks under the full set (figure 13b).  Every test here runs
the same ``PRE``/``POST`` configurations.

The shape test doubles as the repo's optimisation scoreboard: a third
"jit" series stacks every later optimisation (the default compiled path:
tesla-jit generated steps, DESIGN §5.2/§5.7) on the lazy runtime, so
each change's effect on the paper's headline workloads stays visible in
one table.
"""

from __future__ import annotations

import pytest

from repro.bench import Series, median_time
from repro.instrument.module import Instrumenter
from repro.kernel import (
    KernelSystem,
    assertion_sets,
    build_workload,
    lmbench_open_close,
    oltp_workload,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.manager import TeslaRuntime

from conftest import emit

MICRO_ITERS = 100

# Pre/post differ only in ``lazy``, both on the reference interpreter;
# jit is the default compiled path on the lazy runtime.
PRE = RuntimeConfig(lazy=False, compile=False)
POST = RuntimeConfig(lazy=True, compile=False)
JIT = RuntimeConfig()


def run_micro(set_name, config):
    sets = assertion_sets()
    session = Instrumenter(TeslaRuntime.from_config(config))
    session.instrument(sets[set_name])
    kernel = KernelSystem()
    td = kernel.boot()
    try:
        return median_time(
            lambda: lmbench_open_close(kernel, td, MICRO_ITERS), repeats=3
        )
    finally:
        session.uninstrument()


def run_macro(workload_name, config):
    sets = assertion_sets()
    session = Instrumenter(TeslaRuntime.from_config(config))
    session.instrument(sets["All"])
    kernel = KernelSystem()
    td = kernel.boot()
    try:
        if workload_name == "oltp":
            server, client = kernel.spawn(comm="srv"), kernel.spawn(comm="cli")
            return median_time(
                lambda: oltp_workload(kernel, client, server, 25), repeats=3
            )
        return median_time(
            lambda: build_workload(kernel, td, n_sources=10), repeats=3
        )
    finally:
        session.uninstrument()


def run_baseline_micro():
    kernel = KernelSystem()
    td = kernel.boot()
    return median_time(lambda: lmbench_open_close(kernel, td, MICRO_ITERS), repeats=3)


@pytest.mark.parametrize("set_name", ["M", "P"])
@pytest.mark.parametrize("config", [PRE, POST], ids=["pre", "post"])
def test_fig13a_micro(benchmark, set_name, config):
    sets = assertion_sets()
    session = Instrumenter(TeslaRuntime.from_config(config))
    session.instrument(sets[set_name])
    kernel = KernelSystem()
    td = kernel.boot()
    try:
        benchmark(lambda: lmbench_open_close(kernel, td, 50))
    finally:
        session.uninstrument()


@pytest.mark.parametrize("workload", ["oltp", "build"])
@pytest.mark.parametrize("config", [PRE, POST], ids=["pre", "post"])
def test_fig13b_macro(benchmark, workload, config):
    sets = assertion_sets()
    session = Instrumenter(TeslaRuntime.from_config(config))
    session.instrument(sets["All"])
    kernel = KernelSystem()
    td = kernel.boot()
    try:
        if workload == "oltp":
            server, client = kernel.spawn(comm="srv"), kernel.spawn(comm="cli")
            benchmark(lambda: oltp_workload(kernel, client, server, 8))
        else:
            benchmark(lambda: build_workload(kernel, td, n_sources=4))
    finally:
        session.uninstrument()


def test_fig13_shape(benchmark, results_dir):
    def run():
        baseline = run_baseline_micro()
        rows = {
            "MAC micro (pre)": run_micro("M", PRE),
            "MAC micro (post)": run_micro("M", POST),
            "MAC micro (jit)": run_micro("M", JIT),
            "PROC micro (pre)": run_micro("P", PRE),
            "PROC micro (post)": run_micro("P", POST),
            "PROC micro (jit)": run_micro("P", JIT),
            "OLTP (pre)": run_macro("oltp", PRE),
            "OLTP (post)": run_macro("oltp", POST),
            "OLTP (jit)": run_macro("oltp", JIT),
            "Build (pre)": run_macro("build", PRE),
            "Build (post)": run_macro("build", POST),
            "Build (jit)": run_macro("build", JIT),
        }
        return baseline, rows

    baseline, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Figure 13: performance improvements with the lazy optimisation",
        "--------------------------------------------------------------",
        "(pre/post: interpreter; jit = lazy + tesla-jit generated steps)",
        f"{'configuration':<20}{'seconds':>10}{'improvement':>13}",
    ]
    for prefix in ("MAC micro", "PROC micro", "OLTP", "Build"):
        pre = rows[f"{prefix} (pre)"]
        lines.append(f"{prefix + ' (pre)':<20}{pre:>10.4f}")
        for tag in ("post", "jit"):
            value = rows[f"{prefix} ({tag})"]
            lines.append(
                f"{prefix + f' ({tag})':<20}{value:>10.4f}"
                f"{pre / value:>12.2f}x"
            )
    lines.append(f"{'(uninstrumented micro':<20}{baseline:>10.4f})")
    emit(results_dir, "fig13_optimisation", "\n".join(lines))

    # Shape: the optimisation helps everywhere, and stacking the compiled
    # + generated dispatch path on top never gives the gain back...
    for prefix in ("MAC micro", "PROC micro", "OLTP", "Build"):
        assert rows[f"{prefix} (post)"] < rows[f"{prefix} (pre)"], prefix
        assert rows[f"{prefix} (jit)"] < rows[f"{prefix} (pre)"], prefix
    # ...and helps the P-set microbenchmark dramatically: its 37 automata
    # share the syscall bound but are never touched by open/close, exactly
    # the common case the per-context bound record optimises away.
    proc_gain = rows["PROC micro (pre)"] / rows["PROC micro (post)"]
    assert proc_gain > 3, proc_gain
    # Post-optimisation, the PROC microbenchmark is within a small factor
    # of the uninstrumented kernel (the paper's "<10% overhead" analogue,
    # allowing for Python's dispatch costs).
    assert rows["PROC micro (post)"] < baseline * 8
