#!/usr/bin/env python3
"""The paper's section 7 future work, implemented and demonstrated.

Three directions the paper sketched, all working in this reproduction:

1. **Free variables** — pairing events by values the assertion site never
   sees (a lock/unlock protocol keyed by mutex).
2. **Per-object assertions** — temporal bounds tied to an object's
   lifetime instead of a function's activation (validate-before-use per
   buffer).
3. **Static analysis** — tesla-prove discharges assertions at "compile
   time" where the check provably precedes the site on every path, and
   reports a concrete counterexample path for assertions some path
   violates.

Run:  python examples/future_work.py
"""

from repro import (
    Context,
    LogAndContinue,
    call,
    fn,
    instrument_object_assertion,
    instrumentable,
    previously,
    tesla_assert,
    tesla_site,
    tesla_within,
    tsequence,
    var,
)
from repro.analysis import ProgramCFG, load_suite, prove_assertion

# --- 1. free variables -------------------------------------------------------


@instrumentable()
def acquire(mutex):
    return 0


@instrumentable()
def release(mutex):
    return 0


@instrumentable()
def run_transaction(steps):
    for action, mutex in steps:
        {"acquire": acquire, "release": release}[action](mutex)
    tesla_site("demo.balanced-pair")


def demo_free_variables():
    print("1. Free variables: a balanced acquire/release of *some* mutex")
    assertion = tesla_within(
        "run_transaction",
        previously(
            tsequence(
                fn("acquire", var("mutex")) == 0,
                fn("release", var("mutex")) == 0,
            )
        ),
        name="demo.balanced-pair",
    )
    from repro import Instrumenter, TeslaRuntime

    policy = LogAndContinue()
    runtime = TeslaRuntime(policy=policy)
    with Instrumenter(runtime) as session:
        session.instrument([assertion])
        run_transaction([("acquire", "m1"), ("release", "m1")])
        print(f"   balanced pair on m1:      {len(policy.violations)} violations")
        run_transaction([("acquire", "m1"), ("release", "m2")])
        print(f"   acquire m1 / release m2:  {len(policy.violations)} violations")


# --- 2. per-object assertions ---------------------------------------------------


class Packet:
    def __init__(self, seq):
        self.seq = seq

    def __repr__(self):
        return f"<pkt {self.seq}>"


@instrumentable()
def pkt_alloc(pkt):
    return 0


@instrumentable()
def pkt_checksum(pkt):
    return 0


@instrumentable()
def pkt_transmit(pkt):
    tesla_site("demo.checksummed", pkt=pkt)
    return 0


@instrumentable()
def pkt_release(pkt):
    return 0


def demo_per_object():
    print("\n2. Per-object bounds: within each packet's lifetime, it must")
    print("   be checksummed before it is transmitted")
    assertion = tesla_assert(
        Context.THREAD,
        call(fn("pkt_alloc", var("pkt"))),
        fn("pkt_release", var("pkt")) == 0,
        previously(fn("pkt_checksum", var("pkt")) == 0),
        name="demo.checksummed",
    )
    monitor, handle = instrument_object_assertion(
        assertion, key="pkt", policy=LogAndContinue()
    )
    try:
        good, bad = Packet(1), Packet(2)
        pkt_alloc(good)
        pkt_alloc(bad)
        pkt_checksum(good)
        pkt_transmit(good)
        pkt_transmit(bad)  # never checksummed!
        pkt_release(good)
        pkt_release(bad)
        print(f"   lifetimes tracked: {monitor.lifetimes_closed}, "
              f"violations: {monitor.errors} (the unchecksummed packet)")
    finally:
        handle.detach()


# --- 3. static analysis ------------------------------------------------------------

STRAIGHT_LINE = '''
def check(cred, obj):
    return 0

def do_io(obj):
    tesla_site("demo.static", obj=obj)

def entry_point(obj, table):
    check("cred", obj)
    table["log"](obj)
    do_io(obj)

def fast_path(obj, cached):
    if not cached:
        check("cred", obj)
    do_io(obj)
'''


def demo_static_analysis():
    print("\n3. Static analysis: deciding assertions at compile time")
    model = ProgramCFG()
    model.add_source(STRAIGHT_LINE)
    checked = tesla_within(
        "entry_point", previously(call("check")), name="demo.static"
    )
    result = prove_assertion(checked, cfg=model)
    print(f"   check, function-pointer call, site: {result.verdict.upper()} "
          f"({result.basis} basis) — no instrumentation needed")
    skipped = tesla_within(
        "fast_path", previously(call("check")), name="demo.static"
    )
    result = prove_assertion(skipped, cfg=model)
    print(f"   check skipped on the cached path: {result.verdict.upper()}, "
          f"counterexample:")
    for step in result.counterexample:
        print(f"     {step}")

    from repro.kernel.assertions import assertion_sets

    poll = next(
        a for a in assertion_sets()["MS"] if a.name == "MS.sopoll.prior-check"
    )
    result = prove_assertion(poll, cfg=load_suite("kernel")[1].cfg)
    print(f"   figure 4's poll assertion through figure 3's indirection: "
          f"{result.verdict.upper()} (exactly why TESLA monitors it at run "
          f"time)")


if __name__ == "__main__":
    demo_free_variables()
    demo_per_object()
    demo_static_analysis()
