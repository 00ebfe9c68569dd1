"""The benchmark's three workloads: seeded inputs, one operation, checks.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  The inputs come from
a ``random.Random(seed)`` generator; the program under test only ever sees
the generated operations.

A workload builds an *arm* (the program state one side of a block pair
runs against) and knows how to run one operation on it.  The monitored
arm and the Release arm each get their own arm, and both run the same
operations in the same order, so their outputs must be identical.

* ``oltp``  — one operation is one ``MiniOltp`` GET/PUT transaction over
  kernel loopback sockets (11 syscalls).
* ``build`` — one operation compiles one file of ``_prepare_build_tree``'s
  source tree: stat, open, read, close, sha256, creat, write, close.
* ``gui-journal`` — one operation is one run-loop iteration of
  ``XneeReplayer.script()`` on the demo window.
"""

from __future__ import annotations

import hashlib
import random
import string
from typing import Any, List, Optional, Sequence, Tuple

from repro.gui import (
    NSCursor,
    OldBackend,
    XEvent,
    XneeReplayer,
    all_selectors,
    build_demo_window,
    run_loop_iteration,
    set_tracing_supported,
    tracing_assertion,
)
from repro.instrument.module import Instrumenter
from repro.kernel import KernelSystem, assertion_sets, bugs
from repro.kernel.workloads import MiniOltp, _prepare_build_tree
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

#: Operation outcome: (ok against the workload's own model, output that
#: the two arms of a block pair must agree on).
Outcome = Tuple[bool, Any]


def _syscall_ok(result: Any) -> bool:
    """Whether a syscall returned errno 0 (bare int or (errno, value))."""
    error = result[0] if isinstance(result, tuple) else result
    return error == 0


class Workload:
    """Shared shape: seeded operations, arms, and the monitored set-up."""

    name = ""
    #: Operations per timed block (both arms of a pair run the same slice).
    block_ops = 0
    #: Operations run, untimed, before every block of either arm.
    warmup_ops = 0
    #: Operations of each block recorded into a journal for the replay
    #: measurement (``gui-journal`` replays its own live journal).
    journal_ops = 0
    #: Replay a journal after every n-th block round.
    replay_every = 1
    #: The one assertion a known-answer injection must fire, if any.
    injected_assertion: Optional[str] = None

    def __init__(self, seed: int, omit: Sequence[str] = ()) -> None:
        self.seed = seed
        self.omit = set(omit)
        self.rng = random.Random(seed)
        self.ops: List[Any] = self.generate(self.rng, 4 * self.block_ops)
        self.warmup: List[Any] = self.generate_warmup(random.Random(seed ^ 0x5EED))

    def generate(self, rng: random.Random, count: int) -> List[Any]:
        raise NotImplementedError

    def generate_warmup(self, rng: random.Random) -> List[Any]:
        return self.generate(rng, self.warmup_ops)

    def assertions(self) -> list:
        raise NotImplementedError

    def installed(self) -> list:
        """The monitored assertion set, minus any the caller left out
        (the self-test omits the assertion an injected bug should fire)."""
        return [a for a in self.assertions() if a.name not in self.omit]

    def runtime(self, journal: Optional[str] = None) -> TeslaRuntime:
        return TeslaRuntime(policy=LogAndContinue())

    def instrumenter(self, runtime: TeslaRuntime) -> Instrumenter:
        return Instrumenter(runtime)

    def block(self, index: int) -> List[Any]:
        """The operations of block pair ``index`` (cycling the inputs)."""
        start = (index * self.block_ops) % len(self.ops)
        ops = self.ops[start:start + self.block_ops]
        return ops + self.ops[: self.block_ops - len(ops)]

    def new_arm(self) -> Any:
        raise NotImplementedError

    def begin_block(self, arm: Any, monitored: bool) -> None:
        """Reset per-block program state (untimed)."""

    def end_block(self, arm: Any) -> None:
        """Undo ``begin_block`` (untimed)."""

    def run_op(self, arm: Any, op: Any) -> Outcome:
        raise NotImplementedError

    def known_answer(self, arm: Any, runtime: TeslaRuntime) -> Tuple[int, int]:
        """Injected-bug operations on a monitored arm; returns
        (attempted, failed).  Runs outside the timed region."""
        return 0, 0


# ---------------------------------------------------------------------------
# oltp
# ---------------------------------------------------------------------------

class OltpArm:
    """One kernel running the repository's ``MiniOltp`` transaction server
    (the one figure 11b's OLTP workload drives), a client thread, and the
    reference model of the server's table."""

    def __init__(self) -> None:
        self.kernel = KernelSystem()
        self.kernel.boot()
        self.client = self.kernel.spawn(comm="sysbench")
        self.server = MiniOltp(self.kernel, self.kernel.spawn(comm="mysqld"))
        self.model = dict(self.server.table)
        #: (object, attribute the program is entered through, span name).
        self.program = (self.kernel, "syscall", "kernel.syscall")


class Oltp(Workload):
    name = "oltp"
    block_ops = 500
    warmup_ops = 16
    journal_ops = 40
    injected_assertion = "P.setcred.sugid-eventually"

    def generate(self, rng: random.Random, count: int) -> List[Tuple[str, ...]]:
        # One PUT in four, as in ``oltp_workload``, in seeded order over
        # seeded keys, so every seed presents the same transaction mix.
        kinds = ["PUT"] * (count // 4) + ["GET"] * (count - count // 4)
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            key = f"row{rng.randrange(64)}"
            if kind == "PUT":
                value = "".join(rng.choices(string.ascii_lowercase, k=8))
                ops.append(("PUT", key, value))
            else:
                ops.append(("GET", key))
        return ops

    def assertions(self) -> list:
        return assertion_sets()["All"]

    def new_arm(self) -> OltpArm:
        return OltpArm()

    def run_op(self, arm: OltpArm, op: Tuple[str, ...]) -> Outcome:
        try:
            answer = arm.server.transaction(arm.client, " ".join(op))
        except AssertionError:  # a syscall of the transaction failed
            return False, None
        if op[0] == "PUT":
            arm.model[op[1]] = op[2]
            return answer == "OK", answer
        return answer == arm.model.get(op[1], "NULL"), answer

    def known_answer(self, arm: OltpArm, runtime: TeslaRuntime) -> Tuple[int, int]:
        """Privilege drops with ``sugid_not_set`` injected: each must yield
        exactly one ``P.setcred.sugid-eventually`` violation."""
        rng = random.Random(self.seed ^ 0xB06)
        attempted = failed = 0
        for _ in range(rng.randint(3, 6)):
            td = arm.kernel.spawn(uid=0, comm="dropper")
            violations = runtime.hub.policy.violations
            before = len(violations)
            with bugs.injected("sugid_not_set"):
                error = arm.kernel.syscall(td, "setuid", (rng.randrange(500, 60000),))
            fired = [v.automaton for v in violations[before:]]
            attempted += 1
            if error != 0 or fired != [self.injected_assertion]:
                failed += 1
        return attempted, failed


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

BUILD_SOURCES = 128


def _source_text(index: int) -> bytes:
    """The known contents of source ``index``, as ``_prepare_build_tree``
    writes them."""
    return (f"int f{index}(int x) {{ return x * {index + 1}; }}\n" * 20).encode()


class BuildArm:
    """One kernel holding the source tree of figure 11b's build workload
    (``_prepare_build_tree``), at 128 files instead of its default 20."""

    def __init__(self) -> None:
        self.kernel = KernelSystem()
        self.td = self.kernel.boot()
        _prepare_build_tree(self.kernel, self.td, BUILD_SOURCES)
        self.objects = 0
        self.program = (self.kernel, "syscall", "kernel.syscall")


class Build(Workload):
    name = "build"
    #: Three whole passes over the tree per block.
    block_ops = 3 * BUILD_SOURCES
    warmup_ops = 16
    journal_ops = 36
    injected_assertion = "MF.ufs_getextattr.prior-check"
    sources = [_source_text(i) for i in range(BUILD_SOURCES)]

    def generate(self, rng: random.Random, count: int) -> List[int]:
        # Whole passes over the tree, each in its own seeded order, the way
        # a build visits every translation unit once per pass.
        ops: List[int] = []
        while len(ops) < count:
            order = list(range(BUILD_SOURCES))
            rng.shuffle(order)
            ops.extend(order)
        return ops[:count]

    def assertions(self) -> list:
        return assertion_sets()["All"]

    def new_arm(self) -> BuildArm:
        return BuildArm()

    def run_op(self, arm: BuildArm, index: int) -> Outcome:
        syscall, td = arm.kernel.syscall, arm.td
        path = f"/home/src/file{index}.c"
        ok = _syscall_ok(syscall(td, "stat", (path,)))
        error, fd = syscall(td, "open", (path,))
        ok &= error == 0
        error, source = syscall(td, "read", (fd, 1 << 16))
        ok &= error == 0 and source == self.sources[index]
        ok &= syscall(td, "close", (fd,)) == 0
        digest = hashlib.sha256(source).digest()
        arm.objects += 1
        error, fd = syscall(td, "creat", (f"/home/obj/{index}.{arm.objects}.o",))
        ok &= error == 0
        ok &= syscall(td, "write", (fd, digest * 8)) == 0
        ok &= syscall(td, "close", (fd,)) == 0
        return ok, digest

    def known_answer(self, arm: BuildArm, runtime: TeslaRuntime) -> Tuple[int, int]:
        """Extended-attribute reads with ``extattr_wrong_check`` injected:
        each must yield exactly one ``MF.ufs_getextattr.prior-check``."""
        rng = random.Random(self.seed ^ 0xEA7)
        attempted = failed = 0
        violations = runtime.hub.policy.violations
        for n in range(rng.randint(3, 6)):
            path = f"/home/obj/xattr{n}.{arm.objects}"
            value = bytes(rng.randrange(256) for _ in range(8))
            before = len(violations)
            syscall = arm.kernel.syscall
            error, fd = syscall(arm.td, "creat", (path,))
            ok = error == 0 and syscall(arm.td, "close", (fd,)) == 0
            ok &= syscall(arm.td, "extattr_set", (path, "user.tag", value)) == 0
            ok &= len(violations) == before
            with bugs.injected("extattr_wrong_check"):
                error, got = syscall(arm.td, "extattr_get", (path, "user.tag"))
            fired = [v.automaton for v in violations[before:]]
            attempted += 1
            if not ok or error != 0 or got != value or fired != [self.injected_assertion]:
                failed += 1
        return attempted, failed


# ---------------------------------------------------------------------------
# gui-journal
# ---------------------------------------------------------------------------

#: Seeded jitter, in points, on every pointer position of the script: each
#: position stays inside (or outside) the same tracking rects and controls.
_JITTER = 3.0


def _jittered(rng: random.Random, batch: List[XEvent]) -> List[XEvent]:
    return [
        XEvent(e.kind) if e.kind == "expose" else XEvent(
            e.kind,
            e.point.x + rng.uniform(-_JITTER, _JITTER),
            e.point.y + rng.uniform(-_JITTER, _JITTER),
        )
        for e in batch
    ]


def _script(hover_cycles: int = 3) -> List[List[XEvent]]:
    return XneeReplayer(build_demo_window(OldBackend())).script(hover_cycles)


class GuiArm:
    def __init__(self) -> None:
        self.window = None
        self.run_loop = run_loop_iteration
        self.program = (self, "run_loop", "gui.run_loop")


class GuiJournal(Workload):
    name = "gui-journal"
    #: Five copies of the 19-iteration Xnee script per block.
    block_ops = 95
    #: A block's journal takes longer to replay than the block took to
    #: run; replaying every third leaves most of the run to live blocks.
    replay_every = 3

    def generate(self, rng: random.Random, count: int) -> List[List[XEvent]]:
        # Copies of figure 14b's ``XneeReplayer.script()``: ordered sweeps
        # across the tracking rects, two clicks and two exposes (79% motion,
        # 11% click, 5% expose, 5% motion plus expose).  Each copy starts
        # at a seeded point of the script and every pointer position gets
        # seeded jitter, so every block presents the same mix.
        script = _script()
        batches: List[List[XEvent]] = []
        while len(batches) < count:
            start = rng.randrange(len(script))
            for batch in script[start:] + script[:start]:
                batches.append(_jittered(rng, batch))
        return batches[:count]

    def generate_warmup(self, rng: random.Random) -> List[List[XEvent]]:
        # The script with a single sweep, in its own order: every kind of
        # iteration the blocks run, at the same cost for every seed.
        return [_jittered(rng, batch) for batch in _script(hover_cycles=1)]

    def assertions(self) -> list:
        return [tracing_assertion()]

    def runtime(self, journal: Optional[str] = None) -> TeslaRuntime:
        return TeslaRuntime(policy=LogAndContinue(), deferred=True, journal=journal)

    def instrumenter(self, runtime: TeslaRuntime) -> Instrumenter:
        return Instrumenter(runtime, objc_selectors=set(all_selectors()))

    def new_arm(self) -> GuiArm:
        return GuiArm()

    def begin_block(self, arm: GuiArm, monitored: bool) -> None:
        # Both arms start every block from a fresh window and cursor
        # stack, so their redraw decisions must match op for op.
        NSCursor.reset_stack()
        arm.window = build_demo_window(OldBackend())
        # The Release arm is the runtime built without interposition
        # support (figure 14's release mode).
        set_tracing_supported(monitored)

    def end_block(self, arm: GuiArm) -> None:
        set_tracing_supported(True)

    def run_op(self, arm: GuiArm, batch: List[XEvent]) -> Outcome:
        redrew = arm.run_loop(arm.window, batch)
        return True, (redrew, NSCursor.stack_depth())


WORKLOADS = {cls.name: cls for cls in (Oltp, Build, GuiJournal)}
