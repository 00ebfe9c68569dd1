"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It makes short runs of every workload and checks that:

* untraced runs print every end-to-end metric of ``BENCHMARK.json``, and
  traced runs every per-layer metric, each with its declared unit;
* those runs are correct, with no failed operation;
* the correctness check is not vacuous: leaving out the assertion that a
  known-answer injection must fire turns the run incorrect, with the
  missed verdicts counted as failed operations;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits with an error and prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SECONDS = "1"
SEED = "7"

#: (workload, assertion to leave out) — the assertion the workload's
#: known-answer injection must fire.
OMISSIONS = (
    ("oltp", "P.setcred.sugid-eventually"),
    ("build", "MF.ufs_getextattr.prior-check"),
)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> Optional[dict]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_metrics(result: dict, declared: List[dict], nonzero: bool) -> List[str]:
    problems = []
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ names)}")
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{metric['name']}: reads 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: List[str] = []

    def report(label: str, problems: List[str]) -> None:
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{label:<48} {status}", flush=True)
        failures.extend(f"{label}: {p}" for p in problems)

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, "--workload", name, "--seed", SEED,
                       "--seconds", SECONDS, "--trace", trace)
            result = result_of(proc)
            label = f"{name} --trace {trace}"
            if result is None:
                report(label, [f"no result (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-300:]}"])
                continue
            problems = check_metrics(result, declared, nonzero=trace == "0")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"run not clean: {result['attempted']} attempted, "
                                f"{result['failed']} failed")
            report(label, problems)

    for name, assertion in OMISSIONS:
        proc = run(ROOT, "--workload", name, "--seed", SEED, "--seconds",
                   SECONDS, "--trace", "0", "--omit-assertion", assertion)
        result = result_of(proc)
        label = f"{name} without {assertion}"
        if result is None:
            report(label, [f"no result (exit {proc.returncode})"])
        elif result["correct"] or result["failed"] < 1:
            report(label, ["missed verdicts were not counted as failed"])
        else:
            report(label, [])

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed",
                   SEED, "--seconds", SECONDS, "--trace", "0")
        problems = []
        if proc.returncode == 0:
            problems.append("exited 0")
        if result_of(proc) is not None or proc.stdout.strip():
            problems.append("printed a result")
        report("without the program's source", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
