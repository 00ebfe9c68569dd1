"""The ``tesla`` command-line interface (``python -m repro``).

Developer-facing plumbing around the analyser, mirroring the original
tool's command-line workflow: inspect assertion sets, dump automata (text
or Graphviz), write and combine ``.tesla`` manifests, and report which
assertions static analysis discharges — all without writing a Python
script.

Commands
========

``table1``
    Print Table 1 (the kernel assertion sets and their sizes).
``list <set>``
    List the assertions in one kernel set (MF, MS, MP, M, P, All, …).
``automaton <name> [--dot]``
    Translate one kernel assertion and print its automaton (or DOT).
``manifest <path> [--set NAME]``
    Write a kernel assertion set as a ``.tesla`` program manifest.
``show <path>``
    Summarise a ``.tesla`` manifest from disk.
``elide <set>``
    Prove a kernel set with tesla-prove against the kernel's control-flow
    model and report the verdicts as static elision: PROVED assertions
    are discharged (with their proof basis), VIOLATED ones doomed (with
    the counterexample path), UNKNOWN ones stay monitored (exit 1 on any
    doomed assertion).
``lint [suite …]``
    Run tesla-lint over the in-repo assertion corpus (``examples``,
    ``kernel``, ``sslx``, ``gui`` — default all), with text or ``--json``
    output, ``--min-severity`` filtering and a ``--fail-on`` exit-code
    contract (0 clean, 1 warnings under ``--fail-on warning``, 2 errors).
``codegen <suite> [--assertion NAME] [--dump]``
    Show what tesla-jit generates for a suite: a summary row per
    (assertion, dispatch key) with its elision count, or, with
    ``--dump``, the full generated Python source (0 ok, 2 unknown
    suite/assertion).
``replay <journal> [--config …] [--at-seqno N] [--json]``
    Replay a recorded trace journal offline through any runtime
    configuration, cross-checked against the independent LTL oracle
    (0 clean, 1 violations reproduced or oracle disagreement, 2 unusable
    input).  ``--at-seqno`` dumps automaton state mid-window instead.
``bugs``
    List the injectable kernel bugs and their paper provenance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.manifest import ProgramManifest, UnitManifest, combine
from .core.translate import translate


def _kernel_sets():
    from .kernel.assertions import assertion_sets

    return assertion_sets()


def cmd_table1(args: argparse.Namespace) -> int:
    """Print Table 1 and verify the sizes against the paper."""
    from .kernel.assertions import TABLE1_SIZES

    sets = _kernel_sets()
    print(f"{'Symbol':<8}{'Description':<26}{'Assertions':>10}")
    descriptions = {
        "MF": "MAC (filesystem)",
        "MS": "MAC (sockets)",
        "MP": "MAC (processes)",
        "M": "All MAC assertions",
        "P": "Process lifetimes",
        "All": "All TESLA assertions",
    }
    for symbol in ("MF", "MS", "MP", "M", "P", "All"):
        print(f"{symbol:<8}{descriptions[symbol]:<26}{len(sets[symbol]):>10}")
    for symbol, expected in TABLE1_SIZES.items():
        if len(sets[symbol]) != expected:
            print(f"warning: {symbol} has {len(sets[symbol])}, paper says {expected}")
            return 1
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """List one kernel assertion set with its tags."""
    sets = _kernel_sets()
    if args.set not in sets:
        print(f"unknown set {args.set!r}; known: {', '.join(sorted(sets))}")
        return 2
    for assertion in sets[args.set]:
        tags = ",".join(assertion.tags)
        print(f"{assertion.name:<40} [{tags}]")
    return 0


def _find_assertion(name: str):
    for assertions in _kernel_sets().values():
        for assertion in assertions:
            if assertion.name == name:
                return assertion
    return None


def cmd_automaton(args: argparse.Namespace) -> int:
    """Translate one kernel assertion and print it (text or DOT)."""
    assertion = _find_assertion(args.name)
    if assertion is None:
        print(f"no kernel assertion named {args.name!r} (try 'list All')")
        return 2
    automaton = translate(assertion)
    if args.dot:
        from .introspect.weights import WeightedEdge, WeightedGraph, to_dot

        graph = WeightedGraph(
            automaton=automaton.name,
            n_states=automaton.n_states,
            start=automaton.start,
            accept=automaton.accept,
        )
        from .core.automaton import TransitionKind

        for transition in automaton.transitions:
            if transition.symbol is not None and transition.kind in (
                TransitionKind.EVENT,
                TransitionKind.SITE,
            ):
                label = automaton.symbols[transition.symbol].describe()
            else:
                label = f"«{transition.kind.value}»"
            graph.edges.append(
                WeightedEdge(
                    src=transition.src,
                    dst=transition.dst,
                    label=label,
                    kind=transition.kind.value,
                    weight=0,
                )
            )
        print(to_dot(graph, scale_weights=False))
    else:
        print(assertion.describe())
        print()
        print(automaton.describe())
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    """Write a kernel assertion set to disk as a .tesla manifest."""
    sets = _kernel_sets()
    if args.set not in sets:
        print(f"unknown set {args.set!r}; known: {', '.join(sorted(sets))}")
        return 2
    manifest = combine(
        [UnitManifest(unit=f"kernel.{args.set}", assertions=sets[args.set])]
    )
    path = manifest.save(args.path)
    targets = manifest.instrumentation_targets()
    print(f"wrote {len(manifest.assertions)} assertions to {path}")
    print(f"instrumentation targets: {len(targets)} functions")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Summarise a .tesla manifest: units, assertions, hook targets."""
    manifest = ProgramManifest.load(args.path)
    assertions = manifest.assertions
    print(f"{args.path}: {len(manifest.units)} unit(s), {len(assertions)} assertion(s)")
    for unit in manifest.units:
        print(f"  unit {unit.unit}: {len(unit.assertions)} assertion(s)")
    targets = manifest.instrumentation_targets()
    print(f"functions needing instrumentation: {len(targets)}")
    for fn_name in sorted(targets)[: args.limit]:
        print(f"  {fn_name}  <- {', '.join(targets[fn_name][:4])}")
    return 0


def cmd_elide(args: argparse.Namespace) -> int:
    """tesla-prove's verdicts on a kernel set, viewed as static elision."""
    from .analysis import load_suite, prove_assertions

    sets = _kernel_sets()
    if args.set not in sets:
        print(f"unknown set {args.set!r}; known: {', '.join(sorted(sets))}")
        return 2
    _, model = load_suite("kernel")
    report = prove_assertions(sets[args.set], cfg=model.cfg)
    print(report.format_elision())
    return 1 if report.violated else 0


def _check_suites(suites) -> "Union[List[str], int]":
    """Validate suite names against the corpus; 2 (exit code) if unknown."""
    from .analysis.lint import available_suites

    known = available_suites()
    names = list(suites) or list(known)
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"unknown suite(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known)}"
        )
        return 2
    return names


def _check_fail_on(value: str) -> Optional[str]:
    """Validate ``--fail-on``: a severity word, ``never``, or a TESLA
    code from the table.  Returns an error message, or ``None`` if ok."""
    from .analysis import CODES

    if value in ("error", "warning", "never") or value in CODES:
        return None
    return (
        f"--fail-on must be 'error', 'warning', 'never' or a known "
        f"TESLA code (TESLA001..TESLA{len(CODES):03d}), got {value!r}"
    )


def _check_min_severity(value: str) -> "Union[str, Tuple[None, str]]":
    """Resolve ``--min-severity``: a severity word or a TESLA code (the
    code's default severity).  Returns the severity value, or a
    ``(None, message)`` pair on an unknown value."""
    from .analysis import CODES

    if value in ("info", "warning", "error"):
        return value
    if value in CODES:
        return CODES[value][0].value
    return (
        None,
        f"--min-severity must be 'info', 'warning', 'error' or a known "
        f"TESLA code, got {value!r}",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Run tesla-lint over assertion suites; exit per ``--fail-on``."""
    from .analysis import Severity
    from .analysis.lint import lint_corpus

    names = _check_suites(args.suites)
    if isinstance(names, int):
        return names
    problem = _check_fail_on(args.fail_on)
    if problem is not None:
        print(problem)
        return 2
    min_severity = _check_min_severity(args.min_severity)
    if isinstance(min_severity, tuple):
        print(min_severity[1])
        return 2
    report = lint_corpus(names)
    if args.json:
        print(report.dumps())
    else:
        print(report.format(min_severity=Severity(min_severity)))
    return report.exit_code(args.fail_on)


def cmd_prove(args: argparse.Namespace) -> int:
    """Run tesla-prove over assertion suites; exit per ``--fail-on``.

    Mirrors ``lint``'s contract: text or ``--json`` (same schema
    version), exit 0 when clean, 2 on VIOLATED results (TESLA014) or on
    a requested ``--fail-on`` code, 2 on bad arguments.
    """
    from .analysis import Severity
    from .analysis.lint import prove_corpus

    names = _check_suites(args.suites)
    if isinstance(names, int):
        return names
    problem = _check_fail_on(args.fail_on)
    if problem is not None:
        print(problem)
        return 2
    min_severity = _check_min_severity(args.min_severity)
    if isinstance(min_severity, tuple):
        print(min_severity[1])
        return 2
    report = prove_corpus(names)
    if args.json:
        print(report.dumps())
    else:
        print(report.format(min_severity=Severity(min_severity)))
    return report.exit_code(args.fail_on)


def cmd_codegen(args: argparse.Namespace) -> int:
    """Show what tesla-jit generates for an assertion suite.

    Default output is one summary row per (assertion, dispatch key)
    with its elision count.  ``--dump`` prints the full generated source — every step,
    then every key function (one dispatch function per key and context)
    — the debuggability surface for "what does my assertion actually
    run".
    Exit codes: 0 ok, 2 unknown suite or assertion.
    """
    from .analysis.lint import available_suites, lint_assertions, load_suite
    from .core.translate import translate_all
    from .runtime.codegen import CodegenFacts, dump_sources

    known = available_suites()
    if args.suite not in known:
        print(f"unknown suite {args.suite!r}; known: {', '.join(known)}")
        return 2
    assertions, model = load_suite(args.suite)
    if args.assertion is not None:
        assertions = [a for a in assertions if a.name == args.assertion]
        if not assertions:
            print(
                f"no assertion named {args.assertion!r} in suite "
                f"{args.suite!r} (try 'lint {args.suite}')"
            )
            return 2
    # The same lint handoff the runtime uses: suite-wide facts decide
    # which guards the generator may elide.
    facts = CodegenFacts.from_report(
        lint_assertions(assertions, program=model)
    )
    if not args.dump:
        print(
            f"{'assertion':<36} {'dispatch key':<30} "
            f"{'status':<10} {'elided':>7}"
        )
    for automaton in translate_all(assertions):
        for key, gen in dump_sources(automaton, facts):
            label = f"{key[0].value}:{key[1]}"
            if args.dump:
                print(gen.source)
                print()
            else:
                elided = gen.elided_guards + gen.elided_transitions
                print(
                    f"{automaton.name:<36} {label:<30} "
                    f"{'generated':<10} {elided:>7}"
                )
    if args.dump:
        # The key functions a default (lazy, ungoverned) runtime
        # generates over those steps: one per dispatch key and context.
        from .runtime.manager import TeslaRuntime

        runtime = TeslaRuntime(lint="off")
        runtime.install_assertions(assertions)
        for _key, _context, source in runtime.key_function_sources():
            print(source)
            print()
    return 0


def cmd_governor(args: argparse.Namespace) -> int:
    """Demo the adaptive overhead governor on a synthetic workload.

    Installs a handful of assertion classes with deliberately skewed
    evaluation cost, drives direct dispatch under ``--budget``, and dumps
    the governor's status: measured spend, the per-assertion cost ranking
    with each class's shedding-ladder rung, and the decision history.
    Exit codes: 0 ok, 2 unusable ``--budget``.
    """
    import json as _json

    from .core.dsl import ANY, fn, previously, tesla_within
    from .core.events import assertion_site_event, call_event, return_event
    from .introspect import format_health, health_report
    from .runtime.manager import TeslaRuntime
    from .runtime.notify import LogAndContinue

    try:
        runtime = TeslaRuntime(
            policy=LogAndContinue(), overhead_budget=args.budget
        )
    except ValueError as exc:
        print(f"governor: {exc}")
        return 2
    classes = 4
    runtime.install_assertions(
        [
            tesla_within(
                "gov_bound",
                previously(fn(f"gov_chk{i}", ANY("c")) == 0),
                name=f"gov_cls{i}",
            )
            for i in range(classes)
        ]
    )
    # Skewed load: class 0 sees 8 body events per bound occurrence, the
    # rest see one — the governor should find and degrade the hot one
    # first when the budget is tight.
    for op in range(args.ops):
        runtime.handle_event(call_event("gov_bound", ()))
        for _ in range(8):
            runtime.handle_event(return_event("gov_chk0", ("c",), 0))
        for i in range(1, classes):
            runtime.handle_event(return_event(f"gov_chk{i}", ("c",), 0))
        if op % 16 == 0:
            runtime.handle_event(
                assertion_site_event("gov_cls0", {})
            )
        runtime.handle_event(return_event("gov_bound", (), None))
    report = runtime.governor.report()
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"governor demo: {args.ops} ops, {runtime.events_processed} "
        f"events, budget {args.budget:.1%}"
    )
    print(format_health(health_report(runtime)))
    if report["transitions"]:
        print("  decisions (decision#, class, from, to):")
        for row in report["transitions"]:
            print(f"    #{row[0]:<6} {row[1]:<12} {row[2]} -> {row[3]}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace journal offline (DESIGN §5.6).

    Exit codes: 0 — clean replay (or an empty journal: a no-op), 1 —
    violations reproduced or the LTL oracle disagreed with the replay,
    2 — unusable input (corrupt journal, unknown config, no assertions).
    """
    import json as json_module

    from .errors import JournalError
    from .replay import LTLUnsupported, ReplayEngine, ltl_verdicts
    from .runtime.journal import read_journal

    try:
        journal = read_journal(args.path, tolerate_tail=args.tolerate_tail)
    except (JournalError, OSError) as exc:
        print(f"error: {exc}")
        return 2

    assertions = None
    if args.manifest is not None:
        try:
            assertions = ProgramManifest.load(args.manifest).assertions
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load manifest {args.manifest}: {exc}")
            return 2

    try:
        engine = ReplayEngine(journal, assertions=assertions)
    except JournalError as exc:
        print(f"error: {exc}")
        return 2

    if args.at_seqno is not None:
        try:
            state = engine.state_at(args.at_seqno, config=args.config)
        except JournalError as exc:
            print(f"error: {exc}")
            return 2
        if args.json:
            print(json_module.dumps(state, indent=2, sort_keys=True))
        else:
            print(
                f"state at seqno {state['seqno']} "
                f"({state['events_replayed']} event(s) replayed, "
                f"config {state['config']}):"
            )
            for cls in state["classes"]:
                print(
                    f"  {cls['automaton']} [{cls['context']}] "
                    f"active={cls['active']} accepts={cls['accepts']} "
                    f"errors={cls['errors']} sites={cls['sites_reached']}"
                )
                for instance in cls["instances"]:
                    binding = ", ".join(
                        f"{key}={value}"
                        for key, value in instance["binding"].items()
                    )
                    print(
                        f"    {instance['name']}: states={instance['states']} "
                        f"saw_site={instance['saw_site']} "
                        f"binding={{{binding}}}"
                    )
        return 0

    try:
        result = engine.run(config=args.config)
    except JournalError as exc:
        print(f"error: {exc}")
        return 2

    oracle_report: Optional[dict] = None
    agree = True
    if not args.no_oracle and engine.assertions:
        oracle_report = {}
        try:
            verdicts = ltl_verdicts(engine.assertions, engine.slots)
        except LTLUnsupported as exc:
            oracle_report = {"skipped": str(exc)}
        else:
            for name, verdict in verdicts.items():
                replayed = result.classes.get(name)
                matches = (
                    replayed is not None
                    and replayed.accepts == verdict.accepts
                    and replayed.errors == verdict.errors
                    and result.violations.get(name, [])
                    == verdict.reason_stream()
                )
                agree = agree and matches
                oracle_report[name] = {
                    "accepts": verdict.accepts,
                    "errors": verdict.errors,
                    "satisfied_sites": verdict.satisfied_sites,
                    "violations": [
                        {"seqno": v.seqno, "kind": v.kind}
                        for v in verdict.violations
                    ],
                    "agrees_with_replay": matches,
                }

    status = 0
    if not result.clean:
        status = 1
    if not agree:
        status = 1

    if args.json:
        payload = {
            "journal": {
                "version": journal.version,
                "events": len(journal.slots),
                "assertions": len(engine.assertions),
                "clean_close": journal.clean_close,
                "tail_error": journal.tail_error,
                "bytes": journal.byte_size,
            },
            "replay": result.to_json(),
            "oracle": oracle_report,
            "oracle_agrees": agree,
            "status": status,
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return status

    close = "clean close" if journal.clean_close else "NO clean close"
    print(
        f"journal: {len(journal.slots)} event(s), "
        f"{len(engine.assertions)} assertion(s), "
        f"version {journal.version}, {close}"
    )
    if journal.tail_error:
        print(f"  tail: {journal.tail_error}")
    if not journal.slots:
        print("empty journal: nothing to replay")
        return 0
    print(f"replay [{result.config}]: {result.events} event(s), "
          f"{result.threads} thread(s)")
    for name, verdict in sorted(result.classes.items()):
        print(
            f"  {name}: accepts={verdict.accepts} errors={verdict.errors} "
            f"sites={verdict.sites_reached} live={verdict.live}"
        )
        for reason in result.violations.get(name, []):
            print(f"    violation: {reason}")
    if oracle_report is not None:
        if "skipped" in oracle_report:
            print(f"oracle: skipped ({oracle_report['skipped']})")
        else:
            for name, entry in sorted(oracle_report.items()):
                mark = "agrees" if entry["agrees_with_replay"] else "DISAGREES"
                print(
                    f"oracle: {name} accepts={entry['accepts']} "
                    f"errors={entry['errors']} -> {mark}"
                )
    if status == 0:
        print("verdict: clean")
    elif not agree:
        print("verdict: ORACLE DISAGREEMENT (replay and LTL reading differ)")
    else:
        total = sum(len(v) for v in result.violations.values())
        errors = sum(v.errors for v in result.classes.values())
        print(f"verdict: {max(total, errors)} violation(s) reproduced")
    return status


def cmd_bugs(args: argparse.Namespace) -> int:
    """List the injectable kernel bugs and their paper provenance."""
    from .kernel.bugs import KNOWN_BUGS, bugs

    provenance = {
        "kqueue_missing_mac_check": "§3.5.2: poll checked for select/poll but not kqueue",
        "sopoll_wrong_cred": "§3.5.2: cached file_cred passed instead of active_cred",
        "sugid_not_set": "§3.5.2: credential change without P_SUGID (eventually)",
        "kld_check_skipped": "figure 7: module load is an open-like op with its own hook",
        "extattr_wrong_check": "figure 7: extattr enforcement differs per code path",
    }
    for name in KNOWN_BUGS:
        state = "ON " if bugs.enabled(name) else "off"
        print(f"[{state}] {name:<28} {provenance.get(name, '')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TESLA reproduction: analyser and manifest tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(func=cmd_table1)

    list_parser = sub.add_parser("list", help="list a kernel assertion set")
    list_parser.add_argument("set")
    list_parser.set_defaults(func=cmd_list)

    automaton_parser = sub.add_parser(
        "automaton", help="print one kernel assertion's automaton"
    )
    automaton_parser.add_argument("name")
    automaton_parser.add_argument("--dot", action="store_true")
    automaton_parser.set_defaults(func=cmd_automaton)

    manifest_parser = sub.add_parser(
        "manifest", help="write a kernel set as a .tesla manifest"
    )
    manifest_parser.add_argument("path", type=Path)
    manifest_parser.add_argument("--set", default="All")
    manifest_parser.set_defaults(func=cmd_manifest)

    show_parser = sub.add_parser("show", help="summarise a .tesla manifest")
    show_parser.add_argument("path", type=Path)
    show_parser.add_argument("--limit", type=int, default=10)
    show_parser.set_defaults(func=cmd_show)

    elide_parser = sub.add_parser(
        "elide", help="report which assertions of a kernel set tesla-prove discharges"
    )
    elide_parser.add_argument("set")
    elide_parser.set_defaults(func=cmd_elide)

    lint_parser = sub.add_parser(
        "lint", help="statically verify assertion suites (tesla-lint)"
    )
    lint_parser.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help="suites to lint (default: all of examples, kernel, sslx, gui)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit the schema-versioned JSON"
    )
    lint_parser.add_argument(
        "--fail-on",
        default="error",
        dest="fail_on",
        help="exit non-zero on: errors (default), also warnings, never, "
        "or whenever a specific TESLA code fires (e.g. TESLA014)",
    )
    lint_parser.add_argument(
        "--min-severity",
        default="info",
        dest="min_severity",
        help="hide text findings below this severity (a severity word or "
        "a TESLA code, meaning that code's default severity)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    prove_parser = sub.add_parser(
        "prove", help="statically discharge assertion suites (tesla-prove)"
    )
    prove_parser.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help="suites to prove (default: the whole corpus)",
    )
    prove_parser.add_argument(
        "--json", action="store_true", help="emit the schema-versioned JSON"
    )
    prove_parser.add_argument(
        "--fail-on",
        default="error",
        dest="fail_on",
        help="exit non-zero on: errors/VIOLATED (default), also warnings, "
        "never, or whenever a specific TESLA code fires",
    )
    prove_parser.add_argument(
        "--min-severity",
        default="info",
        dest="min_severity",
        help="hide text findings below this severity (word or TESLA code)",
    )
    prove_parser.set_defaults(func=cmd_prove)

    codegen_parser = sub.add_parser(
        "codegen", help="show tesla-jit generated code for a suite"
    )
    codegen_parser.add_argument(
        "suite",
        help="assertion suite (examples, kernel, sslx, gui)",
    )
    codegen_parser.add_argument(
        "--assertion",
        default=None,
        help="restrict to one assertion by name",
    )
    codegen_parser.add_argument(
        "--dump",
        action="store_true",
        help="print full generated source instead of the summary table",
    )
    codegen_parser.set_defaults(func=cmd_codegen)

    replay_parser = sub.add_parser(
        "replay", help="replay a recorded trace journal offline"
    )
    replay_parser.add_argument("path", type=Path, help="journal file")
    replay_parser.add_argument(
        "--config",
        default="naive",
        help="replay configuration: naive (default), lazy, compiled, deferred",
    )
    replay_parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="load assertions from a .tesla manifest instead of the journal",
    )
    replay_parser.add_argument(
        "--at-seqno",
        type=int,
        default=None,
        dest="at_seqno",
        help="stop at this seqno and dump automaton state instead of verdicts",
    )
    replay_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    replay_parser.add_argument(
        "--no-oracle",
        action="store_true",
        dest="no_oracle",
        help="skip the independent LTL-oracle cross-check",
    )
    replay_parser.add_argument(
        "--tolerate-tail",
        action="store_true",
        dest="tolerate_tail",
        help="recover the valid prefix of a truncated/corrupt journal",
    )
    replay_parser.set_defaults(func=cmd_replay)

    governor_parser = sub.add_parser(
        "governor",
        help="demo the adaptive overhead governor and dump its status",
    )
    governor_parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="monitoring budget as a fraction of wall time (default 0.05)",
    )
    governor_parser.add_argument(
        "--ops",
        type=int,
        default=3000,
        help="synthetic workload size in operations (default 3000)",
    )
    governor_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw governor report as JSON",
    )
    governor_parser.set_defaults(func=cmd_governor)

    sub.add_parser("bugs", help="list injectable kernel bugs").set_defaults(
        func=cmd_bugs
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
