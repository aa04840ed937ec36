"""Command-line interface.

The graph lives in a workspace file between invocations (the text
persistence format). The workspace path is ``geocausal.graph`` in the
working directory, overridden by the GEOCAUSAL_WORKSPACE environment
variable, overridden in turn by --workspace. A companion rules file path,
once given to ``infer``, is recorded verbatim in a workspace header comment
and reused by later commands; a path with a line break, or one that is not
valid UTF-8, is refused. Every file is read through ``storage.read_text``.

Exit codes: 0 success, 1 user error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from pathlib import Path

# Each command imports what it runs inside its handler, so a process pays
# start-up only for the modules of its command. (The module docstring is
# the --help text.)
from .errors import ConfigError, GeoCausalError, UsageError
from .graph import KnowledgeGraph
from .storage import dump_graph, loads_graph, read_text, write_text_atomic

DEFAULT_WORKSPACE = "geocausal.graph"
_RULES_HEADER = "# rules: "
# Blank and "#" lines, split where str.splitlines splits.
_LEADING_COMMENTS = re.compile("(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029])*")


def _workspace_path(args) -> Path:
    if getattr(args, "workspace", None):
        return Path(args.workspace)
    env = os.environ.get("GEOCAUSAL_WORKSPACE")
    return Path(env) if env else Path(DEFAULT_WORKSPACE)


def _load_workspace(path: Path) -> tuple[KnowledgeGraph, str | None]:
    if not path.exists():
        return KnowledgeGraph(), None
    text = read_text(path)
    return loads_graph(text), _recorded_rules(text)


def _recorded_rules(text: str) -> str | None:
    """The ``# rules:`` path among the leading comment lines; no later line is split."""
    leading = text[:_LEADING_COMMENTS.match(text).end()].splitlines()
    return next((line[len(_RULES_HEADER):] for line in leading if line.startswith(_RULES_HEADER)), None)


def _stamp(path: Path) -> tuple[int, int, int] | None:
    """What tells one write of the workspace from another; None when absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _save_workspace(path: Path, graph: KnowledgeGraph, rules_path: str | None, loaded) -> None:
    """Write the workspace unless it changed since its ``_stamp`` was ``loaded``:
    another command wrote it meanwhile, and replacing it would drop that change."""
    header = f"{_RULES_HEADER}{rules_path}\n" if rules_path else ""
    text = header + dump_graph(graph)
    if _stamp(path) != loaded:
        raise OSError(f"workspace {path} changed while this command ran; "
                      "it was left as it is, run the command again")
    write_text_atomic(path, text)


def _load_rules(rules_path: str | None):
    if rules_path is None:
        return None
    from .rules import parse_rules

    return parse_rules(read_text(Path(rules_path)))


def _cmd_ingest(args) -> int:
    from .ingest import Strictness, ingest_observations_csv, ingest_storm_csv

    path = _workspace_path(args)
    loaded = _stamp(path)
    graph, rules_path = _load_workspace(path)
    strictness = Strictness.STRICT if args.strict else Strictness.LENIENT
    if args.kind == "storm":
        report = ingest_storm_csv(graph, args.file, strictness, args.prefix)
    else:
        report = ingest_observations_csv(graph, args.file, strictness, args.prefix)
    _save_workspace(path, graph, rules_path, loaded)
    print(report.to_json() if args.json else report.render())
    return 0


def _cmd_rules_check(args) -> int:
    ruleset = _load_rules(args.file)
    print(
        f"ok: {len(ruleset.preconditions)} precondition set(s), "
        f"{len(ruleset.cause_rules)} cause rule(s)"
    )
    return 0


def _cmd_infer(args) -> int:
    if args.rules and args.rules.splitlines() != [args.rules]:
        raise ConfigError(f"rules path {args.rules!r} contains a line break; "
                          "it could not be recorded in the workspace")
    if args.rules and any("\ud800" <= c <= "\udfff" for c in args.rules):  # a non-UTF-8 argv byte
        raise ConfigError(f"rules path {args.rules!r} is not valid UTF-8; "
                          "it could not be recorded in the workspace")
    from .engine import EngineConfig, infer
    from .rules import RuleSet, parse_duration

    config = EngineConfig(
        max_gap=parse_duration(args.max_gap),
        require_spatial_overlap=not args.no_spatial,
    )
    path = _workspace_path(args)
    loaded = _stamp(path)
    graph, recorded_rules = _load_workspace(path)
    rules_path = args.rules or recorded_rules
    ruleset = _load_rules(rules_path)
    if ruleset is None:
        ruleset = RuleSet()
        print("note: no rules file given or recorded; inferring with an empty rule set",
              file=sys.stderr)
    result = infer(graph, ruleset, config)
    _save_workspace(path, graph, rules_path, loaded)
    print(f"derived {len(result.derived)} triple(s) in {result.iterations} iteration(s)")
    for diagnostic in result.diagnostics:
        print(diagnostic.render())
    return 0


def _cmd_why(args) -> int:
    if args.depth < 0:
        raise UsageError(f"argument --depth: must be 0 or more, got {args.depth}")
    from .query import render_explanation_text, why

    path = _workspace_path(args)
    graph, rules_path = _load_workspace(path)
    ruleset = _load_rules(rules_path)
    explanation = why(graph, args.event_id, max_depth=args.depth, rules=ruleset)
    if args.format == "text":
        print(render_explanation_text(explanation, graph))
    else:
        from .export import explanation_to_dot, explanation_to_json

        render = explanation_to_dot if args.format == "dot" else explanation_to_json
        print(render(explanation, graph), end="")
    return 0


def _cmd_query(args) -> int:
    from .query import query

    path = _workspace_path(args)
    graph, _ = _load_workspace(path)
    for triple in query(graph, args.pattern):
        suffix = ""
        if triple.is_derived:
            suffix = f" [derived rule={triple.provenance.rule_id}]"
        print(f"{triple.subject} {triple.predicate.value} {triple.object}{suffix}")
    return 0


def _cmd_export(args) -> int:
    from .export import graph_to_dot, graph_to_json

    path = _workspace_path(args)
    graph, _ = _load_workspace(path)
    if args.format == "dot":
        print(graph_to_dot(graph), end="")
    else:
        print(graph_to_json(graph), end="")
    return 0


def _cmd_validate(args) -> int:
    path = _workspace_path(args)
    graph, _ = _load_workspace(path)
    for warning in graph.validate():
        print(f"WARN {warning}")
    print(f"ok: {graph.entity_count} entities, {graph.triple_count} triples")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        # argparse echoes unrecognized arguments unquoted; keep the report on one line
        raise UsageError(message.translate({ord("\n"): "\\n", ord("\r"): "\\r"}))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", help="workspace file (default: $GEOCAUSAL_WORKSPACE or ./geocausal.graph)")

    parser = _ArgumentParser(prog="geocausal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common], help="ingest a CSV file")
    p_ingest.add_argument("kind", choices=["storm", "obs"])
    p_ingest.add_argument("file")
    p_ingest.add_argument("--strict", action="store_true", help="abort on the first bad row")
    p_ingest.add_argument("--prefix", default="ev:", help="entity id prefix (default ev:)")
    p_ingest.add_argument("--json", action="store_true", help="print the report as JSON")
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_rules = sub.add_parser("rules", parents=[common], help="rule file utilities")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_check = rules_sub.add_parser("check", parents=[common], help="parse and validate a rule file")
    p_check.add_argument("file")
    p_check.set_defaults(handler=_cmd_rules_check)

    p_infer = sub.add_parser("infer", parents=[common], help="run causal inference (one stratified pass over the rules)")
    p_infer.add_argument("--rules", help="rule file (recorded in the workspace for later commands)")
    p_infer.add_argument("--max-gap", default="24h", help="max gap between a situation and the event it effects (default 24h)")
    p_infer.add_argument("--no-spatial", action="store_true", help="drop the spatial overlap requirement")
    p_infer.set_defaults(handler=_cmd_infer)

    p_why = sub.add_parser("why", parents=[common], help="explain why an event occurred")
    p_why.add_argument("event_id")
    p_why.add_argument("--depth", type=int, default=10)
    p_why.add_argument("--format", choices=["text", "dot", "json"], default="text")
    p_why.set_defaults(handler=_cmd_why)

    p_query = sub.add_parser("query", parents=[common], help='match a pattern "<id|?> <relation|?> <id|?>"')
    p_query.add_argument("pattern")
    p_query.set_defaults(handler=_cmd_query)

    p_export = sub.add_parser("export", parents=[common], help="export the graph")
    p_export.add_argument("--format", choices=["dot", "json"], default="json")
    p_export.set_defaults(handler=_cmd_export)

    p_validate = sub.add_parser("validate", parents=[common], help="check graph consistency")
    p_validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except GeoCausalError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


def run() -> int:
    """The process entry of ``geocausal`` and ``python -m geocausal``.

    It runs ``main`` on ``sys.argv``, then freezes the heap however ``main``
    leaves (``--help`` leaves by ``SystemExit``), so the collections the
    interpreter makes as it exits skip objects the OS reclaims anyway.
    Atexit handlers and the stream flushes still run. Code that calls
    ``main`` itself gets no freeze.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
