"""A model of a workspace's life: random sequences of commands, each run
through ``cli.main`` on one temporary workspace, with the workspace's
invariants checked after every step.

After every step:
  (b) the workspace's text after its ``# rules:`` line is the dump of its load;
  (c) every derived triple's provenance tree ends in asserted triples, or in
      R-SAT's ``satisfies`` edges, which rest on a situation's observations
      rather than on triples;
  (d) every edge ``why`` prints is stored (checked in the ``why`` step);
  (e) a command that exits 1 leaves the workspace as it was, bytes and file,
      and no temporary file behind;
  (f) every exit code is 0 or 1.
The closure invariant, that the derived triples are exactly the closure of
the asserted ones under the current rules, is not checked: ``infer`` only
adds, so a dropped rule's triples stay derived.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from geocausal.cli import main
from geocausal.engine import explain
from geocausal.export import graph_from_json
from geocausal.graph import RELATION_TOKENS, Role
from geocausal.storage import dump_graph, loads_graph

from support import CSV_CHANGES, change_csv_cells

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from generate import DAM_RULES, STORM_RULES, generate  # noqa: E402


def _statements(text: str) -> list[str]:
    """A rules text's statements, one string each, comments dropped."""
    statements, lines = [], [line for line in text.splitlines() if not line.startswith("#")]
    for line in lines:
        if line.startswith(("rule ", "precondition ")):
            statements.append(line)
        elif line.strip() and statements:
            statements[-1] += "\n" + line
    return statements


# Small inputs from the benchmark's generator: storm batches of 10 rows, one
# observation file, a dam workspace, and the statements of both rule files.
_STORM = [generate("append-reinfer", 1, 4 * 10).files[f"storm-{b}.csv"].decode() for b in range(1, 5)]
_DAM = generate("dam-effects", 1, 30)
_OBS = _DAM.files["observations.csv"].decode()
_BASE = dump_graph(loads_graph(_DAM.files[_DAM.base_workspace].decode()))
_STATEMENTS = _statements(STORM_RULES) + _statements(DAM_RULES)
_HEADER = "# rules: "

# Commands that must exit 1 whatever the workspace holds; "{dir}" is the model's directory.
_FAILING = [
    ["infer", "--rules", "{dir}/bad.gcr"],
    ["why", "ghost:event"],
    ["query", "? explodes ?"],
    ["ingest", "storm", "{dir}/missing.csv"],
    ["ingest", "obs", "{dir}/storm.csv"],
    ["export", "--format", "svg"],
]


class WorkspaceLife(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="workspace-life-")
        self.workspace = os.path.join(self.directory, "ws.graph")
        self.rules_path = os.path.join(self.directory, "rules.gcr")
        self.rules = list(_STATEMENTS)
        self._write("rules.gcr", "\n\n".join(self.rules) + "\n")
        self._write("bad.gcr", "rule R1: Storm causes\n")
        self._write("storm.csv", _STORM[0])

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return path

    def _state(self):
        """The workspace's bytes and file identity (None if absent), and the directory listing."""
        try:
            with open(self.workspace, "rb") as handle:
                data = handle.read()
            info = os.stat(self.workspace)
            state = (data, info.st_ino, info.st_mtime_ns)
        except FileNotFoundError:
            state = None
        return state, sorted(os.listdir(self.directory))

    def run(self, *argv: str) -> tuple[int, str]:
        before = self._state()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--workspace", self.workspace])
        assert code in (0, 1), err.getvalue()  # (f)
        if code == 1:  # (e)
            assert err.getvalue().splitlines()[-1].startswith("error["), err.getvalue()
            assert self._state() == before, argv
        return code, out.getvalue()

    def _graph(self):
        with open(self.workspace, encoding="utf-8", newline="") as handle:
            return loads_graph(handle.read())

    @initialize(dam=st.booleans())
    def start(self, dam):
        if dam:  # the dam workspace, as a command would have saved it
            with open(self.workspace, "w", encoding="utf-8", newline="") as handle:
                handle.write(_BASE)

    @rule(batch=st.integers(0, len(_STORM) - 1), strict=st.booleans(), prefix=st.sampled_from(["ev:", "b:"]),
          change=st.sampled_from([None, *CSV_CHANGES]), seed=st.integers(0, 2**16))
    def ingest_storm(self, batch, strict, prefix, change, seed):
        text = _STORM[batch]
        if change is not None:
            text = change_csv_cells(text, "storm", change, random.Random(seed).randrange)
        path = self._write("batch.csv", text)
        self.run("ingest", "storm", path, "--prefix", prefix, *(["--strict"] if strict else []))

    @rule(strict=st.booleans(), prefix=st.sampled_from(["ev:", "o:"]),
          change=st.sampled_from([None, *CSV_CHANGES]), seed=st.integers(0, 2**16))
    def ingest_observations(self, strict, prefix, change, seed):
        text = _OBS if change is None else change_csv_cells(_OBS, "obs", change, random.Random(seed).randrange)
        path = self._write("batch.csv", text)
        self.run("ingest", "obs", path, "--prefix", prefix, *(["--strict"] if strict else []))

    @rule(statement=st.sampled_from(_STATEMENTS))
    def add_or_drop_a_statement(self, statement):
        if statement in self.rules:
            self.rules.remove(statement)
        else:
            self.rules.append(statement)
        self._write("rules.gcr", "\n\n".join(self.rules) + "\n")

    @rule(name_rules=st.booleans())
    def infer(self, name_rules):
        self.run("infer", *(["--rules", self.rules_path] if name_rules else []))

    @precondition(lambda self: os.path.exists(self.workspace))
    @rule(pick=st.integers(0, 2**16))
    def why_and_query(self, pick):
        graph = self._graph()
        events = [e.id for e in graph.entities(Role.EVENT)]
        if not events:
            return
        event = events[pick % len(events)]
        code, out = self.run("why", event, "--format", "json")
        if code == 0:  # (d)
            document = json.loads(out)
            for edge in document["edges"] + document["affects"]:
                assert graph.has_triple(edge["subject"], RELATION_TOKENS[edge["predicate"]], edge["object"]), edge
        assert self.run("query", f"? ? {event}")[0] == 0

    @rule()
    def export_and_read_back(self):
        code, out = self.run("export", "--format", "json")
        assert code == 0
        if os.path.exists(self.workspace):
            assert dump_graph(graph_from_json(out)) == dump_graph(self._graph())

    @rule(argv=st.sampled_from(_FAILING))
    def a_command_that_must_fail(self, argv):
        assert self.run(*(token.format(dir=self.directory) for token in argv))[0] == 1

    @invariant()
    def the_workspace_is_its_own_dump(self):  # (b)
        if not os.path.exists(self.workspace):
            return
        with open(self.workspace, encoding="utf-8", newline="") as handle:
            text = handle.read()
        if text.startswith(_HEADER):
            text = text.split("\n", 1)[1]
        assert dump_graph(loads_graph(text)) == text

    @invariant()
    def every_derivation_ends_in_asserted_triples(self):  # (c)
        if not os.path.exists(self.workspace):
            return
        graph = self._graph()
        for triple in graph.triples():
            if triple.is_derived:
                stack = [explain(graph, triple)]
                while stack:
                    tree = stack.pop()
                    if tree.premises:
                        stack.extend(tree.premises)
                    else:
                        assert not tree.triple.is_derived or tree.rule_id.startswith("R-SAT:"), tree.triple


WorkspaceLife.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, derandomize=True, deadline=None,
)
TestWorkspaceLife = WorkspaceLife.TestCase
