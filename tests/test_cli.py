import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import geocausal
from geocausal.cli import _recorded_rules, main
from geocausal.engine import EngineConfig, infer
from geocausal.export import graph_to_json
from geocausal.graph import KnowledgeGraph, RelationKind
from geocausal.model import GeoEvent, GeoObject, Point, SpatioTemporalRegion
from geocausal.rules import print_rules
from geocausal.storage import dump_graph

from support import build_chain_case, iv, katrina_csv

RULES_TEXT = """precondition PC_DAM effects FlashFlood {
    WaterLevel > 10 m
}

rule R1: TropicalStorm causes HeavyRain when precedes within 12h

rule R2: HeavyRain causes FlashFlood when co-occurs
"""

OBS_TEXT = (
    "SITUATION_ID,TIMESTAMP_START,TIMESTAMP_END,ATTRIBUTE,VALUE,UNIT,LAT,LON\n"
    "s1,2005-08-23T00:00:00Z,2005-08-23T06:00:00Z,SeaSurfaceTemp,83,degF,,\n"
)


@pytest.mark.parametrize(
    "text, rules_path",
    [
        ("# rules: r.gcr\n# geocausal graph v2\nENT a event Rain\n", "r.gcr"),
        ("# geocausal graph v2\nENT a event Rain\n# rules: late.gcr\n", None),
        ("#" + "x" * 1000 + "\r\n\n# rules: " + "p" * 600 + "\r\nENT a event Rain\n", "p" * 600),
        ("# c\r" * 200 + "# rules: cr.gcr\rENT a event Rain", "cr.gcr"),
        ("# rules: tail.gcr", "tail.gcr"),
        ("", None),
    ],
    ids=["first-line", "after-a-record", "long-comments", "carriage-returns", "no-newline", "empty"],
)
def test_recorded_rules_path_comes_from_the_leading_comments(text, rules_path):
    assert _recorded_rules(text) == rules_path


@pytest.fixture
def workspace(tmp_path):
    return str(tmp_path / "test.graph")


@pytest.fixture
def storm_file(tmp_path):
    path = tmp_path / "storm.csv"
    path.write_text(katrina_csv(), encoding="utf-8")
    return str(path)


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.gcr"
    path.write_text(RULES_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_ingest_and_query(self, capsys, workspace, storm_file):
        code, out, _ = run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        assert code == 0
        assert "rows read:        23" in out
        code, out, _ = run(capsys, "query", "? part-of ev:episode-1", "--workspace", workspace)
        assert code == 0
        assert len(out.strip().splitlines()) == 23

    def test_ingest_json_report(self, capsys, workspace, storm_file):
        code, out, _ = run(capsys, "ingest", "storm", storm_file, "--json", "--workspace", workspace)
        assert code == 0
        assert json.loads(out)["rows_read"] == 23

    def test_ingest_obs(self, capsys, workspace, tmp_path):
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text(OBS_TEXT, encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "obs", str(obs_path), "--workspace", workspace)
        assert code == 0
        code, out, _ = run(capsys, "query", "? ? ?", "--workspace", workspace)
        assert code == 0

    def test_quote_in_id_reloads(self, capsys, workspace, tmp_path):
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text(OBS_TEXT.replace("\ns1,", "\nO'Hare,"), encoding="utf-8")
        code, _, _ = run(capsys, "ingest", "obs", str(obs_path), "--workspace", workspace)
        assert code == 0
        code, out, err = run(capsys, "validate", "--workspace", workspace)
        assert (code, err) == (0, "")
        assert out.strip() == "ok: 1 entities, 0 triples"

    def test_why_over_premise_cycle_is_user_error(self, capsys, workspace):
        with open(workspace, "w", encoding="utf-8") as handle:
            handle.write("ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a causes b\n")
        code, _, err = run(capsys, "why", "b", "--workspace", workspace)
        assert code == 1
        assert err.startswith("error[parse-error]: line 3: ")

    def test_why_text_over_a_deep_chain(self, capsys, workspace):
        # deeper than the interpreter's recursion limit
        n = 1200
        lines = [f"ENT e{i} event Rain" for i in range(n)]
        lines += [f"TRI e{i} causes e{i + 1}" for i in range(n - 1)]
        with open(workspace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "why", f"e{n - 1}", "--format", "text", "--depth", "5000", "--workspace", workspace
        )
        assert (code, err) == (0, "")
        assert sum(line.lstrip().startswith("<- ") for line in out.splitlines()) == n - 1

    def test_rules_check_ok(self, capsys, rules_file, workspace):
        code, out, _ = run(capsys, "rules", "check", rules_file)
        assert code == 0
        assert "1 precondition set(s), 2 cause rule(s)" in out

    def test_rules_check_repeated_id_names_its_statement(self, capsys, tmp_path):
        path = tmp_path / "twice.gcr"
        path.write_text("rule R1: A causes B when precedes\n  rule R1: B causes C when precedes\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "rules", "check", str(path))
        assert (code, err) == (1, "error[parse-error]: line 2, column 3: rule id 'R1' defined twice\n")

    def test_rules_check_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.gcr"
        bad.write_text("precondition P effects X { Temp >> 3 K }", encoding="utf-8")
        code, _, err = run(capsys, "rules", "check", str(bad))
        assert code == 1
        assert "error[parse-error]" in err
        assert "line 1" in err and "column" in err

    def test_infer_negative_gap(self, capsys, workspace, storm_file, rules_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        code, _, err = run(
            capsys, "infer", "--rules", rules_file, "--max-gap=-1h", "--workspace", workspace
        )
        assert code == 1
        assert "error[config-error]" in err

    def test_why_unknown_event(self, capsys, workspace, storm_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        code, _, err = run(capsys, "why", "ev:ghost", "--workspace", workspace)
        assert code == 1
        assert "error[unknown-entity]" in err

    def test_validate(self, capsys, workspace, storm_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        code, out, _ = run(capsys, "validate", "--workspace", workspace)
        assert code == 0
        assert out.startswith("ok:")

    def test_validate_warns_of_a_participant_outside_its_event(self, capsys, workspace):
        graph = KnowledgeGraph()
        graph.add_entity(GeoObject("obj:dam", "Dam"))
        graph.add_entity(GeoEvent("ev:flood", "Flood"))
        graph.add_entity(SpatioTemporalRegion("reg:dam", Point(30.0, -90.0), iv(0, 1)))
        graph.add_entity(SpatioTemporalRegion("reg:flood", Point(40.0, -80.0), iv(5, 6)))
        graph.assert_triple("obj:dam", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:dam")
        graph.assert_triple("ev:flood", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:flood")
        graph.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        Path(workspace).write_text(dump_graph(graph), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--workspace", workspace)
        assert code == 0
        assert out.splitlines() == [
            "WARN participant-in(obj:dam, ev:flood): regions reg:dam and reg:flood "
            "do not overlap spatio-temporally",
            "ok: 4 entities, 3 triples",
        ]

    def test_missing_file_is_user_error(self, capsys, workspace):
        code, _, err = run(capsys, "ingest", "storm", "/nonexistent.csv", "--workspace", workspace)
        assert code == 1
        assert "error[io]" in err

    def test_failed_save_keeps_old_workspace(self, capsys, tmp_path, workspace, storm_file, monkeypatch):
        import os

        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        before = (tmp_path / "test.graph").read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())

        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        code, _, err = run(
            capsys, "ingest", "storm", storm_file, "--prefix", "ev2:", "--workspace", workspace
        )
        assert code == 1
        assert "error[io]" in err
        assert (tmp_path / "test.graph").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    @pytest.mark.parametrize("command", ["ingest", "infer"])
    def test_a_write_keeps_the_workspace_mode(self, capsys, tmp_path, workspace, storm_file, rules_file, command):
        previous = os.umask(0o022)
        try:
            run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
            assert os.stat(workspace).st_mode & 0o777 == 0o644  # a new workspace follows the umask
            os.chmod(workspace, 0o600)
            argv = (["ingest", "storm", storm_file, "--prefix", "ev2:"] if command == "ingest"
                    else ["infer", "--rules", rules_file])
            code, _, err = run(capsys, *argv, "--workspace", workspace)
        finally:
            os.umask(previous)
        assert (code, err) == (0, "")
        assert os.stat(workspace).st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("command", ["ingest", "infer"])
    def test_a_concurrent_write_is_not_overwritten(
        self, capsys, tmp_path, workspace, storm_file, rules_file, monkeypatch, command
    ):
        """A command refuses to replace a workspace that another command wrote
        after this one loaded it; the other command's change survives."""
        import geocausal.cli as cli_module

        if command == "infer":
            run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        dump = cli_module.dump_graph
        written = []

        def other_command_first(graph):
            monkeypatch.setattr(cli_module, "dump_graph", dump)
            assert cli_module.main(["ingest", "storm", storm_file, "--prefix", "ev2:",
                                    "--workspace", workspace]) == 0
            capsys.readouterr()  # the other command's report
            written.append(Path(workspace).read_bytes())
            return dump(graph)

        monkeypatch.setattr(cli_module, "dump_graph", other_command_first)
        argv = (["ingest", "storm", storm_file] if command == "ingest"
                else ["infer", "--rules", rules_file])
        code, out, err = run(capsys, *argv, "--workspace", workspace)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[io]: workspace {workspace} changed while this command ran")
        assert Path(workspace).read_bytes() == written[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["storm.csv", "rules.gcr", "test.graph"])
        code, out, _ = run(capsys, "query", "? ? ?", "--workspace", workspace)
        assert code == 0 and "ev2:" in out

    def test_surrogate_prefix_is_rejected(self, capsys, tmp_path, workspace, storm_file):
        # A non-UTF-8 argv byte such as b"\xff" reaches argparse as a lone surrogate.
        listing = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(
            capsys, "ingest", "storm", storm_file, "--prefix", "x\udcff:", "--workspace", workspace
        )
        assert code == 1
        assert "error[invariant-violation]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    def test_rules_path_with_line_break_is_refused(self, capsys, tmp_path, workspace, storm_file):
        rules_path = tmp_path / "a\nb.gcr"  # a legal file name on Linux
        rules_path.write_text(RULES_TEXT, encoding="utf-8")
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        before = (tmp_path / "test.graph").read_bytes()
        code, out, err = run(capsys, "infer", "--rules", str(rules_path), "--workspace", workspace)
        assert (code, out) == (1, "")
        assert err.startswith("error[config-error]: ")
        assert (tmp_path / "test.graph").read_bytes() == before
        code, _, _ = run(capsys, "query", "? ? ?", "--workspace", workspace)
        assert code == 0

    def test_rules_path_with_edge_spaces_is_reused_verbatim(
        self, capsys, tmp_path, workspace, storm_file, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / " rules.gcr ").write_text(RULES_TEXT, encoding="utf-8")
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        code, first, _ = run(capsys, "infer", "--rules", " rules.gcr ", "--workspace", workspace)
        assert code == 0
        code, again, err = run(capsys, "infer", "--workspace", workspace)
        assert (code, err) == (0, "")
        assert again.startswith("derived 0 triple(s)")
        assert first.splitlines()[1:] == again.splitlines()[1:]

    def test_internal_failure_is_exit_2(self, capsys, workspace, monkeypatch):
        import geocausal.cli as cli_module

        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "_cmd_validate", boom)
        # the parser captured the handler at build time, so rebuild via main
        code = cli_module.main(["validate", "--workspace", workspace])
        err = capsys.readouterr().err
        assert code == 2
        assert "RuntimeError" in err


class TestEndToEnd:
    def seed_chain_workspace(self, tmp_path, workspace):
        """Persist the chain fixture graph through the workspace file."""
        from geocausal.storage import save_graph

        graph, rules = build_chain_case()
        save_graph(graph, workspace)
        rules_path = tmp_path / "chain.gcr"
        rules_path.write_text(print_rules(rules), encoding="utf-8")
        return str(rules_path)

    def test_infer_then_why(self, capsys, tmp_path, workspace):
        rules_path = self.seed_chain_workspace(tmp_path, workspace)
        code, out, _ = run(capsys, "infer", "--rules", rules_path, "--workspace", workspace)
        assert code == 0
        assert "derived 4 triple(s)" in out
        code, out, _ = run(capsys, "why", "ev:flashflood", "--depth", "3", "--workspace", workspace)
        assert code == 0
        assert "<- causes -- ev:heavyrain (HeavyRain)" in out
        assert "<- effects -- sit:overflow (situation)" in out
        assert "WaterLevel > 10 m" in out  # rules path was recorded by infer

    def test_why_dot_and_json_formats(self, capsys, tmp_path, workspace):
        rules_path = self.seed_chain_workspace(tmp_path, workspace)
        run(capsys, "infer", "--rules", rules_path, "--workspace", workspace)
        code, out, _ = run(
            capsys, "why", "ev:flashflood", "--format", "dot", "--workspace", workspace
        )
        assert code == 0 and out.startswith("digraph explanation {")
        code, out, _ = run(
            capsys, "why", "ev:flashflood", "--format", "json", "--workspace", workspace
        )
        assert code == 0
        assert json.loads(out)["root"] == "ev:flashflood"

    def test_workspace_round_trip_exports_identical(self, capsys, tmp_path, workspace):
        rules_path = self.seed_chain_workspace(tmp_path, workspace)
        run(capsys, "infer", "--rules", rules_path, "--workspace", workspace)
        code, first, _ = run(capsys, "export", "--format", "json", "--workspace", workspace)
        assert code == 0
        # reload in a second invocation and export again
        code, second, _ = run(capsys, "export", "--format", "json", "--workspace", workspace)
        assert first == second
        code, dot_a, _ = run(capsys, "export", "--format", "dot", "--workspace", workspace)
        code, dot_b, _ = run(capsys, "export", "--format", "dot", "--workspace", workspace)
        assert dot_a == dot_b

    def test_query_shows_derivation(self, capsys, tmp_path, workspace):
        rules_path = self.seed_chain_workspace(tmp_path, workspace)
        run(capsys, "infer", "--rules", rules_path, "--workspace", workspace)
        code, out, _ = run(capsys, "query", "? causes ev:flashflood", "--workspace", workspace)
        assert code == 0
        assert "ev:heavyrain causes ev:flashflood [derived rule=R-CAU:R2]" in out

    def test_env_var_workspace(self, capsys, tmp_path, monkeypatch, storm_file):
        env_ws = tmp_path / "env.graph"
        monkeypatch.setenv("GEOCAUSAL_WORKSPACE", str(env_ws))
        code, _, _ = run(capsys, "ingest", "storm", storm_file)
        assert code == 0
        assert env_ws.exists()
        # the --workspace flag wins over the environment
        flag_ws = tmp_path / "flag.graph"
        code, _, _ = run(capsys, "query", "? ? ?", "--workspace", str(flag_ws))
        assert code == 0

    def test_infer_without_rules_is_note_plus_empty(self, capsys, workspace, storm_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        code, out, err = run(capsys, "infer", "--workspace", workspace)
        assert code == 0
        assert "derived 0 triple(s)" in out
        assert "empty rule set" in err


class TestHostileInput:
    """Bad bytes, out-of-range values and bad arguments are user errors:
    exit 1 with one ``error[...]`` line, the workspace left as it was."""

    def refused(self, capsys, code_name, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1, err
        assert err.startswith(f"error[{code_name}]: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize(
        "records, message",
        [
            ("ENT a object Dam\nENT b event Flood\nTRI a causes b",
             "line 3: causes: expected event -> event, got object -> event"),
            ("ENT a event Rain\nTRI a causes ghost", "line 2: no entity with id 'ghost'"),
            ("ENT a event Rain\nENT a event Flood", "line 2: entity id 'a' already present"),
        ],
        ids=["schema", "missing-entity", "repeated-id"],
    )
    def test_any_workspace_fault_is_a_parse_error(self, capsys, workspace, records, message):
        with open(workspace, "w", encoding="utf-8") as handle:
            handle.write(records + "\n")
        assert self.refused(capsys, "parse-error", "validate", "--workspace", workspace) == (
            f"error[parse-error]: {message}\n"
        )

    @pytest.mark.parametrize("name", ["storm.csv", "rules.gcr"])
    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path, name):
        text = katrina_csv(3) if name == "storm.csv" else RULES_TEXT
        outputs = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / f"{len(prefix)}{name}"
            path.write_text(prefix + text, encoding="utf-8")  # "\ufeff" is written as EF BB BF
            if name == "storm.csv":
                argv = ["ingest", "storm", str(path), "--workspace", str(tmp_path / f"{len(prefix)}.graph")]
            else:
                argv = ["rules", "check", str(path)]
            outputs.append(run(capsys, *argv))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("name", ["workspace", "storm.csv", "obs.csv", "rules.gcr"])
    def test_non_utf8_byte_names_its_line(self, capsys, tmp_path, name):
        content = {
            "workspace": b"# geocausal graph v2\nENT a event Rain\nENT b\xff event Flood\n",
            "storm.csv": katrina_csv(3).encode().replace(b"Heavy", b"Heavy\xff"),
            "obs.csv": OBS_TEXT.encode().replace(b"degF", b"deg\xffF"),
            "rules.gcr": RULES_TEXT.encode().replace(b"rule R2", b"rule \xffR2"),
        }[name]
        path = tmp_path / name
        path.write_bytes(content)
        workspace = tmp_path / "ws.graph"
        argv = {
            "workspace": ["validate", "--workspace", str(path)],
            "storm.csv": ["ingest", "storm", str(path), "--workspace", str(workspace)],
            "obs.csv": ["ingest", "obs", str(path), "--workspace", str(workspace)],
            "rules.gcr": ["infer", "--rules", str(path), "--workspace", str(workspace)],
        }[name]
        line = content[: content.index(b"\xff")].count(b"\n") + 1
        err = self.refused(capsys, "parse-error", *argv)
        assert err == f"error[parse-error]: line {line}: byte 0xff is not valid UTF-8\n"
        assert not workspace.exists()

    def test_csv_field_over_the_limit_names_its_line(self, capsys, tmp_path, workspace):
        path = tmp_path / "storm.csv"
        path.write_text(katrina_csv(3).replace(",Flash Flood,", f",{'x' * 131073},"), encoding="utf-8")
        err = self.refused(capsys, "ingest-error", "ingest", "storm", str(path), "--workspace", workspace)
        assert err.startswith("error[ingest-error]: line 4: malformed CSV: field larger than field limit")

    @pytest.mark.parametrize("strict", [False, True])
    def test_storm_row_past_year_9999_utc_is_rejected(self, capsys, tmp_path, workspace, strict):
        path = tmp_path / "storm.csv"
        path.write_text(
            katrina_csv(2).replace("2005-08-24 07:00:00,2005-08-24 08:30:00,CST",
                                   "9999-12-31 23:00:00,9999-12-31 23:00:00,EST"),
            encoding="utf-8",
        )
        reason = "line 3: timestamp 9999-12-31T23:00:00-05:00 is outside years 1-9999 UTC"
        if strict:
            err = self.refused(capsys, "ingest-error", "ingest", "storm", str(path), "--strict",
                               "--workspace", workspace)
            assert err == f"error[ingest-error]: {reason}\n"
        else:
            code, out, _ = run(capsys, "ingest", "storm", str(path), "--workspace", workspace)
            assert code == 0
            assert f"  {reason}" in out.splitlines()

    def test_observation_row_before_year_1_utc_is_rejected(self, capsys, tmp_path, workspace):
        path = tmp_path / "obs.csv"
        path.write_text(OBS_TEXT.replace("2005-08-23T00:00:00Z", "0001-01-01T00:00:00+05:00"), encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "obs", str(path), "--workspace", workspace)
        assert code == 0
        assert "  line 2: timestamp 0001-01-01T00:00:00+05:00 is outside years 1-9999 UTC" in out

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "kind, text, reason",
        [
            ("storm", katrina_csv(2).replace("\n1,101,", "\n1,10 1,"),
             "line 3: entity id 'ev:event-10 1' must not contain whitespace, control, quote or "
             "surrogate characters"),
            ("obs", OBS_TEXT.replace("\ns1,", "\nb c,"),
             "line 2: entity id 'ev:situation-b c' must not contain whitespace, control, quote or "
             "surrogate characters"),
        ],
        ids=["storm", "obs"],
    )
    def test_id_cell_that_makes_an_invalid_entity_id_is_a_bad_row(
        self, capsys, tmp_path, workspace, kind, text, reason, strict
    ):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        if strict:
            err = self.refused(capsys, "ingest-error", "ingest", kind, str(path), "--strict",
                               "--workspace", workspace)
            assert err == f"error[ingest-error]: {reason}\n"
            assert not (tmp_path / "test.graph").exists()
        else:
            code, out, _ = run(capsys, "ingest", kind, str(path), "--workspace", workspace)
            assert code == 0
            assert f"  {reason}" in out.splitlines()

    def test_threshold_that_overflows_is_a_positioned_parse_error(self, capsys, tmp_path):
        path = tmp_path / "big.gcr"
        path.write_text("precondition P effects K { A > 1e400 degF }\n", encoding="utf-8")
        err = self.refused(capsys, "parse-error", "rules", "check", str(path))
        assert err == "error[parse-error]: line 1, column 32: quantity magnitude must be finite, got inf\n"

    def test_workspace_record_before_year_1_utc_is_parse_error(self, capsys, workspace):
        with open(workspace, "w", encoding="utf-8") as handle:
            handle.write("ENT a event Rain\n"
                         "ENT s situation - .start=0001-01-01T00:00:00+05:00 .end=2000-01-01T00:00:00Z\n")
        err = self.refused(capsys, "parse-error", "validate", "--workspace", workspace)
        assert err.startswith("error[parse-error]: line 2: ")

    def test_max_gap_out_of_range(self, capsys, tmp_path, workspace, storm_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        before = (tmp_path / "test.graph").read_bytes()
        code, out, err = run(capsys, "infer", "--max-gap", "99999999999d", "--workspace", workspace)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error[parse-error]: duration '99999999999d' is out of range"
        assert (tmp_path / "test.graph").read_bytes() == before

    def test_bad_max_gap_is_refused_before_the_workspace_is_read(self, capsys, tmp_path, workspace, storm_file):
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        before = (tmp_path / "test.graph").read_bytes()
        refusal = "error[parse-error]: invalid duration 'x' (expected <n><s|min|h|d>)\n"
        err = self.refused(capsys, "parse-error", "infer", "--max-gap", "x", "--workspace", workspace)
        assert err == refusal
        assert (tmp_path / "test.graph").read_bytes() == before
        # Over a corrupt workspace, the argument is still what gets reported.
        (tmp_path / "test.graph").write_bytes(b"ENT a\xff event Rain\n")
        err = self.refused(capsys, "parse-error", "infer", "--max-gap", "x", "--workspace", workspace)
        assert err == refusal
        assert (tmp_path / "test.graph").read_bytes() == b"ENT a\xff event Rain\n"

    def test_rule_duration_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "big.gcr"
        path.write_text("rule R1: A causes B when precedes within 99999999999999d\n", encoding="utf-8")
        err = self.refused(capsys, "parse-error", "rules", "check", str(path))
        assert err.startswith("error[parse-error]: line 1, column 42: duration ")

    def test_non_utf8_rules_path_is_refused_before_inference(
        self, capsys, tmp_path, workspace, storm_file
    ):
        # A non-UTF-8 argv byte such as b"\xff" reaches argparse as a lone surrogate.
        rules_path = os.fsdecode(os.fsencode(tmp_path) + b"/r\xff.gcr")
        with open(rules_path, "w", encoding="utf-8") as handle:
            handle.write(RULES_TEXT)
        run(capsys, "ingest", "storm", storm_file, "--workspace", workspace)
        before = (tmp_path / "test.graph").read_bytes()
        code, out, err = run(capsys, "infer", "--rules", rules_path, "--workspace", workspace)
        assert (code, out) == (1, "")
        assert err.startswith("error[config-error]: ") and "not valid UTF-8" in err
        assert (tmp_path / "test.graph").read_bytes() == before

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["why"], "the following arguments are required: event_id"),
            (["why", "x", "--depth", "abc"], "argument --depth: invalid int value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            ([], "the following arguments are required: command"),
            (["validate", "a\nb"], "unrecognized arguments: a\\nb"),
            (["why", "x", "--depth", "-1"], "argument --depth: must be 0 or more, got -1"),
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv, message):
        assert self.refused(capsys, "usage", *argv).startswith(f"error[usage]: {message}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: geocausal")


# ---------------------------------------------------------------------------
# Mutated inputs: every byte or argument the CLI reads exits 0 or 1
# ---------------------------------------------------------------------------

_CHAIN_GRAPH, _CHAIN_RULES = build_chain_case()
infer(_CHAIN_GRAPH, _CHAIN_RULES, EngineConfig())
_BASE_FILES = {
    "workspace": dump_graph(_CHAIN_GRAPH),  # prefixed with its "# rules:" header per example
    "storm": katrina_csv(8),
    "obs": OBS_TEXT + "s2,2005-08-23T00:00:00Z,2005-08-24T00:00:00Z,WaterLevel,12,m,29.5,-90\n",
    "rules": print_rules(_CHAIN_RULES),
}
_COMMANDS = [
    ["ingest", "storm", "{storm}"],
    ["ingest", "storm", "{storm}", "--strict", "--prefix", "x:"],
    ["ingest", "obs", "{obs}", "--json"],
    ["ingest", "obs", "{obs}", "--strict"],
    ["rules", "check", "{rules}"],
    ["infer", "--rules", "{rules}", "--max-gap", "12h"],
    ["infer"],
    ["why", "ev:flashflood", "--depth", "3", "--format", "json"],
    ["query", "? causes ?"],
    ["export", "--format", "dot"],
    ["validate"],
]
#: Byte strings spliced into input files: a non-UTF-8 byte, NUL, CSV and
#: record syntax, digits that push a timestamp or duration out of range,
#: and a field over the csv module's 131,072-byte limit.
_BYTE_PIECES = [b"\xff", b"\xc3", b"\x00", b'"', b"\n", b"\r", b",", b" ", b"=", b"-", b"#",
                b"9999", b"99999999999", b"e999", b"+05:00", b"x" * 131073]
#: Strings spliced into argv tokens. A non-UTF-8 argv byte arrives as a
#: lone surrogate; argv cannot hold NUL, so it is not among them.
_ARG_PIECES = ["\udcff", "\n", "", "-", "--", "x", "99999999999d", "abc", "-1", "?", '"', " ", "=", "é"]


def _mutate(data, seq, pieces):
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, len(seq)))
        end = data.draw(st.integers(start, min(len(seq), start + 4)))
        seq = seq[:start] + data.draw(st.sampled_from(pieces)) + seq[end:]
    return seq


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_exit_0_or_1(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # a mutated relative path lands here
    with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
        paths = {name: os.path.join(directory, name) for name in _BASE_FILES}
        contents = {name: text.encode() for name, text in _BASE_FILES.items()}
        contents["workspace"] = f"# rules: {paths['rules']}\n".encode() + contents["workspace"]
        target = data.draw(st.sampled_from([None, *_BASE_FILES]))
        if target is not None:
            contents[target] = _mutate(data, contents[target], _BYTE_PIECES)
        for name, content in contents.items():
            with open(paths[name], "wb") as handle:
                handle.write(content)
        argv = [token.format(**paths) for token in data.draw(st.sampled_from(_COMMANDS))]
        argv += ["--workspace", paths["workspace"]]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(argv) - 1))
            argv[i] = _mutate(data, argv[i], _ARG_PIECES)
        listing = sorted(os.listdir(directory))

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()

        assert code in (0, 1), err
        out.encode("utf-8")  # a real stdout encodes strictly; a failure there is exit 2
        if code == 1:
            errors = [line for line in err.split("\n") if line.startswith("error[")]
            assert len(errors) == 1 and err.split("\n")[-2] == errors[0], err
            with open(paths["workspace"], "rb") as handle:
                assert handle.read() == contents["workspace"]
            assert sorted(os.listdir(directory)) == listing


def test_outputs_are_byte_stable_across_hash_seeds(tmp_path):
    """ingest -> infer -> why -> export in child interpreters with different
    PYTHONHASHSEED values: every output and the saved workspace are the same
    bytes, so nothing the program writes follows set or dict hash order."""
    graph, rules = build_chain_case()
    (tmp_path / "storm.csv").write_text(katrina_csv(), encoding="utf-8")
    (tmp_path / "obs.csv").write_text(_BASE_FILES["obs"], encoding="utf-8")
    (tmp_path / "rules.gcr").write_text(print_rules(rules), encoding="utf-8")
    src = str(Path(geocausal.__file__).resolve().parents[1])
    commands = [
        ["ingest", "storm", "storm.csv"],
        ["ingest", "obs", "obs.csv"],
        ["infer", "--rules", "rules.gcr"],
        ["why", "ev:flashflood", "--format", "json"],
        ["why", "ev:flashflood"],
        ["export", "--format", "json"],
        ["export", "--format", "dot"],
    ]
    runs = []
    for hash_seed in ("0", "1"):
        workspace = tmp_path / f"seed{hash_seed}.graph"
        workspace.write_text(dump_graph(graph), encoding="utf-8")
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        outputs = [
            subprocess.run([sys.executable, "-m", "geocausal", *argv, "--workspace", str(workspace)],
                           cwd=tmp_path, env=env, capture_output=True, check=True)
            for argv in commands
        ]
        runs.append(([(done.stdout, done.stderr) for done in outputs], workspace.read_bytes()))
    assert b"DERIVED rule=R-EFF:PC_DAM" in runs[0][1]
    assert runs[0] == runs[1]


_PRINT_PACKAGE_MODULES = (
    "import json, sys\n"
    "from geocausal.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('geocausal.'))))\n"
    "sys.exit(code)\n"
)


def test_each_command_imports_only_what_it_runs(tmp_path):
    """Each command, run by ``cli.main`` in a new interpreter, never loads
    the modules of the other commands."""
    graph, rules = build_chain_case()
    workspace = tmp_path / "test.graph"
    workspace.write_text(dump_graph(graph), encoding="utf-8")
    (tmp_path / "storm.csv").write_text(katrina_csv(), encoding="utf-8")
    (tmp_path / "obs.csv").write_text(_BASE_FILES["obs"], encoding="utf-8")
    (tmp_path / "rules.gcr").write_text(print_rules(rules), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(geocausal.__file__).resolve().parents[1])}
    never_loaded = [
        (["ingest", "storm", "storm.csv"], {"engine", "rules", "export"}),
        (["ingest", "obs", "obs.csv"], {"engine", "rules", "export"}),
        (["infer", "--rules", "rules.gcr"], {"ingest", "export"}),
        (["why", "ev:flashflood"], {"engine", "ingest", "export"}),  # re-evaluates PC_DAM
        (["export", "--format", "json"], {"engine", "ingest", "rules"}),
        (["export", "--format", "dot"], {"engine", "ingest", "rules"}),
        (["query", "? causes ?"], {"engine", "ingest", "rules", "export"}),
        (["validate"], {"engine", "ingest", "rules", "export"}),
        (["rules", "check", "rules.gcr"], {"engine", "ingest", "export"}),
    ]
    for argv, absent in never_loaded:
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_PACKAGE_MODULES, *argv, "--workspace", str(workspace)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (argv, done.stderr)
        *output, modules = done.stdout.splitlines()
        loaded = {name.removeprefix("geocausal.") for name in json.loads(modules)}
        assert not loaded & absent, (argv, sorted(loaded & absent))
        if argv[0] == "why":
            assert "evidence [PC_DAM]: WaterLevel > 10 m (observed 12 m) => true" in "\n".join(output)


#: Imported at start-up from PYTHONPATH: reports the freeze count once ``atexit`` runs.
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(f'freeze count {gc.get_freeze_count()}', file=sys.stderr))\n"
)


def _buffered_env(*paths: Path) -> dict[str, str]:
    """The environment with ``paths`` and the package on PYTHONPATH, and
    stdout block-buffered into a pipe, so output that is never flushed is lost."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), str(Path(geocausal.__file__).resolve().parents[1])])
    return env


def _process_entries() -> dict[str, list[str]]:
    """``python -m geocausal``, and the function ``[project.scripts]`` names
    called as the installed script calls it."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^geocausal = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE).groups()
    return {
        "python -m geocausal": [sys.executable, "-m", "geocausal"],
        "script": [sys.executable, "-c", f"import sys; from {module} import {function}; sys.exit({function}())"],
    }


@pytest.mark.parametrize("argv, code, out", [
    (["validate"], 0, "ok: 0 entities, 0 triples\n"), (["why", "ev:missing"], 1, ""),
    (["--help"], 0, "usage: geocausal "),
], ids=["exit-0", "exit-1", "help"])
def test_each_process_entry_freezes_the_heap_on_every_way_out(tmp_path, argv, code, out):
    (tmp_path / "sitecustomize.py").write_text(_FREEZE_PROBE, encoding="utf-8")
    env = _buffered_env(tmp_path)
    for entry, command in _process_entries().items():
        done = subprocess.run([*command, *argv, "--workspace", str(tmp_path / "absent.graph")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == code and done.stdout.startswith(out), (entry, done.stdout, done.stderr)
        [frozen] = [int(line.split()[-1]) for line in done.stderr.splitlines() if line.startswith("freeze count ")]
        assert frozen > 0, (entry, done.stderr)
        if code == 1:
            assert done.stderr.startswith("error[unknown-entity]: no entity with id 'ev:missing'"), entry


def test_a_frozen_exit_writes_all_of_a_large_export(tmp_path):
    """``export --format json`` through ``python -m geocausal`` on 1,000
    events: standard output is ``graph_to_json`` byte for byte."""
    graph = KnowledgeGraph()
    for i in range(1000):
        graph.add_entity(GeoEvent(f"ev:e{i:04d}", "Flood"))
        graph.add_entity(SpatioTemporalRegion(f"reg:e{i:04d}", Point(30.0, -90.0 + i / 100), iv(i, i + 1)))
        graph.add_triple(f"ev:e{i:04d}", RelationKind.SPATIO_TEMPORALLY_PRESENT, f"reg:e{i:04d}")
        if i:
            graph.add_triple(f"ev:e{i - 1:04d}", RelationKind.CAUSES, f"ev:e{i:04d}")
    workspace = tmp_path / "large.graph"
    workspace.write_text(dump_graph(graph), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "geocausal", "export", "--format", "json",
                           "--workspace", str(workspace)], cwd=tmp_path, env=_buffered_env(), capture_output=True)
    assert done.returncode == 0 and done.stderr == b""
    expected = graph_to_json(graph).encode("utf-8")
    assert len(expected) > 500_000 and done.stdout == expected


def test_main_called_in_process_does_not_freeze(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["validate", "--workspace", str(tmp_path / "absent.graph")]) == 0
    assert main(["why", "ev:missing", "--workspace", str(tmp_path / "absent.graph")]) == 1
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == frozen
