import json

import pytest

from geocausal.cli import main
from geocausal.rules import print_rules

from support import build_chain_case, katrina_csv

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
        assert err.startswith("error[provenance-cycle]: ")

    def test_rules_check_ok(self, capsys, rules_file, workspace):
        code, out, _ = run(capsys, "rules", "check", rules_file)
        assert code == 0
        assert "1 precondition set(s), 2 cause rule(s)" in out

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

    def test_surrogate_prefix_is_rejected(self, capsys, tmp_path, workspace, storm_file):
        # A non-UTF-8 argv byte such as b"\xff" reaches argparse as a lone surrogate.
        listing = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(
            capsys, "ingest", "storm", storm_file, "--prefix", "x\udcff:", "--workspace", workspace
        )
        assert code == 1
        assert "error[invariant-violation]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

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
