"""The output gate: every named output still has its recorded digest.

A failure lists the outputs that moved. If a change means to move them,
re-record with ``tests/record_golden.py`` and say which moved and why.
"""

import json
import random

import pytest

from geocausal.engine import infer
from geocausal.graph import RelationKind, Role
from geocausal.query import why
from geocausal.rules import PreconditionSet, RuleSet, Truth
from record_golden import (
    CAUSAL_SEEDS, CONFIGS, ENGINE_SEEDS, GOLDEN, causal_digests, cli_digests, ingest_digests, library_digests,
    load_digests, moved,
)
from support import CSV_CHANGES, MUTATIONS, random_causal_case, random_engine_case

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _recorded(prefix: str) -> dict[str, str]:
    return {name: digest for name, digest in RECORDED.items() if name.startswith(prefix)}


def test_library_outputs_are_unchanged():
    assert moved(_recorded("library/"), library_digests()) == []


def test_causal_outputs_are_unchanged():
    assert moved(_recorded("causal/"), causal_digests()) == []


def test_cli_outputs_are_unchanged():
    assert moved(_recorded("cli/"), cli_digests()) == []


def test_load_outcomes_are_unchanged():
    """Both readers refuse each mutated document with the same line and
    message as before, and load the others into the same graph."""
    assert moved(_recorded("load/"), load_digests()) == []


def test_ingest_outcomes_are_unchanged():
    """Each changed storm and observation file is refused with the same line
    and message as before, or reports and adds the same, in every mode."""
    assert moved(_recorded("ingest/"), ingest_digests()) == []


def test_the_gate_covers_both_groups():
    assert len(_recorded("library/")) == 2 * (7 + 3 * 4)
    assert len(_recorded("causal/")) == 7 + 3 * 4
    assert _recorded("cli/")
    assert len(_recorded("load/")) == 2 * len(MUTATIONS)
    assert len(_recorded("ingest/")) == 2 * (1 + len(CSV_CHANGES))
    groups = ("library/", "causal/", "cli/", "load/", "ingest/")
    assert set(RECORDED) == set().union(*(_recorded(prefix) for prefix in groups))


def test_the_causal_group_pins_explanations_with_something_to_say():
    """Minimums over the depth-10 why-queries of every causal case, so that
    an edit of the generator cannot quietly empty the gate."""
    queries = non_empty = with_affects = 0
    statuses = set()
    for seed in CAUSAL_SEEDS:
        graph, rules = random_causal_case(random.Random(seed))
        infer(graph, rules)
        for event in graph.entities(Role.EVENT):
            explanation = why(graph, event.id, max_depth=10, rules=rules)
            queries += 1
            non_empty += bool(explanation.edges)
            with_affects += bool(explanation.affects)
            statuses.update(outcome.status for edge in explanation.edges for _, outcome in edge.evidence)
    assert non_empty > queries // 2
    assert with_affects >= queries // 10
    assert statuses == set(Truth)


def _with_twins(rules: RuleSet) -> RuleSet:
    """The rules plus, for each precondition set, a twin whose id sorts after it."""
    twins = tuple(PreconditionSet(p.id + "_TWIN", p.event_kind, p.conditions) for p in rules.preconditions)
    return RuleSet(rules.preconditions + twins, rules.cause_rules)


@pytest.mark.parametrize("twinned", [False, True], ids=["golden-rules", "twinned-rules"])
def test_evidence_names_the_set_r_eff_derived_each_effects_edge_from(twinned):
    """R-EFF's gates do not depend on the precondition, and it visits the
    situation's satisfies edges in id order, so the first satisfied set of
    the event's kind is the one its rule id names, on every golden case.
    With twins, every such situation satisfies two sets of the event's kind."""
    cases = [(random_causal_case(random.Random(seed)), None) for seed in CAUSAL_SEEDS]
    cases += [(random_engine_case(random.Random(seed)), config)
              for config in CONFIGS.values() for seed in ENGINE_SEEDS]
    checked = 0
    for (graph, rules), config in cases:
        if twinned:
            rules = _with_twins(rules)
        infer(graph, rules, config)
        for triple in graph.match(predicate=RelationKind.EFFECTS):
            if not (triple.is_derived and triple.provenance.rule_id.startswith("R-EFF:")):
                continue
            [edge] = [e for e in why(graph, triple.object, max_depth=1, rules=rules).edges if e.triple == triple]
            assert "R-EFF:" + edge.precondition_id == triple.provenance.rule_id
            assert edge.evidence
            checked += 1
    assert checked >= 150
