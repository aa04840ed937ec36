"""The output gate: every named output still has its recorded digest.

A failure lists the outputs that moved. If a change means to move them,
re-record with ``tests/record_golden.py`` and say which moved and why.
"""

import json

from record_golden import GOLDEN, cli_digests, library_digests, moved

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _recorded(prefix: str) -> dict[str, str]:
    return {name: digest for name, digest in RECORDED.items() if name.startswith(prefix)}


def test_library_outputs_are_unchanged():
    assert moved(_recorded("library/"), library_digests()) == []


def test_cli_outputs_are_unchanged():
    assert moved(_recorded("cli/"), cli_digests()) == []


def test_the_gate_covers_both_groups():
    assert len(_recorded("library/")) == 2 * (7 + 3 * 4)
    assert _recorded("cli/")
    assert set(RECORDED) == set(_recorded("library/")) | set(_recorded("cli/"))
