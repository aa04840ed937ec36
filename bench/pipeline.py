"""The workload's ``geocausal`` command sequence: building it, running it
as child processes, and checking each command's output."""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from closure import Closure

WHY_PER_RUN = 3
WHY_PER_BATCH = 1
CHILD_TIMEOUT_S = 120
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
DERIVED_PREDICATES = ("causes", "effects", "satisfies", "affects")


# --------------------------------------------------------------------------
# Steps
# --------------------------------------------------------------------------


@dataclass
class Step:
    """One ``geocausal`` command of a workload and what its output must show."""

    kind: str  # ingest | infer | why | export
    sub: str | None = None  # ingest: storm | obs
    path: Path | None = None  # ingest: the CSV file
    target: str | None = None  # why: the event
    fmt: str | None = None  # export: json | dot
    rules: Path | None = None  # infer: rule file to record, if any
    expect_rejected: int | None = None  # ingest: rows reported as errors
    expect_derived: int | None = None  # infer: triples newly derived
    expect_skips: int | None = None  # infer: SKIP diagnostics printed
    expect_in: int | None = None  # why: causal edges into the root

    def argv(self, workspace: Path) -> list[str]:
        if self.kind == "ingest":
            args = ["ingest", self.sub, str(self.path)]
        elif self.kind == "infer":
            args = ["infer"] + (["--rules", str(self.rules)] if self.rules else [])
        elif self.kind == "why":
            args = ["why", self.target]
        else:
            args = ["export", "--format", self.fmt]
        return args + ["--workspace", str(workspace)]


def build_steps(inputs, closures, directory: Path) -> list[Step]:
    """The workload's command sequence, with the expected output of each
    command taken from ``closures`` (see ``closures_for``)."""

    rng = random.Random(f"why:{inputs.workload}:{inputs.seed}")
    steps: list[Step] = []
    sub = "obs" if inputs.workload == "dam-effects" else "storm"
    n_batches = len(inputs.batches)
    per_batch_why = WHY_PER_RUN if n_batches == 1 else WHY_PER_BATCH
    for k, names in enumerate(inputs.batches, 1):
        for name in names:
            steps.append(Step("ingest", sub=sub, path=directory / name,
                              expect_rejected=inputs.rejected.get(name, 0)))
        closure = closures[k - 1]
        before = len(closures[k - 2].derived) if k > 1 else 0
        steps.append(Step(
            "infer", rules=directory / inputs.rules_file if k == 1 else None,
            expect_derived=len(closure.derived) - before,
            expect_skips=len(closure.diagnostics),
        ))
        in_batch = sorted(e.id for e in inputs.events if n_batches == 1 or e.batch == k)
        pool = [e for e in in_batch if closure.incoming(e) > 0] or in_batch
        for target in rng.sample(pool, min(per_batch_why, len(pool))):
            steps.append(Step("why", target=target, expect_in=closure.incoming(target)))
    steps.append(Step("export", fmt="json"))
    steps.append(Step("export", fmt="dot"))
    return steps


def closures_for(inputs):
    """Expected closure after each batch: element k-1 covers batches 1..k."""
    return [Closure(inputs, event_filter=lambda e, k=k: e.batch <= k)
            for k in range(1, len(inputs.batches) + 1)]


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    out: str
    err: str
    wall: float  # seconds
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident set size of the command's own process
    probe_s: float = 0.0  # host probe time around the command (see ``probe``)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("GEOCAUSAL_WORKSPACE", None)
    return env


def run_cli(argv: list[str], work: Path, env: dict) -> CliRun:
    """Run ``geocausal <argv>`` and reap it with ``os.wait4`` for its own
    CPU time (RUSAGE_CHILDREN would accumulate over all children); its
    peak memory comes from ``cli_child.py``."""
    out_path, err_path, rss_path = work / "stdout.txt", work / "stderr.txt", work / "rss.txt"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CLI_CHILD), str(rss_path), *argv],
                                stdout=out, stderr=err, cwd=work, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        int(rss_path.read_text(encoding="ascii")) / 1024.0 if rss_path.exists() else 0.0,
    )


def probe() -> float:
    """Seconds a fixed task of the benchmark's own takes now.

    The task (building and reading a dict, integer arithmetic) runs no
    geocausal code, so only the host's speed moves it. On a shared
    machine that speed drifts by tens of percent within a minute; timing
    this task right before and after each command tells the run how fast
    the host was while the command ran.
    """
    start = time.perf_counter()
    table = {f"k{i}": (i, str(i), [i]) for i in range(6000)}
    total = 0
    for i in range(0, 6000, 3):
        total += table[f"k{i}"][0]
    for i in range(30000):
        total += i * i
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def check_step(step: Step, run: CliRun, expected_lines: list[str]) -> str | None:
    """None if the command's output is right, else what was wrong."""
    if run.code != 0:
        return f"exit {run.code}: {run.err.strip()[-300:]}"
    if step.kind == "ingest":
        errors = [line.split()[1] for line in run.out.splitlines() if line.startswith("errors:")]
        if errors != [str(step.expect_rejected)]:
            return f"ingest: expected {step.expect_rejected} rejected rows, got {errors}"
    elif step.kind == "infer":
        lines = run.out.splitlines()
        head = lines[0].split() if lines else []
        if len(head) < 2 or head[0] != "derived" or head[1] != str(step.expect_derived):
            return f"infer: expected {step.expect_derived} derived, got {lines[:1]}"
        skips = sum(1 for line in lines if line.startswith("SKIP "))
        if skips != step.expect_skips:
            return f"infer: expected {step.expect_skips} SKIP lines, got {skips}"
    elif step.kind == "why":
        lines = run.out.splitlines()
        if not lines or not lines[0].startswith(step.target + " "):
            return f"why {step.target}: unexpected first line {lines[:1]}"
        direct = sum(1 for line in lines if line.startswith("  <- "))
        if direct != step.expect_in:
            return f"why {step.target}: expected {step.expect_in} direct causes, got {direct}"
    elif step.kind == "export" and step.fmt == "json":
        try:
            doc = json.loads(run.out)
            got = sorted(f"{t['subject']} {t['predicate']} {t['object']} {t['rule']}"
                         for t in doc["triples"] if t["provenance"] == "derived")
        except (ValueError, KeyError, TypeError) as exc:
            return f"export json: unreadable ({exc})"
        if got != expected_lines:
            return f"export json: derived triples differ ({len(got)} vs {len(expected_lines)} expected)"
    elif step.kind == "export":
        if not (run.out.startswith("digraph") and run.out.rstrip().endswith("}")):
            return "export dot: not a digraph document"
    return None


def read_back(work: Path, workspace: Path, env: dict):
    """Derived triples with their rule ids, through ``geocausal query``."""
    lines, runs = [], []
    for predicate in DERIVED_PREDICATES:
        run = run_cli(["query", f"? {predicate} ?", "--workspace", str(workspace)], work, env)
        runs.append(run)
        for line in run.out.splitlines():
            if " [derived rule=" in line:
                triple, rule = line.split(" [derived rule=", 1)
                lines.append(f"{triple} {rule.rstrip(']')}")
    return sorted(lines), runs


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# --------------------------------------------------------------------------
# Pipeline passes
# --------------------------------------------------------------------------


def fresh_workspace(inputs, work: Path) -> Path:
    workspace = work / "workspace.graph"
    if workspace.exists():
        workspace.unlink()
    if inputs.base_workspace:
        shutil.copyfile(work / inputs.base_workspace, workspace)
    return workspace


def run_pipeline(inputs, steps, work: Path, env: dict, expected_lines, failures: list):
    """One pass of the command sequence; returns per-command CLI runs,
    each with the host probe timed around it."""
    workspace = fresh_workspace(inputs, work)
    runs = []
    for step in steps:
        before = probe()
        run = run_cli(step.argv(workspace), work, env)
        run.probe_s = (before + probe()) / 2
        runs.append((step, run))
        problem = check_step(step, run, expected_lines)
        if problem:
            failures.append(problem)
    return workspace, runs
