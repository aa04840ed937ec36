"""geocausal benchmark: the CLI pipeline ``ingest -> infer -> why -> export``
on seeded workloads.

Run from the root of a checkout (standard library only):

    python3 bench/run.py --workload storm-causal --seed 1 --seconds 40 --trace 0

Workloads (each stresses a different layer):

  storm-causal    one storm CSV, three cause rules: the R-CAU event x event
                  join dominates ``infer``.
  dam-effects     a generated v1 workspace of dams, dam-setting situations
                  and flood events, plus an observation CSV: R-SAT, R-EFF,
                  R-AFF and ``rules.evaluate`` dominate.
  append-reinfer  four storm batches, each ingested, re-inferred and queried:
                  workspace load/dump and CLI start-up dominate.

``--trace 0`` runs the workload's command sequence as ``geocausal`` child
processes, one at a time, repeating the whole sequence for ``--seconds``,
and reports the end-to-end metrics: each command's median over the passes,
at the reference host speed (see ``pipeline_metrics``; the unscaled
medians are printed too). ``--trace 1`` runs the sequence
through the CLI, then replays it in-process through ``geocausal.cli.main``
with and without the counting wrappers of ``tracing.py`` (see
``traced.py``), and reports per-layer metrics, a per-layer table, the
layer shares and the tracing overhead; spans go to ``bench/out/``.

Every run checks each command's output against the closure computed from
the generator's own model (``closure.py``), reads every derived triple
back through ``geocausal query`` and, at the default seed, compares them
with ``reference.json``. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every output was correct.

Also here: ``sweep.py`` (the storm-causal scaling curve, not gated) and
``test_bench.py`` (checks the expected closure against the test suite's
brute-force oracle: ``python -m pytest bench/test_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from generate import WORKLOADS, generate
from pipeline import (
    build_steps, child_env, closures_for, digest_lines, probe, read_back, run_cli, run_pipeline,
)

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
SETUP_PER_PASS = 3
MIN_ITERATIONS = 3
#: Host probe time that reported times are scaled to (see ``pipeline.probe``);
#: about its median on the 2-core Xeon VM the benchmark was built on.
REFERENCE_PROBE_S = 0.008


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def setup(workload: str, seed: int, directory: Path, repeats: int):
    """Generate and write the inputs ``repeats`` times; returns (inputs,
    seconds per repetition at the reference host speed). Every repetition
    must give the same bytes."""
    directory.mkdir(exist_ok=True)
    times, digests = [], set()
    for _ in range(repeats):
        before = probe()
        start = time.perf_counter()
        inputs = generate(workload, seed)
        inputs.write(directory)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_PROBE_S / (before + probe()))
        digests.add(inputs.digest())
    if len(digests) != 1:
        raise RuntimeError("the generator is not deterministic for this seed")
    return inputs, times


def pipeline_metrics(iterations, scaled: bool = True) -> dict:
    """Each command's time is its median over the passes; metrics sum them.

    ``scaled`` times are at the reference host speed: each sample is
    multiplied by ``REFERENCE_PROBE_S`` over the host probe time measured
    around it. On a shared machine the host's speed drifts by tens of
    percent within a minute, and this cancels that drift, not the cost
    of the program, as the probe runs no geocausal code. ``why_p50_ms``
    is the median over the why commands.
    """
    steps = [step for step, _ in iterations[0]]

    def median(j, attr="wall"):
        return statistics.median(
            getattr(run, attr) * (REFERENCE_PROBE_S / run.probe_s if scaled else 1.0)
            for run in (runs[j][1] for runs in iterations))

    def summed(kind=None, attr="wall"):
        return sum(median(j, attr) for j, step in enumerate(steps) if kind is None or step.kind == kind)

    why_ms = [median(j) * 1000 for j, step in enumerate(steps) if step.kind == "why"]
    return {
        "pipeline_s": (summed(), "s"),
        "pipeline_cpu_s": (summed(attr="cpu"), "s"),
        "ingest_s": (summed("ingest"), "s"),
        "infer_s": (summed("infer"), "s"),
        "why_p50_ms": (statistics.median(why_ms), "ms"),
        "export_s": (summed("export"), "s"),
        "peak_rss_mb": (max(r.rss_mb for runs in iterations for _, r in runs), "MB"),
    }


def run_untraced(args, inputs, steps, work, env, expected_lines, failures, attempted, setup_times):
    """Repeat the command sequence for ``args.seconds``. Between passes the
    inputs are generated again, so set-up samples span the whole run."""
    deadline = time.perf_counter() + args.seconds
    iterations = []
    workspace = None
    while True:
        start = time.perf_counter()
        workspace, runs = run_pipeline(inputs, steps, work, env, expected_lines, failures)
        iterations.append(runs)
        attempted[0] += len(runs)
        again, times = setup(args.workload, args.seed, work / "regenerated", SETUP_PER_PASS)
        setup_times.extend(times)
        if again.digest() != inputs.digest():
            failures.append("setup: the inputs changed between passes")
        now = time.perf_counter()
        if len(iterations) >= MIN_ITERATIONS and now + (now - start) > deadline:
            break
    return iterations, workspace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geocausal" / "cli.py").is_file():
        print(f"error: no geocausal sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    env = child_env(SRC)
    inputs, setup_times = setup(args.workload, args.seed, work, SETUP_REPEATS)
    closures = closures_for(inputs)
    expected_lines = closures[-1].lines()
    steps = build_steps(inputs, closures, work)
    failures: list[str] = []
    attempted = [0]

    # Compile the package once before timing anything.
    warm = run_cli(["rules", "check", str(work / inputs.rules_file)], work, env)
    if warm.code != 0:
        failures.append(f"rules check: exit {warm.code}: {warm.err.strip()[-300:]}")
    attempted[0] += 1

    if args.trace:
        sys.path.insert(0, str(SRC))
        from traced import traced_run  # imports geocausal from the checkout

        metrics, workspace, last_pass = traced_run(args, inputs, steps, work, env, expected_lines,
                                                   failures, attempted, OUT)
    else:
        iterations, workspace = run_untraced(args, inputs, steps, work, env, expected_lines,
                                             failures, attempted, setup_times)
        last_pass = iterations[-1]
        metrics = pipeline_metrics(iterations)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        walls = " ".join(f"{sum(r.wall for _, r in runs):.3f}" for runs in iterations)
        print(f"{len(iterations)} passes of {len(steps)} commands; pass wall s: {walls}")
        probes = [r.probe_s for runs in iterations for _, r in runs]
        print(f"host probe median {statistics.median(probes) * 1000:.3f} ms "
              f"(reference {REFERENCE_PROBE_S * 1000:.3f} ms); unscaled medians: " + ", ".join(
                  f"{name} {value:.4f} {unit}"
                  for name, (value, unit) in pipeline_metrics(iterations, scaled=False).items()))

    # Untimed read-back of every derived triple through ``geocausal query``.
    got, runs = read_back(work, workspace, env)
    attempted[0] += len(runs)
    failures.extend(f"query: exit {r.code}" for r in runs if r.code != 0)
    if got != expected_lines:
        missing = sorted(set(expected_lines) - set(got))[:3]
        extra = sorted(set(got) - set(expected_lines))[:3]
        failures.append(f"query: derived triples differ; missing {missing}, unexpected {extra}")
    last_infer = [r for step, r in last_pass if step.kind == "infer"][-1]
    skips = sum(1 for line in last_infer.out.splitlines() if line.startswith("SKIP "))
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"].get(args.workload)
    if args.seed == DEFAULT_SEED and reference is not None:
        seen = {"inputs_sha256": inputs.digest(), "derived": len(got),
                "derived_sha256": digest_lines(got), "skips": skips,
                "by_rule": dict(sorted(Counter(line.split()[3] for line in got).items()))}
        differ = [key for key, value in seen.items() if reference.get(key) != value]
        if differ:
            failures.append(f"reference: {', '.join(differ)} differ from reference.json")

    failed = len(failures)
    for problem in failures[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {inputs.digest()}")
    print(f"read back {len(got)} derived triples; last infer printed {skips} SKIP diagnostics")
    print(f"{'error_rate':<34} {failed / attempted[0]:>14.6f} ratio  ({failed}/{attempted[0]})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted[0],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "inputs_sha256": inputs.digest(),
         "failures": failures, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
