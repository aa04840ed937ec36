"""Scale sweep of the storm-causal workload (not gated).

Run from the root of a checkout:

    python3 bench/sweep.py [--out bench/out/sweep-1.json]

For 10^2, 10^3, 10^4 and 10^5 events it generates the storm-causal inputs,
ingests them in-process and times ``infer`` three times on fresh graphs:
with all rules (``infer_s``, ``engine.derived``), with the cause rules only
and with no rules; ``engine.cau_s`` is the cause-only time minus the
no-rule time. Each size runs in its own child process, killed after
``CAP_S`` seconds; the sweep stops at the first size that hits the cap.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SIZES = (100, 1000, 10000, 100000)
CAP_S = 120.0
SEED = 1
ROOT = Path.cwd()


def measure(events: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from generate import generate
    from geocausal.engine import infer
    from geocausal.graph import KnowledgeGraph
    from geocausal.ingest import ingest_storm_csv
    from geocausal.rules import RuleSet, parse_rules

    inputs = generate("storm-causal", SEED, events)
    rules = parse_rules(inputs.files[inputs.rules_file].decode())

    def timed(ruleset):
        graph = KnowledgeGraph()
        ingest_storm_csv(graph, io.StringIO(inputs.files["storm.csv"].decode()))
        start = time.perf_counter()
        result = infer(graph, ruleset)
        return time.perf_counter() - start, result

    none_s, _ = timed(RuleSet())
    cau_s, _ = timed(RuleSet(cause_rules=rules.cause_rules))
    infer_s, result = timed(rules)
    return {"events": len(inputs.events), "infer_s": infer_s, "engine.cau_s": cau_s - none_s,
            "engine.derived": len(result.derived)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(measure(args.point)))
        return 0
    if not (ROOT / "src" / "geocausal").is_dir():
        print("error: run from the root of a geocausal checkout", file=sys.stderr)
        return 2

    points = []
    for size in SIZES:
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--point", str(size)],
                capture_output=True, text=True, timeout=CAP_S, check=True,
            )
        except subprocess.TimeoutExpired:
            points.append({"events": size, "capped": True, "cap_s": CAP_S})
            print(f"{size:>7} events: over the {CAP_S:.0f} s cap; stopping")
            break
        point = json.loads(child.stdout.strip().splitlines()[-1])
        point["requested"] = size
        points.append(point)
        print(f"{size:>7} events: infer_s {point['infer_s']:9.3f}  engine.cau_s "
              f"{point['engine.cau_s']:9.3f}  engine.derived {point['engine.derived']}")

    record = {
        "workload": "storm-causal",
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "cpus": os.cpu_count(),
        "points": points,
    }
    out = args.out or ROOT / "bench" / "out" / f"sweep-{SEED}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
