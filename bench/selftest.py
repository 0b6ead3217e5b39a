"""Self-test of the benchmark: every workload at toy size, both modes.

Run from the repository root:

    python3 bench/selftest.py

Each workload runs for one second, once untraced and once traced. The
test asserts that the last output line has exactly the keys the contract
names, that every metric named in ``BENCHMARK.json`` is
emitted with its declared unit (the end-to-end ones untraced and non-zero,
the per-layer ones traced), and that every name matches ``[A-Za-z0-9_.-]+``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list[dict], label: str, nonzero: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["correct"], bool), label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{label}: missing {sorted({m['name'] for m in declared} - set(metrics))}, "
        f"extra {sorted(set(metrics) - {m['name'] for m in declared})}"
    )
    for m in declared:
        got = metrics[m["name"]]
        assert NAME.match(m["name"]), f"{label}: bad name {m['name']!r}"
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']!r}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (
            f"{label}: {m['name']} value {got['value']!r}"
        )
        if nonzero:
            assert got["value"] != 0, f"{label}: {m['name']} is 0"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert NAME.match(w["name"]), w["name"]
        check(run(w["name"], 0), spec["end_to_end"], f"{w['name']} trace 0", nonzero=True)
        check(run(w["name"], 1), spec["per_layer"], f"{w['name']} trace 1", nonzero=False)
        print(f"{w['name']}: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
