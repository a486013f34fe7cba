"""
The benchmark's output contract, on the current sources.

``perfbench/run.py`` must exit 0 and end its standard output with one
JSON result that has ``correct: true`` and exactly the metric names that
``BENCHMARK.json`` declares: the per-layer ones for a traced run, the
end-to-end ones otherwise.  A metric goes missing when a function the
traced replay probes is gone, and the last line stops being the result
when something prints after it; neither makes the run fail by itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the benchmark result")


@pytest.mark.parametrize(
    "workload, trace, names",
    [
        ("characterize-q8", 1, "per_layer"),
        ("census-q4", 1, "per_layer"),
        ("search-q8", 1, "per_layer"),
        ("export-q16", 1, "per_layer"),
        ("census-q4", 0, "end_to_end"),
    ],
)
def test_benchmark_output_contract(workload, trace, names):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    dump = ROOT / ".bench_out" / f"trace-{workload}-seed1.json"
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    finally:
        dump.unlink(missing_ok=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[names])
