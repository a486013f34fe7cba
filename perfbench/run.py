"""
Benchmark of the pg4q command line on four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports pg4q from ./src and
nothing else, and exits 2 without a result when that is missing.  Scratch
files go to ./.bench_out and are removed at the end, except the span dump
of a traced run.

A round is the workload's fixed list of CLI operations (see workloads.py).
The run repeats whole rounds until --seconds have passed, on one thread
in one process, checking every output.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json, the end-to-end ones with --trace 0 and the per-layer ones
with --trace 1.

End-to-end metrics (--trace 0):
  setup_s           median over 5 fresh interpreters of importing pg4q and
                    building the GF and Geometry of the workload's q
  op_s.p50          median wall time of one CLI operation
  run_s             median over rounds of the summed wall time of its operations
  candidates_per_s  candidates decided per second of command time: the
                    search budget on the search workloads, the n points or
                    solids each command classifies on the other two
  peak_rss_mb       ru_maxrss of this process

Per-layer metrics (--trace 1) come from replays of the same operations:
each is the median over operations of a span's self time or of a count.
A metric whose public function no longer exists is left out; a span that
the workload never enters reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import pg4q
from pg4q.gf import GF
from pg4q.pg import Geometry
Geometry(GF.from_order({q}))
print(time.perf_counter() - t0)
"""

# per-layer metric -> span whose self time it is, or count it is
SELF_TIMES = {
    "gf.field_build_s": "gf.field_build",
    "pg.geometry_build_s": "pg.geometry_build",
    "pg.subspace_table_s.lines": "pg.subspace_table.lines",
    "pg.subspace_table_s.planes": "pg.subspace_table.planes",
    "pg.solid_masks_s": "pg.solid_masks",
    "pg.plane_pencils_s": "pg.plane_pencils",
    "pg.incidence_counts_per_point_s": "pg.incidence_counts_per_point",
    "pg.incidence_counts_per_solid_s": "pg.incidence_counts_per_solid",
    "pg.nline_partition_s": "pg.nline_partition",
    "quadric.classify_all_solids_s": "quadric.classify_all_solids",
    "quadric.zero_set_s": "quadric.zero_set",
    "quadric.line_profile_s": "quadric.line_profile",
    "families.check_condition_I_s": "families.check_condition_I",
    "families.partition_solids_s": "families.partition_solids",
    "families.structure_counts_s": "families.structure_counts",
    "families.check_condition_II_s": "families.check_condition_II",
    "families.fit_quadratic_form_s": "families.fit_quadratic_form",
    "families.characterize_s": "families.characterize",
    "quasi.search_quasi_s": "quasi.search_quasi",
    "quasi.is_quasi_quadric_s": "quasi.is_quasi_quadric",
    "quasi.solids_meeting_in_s": "quasi.solids_meeting_in",
    "cli.read_family_file_s": "cli.read_family_file",
    "cli.report_json_s": "cli.report_json",
    "cli.write_family_file_s": "cli.write_family_file",
}
COUNTS = ("pg.table_mb", "quasi.candidates", "quasi.hits", "quasi.non_quadric_hits",
          "quasi.hit_ratio", "cli.bytes_written")


def measure_setup(q: int) -> float:
    """Median time of a fresh interpreter to import pg4q and build PG(4,q)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    code = SETUP_CODE.format(src=str(SRC), q=q)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "pg4q" / "__init__.py").is_file():
        print(f"perfbench: no pg4q sources under {SRC}", file=sys.stderr)
        return 2

    # one thread, and no bytecode files left in the checkout
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, spec, work, workloads, Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, spec, work: Path, workloads, tr) -> dict:
    q, make = workloads.WORKLOADS[args.workload]
    harness_faults = workloads.self_check(work)
    for fault in harness_faults:
        print(f"self-check: the {fault!r} case did not come out as expected", file=sys.stderr)
    setup_s = None if args.trace else measure_setup(q)

    attempted = failed = 0
    op_times, round_times, cand, cand_time, untraced = [], [], 0, 0.0, []
    try:
        ops = make(args.seed, work)
    except RuntimeError as exc:  # inputs that depend on a failed command
        print(f"cannot build the workload: {exc}", file=sys.stderr)
        ops, attempted, failed = [], 1, 1
    start = time.perf_counter()
    while ops:
        round_s = 0.0
        for op in ops:
            tr.op_id = attempted
            res = workloads.run_cli(op)
            problems = res.problems
            if args.trace and not problems:
                untraced.append(res.seconds)
                problems = workloads.run_traced(tr, op, work, res.outputs)
            attempted += 1
            if problems:
                failed += 1
                print(f"op {op.kind} failed: " + "; ".join(problems), file=sys.stderr)
            op_times.append(res.seconds)
            round_s += res.seconds
            if op.candidates:
                cand += op.candidates
                cand_time += res.seconds
        round_times.append(round_s)
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics = per_layer(tr, untraced, attempted, failed)
        tr.dump(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json")
        names = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(op_times) if op_times else None,
            "run_s": statistics.median(round_times) if round_times else None,
            "candidates_per_s": cand / cand_time if cand_time else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = spec["end_to_end"]
    return {
        "correct": failed == 0 and not harness_faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in names
            if metrics.get(m["name"]) is not None
        },
    }


def per_layer(tr, untraced: list, attempted: int, failed: int) -> dict:
    selfs, counts = tr.self_times(), tr.counts()
    out = {m: selfs.get(span, 0.0) for m, span in SELF_TIMES.items() if span not in tr.missing}
    out.update({c: counts.get(c, 0) for c in COUNTS})
    replays = tr.durations("op.")
    if replays and untraced:
        out["trace.overhead"] = statistics.median(replays) / statistics.median(untraced)
    out["trace.coverage"] = tr.coverage("op.")
    out["error_rate"] = failed / attempted if attempted else None
    return out


if __name__ == "__main__":
    sys.exit(main())
