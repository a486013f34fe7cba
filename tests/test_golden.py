"""
Golden outputs of the command line, byte for byte.

Every case runs one CLI command and records its exit code and the sha256
of each file it writes: ``verify-lemma1`` at q = 2, 4 and 8, ``export`` of
all four kinds at q = 2, 4 and 8, ``characterize`` on the canonical
hyperbolic family and on that family less its first solid (ViolatesI) at
q = 2, 4 and 8, and ``quasi search``, ``quasi check`` and ``characterize``
on the non-quadric find of the complete q=4 switching census (a QUASI
verdict with plane witnesses).  The secant family of that find comes from
``perfbench/ref.py``, which does not import pg4q.  The test runs every
case, and a q=16 hyperbolic export, with Geometry's tuple and dict views
made to fail on read and its subspace tables and (M, q+1) pencil matrix
made to fail on build, so no command reaches them.

``tests/golden.json`` holds the digests.  Regenerate it only when an
output change is intended, from the repository root::

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from pg4q.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
KINDS = ("quadric", "hyperbolic", "elliptic", "tangent")
CENSUS_BUDGET = 262145  # the whole q=4 switching stream


def _run(argv, outputs) -> dict:
    code = main([str(a) for a in argv])
    return {
        "exit": code,
        "sha256": [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs],
    }


def run_cases(work: Path, space) -> dict:
    """Every golden case by name; space is perfbench/ref.py's Space class."""
    got = {}
    for q in (2, 4, 8):
        rep = work / f"lemma1-q{q}.json"
        got[f"verify-lemma1-q{q}"] = _run(["verify-lemma1", "--q", q, "--json", rep], [rep])
        for kind in KINDS:
            out = work / f"{kind}-q{q}.txt"
            got[f"export-{kind}-q{q}"] = _run(
                ["export", "--q", q, "--what", kind, "--out", out], [out]
            )
        hyperbolic = work / f"hyperbolic-q{q}.txt"
        lines = hyperbolic.read_text().splitlines(keepends=True)
        violating = work / f"violating-q{q}.txt"
        violating.write_text("".join(lines[:1] + lines[2:]))
        for label, family in (("hyperbolic", hyperbolic), ("violating", violating)):
            rep = work / f"characterize-{label}-q{q}.json"
            got[f"characterize-{label}-q{q}"] = _run(
                ["characterize", "--family", family, "--json", rep], [rep]
            )

    rep, find = work / "census-q4.json", work / "census-find-q4.txt"
    got["quasi-search-census-q4"] = _run(
        ["quasi", "search", "--q", 4, "--budget", CENSUS_BUDGET, "--json", rep, "--out", find],
        [rep, find],
    )
    rep = work / "census-check-q4.json"
    got["quasi-check-census-q4"] = _run(
        ["quasi", "check", "--points", find, "--json", rep], [rep]
    )
    sp = space(4)
    head, idx = sp.parse_family(find.read_bytes())
    assert head.endswith("nucleus=1,0,0,0,0")
    family = work / "census-family-q4.txt"
    family.write_bytes(sp.family_bytes("solids", sp.section_family(idx, 25)))
    rep = work / "census-characterize-q4.json"
    got["characterize-census-q4"] = _run(
        ["characterize", "--family", family, "--json", rep], [rep]
    )
    return got


def test_golden_outputs(
    tmp_path, reference_space, capsys, no_mirror, no_subspace_table, no_plane_pencils
):
    want = json.loads(GOLDEN.read_text())
    got = run_cases(tmp_path, reference_space)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"outputs differ from tests/golden.json: {changed}"
    report = json.loads((tmp_path / "census-characterize-q4.json").read_text())
    assert report["verdict"]["kind"] == "SatisfiesI-QuasiQuadric"
    assert report["verdict"]["witnesses"]


def test_export_q16_reads_no_mirror(tmp_path, no_mirror, no_subspace_table, no_plane_pencils):
    # q=16 is outside golden.json; the digest was recorded when the export
    # still looked its records up through Geometry.solids
    out = tmp_path / "hyperbolic-q16.txt"
    assert _run(["export", "--q", 16, "--what", "hyperbolic", "--out", out], [out]) == {
        "exit": 0,
        "sha256": ["749b68ac3b7d057c51292d7bc11a28653aedd5be02b9570ad7cc443ad6e58680"],
    }


if __name__ == "__main__":
    ref = Path(__file__).resolve().parent.parent / "perfbench" / "ref.py"
    spec = importlib.util.spec_from_file_location("perfbench_ref", ref)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_cases(Path(tmp), module.Space)
    sys.stdout.write(json.dumps(cases, indent=1, sort_keys=True) + "\n")
