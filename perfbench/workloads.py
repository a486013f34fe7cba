"""
The four workloads: inputs made from a seed, the CLI operations that run
on them, the checks of each operation's output, and the traced replay of
each operation.

Every timed operation is one call of ``pg4q.cli.main(argv)`` on PG4Q v1
files.  Expected outputs come from ``ref`` (the definitions) or, for the
q=16 exports, from the output digests of commit c04b107; never from the
pg4q functions being measured.

A replay repeats one command by calling the public functions the command
calls, in the same order, under spans.  Lazy tables that the command
builds inside its main call are built first, each under its own span, on
the same fresh Geometry, so their build cost and their use cost stay
apart.  The replay writes its own copy of the outputs, which must equal
the command's outputs byte for byte.  Probes then call the stages inside
the main call one by one on the warm Geometry; they belong to the same
operation but to a separate root span, so the replay stays comparable
with the untraced command.  A probe whose public function no longer
exists is skipped and its metric left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import numpy as np

import pg4q.cli as cli
import pg4q.families as families
import pg4q.quadric as quadric
import pg4q.quasi as quasi
from pg4q.gf import GF
from pg4q.pg import Geometry

from ref import CANONICAL_FORM, CANONICAL_NUCLEUS, Space, gaussian_binomial, sha256
from spans import Tracer

QUADRIC = "SatisfiesI&II-Quadric"
QUASI = "SatisfiesI-QuasiQuadric"
VIOLATES = "ViolatesI"

# Output digests of the seed commit (c04b107), which the tests pin too.
EXPORT_Q16_SHA256 = {
    "quadric": "6984cc975087ed72b8d800d87ce6122120fb7f8c478c603a1eb9253b9981a17c",
    "hyperbolic": "749b68ac3b7d057c51292d7bc11a28653aedd5be02b9570ad7cc443ad6e58680",
    "tangent": "d5627b6be129c496a3aab8977b8630ac9370dcc3b300da0df694304aac8af0e2",
}
# (verified, non-quadric) hits of the deterministic switching stream.
SEARCH_HITS = {(8, 20000): (1, 0), (4, 262145): (48, 47)}


@dataclass
class Op:
    kind: str
    argv: list
    outputs: list  # the files the command writes, in a fixed order
    exit_code: int
    check: Callable  # list of output bytes -> list of problems
    replay: Callable  # (Tracer, output paths) -> state for the probes
    probes: Callable = lambda tr, state: None
    candidates: int = 0  # candidates the command decides, for candidates_per_s


@dataclass
class Result:
    seconds: float
    problems: list
    outputs: list = field(default_factory=list)


def run_cli(op: Op) -> Result:
    """One timed, checked call of the CLI entry point."""
    for p in op.outputs:
        p.unlink(missing_ok=True)
    sink = io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([str(a) for a in op.argv])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any exception is a failed operation, never a crash
        code = None
        problems.append(traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    if code != op.exit_code:
        problems.append(f"exit code {code}, expected {op.exit_code}: {sink.getvalue()[-300:]}")
    outputs = [p.read_bytes() if p.is_file() else None for p in op.outputs]
    if None in outputs:
        problems.append("an output file is missing")
    elif not problems:
        try:
            problems += op.check(outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return Result(seconds, problems, outputs)


def run_traced(tr: Tracer, op: Op, work: Path, expected: list) -> list:
    """Replay and probe one operation; returns its problems, if any."""
    outs = [work / ("traced-" + p.name) for p in op.outputs]
    for p in outs:
        p.unlink(missing_ok=True)
    try:
        with tr.span("op." + op.kind):
            state = op.replay(tr, outs)
        with tr.span("probe." + op.kind):
            op.probes(tr, state)
    except Exception:  # a replay that breaks fails its operation, not the run
        return ["traced replay failed: " + traceback.format_exc(limit=3)]
    got = [p.read_bytes() if p.is_file() else None for p in outs]
    return [] if got == expected else ["traced replay output differs from the CLI output"]


# -- stages shared by the replays --------------------------------------------


def _call(tr: Tracer, name: str, fn, *args, **kwargs):
    """Call fn under a span, or note the span as missing when fn is gone."""
    if fn is None:
        tr.missing.add(name)
        return None
    with tr.span(name):
        return fn(*args, **kwargs)


def _geometry(tr: Tracer, q: int, modulus) -> Geometry:
    with tr.span("gf.field_build"):
        f = GF.from_order(q, modulus)
    with tr.span("pg.geometry_build"):
        return Geometry(f)


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, list):
        return sum((m.bit_length() + 7) // 8 for m in obj)
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _build_tables(tr: Tracer, geom: Geometry, nucleus=None) -> None:
    """Build the lazy tables characterize uses, one span each."""
    table = getattr(geom, "subspace_table", None)
    built = [
        _call(tr, "pg.subspace_table.lines", table, 1),
        _call(tr, "pg.subspace_table.planes", table, 2),
        _call(tr, "pg.solid_masks",
              (lambda: geom.solid_masks) if hasattr(type(geom), "solid_masks") else None),
        _call(tr, "pg.plane_pencils", getattr(geom, "plane_pencils", None)),
    ]
    tr.count("pg.table_mb", sum(_nbytes(b) for b in built if b is not None) / 1e6)
    if nucleus is not None:
        _call(tr, "pg.nline_partition", getattr(geom, "nline_partition", None),
              geom.point_index[tuple(nucleus)])


def _emit(tr: Tracer, payload: dict, path: Path) -> None:
    with tr.span("cli.emit_json"):
        path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_family(tr: Tracer, path: Path, geom: Geometry, kind: str, records, nucleus=None):
    with tr.span("cli.write_family_file"):
        cli.write_family_file(path, geom.field, kind, records, nucleus=nucleus)
        tr.count("cli.bytes_written", path.stat().st_size)


# -- characterize --------------------------------------------------------------


def characterize_op(sp: Space, family: Path, out: Path, check, path: str, nucleus=None) -> Op:
    """path is the branch characterize is expected to take: quadric, quasi or violates."""

    def replay(tr, outs):
        with tr.span("cli.read_family_file"):
            ff = cli.read_family_file(family)
        geom = _geometry(tr, ff.q, ff.modulus)
        indices = [geom.solid_index[rec] for rec in ff.records]
        if path != "violates":
            _build_tables(tr, geom, nucleus if path == "quasi" else None)
        with tr.span("families.characterize"):
            report = families.characterize(geom, indices)
        with tr.span("cli.report_json"):
            payload = cli.report_json(report)
        _emit(tr, payload, outs[0])
        return {"geom": geom, "indices": indices}

    def probes(tr, state):
        geom, indices = state["geom"], state["indices"]
        _call(tr, "pg.incidence_counts_per_point",
              getattr(geom, "incidence_counts_per_point", None), indices)
        colors = _call(tr, "families.check_condition_I",
                       getattr(families, "check_condition_I", None), geom, indices)
        if colors is None or colors.violations:
            return
        part = _call(tr, "families.partition_solids",
                     getattr(families, "partition_solids", None), geom, indices, colors)
        _call(tr, "families.structure_counts", getattr(families, "structure_counts", None),
              geom, indices, colors, partition=part)
        _call(tr, "families.check_condition_II",
              getattr(families, "check_condition_II", None), geom, indices)
        _call(tr, "quadric.line_profile", getattr(quadric, "line_profile", None),
              geom, colors.black)
        form = _call(tr, "families.fit_quadratic_form",
                     getattr(families, "fit_quadratic_form", None), geom, colors.black)
        if path == "quadric" and form is not None:
            _call(tr, "quadric.classify_all_solids",
                  getattr(quadric, "classify_all_solids", None), geom, form)
        if path == "quasi":
            _call(tr, "quasi.solids_meeting_in", getattr(quasi, "solids_meeting_in", None),
                  geom, colors.black, (sp.q + 1) ** 2)

    return Op(
        kind="characterize-" + path,
        argv=["characterize", "--family", family, "--json", out],
        outputs=[out],
        exit_code=1 if path == "violates" else 0,
        check=lambda outs: check(json.loads(outs[0])),
        replay=replay,
        probes=probes,
        # every point is coloured; on census-q4 only the search counts
        candidates=0 if path == "quasi" else sp.n,
    )


def _common_problems(d: dict, want: dict) -> list:
    return [f"{k}: got {d.get(k)!r}, expected {v!r}" for k, v in want.items() if d.get(k) != v]


def _identity_problems(d: dict) -> list:
    ids = d.get("identities") or []
    bad = [i["name"] for i in ids if not i["holds"]]
    if not ids or bad:
        return [f"identities missing or failing: {bad}"]
    return []


def _spectrum_problems(sp: Space, d: dict, h: int, e: int, t: int) -> list:
    """Spectra a quadric's hyperbolic family must have (Lemma 1 and the section counts)."""
    q = sp.q
    n1 = q**3 + q**2 + q + 1
    spec = d.get("spectra", {})
    want = {
        "points": {0: 1, q**3 // 2: q**4 - 1, (q**3 + q**2) // 2: n1},
        "solids": {q * q + 1: e, q * q + q + 1: t, (q + 1) ** 2: h},
    }
    menus = {
        "lines": ({0, q * (q - 1) // 2, q * q // 2, q * (q + 1) // 2, q * q},
                  gaussian_binomial(5, 2, q)),
        "planes": ({0, q // 2, q}, gaussian_binomial(5, 3, q)),
    }
    problems = []
    for name, hist in want.items():
        if spec.get(name) != {str(k): v for k, v in sorted(hist.items())}:
            problems.append(f"{name} spectrum {spec.get(name)}")
    for name, (menu, total) in menus.items():
        got = {int(k): v for k, v in spec.get(name, {}).items()}
        if not set(got) <= menu or sum(got.values()) != total:
            problems.append(f"{name} spectrum {spec.get(name)}")
    return problems


def quadric_report_check(sp: Space, coeffs, m, verdict: str = QUADRIC):
    """Report of the hyperbolic family of x -> f(m x), f the canonical form."""
    q = sp.q
    n1 = q**3 + q**2 + q + 1
    h, e = q * q * (q * q + 1) // 2, q * q * (q * q - 1) // 2

    def check(d):
        problems = _common_problems(d, {
            "q": q, "modulus": sp.modulus, "family_size": h, "h": q * q + 1,
            "colors": {"red": 1, "white": q**4 - 1, "black": n1, "violations": 0},
            "partition": {"h": h, "e": e, "t": n1},
        })
        problems += _identity_problems(d) + _spectrum_problems(sp, d, h, e, n1)
        v = d.get("verdict", {})
        if v.get("kind") != verdict:
            return problems + [f"verdict {v.get('kind')!r}, expected {verdict!r}"]
        nuc = v.get("nucleus")
        if nuc is None or tuple(sp.normalize(sp.matvec(m, np.array([nuc])))[0]) != CANONICAL_NUCLEUS:
            problems.append(f"nucleus {nuc} is not the preimage of {CANONICAL_NUCLEUS}")
        if v.get("form") is None or not sp.is_scalar_multiple(v["form"], coeffs):
            problems.append(f"form {v.get('form')} is not a multiple of {coeffs}")
        return problems

    return check


def violation_report_check(sp: Space, size: int, witnesses: list):
    def check(d):
        problems = _common_problems(d, {
            "family_size": size, "partition": None, "identities": [],
        })
        v = d.get("verdict", {})
        if v.get("kind") != VIOLATES or v.get("witnesses") != witnesses:
            problems.append(f"verdict {v.get('kind')!r} with {len(v.get('witnesses', []))} "
                            f"witnesses, expected ViolatesI with {len(witnesses)}")
        if d.get("colors", {}).get("violations") != len(witnesses):
            problems.append("violation count differs from the witnesses")
        return problems

    return check


def quasi_report_check(sp: Space, size: int, nucleus):
    q = sp.q
    n1 = q**3 + q**2 + q + 1

    def check(d):
        problems = _common_problems(d, {
            "q": q, "family_size": size,
            "colors": {"red": 1, "white": q**4 - 1, "black": n1, "violations": 0},
            "partition": {"h": size, "e": sp.n - size - n1, "t": n1},
        })
        problems += _identity_problems(d)
        v = d.get("verdict", {})
        if v.get("kind") != QUASI or not v.get("witnesses"):
            problems.append(f"verdict {v.get('kind')!r}, expected {QUASI!r} with witnesses")
        if v.get("nucleus") != list(nucleus):
            problems.append(f"nucleus {v.get('nucleus')}, expected {list(nucleus)}")
        return problems

    return check


def _random_quadric(sp: Space, rng: Random):
    """A seeded collineation m, the form x -> f(m x) and its zero set."""
    m = sp.random_invertible(rng)
    coeffs = sp.compose(CANONICAL_FORM, m)
    zeros = sp.zero_set(coeffs)
    direct = np.nonzero(sp.evaluate(CANONICAL_FORM, sp.matvec(m, sp.points)) == 0)[0]
    if not np.array_equal(zeros, direct):
        raise RuntimeError("reference composition disagrees with direct evaluation")
    return m, coeffs, zeros


def characterize_q8(seed: int, work: Path) -> list:
    """Two quadric families and one perturbed family, all from the seed."""
    q = 8
    sp = Space(q)
    rng = Random(seed)
    ops = []
    for label in ("a", "b"):
        m, coeffs, zeros = _random_quadric(sp, rng)
        fam = sp.section_family(zeros, (q + 1) ** 2)
        path = work / f"quadric-{label}.txt"
        path.write_bytes(sp.family_bytes("solids", fam))
        ops.append(characterize_op(sp, path, work / f"quadric-{label}.json",
                                   quadric_report_check(sp, coeffs, m), "quadric"))
    m, coeffs, zeros = _random_quadric(sp, rng)
    sizes = sp.incidences(sp.points, sp.points[zeros])
    fam = set(np.nonzero(sizes == (q + 1) ** 2)[0].tolist())
    if rng.random() < 0.5:
        fam.discard(rng.choice(sorted(fam)))
    else:
        fam.add(rng.choice(np.nonzero(sizes == q * q + 1)[0].tolist()))
    fam = sorted(fam)
    counts = sp.colour_counts(fam)
    bad = np.nonzero(~np.isin(counts, (0, q**3 // 2, (q**3 + q**2) // 2)))[0]
    witnesses = [[int(i), int(counts[i])] for i in bad]
    path = work / "perturbed.txt"
    path.write_bytes(sp.family_bytes("solids", fam))
    ops.insert(1, characterize_op(sp, path, work / "perturbed.json",
                                  violation_report_check(sp, len(fam), witnesses), "violates"))
    return ops


# -- quasi search and check --------------------------------------------------------


def search_op(sp: Space, budget: int, seed: int, work: Path, check_find) -> Op:
    q = sp.q
    out, find = work / f"search-q{q}.json", work / f"find-q{q}.txt"
    verified, non_quadric = SEARCH_HITS[(q, budget)]
    want = {"q": q, "strategy": "switching", "seed": seed, "budget": budget,
            "verified": verified, "non_quadric": non_quadric}
    candidates = min(budget, 1 + q**9)  # the stream: the quadric, then q^6 forms x q^3 shifts

    def check(outs):
        got = json.loads(outs[0])
        problems = [] if got == want else [f"search report {got}, expected {want}"]
        return problems + check_find(outs[1])

    def replay(tr, outs):
        geom = _geometry(tr, q, None)
        with tr.span("quasi.search_quasi"):
            hits = quasi.search_quasi(geom, "switching", seed=seed, budget=budget)
        nq = sum(1 for h in hits if h.form is None)
        tr.count("quasi.candidates", candidates)
        tr.count("quasi.hits", len(hits))
        tr.count("quasi.non_quadric_hits", nq)
        tr.count("quasi.hit_ratio", len(hits) / candidates)
        _emit(tr, {"q": q, "strategy": "switching", "seed": seed, "budget": budget,
                   "verified": len(hits), "non_quadric": nq}, outs[0])
        if hits:
            best = next((h for h in hits if h.form is None), hits[0])
            records = sorted(geom.points[i] for i in best.candidate.points)
            _write_family(tr, outs[1], geom, "points", records, best.candidate.nucleus)
        return {}

    return Op(
        kind="search",
        argv=["quasi", "search", "--q", q, "--strategy", "switching", "--seed", seed,
              "--budget", budget, "--json", out, "--out", find],
        outputs=[out, find],
        exit_code=0,
        check=check,
        replay=replay,
        candidates=candidates,
    )


def check_op(points: Path, out: Path, nucleus) -> Op:
    def replay(tr, outs):
        with tr.span("cli.read_family_file"):
            ff = cli.read_family_file(points)
        geom = _geometry(tr, ff.q, ff.modulus)
        pts = frozenset(geom.point_index[rec] for rec in ff.records)
        _call(tr, "pg.nline_partition", getattr(geom, "nline_partition", None),
              geom.point_index[ff.nucleus])
        _call(tr, "pg.solid_masks",
              (lambda: geom.solid_masks) if hasattr(type(geom), "solid_masks") else None)
        with tr.span("quasi.is_quasi_quadric"):
            ok, witness = quasi.is_quasi_quadric(geom, quasi.QuasiCandidate(pts, ff.nucleus))
        if witness is not None:
            witness = [list(w) if isinstance(w, (tuple, list)) else w for w in witness]
        _emit(tr, {"quasi_quadric": ok, "witness": witness}, outs[0])
        return {}

    def check(outs):
        got = json.loads(outs[0])
        return [] if got == {"quasi_quadric": True, "witness": None} else [f"check {got}"]

    return Op(kind="check", argv=["quasi", "check", "--points", points, "--json", out],
              outputs=[out], exit_code=0, check=check, replay=replay)


def search_q8(seed: int, work: Path) -> list:
    """The switching search at q=8; its one find is the canonical quadric."""
    sp = Space(8)
    quadric_file = sp.family_bytes("points", sp.zero_set(CANONICAL_FORM), CANONICAL_NUCLEUS)

    def check_find(data):
        return [] if data == quadric_file else ["the find is not the canonical quadric"]

    return [search_op(sp, 20000, seed, work, check_find)]


def census_q4(seed: int, work: Path) -> list:
    """
    The complete q=4 switching census, then `quasi check` and `characterize`
    on a seeded collineation image of its non-quadric find.  The find comes
    from one untimed census run made here; the timed census must repeat it
    byte for byte.
    """
    q = 4
    sp = Space(q)
    n1 = q**3 + q**2 + q + 1
    header = f"PG4Q v1 q={q} mod={sp.modulus} kind=points nucleus=1,0,0,0,0"
    first = {}

    def check_find(data):
        head, idx = sp.parse_family(data)
        if head != header or len(idx) != n1 or np.any(np.diff(idx) <= 0):
            return ["the find file is malformed"]
        problem = sp.quasi_quadric_problem(idx, CANONICAL_NUCLEUS)
        if problem:
            return [f"the find is not a quasi-quadric: {problem}"]
        if first.setdefault("find", data) != data:
            return ["the census find changed between runs"]
        return []

    search = search_op(sp, 262145, seed, work, check_find)
    warm = run_cli(search)
    if warm.problems:
        raise RuntimeError("census warm-up failed: " + "; ".join(warm.problems))
    _, idx = sp.parse_family(first["find"])
    m = sp.random_invertible(Random(seed))
    image = np.sort(sp.index(sp.normalize(sp.matvec(m, sp.points[idx]))))
    nuc = tuple(int(x) for x in sp.normalize(sp.matvec(m, np.array([CANONICAL_NUCLEUS])))[0])
    problem = sp.quasi_quadric_problem(image, nuc)
    if problem:
        raise RuntimeError(f"reference: the image is not a quasi-quadric: {problem}")
    secants = sp.section_family(image, (q + 1) ** 2)
    points, family = work / "image-points.txt", work / "image-family.txt"
    points.write_bytes(sp.family_bytes("points", image, nuc))
    family.write_bytes(sp.family_bytes("solids", secants))
    return [
        search,
        check_op(points, work / "image-check.json", nuc),
        characterize_op(sp, family, work / "image-report.json",
                        quasi_report_check(sp, len(secants), nuc), "quasi", nuc),
    ]


# -- export ----------------------------------------------------------------------


def export_op(sp: Space, what: str, out: Path, check) -> Op:
    def replay(tr, outs):
        geom = _geometry(tr, sp.q, None)
        form = quadric.canonical_q4(geom.field)
        if what == "quadric":
            with tr.span("quadric.zero_set"):
                zeros = quadric.zero_set(geom, form)
            records = [geom.points[i] for i in zeros]
            _write_family(tr, outs[0], geom, "points", records, quadric.nucleus(form))
        else:
            with tr.span("quadric.classify_all_solids"):
                classes = quadric.classify_all_solids(geom, form)
            records = [geom.solids[i] for i in getattr(classes, what)]
            _write_family(tr, outs[0], geom, "solids", records)
        return {"geom": geom, "form": form}

    def probes(tr, state):
        if what == "hyperbolic":
            geom = state["geom"]
            zeros = quadric.zero_set(geom, state["form"])
            _call(tr, "pg.incidence_counts_per_solid",
                  getattr(geom, "incidence_counts_per_solid", None), zeros)

    return Op(kind="export-" + what,
              argv=["export", "--q", sp.q, "--what", what, "--out", out],
              outputs=[out], exit_code=0, check=lambda outs: check(outs[0]),
              replay=replay, probes=probes, candidates=sp.n)


def exact_file_check(expected: bytes, digest: str):
    def check(data):
        problems = [] if data == expected else ["output differs from the definition"]
        if sha256(data) != digest:
            problems.append("output digest differs from the seed commit's")
        return problems

    return check


def hyperbolic_file_check(sp: Space, digest: str, rng: Random):
    """Digest, size and order, and a seeded sample of records checked from the definition."""
    q = sp.q
    zeros = sp.points[sp.zero_set(CANONICAL_FORM)]
    h = q * q * (q * q + 1) // 2

    def check(data):
        if sha256(data) != digest:
            return ["output digest differs from the seed commit's"]
        head, idx = sp.parse_family(data)
        if head != f"PG4Q v1 q={q} mod={sp.modulus} kind=solids" or len(idx) != h:
            return [f"header {head!r} with {len(idx)} records, expected {h}"]
        if np.any(np.diff(idx) <= 0):
            return ["records are not sorted and unique"]
        rest = sorted(set(range(sp.n)) - set(idx.tolist()))
        k = min(16, len(idx), len(rest))
        sample = np.concatenate([idx[rng.sample(range(len(idx)), k)], rng.sample(rest, k)])
        sizes = sp.incidences(sp.points[sample], zeros)
        if np.any(sizes[:k] != (q + 1) ** 2) or np.any(sizes[k:] == (q + 1) ** 2):
            return ["a sampled solid is misclassified"]
        return []

    return check


def export_q16(seed: int, work: Path) -> list:
    """
    The three exports of the canonical quadric at q=16.  With an odd number
    of commands the median operation is one of the two classifying exports.
    """
    sp = Space(16)
    zeros = sp.zero_set(CANONICAL_FORM)
    tangent = np.nonzero(sp.points[:, 0] == 0)[0]  # the solids through (1,0,0,0,0)
    return [
        export_op(sp, "hyperbolic", work / "hyperbolic-q16.txt",
                  hyperbolic_file_check(sp, EXPORT_Q16_SHA256["hyperbolic"], Random(seed))),
        export_op(sp, "quadric", work / "quadric-q16.txt", exact_file_check(
            sp.family_bytes("points", zeros, CANONICAL_NUCLEUS), EXPORT_Q16_SHA256["quadric"])),
        export_op(sp, "tangent", work / "tangent-q16.txt", exact_file_check(
            sp.family_bytes("solids", tangent), EXPORT_Q16_SHA256["tangent"])),
    ]


WORKLOADS = {
    "characterize-q8": (8, characterize_q8),
    "search-q8": (8, search_q8),
    "census-q4": (4, census_q4),
    "export-q16": (16, export_q16),
}


# -- self-check ----------------------------------------------------------------------


def self_check(work: Path) -> list:
    """
    At q=2, run a characterize and an export whose checks must pass, then
    the same commands against a wrong expected verdict and a wrong digest,
    which must be counted as failures.  Returns what did not behave.
    """
    sp = Space(2)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    zeros = sp.zero_set(CANONICAL_FORM)
    fam = sp.section_family(zeros, 9)
    exported = sp.family_bytes("solids", fam)
    family = work / "self-check-family.txt"
    family.write_bytes(exported)
    cases = [
        ("right verdict", True, characterize_op(
            sp, family, work / "self-check.json",
            quadric_report_check(sp, CANONICAL_FORM, identity), "quadric")),
        ("wrong verdict", False, characterize_op(
            sp, family, work / "self-check.json",
            quadric_report_check(sp, CANONICAL_FORM, identity, verdict=QUASI), "quadric")),
        ("right digest", True, export_op(
            sp, "hyperbolic", work / "self-check-export.txt",
            hyperbolic_file_check(sp, sha256(exported), Random(0)))),
        ("changed digest", False, export_op(
            sp, "hyperbolic", work / "self-check-export.txt",
            hyperbolic_file_check(sp, sha256(exported + b"\n"), Random(0)))),
    ]
    return [name for name, should_pass, op in cases if (not run_cli(op).problems) != should_pass]
