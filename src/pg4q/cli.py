"""
Command line front end and file formats.

Family file format (text, one record per line)::

    PG4Q v1 q=<int> mod=<int> kind=<points|solids> [nucleus=<c,c,c,c,c>]
    <5 space-separated integers in [0, q)>
    ...

Records are canonical (first nonzero coordinate 1), unique, and sorted
by canonical index, so exports are byte-for-byte reproducible.  Reports
are emitted as JSON with a fixed key order, sorted arrays, and spectra
as {value: multiplicity} maps; ``h`` is an integer when q^2/2 divides
the family size and a "p/q" string otherwise.

Exit codes: 0 success / accepted, 1 rejected (ViolatesI, failed quasi
check, or a search survivor without a quadratic fit), 2 bad arguments,
malformed input, an unwritable output path or not enough memory,
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import (
    QUADRIC_VERDICT,
    QUASI_VERDICT,
    VIOLATES_I,
    Report,
    Verdict,
    characterize,
    check_condition_I,
    solid_spectrum,
    verify_hyperbolic_spectra,
)
from .gf import GF
from .pg import Geometry, InconsistencyError, normalize
from .quadric import canonical_q4, classify_all_solids, nucleus, zero_set
from .quasi import QuasiCandidate, exhaustive_search_q2, is_quasi_quadric, search_quasi

HEADER_TAG = "PG4Q v1"
SUPPORTED_Q = (2, 4, 8, 16)


class FormatError(ValueError):
    """Malformed family file."""


@dataclass
class FamilyFile:
    q: int
    modulus: int
    kind: str
    nucleus: tuple | None
    records: tuple


def write_family_file(path, field: GF, kind: str, records, nucleus=None) -> None:
    """Write records, a sequence of 5-tuples or an (N, 5) array, under a PG4Q v1 header."""
    parts = [HEADER_TAG, f"q={field.q}", f"mod={field.modulus}", f"kind={kind}"]
    if nucleus is not None:
        parts.append("nucleus=" + ",".join(str(x) for x in nucleus))
    flat = tuple(np.asarray(records, dtype=np.int64).reshape(-1).tolist())
    with open(path, "w") as fh:
        fh.write(" ".join(parts) + "\n")
        fh.write(("%d %d %d %d %d\n" * len(records)) % flat)


def read_family_file(path) -> FamilyFile:
    with open(path) as fh:
        raw = [line.strip() for line in fh]
    lines = [line for line in raw if line]
    if not lines or not lines[0].startswith(HEADER_TAG):
        raise FormatError("missing PG4Q v1 header")
    fields = {}
    for token in lines[0][len(HEADER_TAG) :].split():
        if "=" not in token:
            raise FormatError(f"bad header token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    try:
        q = int(fields["q"])
        modulus = int(fields["mod"])
        kind = fields["kind"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}") from exc
    if q not in SUPPORTED_Q:
        raise FormatError(f"unsupported field order q={q}")
    if kind not in ("points", "solids"):
        raise FormatError(f"unsupported kind {kind!r}")
    try:
        field = GF.from_order(q, modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    nuc = None
    if "nucleus" in fields:
        try:
            nuc = tuple(int(x) for x in fields["nucleus"].split(","))
        except ValueError as exc:
            raise FormatError("bad nucleus header") from exc
        if len(nuc) != 5:
            raise FormatError("nucleus does not have 5 entries")
        _check_canonical(field, "nucleus", nuc)
    records = []
    seen = set()
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != 5:
            raise FormatError(f"record {line!r} does not have 5 entries")
        try:
            rec = tuple(int(t) for t in toks)
        except ValueError as exc:
            raise FormatError(f"non-integer record {line!r}") from exc
        _check_canonical(field, "record", rec)
        if rec in seen:
            raise FormatError(f"duplicate record {rec}")
        seen.add(rec)
        records.append(rec)
    return FamilyFile(q=q, modulus=modulus, kind=kind, nucleus=nuc, records=tuple(records))


def _check_canonical(field: GF, what: str, vec: tuple) -> None:
    if any(not 0 <= x < field.q for x in vec):
        raise FormatError(f"{what} {vec} out of range for q={field.q}")
    if normalize(field, vec) != vec:
        raise FormatError(f"{what} {vec} is not canonical")


def _indices(geom: Geometry, records: tuple) -> list:
    """Point indices of a family file's records, which read_family_file has checked."""
    return geom.point_indices(np.array(records, dtype=np.uint8).reshape(-1, 5)).tolist()


def _spectrum_json(counter) -> dict:
    return {str(k): int(counter[k]) for k in sorted(counter)}


def _h_json(h: Fraction):
    return int(h) if h.denominator == 1 else f"{h.numerator}/{h.denominator}"


def report_json(report: Report) -> dict:
    """ReportJson with a stable key order and sorted arrays."""
    verdict = {
        "kind": report.verdict.kind,
        "witnesses": [list(w) if isinstance(w, (tuple, list)) else w
                      for w in report.verdict.witnesses],
    }
    if report.verdict.form is not None:
        verdict["form"] = list(report.verdict.form)
    if report.verdict.nucleus is not None:
        verdict["nucleus"] = list(report.verdict.nucleus)
    if report.verdict.details is not None:
        verdict["details"] = report.verdict.details
    return {
        "q": report.q,
        "modulus": report.modulus,
        "family_size": report.family_size,
        "h": _h_json(report.h),
        "colors": {
            "red": report.colors.r,
            "white": report.colors.w,
            "black": report.colors.b,
            "violations": len(report.colors.violations),
        },
        "partition": report.partition,
        "spectra": {name: _spectrum_json(c) for name, c in report.spectra.items()},
        "identities": [
            {"name": i.name, "holds": i.holds, "lhs": int(i.lhs), "rhs": int(i.rhs)}
            for i in report.identities
        ],
        "verdict": verdict,
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _geometry(q: int, modulus: int | None) -> Geometry:
    return Geometry(GF.from_order(q, modulus))


def cmd_verify_lemma1(args) -> int:
    geom = _geometry(args.q, args.modulus)
    form = canonical_q4(geom.field)
    try:
        spectra = verify_hyperbolic_spectra(geom, form)
    except InconsistencyError as exc:
        print(f"spectra verification failed: {exc}", file=sys.stderr)
        return 3
    q = geom.field.q
    expected_points = {
        0: 1,
        q**3 // 2: q**4 - 1,
        (q**3 + q**2) // 2: q**3 + q**2 + q + 1,
    }
    if dict(spectra["points"]) != expected_points:
        print("point spectrum multiplicities are wrong", file=sys.stderr)
        return 3
    classes = classify_all_solids(geom, form)
    fam = classes.hyperbolic
    report = Report(
        q=q,
        modulus=geom.field.modulus,
        family_size=len(fam),
        h=Fraction(len(fam), q * q // 2),
        colors=check_condition_I(geom, fam),
        partition={"h": len(fam), "e": len(classes.elliptic), "t": len(classes.tangent)},
        spectra={**spectra, "solids": solid_spectrum(geom, zero_set(geom, form))},
        identities=(),
        black_hist=None,
        verdict=Verdict(QUADRIC_VERDICT, form=form.coeffs, nucleus=nucleus(form)),
    )
    _emit(report_json(report), args.json)
    return 0


def cmd_characterize(args) -> int:
    try:
        fam_file = read_family_file(args.family)
    except (OSError, FormatError) as exc:
        print(f"cannot read family file: {exc}", file=sys.stderr)
        return 2
    if fam_file.kind != "solids":
        print("characterize expects a file with kind=solids", file=sys.stderr)
        return 2
    if fam_file.q == 16:
        print("characterize supports q in {2, 4, 8}: at q=16 the plane table and its "
              "pencils (17,965,585 rows each) do not fit in memory", file=sys.stderr)
        return 2
    geom = _geometry(fam_file.q, fam_file.modulus)
    indices = _indices(geom, fam_file.records)
    if not indices:
        print("the family must be non-empty", file=sys.stderr)
        return 2
    report = characterize(geom, indices)
    _emit(report_json(report), args.json)
    if report.verdict.kind in (QUADRIC_VERDICT, QUASI_VERDICT):
        return 0
    if report.verdict.kind == VIOLATES_I:
        return 1
    return 3


def cmd_export(args) -> int:
    geom = _geometry(args.q, args.modulus)
    form = canonical_q4(geom.field)
    if args.what == "quadric":
        records = geom.point_array[list(zero_set(geom, form))]
        write_family_file(args.out, geom.field, "points", records, nucleus=nucleus(form))
    else:
        fam = getattr(classify_all_solids(geom, form), args.what)
        write_family_file(args.out, geom.field, "solids", geom.point_array[list(fam)])
    return 0


def cmd_quasi(args) -> int:
    if args.action == "check":
        try:
            fam_file = read_family_file(args.points)
        except (OSError, FormatError) as exc:
            print(f"cannot read point file: {exc}", file=sys.stderr)
            return 2
        if fam_file.kind != "points" or fam_file.nucleus is None:
            print("quasi check expects kind=points with a nucleus header", file=sys.stderr)
            return 2
        geom = _geometry(fam_file.q, fam_file.modulus)
        points = frozenset(_indices(geom, fam_file.records))
        ok, witness = is_quasi_quadric(
            geom, QuasiCandidate(points=points, nucleus=fam_file.nucleus)
        )
        _emit({"quasi_quadric": ok, "witness": _witness_json(witness)}, args.json)
        return 0 if ok else 1

    # search
    if args.q == 2:
        if not args.exhaustive:
            print("q=2 search requires --exhaustive", file=sys.stderr)
            return 2
        geom = _geometry(2, args.modulus)
        hits = exhaustive_search_q2(geom)
        all_fit = all(h.form is not None for h in hits)
        payload = {
            "q": 2,
            "survivors": len(hits),
            "all_fit_nonsingular": all_fit,
        }
        _emit(payload, args.json)
        return 0 if all_fit else 1
    if args.q not in (4, 8):
        print("search supports q in {2, 4, 8}", file=sys.stderr)
        return 2
    geom = _geometry(args.q, args.modulus)
    hits = search_quasi(geom, args.strategy, seed=args.seed, budget=args.budget)
    payload = {
        "q": args.q,
        "strategy": args.strategy,
        "seed": args.seed,
        "budget": args.budget,
        "verified": len(hits),
        "non_quadric": sum(1 for h in hits if h.form is None),
    }
    if args.out and hits:
        # written before the report, so an unwritable path leaves stdout empty
        preferred = next((h for h in hits if h.form is None), hits[0])
        records = geom.point_array[sorted(preferred.candidate.points)]
        write_family_file(
            args.out, geom.field, "points", records, nucleus=preferred.candidate.nucleus
        )
    _emit(payload, args.json)
    return 0


def _witness_json(witness):
    if witness is None:
        return None
    return [list(w) if isinstance(w, (tuple, list)) else w for w in witness]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pg4q",
        description="Exact engine for PG(4,q), q even: quadric spectra, "
        "solid-family characterisation, quasi-quadric search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemma1", help="check the hyperbolic incidence spectra")
    # q=16 is refused: its 17,965,585-row plane table and pencils exhaust memory
    p.add_argument("--q", type=int, required=True, choices=(2, 4, 8))
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--json", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify_lemma1)

    p = sub.add_parser("characterize", help="run the pipeline on a solid family file")
    p.add_argument("--family", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("export", help="write canonical point sets / solid families")
    p.add_argument("--q", type=int, required=True, choices=SUPPORTED_Q)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument(
        "--what",
        required=True,
        choices=("quadric", "hyperbolic", "elliptic", "tangent"),
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("quasi", help="quasi-quadric predicate and search")
    p.add_argument("action", choices=("check", "search"))
    p.add_argument("--points", default=None, help="point file for check")
    p.add_argument("--q", type=int, default=2, choices=(2, 4, 8))
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--strategy", default="switching", choices=("switching",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--json", default=None)
    p.add_argument("--out", default=None, help="save the best search find as a point file")
    p.set_defaults(func=cmd_quasi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "quasi" and args.action == "check" and not args.points:
        parser.error("quasi check requires --points")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # each command reports its own read errors, so this is a failed write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory: this input needs more memory than is available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
