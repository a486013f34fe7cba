"""Command line surface: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from pg4q import cli
from pg4q.cli import FormatError, main, read_family_file, write_family_file
from pg4q.gf import GF
from pg4q.pg import InconsistencyError


def run(argv):
    return main([str(a) for a in argv])


def test_export_hyperbolic_q2(tmp_path):
    out = tmp_path / "h2.txt"
    assert run(["export", "--q", 2, "--what", "hyperbolic", "--out", out]) == 0
    ff = read_family_file(out)
    assert ff.kind == "solids" and ff.q == 2 and ff.modulus == 3
    assert len(ff.records) == 10


def test_export_elliptic_and_tangent_q2(tmp_path):
    out = tmp_path / "e2.txt"
    assert run(["export", "--q", 2, "--what", "elliptic", "--out", out]) == 0
    assert len(read_family_file(out).records) == 6
    out2 = tmp_path / "t2.txt"
    assert run(["export", "--q", 2, "--what", "tangent", "--out", out2]) == 0
    assert len(read_family_file(out2).records) == 15


def test_export_quadric_q4(tmp_path):
    out = tmp_path / "q4.txt"
    assert run(["export", "--q", 4, "--what", "quadric", "--out", out]) == 0
    ff = read_family_file(out)
    assert ff.kind == "points" and len(ff.records) == 85
    assert ff.nucleus == (1, 0, 0, 0, 0)


def test_export_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(["export", "--q", 2, "--what", "hyperbolic", "--out", a])
    run(["export", "--q", 2, "--what", "hyperbolic", "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_write_family_file_matches_reference(tmp_path, geoms, reference_space):
    out = tmp_path / "fam.txt"
    for q, geom in geoms.items():
        ref = reference_space(q)
        rng = np.random.default_rng(q)
        for size in (0, 1, geom.n // 3):
            idx = np.sort(rng.choice(geom.n, size, replace=False))
            nucleus = geom.points[-1]
            cases = [
                ("points", [geom.points[i] for i in idx], nucleus),
                ("solids", [geom.solids[i] for i in idx], None),
                ("points", list(geom.point_array[idx]), np.array(nucleus, dtype=np.uint8)),
                ("solids", list(geom.point_array[idx].astype(np.int64)), None),
            ]
            for kind, records, nuc in cases:
                write_family_file(out, geom.field, kind, records, nucleus=nuc)
                assert out.read_bytes() == ref.family_bytes(kind, idx, nuc)


def test_characterize_round_trip(tmp_path):
    fam = tmp_path / "h2.txt"
    rep = tmp_path / "rep.json"
    run(["export", "--q", 2, "--what", "hyperbolic", "--out", fam])
    assert run(["characterize", "--family", fam, "--json", rep]) == 0
    data = json.loads(rep.read_text())
    assert data["verdict"]["kind"] == "SatisfiesI&II-Quadric"
    assert data["partition"] == {"h": 10, "e": 6, "t": 15}
    assert data["colors"] == {"red": 1, "white": 15, "black": 15, "violations": 0}
    assert data["h"] == 5
    assert data["spectra"]["points"] == {"0": 1, "4": 15, "6": 15}
    assert all(i["holds"] for i in data["identities"])


def test_characterize_single_solid_exit_1(tmp_path):
    fam = tmp_path / "one.txt"
    field = GF(1)
    write_family_file(fam, field, "solids", [(1, 0, 0, 0, 0)])
    rep = tmp_path / "rep.json"
    assert run(["characterize", "--family", fam, "--json", rep]) == 1
    data = json.loads(rep.read_text())
    assert data["verdict"]["kind"] == "ViolatesI"
    assert data["verdict"]["witnesses"]


def test_characterize_malformed_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("PG4Q v1 q=2 mod=3 kind=solids\n1 0 0\n")
    assert run(["characterize", "--family", bad]) == 2
    missing = tmp_path / "missing.txt"
    assert run(["characterize", "--family", missing]) == 2
    wrong_kind = tmp_path / "pts.txt"
    run(["export", "--q", 2, "--what", "quadric", "--out", wrong_kind])
    assert run(["characterize", "--family", wrong_kind]) == 2


def test_report_json_deterministic(tmp_path):
    fam = tmp_path / "h2.txt"
    run(["export", "--q", 2, "--what", "hyperbolic", "--out", fam])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(["characterize", "--family", fam, "--json", r1])
    run(["characterize", "--family", fam, "--json", r2])
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_lemma1_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify-lemma1", "--q", 2, "--json", rep]) == 0
    data = json.loads(rep.read_text())
    assert data["spectra"]["points"] == {"0": 1, "4": 15, "6": 15}
    assert data["spectra"]["solids"] == {"5": 6, "7": 15, "9": 10}
    assert run(["verify-lemma1", "--q", 4, "--json", str(tmp_path / "r4.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["verify-lemma1", "--q", 3])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def hyperbolic16(tmp_path_factory):
    """The exported q=16 hyperbolic family file."""
    out = tmp_path_factory.mktemp("q16") / "hyperbolic-q16.txt"
    assert run(["export", "--q", 16, "--what", "hyperbolic", "--out", out]) == 0
    return out


def _check_spectra_q16(report: dict, family_size: int) -> None:
    """The q=16 hyperbolic line and plane spectra, and the double counts they must meet."""
    q = 16
    lines = {int(k): v for k, v in report["spectra"]["lines"].items()}
    planes = {int(k): v for k, v in report["spectra"]["planes"].items()}
    assert lines == {0: 4369, 120: 7895040, 128: 1114095, 136: 8947712, 256: 4369}
    assert planes == {0: 594441, 8: 16776960, 16: 594184}
    # each family solid holds q^3+q^2+q+1 planes and (q^2+1)(q^2+q+1) lines
    assert sum(k * v for k, v in planes.items()) == family_size * (q**3 + q**2 + q + 1)
    assert sum(k * v for k, v in lines.items()) == family_size * (q * q + 1) * (q * q + q + 1)


def test_verify_lemma1_q16(tmp_path, hyperbolic16, no_plane_pencils):
    rep = tmp_path / "lemma1-q16.json"
    assert run(["verify-lemma1", "--q", 16, "--json", rep]) == 0
    data = json.loads(rep.read_text())
    assert data["family_size"] == len(read_family_file(hyperbolic16).records) == 32896
    assert data["spectra"]["points"] == {"0": 1, "2048": 65535, "2176": 4369}
    _check_spectra_q16(data, data["family_size"])


def test_characterize_q16_hyperbolic(tmp_path, hyperbolic16, no_plane_pencils):
    rep = tmp_path / "characterize-q16.json"
    assert run(["characterize", "--family", hyperbolic16, "--json", rep]) == 0
    data = json.loads(rep.read_text())
    assert data["verdict"]["kind"] == "SatisfiesI&II-Quadric"
    assert data["identities"] and all(i["holds"] for i in data["identities"])
    assert data["family_size"] == 32896
    _check_spectra_q16(data, data["family_size"])


def test_inconsistency_exit_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InconsistencyError("count filter accepted a non-example")

    monkeypatch.setattr(cli, "search_quasi", broken)
    assert run(["quasi", "search", "--q", 4, "--budget", 10]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "count filter accepted a non-example" in err


def test_memory_error_exit_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "search_quasi", exhausted)
    assert run(["quasi", "search", "--q", 4, "--budget", 10]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "out of memory" in captured.err


def test_quasi_check_quadric(tmp_path):
    pts = tmp_path / "q2.txt"
    run(["export", "--q", 2, "--what", "quadric", "--out", pts])
    assert run(["quasi", "check", "--points", pts]) == 0


def test_quasi_check_perturbed_exit_1(tmp_path, capsys):
    pts = tmp_path / "q2.txt"
    run(["export", "--q", 2, "--what", "quadric", "--out", pts])
    ff = read_family_file(pts)
    field = GF(1)
    # flip one record across its nucleus line: (0,...) <-> (1,...)
    recs = list(ff.records)
    swapped = (1,) + recs[0][1:]
    assert swapped not in recs
    recs[0] = swapped
    bad = tmp_path / "bad.txt"
    write_family_file(bad, field, "points", sorted(recs), nucleus=ff.nucleus)
    assert run(["quasi", "check", "--points", bad]) == 1
    out = json.loads(capsys.readouterr().out)
    # the line condition still holds, so the first bad solid off the nucleus is named
    assert out == {"quasi_quadric": False, "witness": ["solid", 15, 8]}


def test_quasi_check_requires_nucleus(tmp_path):
    pts = tmp_path / "nonuc.txt"
    field = GF(1)
    write_family_file(pts, field, "points", [(0, 0, 0, 0, 1)])
    assert run(["quasi", "check", "--points", pts]) == 2


@pytest.mark.parametrize("nuc", ["1,9,0,0,0", "7,0,0,0,0"])
def test_out_of_range_nucleus_header_exit_2(tmp_path, capsys, nuc):
    pts = tmp_path / "q4.txt"
    run(["export", "--q", 4, "--what", "quadric", "--out", pts])
    pts.write_text(pts.read_text().replace("nucleus=1,0,0,0,0", f"nucleus={nuc}", 1))
    assert run(["quasi", "check", "--points", pts]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and "nucleus" in err and "out of range" in err


@pytest.mark.parametrize(
    "body",
    [
        "PG4Q v1 q=4 mod=7 kind=solids\n0 0 0 0 0\n",
        "PG4Q v1 q=4 mod=7 kind=solids\n0 2 0 0 1\n",
        "PG4Q v1 q=4 mod=7 kind=solids nucleus=0,2,0,0,1\n0 0 0 0 1\n",
    ],
)
def test_non_canonical_family_file_exit_2(tmp_path, capsys, body):
    # a record or nucleus is canonical when its first nonzero entry is 1
    fam = tmp_path / "fam.txt"
    fam.write_text(body)
    assert run(["characterize", "--family", fam]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cannot read family file:") and "not canonical" in err


def test_first_non_canonical_record_reported(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text("PG4Q v1 q=4 mod=7 kind=solids\n0 0 1 3 0\n0 3 1 0 0\n0 0 0 0 0\n")
    assert run(["characterize", "--family", fam]) == 2
    err = capsys.readouterr().err
    assert "record (0, 3, 1, 0, 0) is not canonical" in err and "(0, 0, 0, 0, 0)" not in err


def test_quasi_search_exhaustive_q2(tmp_path, capsys):
    assert run(["quasi", "search", "--q", 2, "--exhaustive"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["survivors"] == 448
    assert out["all_fit_nonsingular"] is True


def test_quasi_search_q2_without_exhaustive_flag(tmp_path):
    assert run(["quasi", "search", "--q", 2]) == 2


@pytest.mark.parametrize("q", [4, 8])
def test_quasi_search_exhaustive_above_q2_exit_2(capsys, q):
    # the exhaustive search is the q=2 one; no flag is ignored
    assert run(["quasi", "search", "--q", q, "--exhaustive", "--budget", 10]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--exhaustive" in err


def test_quasi_search_q4_saves_find(tmp_path, capsys):
    out_file = tmp_path / "find.txt"
    code = run(
        ["quasi", "search", "--q", 4, "--strategy", "switching",
         "--budget", 300000, "--out", out_file]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] >= 1
    assert payload["non_quadric"] >= 1
    # the saved find loads and passes the check command
    assert run(["quasi", "check", "--points", out_file]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-lemma1", "--q", 2, "--json", "{bad}"],
        ["characterize", "--family", "{fam}", "--json", "{bad}"],
        ["export", "--q", 2, "--what", "hyperbolic", "--out", "{bad}"],
        ["quasi", "check", "--points", "{pts}", "--json", "{bad}"],
        ["quasi", "search", "--q", 4, "--budget", 1, "--json", "{bad}"],
        ["quasi", "search", "--q", 4, "--budget", 1, "--out", "{bad}"],
    ],
    ids=["verify-lemma1-json", "characterize-json", "export-out", "check-json", "search-json",
         "search-out"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    fam, pts = tmp_path / "h2.txt", tmp_path / "q2.txt"
    run(["export", "--q", 2, "--what", "hyperbolic", "--out", fam])
    run(["export", "--q", 2, "--what", "quadric", "--out", pts])
    bad = tmp_path / "missing" / "out.txt"
    argv = [str(a).format(fam=fam, pts=pts, bad=bad) for a in argv]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err and err.count("\n") == 1 and "cannot write" in err
    assert out == ""  # nothing is reported before the failed write


@pytest.mark.parametrize("argv", [["--q", 4], ["--q", 2, "--exhaustive"]], ids=["q4", "q2"])
def test_quasi_search_negative_budget_exit_2(capsys, argv):
    assert run(["quasi", "search", *argv, "--budget", -5]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "budget must be non-negative" in err


def test_quasi_search_unknown_strategy_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["quasi", "search", "--q", 4, "--strategy", "random-restart"])
    assert exc.value.code == 2


def test_family_file_validation(tmp_path):
    field = GF(1)
    path = tmp_path / "f.txt"
    path.write_text("no header\n1 0 0 0 0\n")
    with pytest.raises(FormatError):
        read_family_file(path)
    path.write_text("PG4Q v1 q=2 mod=3 kind=solids\n0 2 0 0 0\n")
    with pytest.raises(FormatError):
        read_family_file(path)  # out of range entry
    path.write_text("PG4Q v1 q=2 mod=3 kind=solids\n0 0 1 1 0\n0 0 1 1 0\n")
    with pytest.raises(FormatError):
        read_family_file(path)  # duplicate
    path.write_text("PG4Q v1 q=6 mod=3 kind=solids\n")
    with pytest.raises(FormatError):
        read_family_file(path)  # unsupported q
    for header in ("PG4Q v1q=2 mod=3 kind=solids",  # no space after the tag
                   "PG4Q v1 q=2 mod=3 kind=solids q=4",  # a repeated key
                   "PG4Q v1 q=2 mod=3 kind=solids colour=red"):  # an unknown key
        path.write_text(header + "\n0 0 1 1 0\n")
        with pytest.raises(FormatError):
            read_family_file(path)
    write_family_file(path, field, "solids", [(0, 0, 1, 1, 0)])
    assert read_family_file(path).records == ((0, 0, 1, 1, 0),)
