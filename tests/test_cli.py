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
    for q in (3, 16):  # q=16 is refused before any table is built
        with pytest.raises(SystemExit) as exc:
            run(["verify-lemma1", "--q", q])
        assert exc.value.code == 2


def test_characterize_q16_refused(tmp_path, monkeypatch, capsys):
    fam = tmp_path / "one16.txt"
    write_family_file(fam, GF.from_order(16), "solids", [(0, 0, 0, 0, 1)])

    def no_geometry(*args):
        raise AssertionError("the q=16 Geometry must not be built")

    monkeypatch.setattr(cli, "_geometry", no_geometry)
    assert run(["characterize", "--family", fam]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "q=16" in err


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
    assert out["quasi_quadric"] is False and out["witness"] is not None


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


def test_quasi_search_exhaustive_q2(tmp_path, capsys):
    assert run(["quasi", "search", "--q", 2, "--exhaustive"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["survivors"] == 448
    assert out["all_fit_nonsingular"] is True


def test_quasi_search_q2_without_exhaustive_flag(tmp_path):
    assert run(["quasi", "search", "--q", 2]) == 2


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
    write_family_file(path, field, "solids", [(0, 0, 1, 1, 0)])
    assert read_family_file(path).records == ((0, 0, 1, 1, 0),)
