"""The polarcl command line: artifacts, formats, exit codes, determinism."""

import json
import os

from polarcl.cli import main


def run(args):
    return main(args)


def test_space_info_text(capsys):
    assert run(["space", "info", "--family", "W", "--rank", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "W(3,2)" in out
    assert "0-spaces: 15" in out
    assert "1-spaces: 15" in out
    assert "e = 1" in out
    assert "-3" in out  # eigenvalue table present


def test_space_info_hermitian_needs_dim(capsys):
    assert run(["space", "info", "--family", "H", "--rank", "2", "--q", "4"]) == 2
    assert run(["space", "info", "--family", "H", "--rank", "2", "--q", "4",
                "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "H(4,4)" in out


def test_enumerate_check_roundtrip(tmp_path, capsys):
    space_file = tmp_path / "w32.json"
    assert run(["space", "enumerate", "--space-name", "W(3,2)",
                "--out", str(space_file)]) == 0
    data = json.loads(space_file.read_text())
    assert len(data["generators"]) == 15
    assert data["manifest"]["descriptor"]["name"] == "W(3,2)"

    setfile = tmp_path / "pencil.txt"
    assert run(["construct", "--space", str(space_file), "--kind",
                "point_pencil", "--point", "0", "--out", str(setfile)]) == 0
    assert run(["check", "--space", str(space_file),
                "--set", str(setfile)]) == 0
    # exit code is the verdict; non-CL sets exit 1
    bad = tmp_path / "bad.txt"
    bad.write_text("idx:0\nidx:1\nidx:2\nidx:3\n")
    assert run(["check", "--space", str(space_file), "--set", str(bad)]) == 1


def test_check_reports_json(tmp_path, capsys):
    space_file = tmp_path / "q6.json"
    run(["space", "enumerate", "--space-name", "Q(6,2)", "--out",
         str(space_file)])
    setfile = tmp_path / "hc.txt"
    run(["construct", "--space", str(space_file), "--kind",
         "hyperbolic_class", "--index", "0", "--out", str(setfile)])
    capsys.readouterr()
    out_file = tmp_path / "report.json"
    assert run(["check", "--space", str(space_file), "--set", str(setfile),
                "--out", str(out_file)]) == 0
    rep = json.loads(out_file.read_text())["report"]
    assert rep["is_cameron_liebler"] is True
    assert rep["x"] == {"num": 1, "den": 1}
    assert rep["verdicts"]["image"] is True


def test_explicit_set_file_and_normalization_hint(tmp_path, capsys):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    setfile = tmp_path / "pencil_rows.txt"
    run(["construct", "--space", str(space_file), "--kind", "point_pencil",
         "--point", "0", "--explicit", "--out", str(setfile)])
    assert run(["check", "--space", str(space_file),
                "--set", str(setfile)]) == 0
    # a non-canonical matrix is rejected with a normalization hint
    rows = setfile.read_text().strip().split("\n")
    first = rows[0].split(";")
    swapped = ";".join([first[1], first[0]])
    badfile = tmp_path / "noncanonical.txt"
    badfile.write_text(swapped + "\n")
    capsys.readouterr()
    assert run(["check", "--space", str(space_file),
                "--set", str(badfile)]) == 2
    err = capsys.readouterr().err
    assert "normalized form" in err


def test_scheme_verify(tmp_path, capsys):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    assert run(["scheme", "verify", "--space", str(space_file)]) == 0
    out = capsys.readouterr().out
    assert "[ok] distance_regularity" in out


def test_search_artifacts_and_determinism(tmp_path):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run(["search", "spread", "--space", str(space_file),
                "--out", str(out1)]) == 0
    assert run(["search", "spread", "--space", str(space_file),
                "--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["manifest"].pop("timing")
    d2["manifest"].pop("timing")
    d1["manifest"]["command"] = d2["manifest"]["command"] = None
    assert d1 == d2
    assert d1["count"] == 6
    assert d1["manifest"]["completeness"] == "exhaustive"


def test_search_cl_and_spread_files(tmp_path, capsys):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    spreads = tmp_path / "spreads.json"
    run(["search", "spread", "--space", str(space_file), "--out",
         str(spreads)])
    setfile = tmp_path / "pencil.txt"
    run(["construct", "--space", str(space_file), "--kind", "point_pencil",
         "--out", str(setfile)])
    assert run(["check", "--space", str(space_file), "--set", str(setfile),
                "--spreads", str(spreads)]) == 0
    clres = tmp_path / "cl.json"
    assert run(["search", "cl", "--space", str(space_file), "--xmax", "1",
                "--out", str(clres)]) == 0
    assert json.loads(clres.read_text())["count"] == 15


def test_budget_env_var(tmp_path, capsys):
    space_file = tmp_path / "qm.json"
    run(["space", "enumerate", "--space-name", "Q-(5,2)", "--out",
         str(space_file)])
    os.environ["POLARCL_BUDGET_NODES"] = "40"
    try:
        out = tmp_path / "trunc.json"
        run(["search", "spread", "--space", str(space_file), "--out",
             str(out)])
        assert json.loads(out.read_text())["exhaustive"] is False
    finally:
        del os.environ["POLARCL_BUDGET_NODES"]


def test_usage_errors():
    assert run(["space", "info"]) == 2          # no descriptor
    assert run(["check", "--space", "/nonexistent.json",
                "--set", "/nonexistent.txt"]) == 2


def test_threads_flag_accepted(capsys):
    assert run(["--threads", "2", "space", "info",
                "--space-name", "W(3,2)"]) == 0
    assert "W(3,2)" in capsys.readouterr().out


def test_tight_search_cli(tmp_path):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    out = tmp_path / "tight.json"
    assert run(["search", "tight", "--space", str(space_file), "--xmax", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 15
    labels = {s["label"] for s in data["by_parameter"]["1"]}
    assert labels == {"line-union"}
    assert data["manifest"]["timing"]["wall_time_s"] >= 0


def test_class_restricted_bounded_search_rejected(tmp_path, capsys):
    space_file = tmp_path / "qp7.json"
    run(["space", "enumerate", "--space-name", "Q+(5,2)", "--out",
         str(space_file)])
    capsys.readouterr()
    assert run(["search", "cl", "--space", str(space_file), "--xmax", "2",
                "--class", "latin"]) == 2


def test_regular_search_with_eigenspace_filter(tmp_path):
    space_file = tmp_path / "qp5.json"
    run(["space", "enumerate", "--space-name", "Q+(5,2)", "--out",
         str(space_file)])
    out = tmp_path / "reg.json"
    assert run(["search", "regular", "--space", str(space_file), "--m", "2",
                "--eigenspaces", "0,2", "--limit", "5",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] >= 1


def test_manifest_records_the_given_command(tmp_path):
    out = tmp_path / "info.json"
    argv = ["space", "info", "--space-name", "W(3,2)", "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(out.read_text())["manifest"]["command"] == argv
