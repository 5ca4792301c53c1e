"""The polarcl command line: artifacts, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from polarcl.cli import main


def run(args):
    return main(args)


def test_python_m_polarcl_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-m", "polarcl", "--help"],
                          cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: polarcl ")


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


def _agree_across_processes(tmp_path, *argv):
    """Run `polarcl <argv> --out` side by side in two interpreters with
    hash seeds 1 and 2: the artifacts must be canonical JSON, the same
    bytes outside the manifest's timing and command.  Returns the first."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = [tmp_path / f"artifact{seed}.json" for seed in ("1", "2")]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "polarcl", *argv, "--out", str(out)], cwd=root,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src"),
             "PYTHONHASHSEED": seed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed, out in zip(("1", "2"), outs)]
    for proc in procs:
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stdout + stderr
    blanked = []
    for out in outs:
        text = out.read_text()
        data = json.loads(text)
        assert json.dumps(data, indent=1, sort_keys=True) + "\n" == text
        data["manifest"]["timing"] = data["manifest"]["command"] = None
        blanked.append(json.dumps(data, indent=1, sort_keys=True))
    assert blanked[0] == blanked[1]
    return json.loads(outs[0].read_text())


@pytest.mark.parametrize("name, construct, label", [
    ("Q+(7,2)", ["point_pencil", "--point", "3"], ["--class", "latin"]),
    ("Q(6,2)", ["hyperbolic_class", "--index", "5"], [])])
def test_check_artifacts_agree_across_processes(tmp_path, name, construct,
                                                label):
    # two interpreters with different hash seeds write the same report
    # bytes; only the manifest's timing and command may differ
    space_file, setfile = tmp_path / "space.json", tmp_path / "set.txt"
    assert run(["space", "enumerate", "--space-name", name,
                "--out", str(space_file)]) == 0
    assert run(["construct", "--space", str(space_file), "--kind", *construct,
                *label, "--out", str(setfile)]) == 0
    report = _agree_across_processes(tmp_path, "check", "--space", str(space_file),
                                     "--set", str(setfile), *label)["report"]
    assert report["is_cameron_liebler"] is True


@pytest.mark.parametrize("name", ["Q+(7,2)", "H(4,4)"])
def test_space_and_scheme_artifacts_agree_across_processes(tmp_path, name):
    # the stored space, and the scheme report on the certified load with
    # its levels enumerated when counted, are the same bytes under two
    # hash seeds
    data = _agree_across_processes(tmp_path, "space", "enumerate",
                                   "--space-name", name)
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    report = _agree_across_processes(tmp_path, "scheme", "verify",
                                     "--space", str(space_file))
    assert all(report["checks"].values())
    assert report["checks"]["count_level_1"]


def test_suite_artifacts_agree_across_processes(tmp_path):
    # the whole battery, corpus included, writes the same artifact under
    # two hash seeds
    results = _agree_across_processes(tmp_path, "suite")["results"]
    assert [r["criterion"] for r in results if r["ok"]] == list(range(1, 13))


@pytest.mark.parametrize("name, argv, expected", [
    pytest.param("Q+(7,2)", ["cl", "--xmax", "1", "--class", "latin"],
                 (270, 42617, True), id="cl-class-exhaustive"),
    pytest.param("Q-(5,2)", ["tight", "--dual", "--xmax", "3",
                             "--budget", "5000"],
                 (53, 5002, False), id="tight-dual-budget"),
])
def test_search_artifacts_agree_across_processes(tmp_path, name, argv,
                                                 expected):
    # an exhaustive and a budget-truncated search write the same solutions,
    # node count and completeness under two hash seeds
    space_file = tmp_path / "space.json"
    assert run(["space", "enumerate", "--space-name", name,
                "--out", str(space_file)]) == 0
    data = _agree_across_processes(tmp_path, "search", *argv,
                                   "--space", str(space_file))
    assert (data["count"], data["nodes"], data["exhaustive"]) == expected


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


@pytest.mark.parametrize("argv, code, output", [
    (["space", "info", "--space-name", "W(3,65537)"], 0,
     "0-spaces: 281492156973060"),
    (["space", "enumerate", "--space-name", "W(1,65537)", "--out",
      os.devnull], 2, "GF(65537) needs 4295098369 table entries"),
])
def test_huge_field_orders_answer_fast(argv, code, output):
    # closed forms need no field tables; an enumeration refuses them at once
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-m", "polarcl", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert output in proc.stdout + proc.stderr


def test_malformed_space_names_exit_2(capsys):
    for name in ("Q+(5,2", "Q+(5,2)))", " Q+ (5,2)", "X(5,2)"):
        assert run(["space", "info", "--space-name", name]) == 2, name
        assert "malformed space name" in capsys.readouterr().err


def test_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    from polarcl import clsets
    space_file = tmp_path / "w32.json"
    assert run(["space", "enumerate", "--space-name", "W(3,2)",
                "--out", str(space_file)]) == 0
    one = tmp_path / "one.txt"
    one.write_text("idx:0\n")
    # a battery that accepts a single generator, whose x = 1/3 is impossible
    monkeypatch.setattr(clsets, "test_disjointness_counts",
                        lambda gs: (True, None))
    capsys.readouterr()
    assert run(["check", "--space", str(space_file), "--set", str(one)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("polarcl: verification failed: positive verdict")
    assert "Traceback" not in err


def test_scheme_failure_in_the_suite_exits_1(capsys, monkeypatch):
    # modulo 5 the annihilator columns lose rank, and the bases raise
    # SchemeError: a failed verification, not a traceback
    from polarcl import clsets, linalg
    monkeypatch.setattr(linalg, "PRIME", 5)
    monkeypatch.setattr(clsets, "_CTX_CACHE", {})  # no bases built before
    capsys.readouterr()
    assert run(["suite"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("polarcl: verification failed: columns of the "
                          "annihilator reach rank"), err
    assert "modulo p = 5" in err and "Traceback" not in err


def test_suite_manifest_records_the_corpus_seed(tmp_path, monkeypatch):
    from polarcl import suite
    passed = suite.CriterionResult(1, "count oracle", True, "stub")
    monkeypatch.setattr(suite, "run_suite", lambda: [passed])
    out = tmp_path / "suite.json"
    assert run(["suite", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["manifest"]["seed"] == suite.CORPUS_SEED
    assert [r["criterion"] for r in data["results"]] == [1]


def test_bad_regular_search_input_exits_2(tmp_path, capsys):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    for extra, offending in ((["--eigenspaces", "0,7"], "[7]"),
                             (["--eigenspaces=-1"], "[-1]"),
                             (["--m", "-1"], "m = -1")):
        capsys.readouterr()
        assert run(["search", "regular", "--space", str(space_file),
                    *extra]) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("polarcl: error:") and offending in err, err
        assert "Traceback" not in err


def test_search_manifest_says_why_it_stopped(tmp_path):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    for extra, completeness in ((["--limit", "2"], "limit-truncated"),
                                (["--budget", "5"], "budget-truncated"),
                                ([], "exhaustive")):
        out = tmp_path / "spreads.json"
        assert run(["search", "spread", "--space", str(space_file),
                    "--out", str(out), *extra]) == 0
        data = json.loads(out.read_text())
        assert data["manifest"]["completeness"] == completeness, extra
        assert data["exhaustive"] == (completeness == "exhaustive")


def test_limit_on_a_search_that_ignores_it_exits_2(tmp_path, capsys):
    # tight and cl searches take no solution limit: refuse --limit instead
    # of answering with every solution as if it had been honoured
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    for target, extra in (("tight", ["--xmax", "2"]), ("cl", ["--xmax", "1"])):
        capsys.readouterr()
        out = tmp_path / f"{target}.json"
        assert run(["search", target, "--space", str(space_file), *extra,
                    "--limit", "2", "--out", str(out)]) == 2, target
        captured = capsys.readouterr()
        assert captured.err.startswith("polarcl: error:"), captured.err
        assert f"--limit is not supported by search {target}" in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert not out.exists()


def _w32_file(tmp_path):
    space_file = tmp_path / "w32.json"
    run(["space", "enumerate", "--space-name", "W(3,2)", "--out",
         str(space_file)])
    return space_file


def _no_manifest(tmp_path):
    data = json.loads(_w32_file(tmp_path).read_text())
    del data["manifest"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    return (["construct", "--space", str(bare), "--kind", "point_pencil",
             "--out", str(tmp_path / "set.txt")], "not a space file")


def _construct_arg(flag, value, kind):
    def case(tmp_path):
        return (["construct", "--space", str(_w32_file(tmp_path)), "--kind",
                 kind, flag, value, "--out", str(tmp_path / "set.txt")],
                f"{flag} {value} is not in 0..")
    return case


def _directory_as_space(tmp_path):
    return (["check", "--space", str(tmp_path), "--set",
             str(tmp_path / "set.txt")], "Is a directory")


def _search_arg(target, flag, value, message, *extra):
    def case(tmp_path):
        return (["search", target, "--space", str(_w32_file(tmp_path)), flag,
                 value, *extra, "--out", str(tmp_path / "res.json")], message)
    return case


def _class_on_odd_rank(*argv):
    """A --class flag on Q+(5,2): its generator classes hold no
    class-restricted sets, as those need an even rank."""
    def case(tmp_path):
        space_file = tmp_path / "qp52.json"
        run(["space", "enumerate", "--space-name", "Q+(5,2)", "--out",
             str(space_file)])
        (tmp_path / "one.txt").write_text("idx:0\n")
        return ([a.format(space=space_file, dir=tmp_path) for a in argv],
                "Q+(5,2) has no class-restricted sets")
    return case


def _spread_file(content, message):
    """`check --spreads` on W(3,2) with a malformed spread file."""
    def case(tmp_path):
        (tmp_path / "one.txt").write_text("idx:0\n")
        spreads = tmp_path / "spreads.json"
        spreads.write_text(json.dumps(content))
        return (["check", "--space", str(_w32_file(tmp_path)), "--set",
                 str(tmp_path / "one.txt"), "--spreads", str(spreads)], message)
    return case


def _edited_space(name, edit, message):
    """`check` on a stored space whose JSON payload `edit` changes."""
    def case(tmp_path):
        space_file = tmp_path / "space.json"
        run(["space", "enumerate", "--space-name", name, "--out",
             str(space_file)])
        data = json.loads(space_file.read_text())
        edit(data)
        space_file.write_text(json.dumps(data))
        (tmp_path / "one.txt").write_text("idx:0\n")
        return (["check", "--space", str(space_file), "--set",
                 str(tmp_path / "one.txt")], message)
    return case


def _swap(key, a, b):
    def edit(data):
        data[key][a], data[key][b] = data[key][b], data[key][a]
    return edit


def _set_line(g, line):
    def edit(data):
        data["generators"][g] = line
    return edit


BAD_INPUTS = {
    "space-without-manifest": _no_manifest,
    "point-past-the-last": _construct_arg("--point", "9999", "point_pencil"),
    "negative-point": _construct_arg("--point", "-1", "complement_of_pencil"),
    "gen-past-the-last": _construct_arg("--gen", "15", "base_plane"),
    "space-is-a-directory": _directory_as_space,
    "cl-xmax-negative": _search_arg("cl", "--xmax", "-1", "--xmax must be at least 1"),
    "cl-xmax-zero": _search_arg("cl", "--xmax", "0", "--xmax must be at least 1"),
    "tight-xmax-zero": _search_arg("tight", "--xmax", "0", "--xmax must be at least 1"),
    "negative-budget": _search_arg("spread", "--budget", "-5",
                                   "a node budget must be at least 1, got -5"),
    "spread-limit-zero": _search_arg("spread", "--limit", "0",
                                     "--limit must be at least 1, got 0"),
    "spread-limit-negative": _search_arg("spread", "--limit", "-1",
                                         "--limit must be at least 1, got -1"),
    "regular-limit-zero": _search_arg("regular", "--limit", "0",
                                      "--limit must be at least 1, got 0",
                                      "--m", "1", "--eigenspaces", "0,2"),
    "construct-class-on-odd-rank": _class_on_odd_rank(
        "construct", "--space", "{space}", "--kind", "point_pencil",
        "--class", "latin", "--out", "{dir}/set.txt"),
    "check-class-on-odd-rank": _class_on_odd_rank(
        "check", "--space", "{space}", "--set", "{dir}/one.txt",
        "--class", "latin"),
    "search-cl-class-on-odd-rank": _class_on_odd_rank(
        "search", "cl", "--space", "{space}", "--class", "latin",
        "--out", "{dir}/res.json"),
    "spreads-without-solutions": _spread_file({"x": 1}, "not a spread file"),
    "spreads-solution-not-a-list": _spread_file({"solutions": [5]},
                                                "not a spread file"),
    "spreads-top-level-list": _spread_file([[0, 1, 2]], "not a spread file"),
    "spreads-negative-index": _spread_file(
        {"solutions": [[-1]]}, "generator index -1 is not in 0..14"),
    "space-lines-swapped": _edited_space(
        "W(3,2)", _swap("generators", 3, 4),
        "generator line 4 does not follow line 3 in the canonical order"),
    "space-line-dropped": _edited_space(
        "W(3,2)", lambda data: data["generators"].pop(7),
        "14 generator lines, W(3,2) has 15 generators"),
    "space-line-duplicated": _edited_space(
        "W(3,2)", lambda data: data["generators"].insert(5, data["generators"][5]),
        "generator line 6 does not follow line 5 in the canonical order"),
    "space-line-not-in-echelon-form": _edited_space(
        "W(3,2)", lambda data: data["generators"].__setitem__(
            2, ";".join(reversed(data["generators"][2].split(";")))),
        "generator line 2 is not in reduced echelon form"),
    "space-row-not-isotropic": _edited_space(
        "Q(4,2)", _set_line(0, "1,0,0,0,0;0,0,0,1,0"),
        "generator line 0: row (1, 0, 0, 0, 0) is not a normalised "
        "isotropic point"),
    "space-rows-not-perpendicular": _edited_space(
        "W(3,2)", _set_line(0, "1,0,0,0;0,0,1,0"),
        "generator line 0: its rows do not pair to zero"),
    "space-line-too-short": _edited_space(
        "W(3,2)", _set_line(0, "1,0,0,0"),
        "generator line 0 has 1 rows, a generator of W(3,2) has 2"),
    "space-line-not-integers": _edited_space(
        "W(3,2)", _set_line(9, "1,x,0,0;0,0,1,0"),
        "generator line 9 ('1,x,0,0;0,0,1,0') is not rows of comma-separated"),
    "space-points-swapped": _edited_space(
        "W(3,2)", _swap("points", 0, 1),
        "the point list is not the isotropic points of W(3,2)"),
    "space-class-label-edited": _edited_space(
        "Q+(5,2)", lambda data: data["generator_classes"].__setitem__(0, "greek"),
        "the generator classes are not those of Q+(5,2)"),
    "space-counts-edited": _edited_space(
        "W(3,2)", lambda data: data["counts"].__setitem__("1", 14),
        "the level counts are not the closed forms of W(3,2)"),
    "field-order-with-no-small-factor": lambda tmp_path: (
        ["space", "info", "--space-name", "W(3,2305843009213693951)"],
        "2305843009213693951 has no prime factor up to 1000000"),
    "space-info-over-budget": lambda tmp_path: (
        ["space", "info", "--space-name", "W(201,2)"],
        "W(201,2): the eigenvalue table of rank 101 costs (d+1)^3 bits(n) = "),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, case):
    argv, message = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("polarcl: error:"), captured.err
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out
    assert not (tmp_path / "set.txt").exists()
    assert not (tmp_path / "res.json").exists()
