import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinroot import ade, coxplane, mckay, output
from spinroot.cli import main
from spinroot.rootsys import catalog_entries

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_text(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "H3" in out and "roots 30" in out
    assert "2n+2" in out


def test_catalog_family_n(capsys):
    code, out = run(capsys, "catalog", "--family-n", "8")
    assert code == 0
    assert "I2(8)" in out and "roots 16" in out


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_catalog_family_n_below_2_is_usage_error(n, capsys):
    assert main(["catalog", f"--family-n={n}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: family parameter n={int(n)} must be >= 2\n"


@pytest.mark.parametrize("argv", [["export", "roots", "A3"], ["project", "A4"]])
@pytest.mark.parametrize("under", [False, True])
def test_out_path_that_is_a_file_is_usage_error(argv, under, tmp_path, capsys):
    # --out naming a regular file, or a path under one, cannot be a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["export", "projection", "I2(2)"], 1), (["export", "projection", "A1^3"], 1),
    (["export", "diagram", "H4"], 2), (["export", "mckay-graph", "H4"], 2),
    (["project", "I2(2)"], 1)])
def test_failed_export_leaves_no_directory(argv, code, tmp_path, capsys):
    # every file's text is formed before the --out directory is made
    out = tmp_path / "d"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == "" and not out.exists()


def test_catalog_json(capsys):
    code, out = run(capsys, "catalog", "--format", "json")
    payload = json.loads(out)
    assert any(row["name"] == "H4" and row["roots"] == "120"
               for row in payload["systems"])
    assert payload["meta"]["tool"] == "spinroot"


def test_induce_json(capsys):
    code, out = run(capsys, "induce", "B3")
    payload = json.loads(out)
    assert code == 0
    assert payload["pin_order"] == 96
    assert payload["spin_order"] == 48
    assert payload["binary_group"] == "2O"
    assert payload["induced"] == "F4"


def test_induce_family(capsys):
    for n in (6, 13):
        code, out = run(capsys, "induce", f"A1xI2({n})")
        payload = json.loads(out)
        assert code == 0
        assert payload["induced"] == f"I2({n})xI2({n})"
        assert payload["spin_order"] == 4 * n


def test_coxplane_json(capsys):
    code, out = run(capsys, "coxplane", "F4")
    payload = json.loads(out)
    assert code == 0
    assert payload["h"] == 12
    assert payload["exponents"] == [1, 5, 7, 11]
    assert payload["factorization_exponents"] == [1, 5, 7, 11]
    assert payload["residual"] < 1e-8


def test_coxplane_word_override(capsys):
    for name, word, h, exponents in [("D4", "4,2,1,3", 6, [1, 3, 3, 5]),
                                     ("H3", "3,2,1", 10, [1, 5, 9])]:
        code, out = run(capsys, "coxplane", name, "--word", word)
        payload = json.loads(out)
        assert code == 0
        assert payload["h"] == h
        assert payload["exponents"] == exponents


@pytest.mark.parametrize("word", ["1,2,3,4", "4,3,2,1"])
def test_coxplane_word_not_bicoloured(capsys, word):
    code, out = run(capsys, "coxplane", "A4", "--word", word)
    payload = json.loads(out)
    assert code == 0
    assert payload["exponents"] == [1, 2, 3, 4]
    assert payload["factorization_exponents"] == [1, 2, 3, 4]


@pytest.mark.parametrize("word", ["a,b", "1,1,2", "1,2", "1,2,4", ""])
def test_coxplane_malformed_word_is_usage_error(capsys, word):
    code = main(["coxplane", "H3", "--word", word])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--word {word} is not a permutation of 1..3" in err


def test_coxplane_degenerate_plane_reported(capsys):
    code, out = run(capsys, "coxplane", "A1^4")
    payload = json.loads(out)
    assert code == 0
    assert payload["plane"] is None
    assert payload["exponents"] == [1, 1, 1, 1]


def test_project_csv_stdout(capsys):
    code, out = run(capsys, "project", "A4")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,y"
    assert len(lines) == 21  # header + 20 roots


def test_project_out_forms_the_projection_once(tmp_path, capsys, monkeypatch):
    # with --out the export forms the projection, and the command none of its own
    calls = []
    project = coxplane.project_to_plane

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(coxplane, "project_to_plane", counting)
    monkeypatch.setattr(output, "project_to_plane", counting)
    code, out = run(capsys, "project", "A4", "--out", str(tmp_path))
    assert code == 0 and len(calls) == 1
    assert out.splitlines() == [str(tmp_path / f"A4_projection.{ext}") for ext in ("csv", "svg")]


def test_mckay_json(capsys):
    code, out = run(capsys, "mckay", "H3")
    payload = json.loads(out)
    assert payload["group"] == "2I"
    assert payload["classes"] == 9
    assert payload["sum_dims"] == 30
    assert payload["affine"] == "E~8"


@pytest.mark.parametrize("name, affine", [("I2(17)", "A~33"), ("A1xI2(30)", "D~32")])
def test_mckay_beyond_32_nodes(capsys, name, affine):
    code, out = run(capsys, "mckay", name)
    assert code == 0
    assert json.loads(out)["affine"] == affine


def test_mckay_dot(capsys):
    code, out = run(capsys, "mckay", "A3", "--format", "dot")
    assert out.startswith("graph")
    assert out.count("--") == 6  # affine E6 tree on 7 nodes


def test_main_leaves_numpy_print_options_alone(capsys):
    # numpy's print options are the caller's, process-wide
    before = np.get_printoptions()
    np.set_printoptions(legacy="1.25")
    try:
        assert main(["verify-all", "--n-max", "2"]) == 0
        assert np.get_printoptions()["legacy"] == "1.25"
    finally:
        np.set_printoptions(**before)
    capsys.readouterr()


def test_export_comments_echo_the_metadata(tmp_path):
    comment = output.meta_comment(output.metadata(seed=mckay.DEFAULT_SEED))
    assert "tol" not in comment
    for kind in ("roots", "projection", "mckay-graph", "diagram"):
        for path in output.export_files(kind, "H3", out_dir=tmp_path):
            if path.suffix != ".json":
                head = path.read_text().splitlines()[:2]
                assert {f"# {comment}", f"// {comment}", f"<!-- {comment} -->"} & set(head), path


def test_no_tolerance_option(capsys):
    # no tolerance is run state: --tol-eq is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["coxplane", "H4", "--tol-eq", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-eq" in capsys.readouterr().err


def test_ade_map_text(capsys):
    code, out = run(capsys, "ade-map", "--n-max", "3")
    assert code == 0
    assert "H3" in out and "E~8" in out and "E8" in out


def test_export_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        code, _ = run(capsys, "export", "projection", "A4", "--out", str(target))
        assert code == 0
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_export_roots_files(tmp_path, capsys):
    code, out = run(capsys, "export", "roots", "F4", "--out", str(tmp_path))
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["F4_cartan.csv", "F4_roots.json"]
    payload = json.loads((tmp_path / "F4_roots.json").read_text())
    assert payload["count"] == 48
    assert len(payload["roots"]) == 48


def test_export_projection_svg_points(tmp_path, capsys):
    code, _ = run(capsys, "export", "projection", "A4", "--out", str(tmp_path))
    svg = (tmp_path / "A4_projection.svg").read_text()
    assert svg.count("<circle") == 20  # two concentric decagons


def test_export_mckay_graph_nodes(tmp_path, capsys):
    code, _ = run(capsys, "export", "mckay-graph", "H3", "--out", str(tmp_path))
    dot = (tmp_path / "H3_mckay.dot").read_text()
    assert dot.count("[label=") == 9  # one node per conjugacy class of 2I
    payload = json.loads((tmp_path / "H3_mckay.json").read_text())
    assert payload["affine"] == "E~8"


def test_verify_all_json(capsys):
    code, out = run(capsys, "verify-all", "--n-max", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"])


def test_export_diagram(tmp_path, capsys):
    code, out = run(capsys, "export", "diagram", "H3", "--out", str(tmp_path))
    text = (tmp_path / "H3_diagram.dot").read_text()
    assert "graph E8" in text


def test_n_max_precondition(capsys):
    assert main(["verify-all", "--n-max", "13"]) == 2
    assert main(["ade-map", "--n-max", "1"]) == 2


def test_unknown_system_is_usage_error(capsys):
    code = main(["induce", "Z9"])
    assert code == 2


@pytest.mark.parametrize("name", ["H4", "I2(3)xI2(3)"])
@pytest.mark.parametrize("argv", [["induce"], ["mckay"], ["export", "diagram"],
                                  ["export", "mckay-graph"]])
def test_rank_4_system_where_rank_2_or_3_is_needed_is_usage_error(argv, name, tmp_path, capsys):
    # pin groups and rotation orders come from rank-2/3 sources: a 4D system is
    # outside the command's domain, not a failed verification
    out = ["--out", str(tmp_path)] if argv[0] == "export" else []
    assert main([*argv, name, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rank 2" in captured.err or "rank-2/3" in captured.err
    assert "(rank 4)" in captured.err


def test_ade_map_row_that_fails_exits_1_without_traceback(monkeypatch, capsys):
    row = ade.correspondence_row

    def failing(name, n=None, seed=mckay.DEFAULT_SEED):
        out = row(name, n, seed=seed)
        return dataclasses.replace(out, equalities_ok=False) if (name, n) == ("I2", 3) else out

    monkeypatch.setattr(ade, "correspondence_row", failing)
    with pytest.raises(ade.CorrespondenceError):
        ade.correspondence_report(n_max=3)
    assert main(["ade-map", "--n-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |roots| = sum(dims) = h fails for ['I2(3)']\n"


@pytest.mark.parametrize("argv", [["induce", "H3"], ["coxplane", "A3"], ["project", "A4"],
                                  ["mckay", "B3"], ["export", "roots", "A13"]])
def test_family_parameter_of_a_fixed_system_is_usage_error(argv, tmp_path, capsys):
    # only the I2 families take --n: any other system rejects it, not ignores it
    out = ["--out", str(tmp_path)] if argv[0] == "export" else []
    assert main([*argv, "--n", "5", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    key = "A1^3" if argv[-1] == "A13" else argv[-1]
    assert captured.err == f"error: {key} takes no family parameter, got n=5\n"


@pytest.mark.parametrize("name", ["a1^3", "a13", "A1^3", "A13"])
def test_a1_powers_match_in_any_case(name, capsys):
    # one case rule for every name: lower-case A1 powers are accepted as h3 is
    code, out = run(capsys, "induce", name)
    assert code == 0
    assert json.loads(out)["source"] == "A1^3" and json.loads(out)["induced"] == "A1^4"
    code, out = run(capsys, "coxplane", name.replace("3", "4"))
    assert code == 0 and json.loads(out)["system"] == "A1^4"


@pytest.mark.parametrize("name", ["I2(3)", "A1xI2(3)", "I2(3)xI2(3)"])
def test_family_parameter_conflicting_with_the_name_is_usage_error(name, capsys):
    # an n inline and a different --n: every family form rejects the pair
    assert main(["coxplane", name, "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: conflicting n for {name!r}\n"
    assert main(["coxplane", name, "--n", "3"]) == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mckay", "H3", "--format", "xml"],
    ["mckay", "H3", "--format", "text"],
    ["induce", "A3", "--format", "csv"],
    ["coxplane", "H3", "--format", "text"],
    ["project", "A4", "--format", "csv"],
    ["catalog", "--format", "dot"],
    ["ade-map", "--format", "csv"],
    ["verify-all", "--format", "yaml"],
])
def test_format_outside_the_printed_ones_exits_2(argv, capsys):
    # each subcommand accepts only the formats it prints
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify-all", "--n-max", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_seed_independent_verdicts(capsys):
    code7, out7 = run(capsys, "verify-all", "--n-max", "2", "--seed", "7")
    assert code7 == 0
    marks7 = [l.split()[1] for l in out7.splitlines() if l.startswith("[")]
    code0, out0 = run(capsys, "verify-all", "--n-max", "2")
    marks0 = [l.split()[1] for l in out0.splitlines() if l.startswith("[")]
    assert marks7 == marks0


@pytest.mark.parametrize("argv", [
    ["induce", "A3"],
    ["coxplane", "H3"],
    ["project", "A4"],
    ["mckay", "H3"],
    ["ade-map"],
    ["export", "mckay-graph", "H3"],
    ["verify-all"],
])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_must_be_a_nonnegative_integer(argv, seed, capsys):
    # random.Random(-s) would draw as s, so a negative seed is a usage error
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seed", seed])
    assert err.value.code == 2
    assert "--seed: must be a nonnegative integer" in capsys.readouterr().err


def test_no_command_imports_numpy_random(tmp_path):
    # the draws are the stdlib's: numpy.random, its 6 MB and its import time
    # stay out of every process, forked verify-all and verify-all on one CPU
    code = f"""
import contextlib, io, os, sys
from spinroot.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["mckay", "H3"]), main(["export", "mckay-graph", "H3", "--out", {str(tmp_path)!r}]),
             main(["ade-map", "--n-max", "3"]), main(["verify-all", "--n-max", "3"])]
    os.sched_getaffinity = lambda pid: {{0}}
    codes.append(main(["verify-all", "--n-max", "3"]))
print(codes, "numpy.random" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[0, 0, 0, 0, 0] False"


#: the family parameters the sweep draws: invalid, small, and past the caps
SWEEP_N = (-1, 0, 1, 2, 13, 40, 60)
#: the formats of each subcommand that prints one, the default first
SWEEP_FORMATS = {"catalog": ("text", "json"), "induce": ("json", "text"),
                 "coxplane": ("json",), "mckay": ("json", "csv", "dot"),
                 "ade-map": ("text", "json"), "verify-all": ("text", "json")}
SWEEP_BAD_NAMES = ("", "Z9", "E8", "I2(", "I2(2.5)", "A1^5", "h3x", "A1xI2(n)")
SWEEP_WORDS = ("1,2", "2,1", "1,2,3", "3,1,2", "1,2,3,4", "4,2,3,1",
               "", "1,,2", "a,b", "1,1", "0,1,2", "1 2", "-1,2", "1,2,3,4,5")


def _sweep_argv(rng: random.Random, command: str, out: Path) -> tuple[list[str], str]:
    """One random argument vector of ``command``, and the format it asks for."""
    argv = [command]
    if command in ("ade-map", "verify-all"):
        # drawn once each, as they run whole suites; test_n_max_precondition
        # covers a bad --n-max
        argv += ["--n-max", str(rng.choice((2, 3)))]
    elif command == "catalog":
        if rng.random() < 0.5:
            argv += ["--family-n", str(rng.choice(SWEEP_N))]
    else:
        if command == "export":
            argv.append(rng.choice(("roots", "projection", "mckay-graph", "diagram", "svg")))
        entry = rng.choice(catalog_entries())
        name = entry["key"]
        if rng.random() < 0.1:
            name = rng.choice(SWEEP_BAD_NAMES)
        elif entry["family"] and rng.random() < 0.5:
            name += f"({rng.choice(SWEEP_N)})"
        argv.append("".join(rng.choice((c.lower(), c.upper())) for c in name))
        if entry["family"] and "(" not in name or rng.random() < 0.1:
            argv += ["--n", str(rng.choice(SWEEP_N))]
        if command == "coxplane":
            if rng.random() < 0.5:
                rank = entry["rank"]
                argv += ["--word", rng.choice(SWEEP_WORDS) if rng.random() < 0.4
                         else ",".join(str(i) for i in rng.sample(range(1, rank + 1), rank))]
            if rng.random() < 0.7:
                argv += ["--backend", rng.choice(("exact", "float"))]
        if command == "export" or command == "project" and rng.random() < 0.5:
            argv += ["--out", str(out / "sub" if rng.random() < 0.3 else out)]
    formats = SWEEP_FORMATS.get(command, ())
    fmt = formats[0] if formats else None
    if formats and rng.random() < 0.7:
        fmt = rng.choice(formats * 3 + ("xml",))
        argv += ["--format", fmt]
    if command != "catalog" and rng.random() < 0.3:
        argv += ["--seed", rng.choice(("0", "7", "1729", "-1", "x"))]
    return argv, fmt


def test_cli_contract_sweep(tmp_path, capsys):
    # random argument vectors over every subcommand: exit 0, 1 or 2 (argparse's
    # SystemExit(2) included), no escaping exception and no warning, JSON that
    # parses, an error line on every nonzero exit, no directory left by a
    # failed export
    rng = random.Random(31)
    commands = ["catalog", "induce", "coxplane", "project", "mckay", "export"]
    draws = [rng.choice(commands) for _ in range(220)] + ["ade-map", "verify-all"]
    rng.shuffle(draws)
    seen = set()
    for i, command in enumerate(draws):
        out = tmp_path / f"out{i}"
        argv, fmt = _sweep_argv(rng, command, out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        stdout, stderr = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if fmt == "json" and (stdout or not code):
            json.loads(stdout)
        if code:
            assert re.search(r"^(spinroot[\w -]*: )?error: ", stderr, re.M), (argv, stderr)
            assert not out.exists(), argv
        seen.add((command, code))
    assert {c for c, _ in seen} == set(commands) | {"ade-map", "verify-all"}
    assert {(c, code) for c in commands for code in (0, 2)} <= seen
