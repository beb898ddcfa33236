"""Command-line interface: flag parsing, document shapes, exit codes, artifacts."""

import json
import os
import shutil
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest

import sasakijoin.cli as cli
from sasakijoin import csc_condition, make_setup
from sasakijoin.errors import InternalInconsistency
from support import digit_limit

F = Fraction

NO_CSC_FLAGS = ["--d", "1", "--a", "-43137/1337", "--g2", "101", "--k", "1",
                "--x", "1/2"]
MOAT_FLAGS = ["--d", "2", "--a", "76561/1387", "--g2", "4", "--k", "2",
              "--x", "9/10"]
THREE_ROOTS_FLAGS = ["--d", "1", "--a", "419/19", "--g2", "11", "--k", "9",
                     "--x", "9/10"]
TWIN_PAIR_FLAGS = ["--d", "1", "--a", "19/3", "--g2", "3", "--k", "1",
                   "--x", "1/2"]
POSITIVE_FLAGS = ["--d", "1", "--a", "-2675/497", "--g2", "2", "--k", "1",
                  "--x", "1/2"]
# p = 7: two transitions and three irrational cscS roots
P7_THREE_ROOTS_FLAGS = ["--d", "3", "--a", "45", "--g2", "11", "--k", "3",
                        "--x", "7/9"]
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths -------------------------------------------------------------------

def test_profile_command(capsys):
    code, out, _ = run_cli(capsys, ["profile", *NO_CSC_FLAGS, "--c", "2/5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "profile"
    assert doc["extremal"] is False
    assert doc["cscS"] is True
    assert doc["csc_condition"]["exact"] == "0"
    assert doc["F"]["degree"] == 5
    coeffs = [F(entry["exact"]) for entry in doc["F"]["coefficients_low_to_high"]]
    assert coeffs[0] == F(-730, 4011)
    assert coeffs[-1] == F(-260, 573)
    assert doc["setup"]["s"]["exact"] == "-200"
    assert doc["generator"]["name"] == "sasakijoin"
    # every numeric field carries both representations
    assert set(doc["c"]) == {"exact", "decimal"}


def test_csc_roots_command(capsys):
    code, out, _ = run_cli(capsys,
                           ["csc-roots", *NO_CSC_FLAGS, "--width", "1/2048"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1
    root = doc["roots"][0]
    assert root["exact_value"]["exact"] == "2/5"
    assert root["certificate"] == "exact"
    assert F(root["lo"]["exact"]) < F(2, 5) < F(root["hi"]["exact"])


def test_csc_roots_at_tiny_width(capsys):
    # each bracket is about 1100 halvings deep, reached in a few dozen
    # refinement steps; no recursion limit applies
    width = F(1, 2 ** 1100)
    code, out, _ = run_cli(capsys, ["csc-roots", "--d", "1", "--a", "1",
                                    "--g2", "1", "--k", "1", "--x", "1/2",
                                    "--width", f"1/{2 ** 1100}"])
    assert code == 0
    roots = json.loads(out)["roots"]
    assert roots
    for root in roots:
        assert F(root["hi"]["exact"]) - F(root["lo"]["exact"]) <= width


def test_twins_command(capsys):
    code, out, _ = run_cli(capsys, ["twins", "--d", "1", "--a", "19/3",
                                    "--g2", "3", "--k", "1", "--x", "1/2",
                                    "--c", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert [p["exact"] for p in doc["partners"]] == ["-5/6"]


def test_toric_command(capsys):
    code, out, _ = run_cli(capsys, ["toric", "--n", "2", "--lambda", "1",
                                    "--l", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["any_admissible"] is False
    assert [sol["v"]["exact"] for sol in doc["solutions"]] == ["0", "1", "-1/2"]


def test_join_command(capsys):
    code, out, _ = run_cli(capsys, ["join", "--l1", "2", "--l2", "3",
                                    "--order1", "5", "--order2", "7",
                                    "--dim1", "2", "--dim2", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["smooth"] is True
    assert doc["cone_dim"]["join"] == 4
    assert doc["vectors"]["contact"] == [2, 3]


@pytest.mark.parametrize("name, args", [
    # one bracket (0, 1/2) around the exact root 2/5
    ("csc_roots_no_csc_width_2", ["csc-roots", *NO_CSC_FLAGS, "--width", "2"]),
    ("csc_roots_three_roots_width_4",
     ["csc-roots", *THREE_ROOTS_FLAGS, "--width", "4"]),
    # the cscS root 1/2 is a bisection midpoint: bracket (3/8, 5/8)
    ("scan_twin_pair_boundary_width_3",
     ["scan", *TWIN_PAIR_FLAGS, "--grid-n", "8", "--boundary-width", "3"]),
    ("twins_twin_pair_search_width_5",
     ["twins", *TWIN_PAIR_FLAGS, "--c", "1/2"]),
    # full scans at the default width, pinning every ray's profile (p = 6, 7)
    ("scan_moat_grid_16", ["scan", *MOAT_FLAGS, "--grid-n", "16"]),
    ("scan_three_roots_p7_grid_16",
     ["scan", *P7_THREE_ROOTS_FLAGS, "--grid-n", "16"]),
    # deg N = 47: the remainder sequences must stay polynomial in size
    ("csc_roots_d22_width_1000",
     ["csc-roots", "--d", "22", "--a", "3", "--g2", "2", "--k", "1", "--x", "1/2",
      "--width", "1/1000"]),
    # one ray's profile and verdicts: a non-extremal and an extremal cscS ray
    ("profile_no_csc_c_2_5", ["profile", *NO_CSC_FLAGS, "--c", "2/5"]),
    ("profile_positive_example_c_1_8", ["profile", *POSITIVE_FLAGS, "--c", "1/8"]),
    # deep widths: the root 1/2 is a bisection midpoint, so the nudge fires;
    # the root 1/8; three irrational roots
    ("csc_roots_twin_pair_width_2_256",
     ["csc-roots", *TWIN_PAIR_FLAGS, "--width", f"1/{2 ** 256}"]),
    ("csc_roots_positive_example_width_2_256",
     ["csc-roots", *POSITIVE_FLAGS, "--width", f"1/{2 ** 256}"]),
    ("csc_roots_three_roots_p7_width_2_512",
     ["csc-roots", *P7_THREE_ROOTS_FLAGS, "--width", f"1/{2 ** 512}"]),
])
def test_coarse_width_documents_are_golden(capsys, name, args):
    # brackets wider than the cone still come back inside (-1, 1), and full
    # scans keep every ray's profile and verdict
    code, out, err = run_cli(capsys, args)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_scan_artifacts_are_deterministic(capsys, tmp_path):
    paths = {}
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        code, _, _ = run_cli(capsys, ["scan", *MOAT_FLAGS, "--grid-n", "16",
                                      "--out", str(out), "--csv", str(csv),
                                      "--svg", str(svg)])
        assert code == 0
        paths[tag] = (out.read_bytes(), csv.read_bytes(), svg.read_bytes())
    assert paths["first"] == paths["second"]

    doc = json.loads(paths["first"][0])
    assert doc["command"] == "scan"
    assert len(doc["rays"]) == 16

    csv_lines = paths["first"][1].decode().splitlines()
    assert csv_lines[0] == "c_num,c_den,extremal,cscS,F_coeffs"
    assert len(csv_lines) == 17
    first = csv_lines[1].split(",")
    assert F(int(first[0]), int(first[1])) == F(-15, 17)
    assert first[2] in ("true", "false")
    assert ";" in first[4]

    svg_text = paths["first"][2].decode()
    assert svg_text.startswith("<svg")
    assert 'version="1.1"' in svg_text
    assert "viewBox" in svg_text
    assert "legend" in svg_text or "csc" in svg_text


def test_moat_scan_diagram_is_golden(capsys, tmp_path):
    # the moat wedge and the cscS rays are drawn at conescan.slope
    svg = tmp_path / "moat.svg"
    code, _, err = run_cli(capsys, ["scan", *MOAT_FLAGS, "--grid-n", "16",
                                    "--svg", str(svg)])
    assert (code, err) == (0, "")
    assert svg.read_text() == (GOLDEN / "scan_moat_grid_16.svg").read_text()


def _other_interpreters():
    """Each python3.X on PATH, X >= 10 (requires-python), that starts and is
    not of this interpreter's version."""
    found = []
    for minor in range(10, 30):
        path = shutil.which(f"python3.{minor}")
        if path is None or sys.version_info[:2] == (3, minor):
            continue
        probe = subprocess.run([path, "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True)
        if probe.stdout == f"(3, {minor})\n":
            found.append(path)
    return found


def test_the_golden_moat_scan_on_every_other_python(tmp_path):
    # the library itself, with no test dependency, under each other version
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.X (X >= 10) on PATH")
    golden = (GOLDEN / "scan_moat_grid_16.json").read_bytes()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for path in interpreters:
        run = subprocess.run([path, "-m", "sasakijoin", "scan", *MOAT_FLAGS, "--grid-n", "16"],
                             capture_output=True, env=env, cwd=tmp_path)
        assert (run.returncode, run.stderr) == (0, b""), path
        assert run.stdout == golden, path


def test_written_files_get_the_mode_of_a_plain_file(capsys, tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    outputs = [tmp_path / name for name in ("doc.json", "table.csv", "cone.svg")]
    code, _, _ = run_cli(capsys, ["scan", *NO_CSC_FLAGS, "--grid-n", "8",
                                  "--out", str(outputs[0]), "--csv", str(outputs[1]),
                                  "--svg", str(outputs[2])])
    assert code == 0
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert [stat.S_IMODE(path.stat().st_mode) for path in outputs] == [mode] * 3


@pytest.mark.parametrize("target", [["a-file", "x.json"], ["a-dir", ""]])
def test_unwritable_out_path_exits_one(capsys, tmp_path, target):
    # a path under a plain file, and a directory given as the output file; a
    # scan whose --csv or --svg fails prints no document on stdout either
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    path = os.path.join(str(tmp_path), *target)
    scan = ["scan", *NO_CSC_FLAGS, "--grid-n", "8"]
    for args in (["join", "--l1", "1", "--l2", "2", "--out"], scan + ["--out"],
                 scan + ["--csv"], scan + ["--svg"]):
        code, out, err = run_cli(capsys, args + [path])
        assert code == 1, args
        assert out == "", args
        assert err.startswith(f"configuration error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.rglob(".tmp-out-*"))


def test_symlinked_out_path_writes_through_the_link(capsys, tmp_path):
    # the temporary file goes next to the resolved target, which it replaces
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "doc.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, ["join", "--l1", "1", "--l2", "2", "--out", str(link)])
    assert code == 0 and out == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["command"] == "join"
    assert not list(tmp_path.rglob(".tmp-out-*"))


def test_out_path_that_is_not_a_regular_file_exits_one(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    for path in (str(fifo), str(link)):
        code, out, err = run_cli(capsys, ["join", "--l1", "1", "--l2", "2", "--out", path])
        assert code == 1
        assert out == ""
        assert err == f"configuration error: cannot write {path}: not a regular file\n"
    assert stat.S_ISFIFO(fifo.stat().st_mode) and link.is_symlink()
    assert not list(tmp_path.rglob(".tmp-out-*"))


def test_scan_to_stdout(capsys):
    code, out, _ = run_cli(capsys, ["scan", *NO_CSC_FLAGS, "--grid-n", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["extremal_intervals"] == []
    assert len(doc["moats"]) == 1
    assert len(doc["csc_rays"]) == 1
    assert doc["csc_rays"][0]["genuine"] is False
    assert len(doc["slope_map"]) == 8


HUGE = "1" + "0" * 400   # past the largest double


@pytest.mark.parametrize("args, path", [
    (["csc-roots", "--d", "1", "--a", HUGE, "--g2", "1", "--k", "1", "--x", "1/2",
      "--width", "1/100"], ("setup", "a")),
    (["scan", "--d", "1", "--a", HUGE, "--g2", "1", "--k", "1", "--x", "1/2"],
     ("setup", "a")),
    (["toric", "--n", "2", "--lambda", HUGE, "--l", "1"], ("lambda",)),
], ids=["csc-roots", "scan", "toric"])
def test_values_past_the_largest_double_read_inf(capsys, args, path):
    code, out, err = run_cli(capsys, args)
    assert (code, err) == (0, "")
    field = json.loads(out)
    for key in path:
        field = field[key]
    assert field == {"exact": HUGE, "decimal": "inf"}


def test_a_root_next_to_c_minus_one_is_drawn_on_the_vertical_edge(capsys, tmp_path):
    # the cscS root lies within 2^-1024 of c = -1, so its slope (1-c)/(1+c)
    # is past the largest double
    svg = tmp_path / "cone.svg"
    code, out, err = run_cli(capsys, ["scan", "--d", "1", "--a", HUGE, "--g2", "0",
                                      "--k", "1", "--x", "1/2", "--svg", str(svg)])
    assert (code, err) == (0, "")
    root = json.loads(out)["csc_rays"][0]["root"]
    assert 1 + F(root["hi"]["exact"]) < F(1, 2 ** 1024)
    tree = ElementTree.fromstring(svg.read_text())
    assert tree.tag == "{http://www.w3.org/2000/svg}svg"
    assert '<circle cx="40.000" cy="40.000" r="3" fill="#117733"/>' in svg.read_text()


def test_exact_strings_past_the_digit_limit(capsys):
    # the condition value outgrows the 4300 digits str() converts by default
    code, out, err = run_cli(capsys, ["profile", "--d", "1", "--a", "3", "--g2", "1",
                                      "--k", "1", "--x", "1/2", "--c", f"1/{HUGE}"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["c"] == {"exact": f"1/{HUGE}", "decimal": "0.0"}
    value = csc_condition(make_setup(d=1, a=3, genus_g2=1, degree_k=1, x=F(1, 2)),
                          F(1, int(HUGE)))
    with digit_limit(0):
        assert doc["csc_condition"]["exact"] == f"{value.numerator}/{value.denominator}"
        assert max(len(str(part)) for part in (value.numerator, value.denominator)) > 4300


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0


# -- failure paths -----------------------------------------------------------------

def test_decimal_flag_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["profile", "--d", "1", "--a", "0.5", "--g2", "0", "--k", "1",
                  "--x", "1/2", "--c", "0"])
    assert err.value.code == 1
    assert "decimal" in capsys.readouterr().err


def test_non_ascii_digits_are_a_usage_error(capsys):
    # int() reads Arabic-Indic digits, so "\u0663/\u0665" would pass as 3/5
    with pytest.raises(SystemExit) as err:
        cli.main(["profile", "--d", "1", "--a", "1", "--g2", "0", "--k", "1",
                  "--x", "\u0663/\u0665", "--c", "0"])
    assert err.value.code == 1
    assert "--x" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1" + "0" * 5000, "-1/1" + "0" * 5000],
                         ids=["numerator", "denominator"])
def test_flag_value_past_the_digit_limit_is_a_one_line_usage_error(capsys, value):
    with digit_limit(4300), pytest.raises(SystemExit) as err:
        cli.main(["csc-roots", "--d", "1", "--a", value, "--g2", "1", "--k", "1",
                  "--x", "1/2"])
    assert err.value.code == 1
    _, message = capsys.readouterr().err.split("\nsasakijoin csc-roots: error: ")
    assert message == ("argument --a: a 5001-digit integer is past the 4300-digit "
                       "limit of integer conversion\n")


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["profile", "--d", "1", "--a", "1", "--g2", "0", "--k", "1"])
    assert err.value.code == 1


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1


def test_bad_parameter_value_exits_one(capsys):
    code, _, err = run_cli(capsys, ["profile", "--d", "1", "--a", "1",
                                    "--g2", "0", "--k", "1", "--x", "3/2",
                                    "--c", "0"])
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize("dims", [["--dim1", "1"], ["--dim2", "2"]])
def test_join_half_given_dimension_pair_exits_one(capsys, dims):
    code, out, err = run_cli(capsys, ["join", "--l1", "2", "--l2", "3", *dims])
    assert code == 1
    assert out == ""
    assert err == "configuration error: --dim1 and --dim2 must be given together\n"


def test_out_of_cone_ray_exits_one(capsys):
    code, _, err = run_cli(capsys, ["profile", "--d", "1", "--a", "1",
                                    "--g2", "0", "--k", "1", "--x", "1/2",
                                    "--c", "1"])
    assert code == 1


def test_computation_error_exits_two(capsys, monkeypatch):
    def boom(setup, c):
        raise InternalInconsistency("forced failure")

    monkeypatch.setattr(cli, "compute_profile", boom)
    code, _, err = run_cli(capsys, ["profile", "--d", "1", "--a", "1",
                                    "--g2", "0", "--k", "1", "--x", "1/2",
                                    "--c", "0"])
    assert code == 2
    assert "forced failure" in err


def test_reproduce_mismatch_exits_three(capsys, monkeypatch, tmp_path):
    def fake_run(out_dir):
        return False, [{"name": "fake-check", "ok": False}]

    monkeypatch.setattr(cli.reproduce, "run", fake_run)
    code, out, _ = run_cli(capsys, ["reproduce", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "FAIL" in out


def test_reproduce_to_an_unwritable_directory_exits_one(capsys, tmp_path):
    (tmp_path / "a-file").write_text("")
    out_dir = str(tmp_path / "a-file" / "out")
    code, out, err = run_cli(capsys, ["reproduce", "--out-dir", out_dir])
    assert code == 1
    assert out == ""
    path = os.path.join(out_dir, "reproduce.json")
    assert err.startswith(f"configuration error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-out-*"))


def test_reproduce_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["reproduce", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 10
    assert (tmp_path / "reproduce.json").exists()
