"""Fuzzed command lines: every well-formed argv of the six computing
subcommands ends in exit 0 with a document, or in exit 1 with a message on
the last line of stderr, and never in a traceback.

Inputs stay cheap: heights up to about 10^40, d <= 2, grid_n <= 64, boundary
widths of at least 2^-64 and csc-roots widths of at least 2^-4096, next to
values outside each domain (d = 0, x outside (0, 1), |c| >= 1, width <= 0,
grid_n outside [8, 4096], boundary_width below 2^-256).  Each output flag
writes to a fresh file in a temporary directory, to a path under a plain
file, or to an existing directory; a run with an unwritable output exits 1
and leaves neither a document on stdout nor a temporary file.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sasakijoin.cli as cli

HEIGHT = 10 ** 40
HUGE = 10 ** 400   # past the largest double

heights = st.one_of(st.integers(-50, 50), st.integers(-HEIGHT, HEIGHT))
rationals = st.builds(Fraction, heights, st.one_of(st.integers(1, 50), st.integers(1, HEIGHT)))


@st.composite
def inside(draw, lo):
    """A rational in (lo, 1), lo = 0 or -1."""
    den = draw(st.one_of(st.integers(2, 50), st.integers(2, HEIGHT)))
    return Fraction(draw(st.integers(lo * den + 1, den - 1)), den)


def outside(lo):
    """A rational outside (lo, 1)."""
    return rationals.map(lambda v: v + 1 if v >= 0 else v + lo)


# rationals of at least 2^-64, and their complement
POSITIVE = st.builds(Fraction, st.integers(1, HEIGHT), st.integers(1, 2 ** 64))
NOT_POSITIVE = st.builds(Fraction, st.integers(-HEIGHT, 0), st.integers(1, HEIGHT))
# csc-roots widths of at least 2^-4096
WIDTHS = st.builds(Fraction, st.integers(1, HEIGHT),
                   st.one_of(st.integers(1, 2 ** 64), st.integers(1, 2 ** 4096)))
# (values in the domain, values outside it or None) of each flag of the
# setup subcommands
FLAGS = {
    "--d": (st.integers(1, 2), st.integers(-1, 0)),
    "--a": (rationals, None),
    "--g2": (st.integers(0, 50), st.just(-1)),
    "--k": (st.integers(1, 50), st.integers(-1, 0)),
    "--x": (inside(0), outside(0)),
    "--c": (inside(-1), outside(-1)),
    "--grid-n": (st.integers(8, 64), st.one_of(st.integers(-9, 7),
                                               st.integers(4097, HEIGHT))),
    "--boundary-width": (POSITIVE, st.builds(lambda n, m: Fraction(n, 2 ** 256 + m),
                                            st.integers(-HEIGHT, 1),
                                            st.integers(1, HEIGHT))),
    "--width": (WIDTHS, NOT_POSITIVE),
}
SETUP = ["--d", "--a", "--g2", "--k", "--x"]
# where an output flag writes; only the first can be written
PATH_KINDS = ("fresh", "under a plain file", "a directory")
# each subcommand's flags, required first, then optional ones
COMMANDS = {
    "profile": (SETUP + ["--c"], []),
    "twins": (SETUP + ["--c"], []),
    "scan": (SETUP, ["--grid-n", "--boundary-width"]),
    "csc-roots": (SETUP, ["--width"]),
}


@st.composite
def command_lines(draw):
    """(subcommand, argv without output paths, {output flag: path kind})."""
    command = draw(st.sampled_from(["profile", "scan", "csc-roots", "twins", "toric",
                                    "join"]))
    flags_out = ["--out"] if draw(st.booleans()) else []
    if command in COMMANDS:
        required, optional = COMMANDS[command]
        flags = required + [flag for flag in optional if draw(st.booleans())]
        # at most one value outside its domain
        wrong = draw(st.one_of(st.none(), st.sampled_from(
            [flag for flag in flags if FLAGS[flag][1] is not None])))
        args = [part for flag in flags
                for part in (flag, draw(FLAGS[flag][flag == wrong]))]
        if command == "scan":
            flags_out += [flag for flag in ("--csv", "--svg") if draw(st.booleans())]
    elif command == "toric":
        n = draw(st.one_of(st.integers(2, 50), st.integers(2, HEIGHT)))
        wrong = draw(st.sampled_from([None, "--n", "--lambda", "--l"]))
        args = ["--n", draw(st.integers(-2, 1)) if wrong == "--n" else n,
                "--lambda", draw(NOT_POSITIVE if wrong == "--lambda" else POSITIVE),
                "--l", draw(st.integers(n, n + 2) if wrong == "--l" else st.integers(1, n - 1))]
    else:
        l1, l2 = (draw(st.one_of(st.integers(1, 50), st.integers(1, HEIGHT))) for _ in "12")
        wrong = draw(st.sampled_from([None, "--l1", "coprime", "--order1", "--dim1"]))
        if wrong != "coprime":
            l1, l2 = l1 // gcd(l1, l2), l2 // gcd(l1, l2)
        args = ["--l1", draw(st.integers(-2, 0)) if wrong == "--l1" else l1, "--l2", l2]
        if draw(st.booleans()) or wrong == "--order1":
            args += ["--order1", draw(st.integers(-2, 0) if wrong == "--order1"
                                      else st.integers(1, HEIGHT)),
                     "--order2", draw(st.integers(1, HEIGHT))]
        if draw(st.booleans()) or wrong == "--dim1":
            args += ["--dim1", draw(st.integers(1, 50))]
            args += [] if wrong == "--dim1" else ["--dim2", draw(st.integers(1, 50))]
    outputs = {flag: draw(st.sampled_from(PATH_KINDS)) for flag in flags_out}
    return command, [str(arg) for arg in args], outputs


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100)
@given(command_lines())
# a cscS root within 2^-1024 of c = -1: its slope is past the largest double
@example(("scan", ["--d", "1", "--a", str(HUGE), "--g2", "0", "--k", "1", "--x", "1/2"],
          {"--svg": "fresh"}))
# the document is rendered before the CSV file fails to be written
@example(("scan", ["--d", "1", "--a", "3", "--g2", "2", "--k", "1", "--x", "1/2"],
          {"--csv": "under a plain file"}))
def test_every_fuzzed_command_line_exits_zero_or_one(line):
    command, args, outputs = line
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a-file").write_text("")
        (root / "a-dir").mkdir()
        paths = {flag: {"fresh": root / f"output{flag}",
                        "under a plain file": root / "a-file" / f"output{flag}",
                        "a directory": root / "a-dir"}[kind]
                 for flag, kind in outputs.items()}
        argv = [command, *args, *(part for flag, path in paths.items()
                                  for part in (flag, str(path)))]
        code, out, err = _run(argv)
        assert code in (0, 1), (argv, err)
        assert "Traceback" not in err
        assert not list(root.rglob(".tmp-out-*"))
        if code == 0:
            assert err == ""
            assert set(outputs.values()) <= {"fresh"}
            text = paths["--out"].read_text() if "--out" in paths else out
            assert out == ("" if "--out" in paths else text)
            assert json.loads(text)["command"] == command
            for flag in ("--csv", "--svg"):
                assert flag not in paths or paths[flag].read_text()
        else:
            assert out == ""
            *usage, message = err.splitlines()
            assert err.endswith("\n")
            if usage:
                assert message.startswith(f"sasakijoin {command}: error: ")
            else:
                assert message.startswith("configuration error: ")
