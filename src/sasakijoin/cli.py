"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad flags or parameter values),
2 computation error, 3 reproduction-suite mismatch.  Every output is rendered
in full before anything is written; then each file is written atomically,
and stdout last.  So a run that exits 1 or 2 prints nothing on stdout,
though a file written before a failed write stays.  Outputs are
byte-identical for identical configurations.
"""

import argparse
import re
import sys
from fractions import Fraction

from . import render, reproduce
from .conescan import GRID_N_MAX, rows_extremal, scan
from .cscs import csc_condition, csc_roots
from .errors import DomainError
from .exactmath import parse_rational
from .joinsetup import JoinSpec, cone_dim, join_is_smooth, join_vectors, make_setup
from .profile import compute_profile, cscS_check
from .twins import find_profile_twins, toric_csc_solutions


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1 (config).

    Also widens the negative-number detection so values like -43137/1337 are
    read as option arguments rather than mistaken for flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _rational(text):
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_setup_flags(sub):
    sub.add_argument("--d", type=int, required=True, help="first-factor complex dimension")
    sub.add_argument("--a", type=_rational, required=True, help="first-factor curvature parameter (rational p/q)")
    sub.add_argument("--g2", type=int, required=True, help="second-factor genus")
    sub.add_argument("--k", type=int, required=True, help="twisting degree")
    sub.add_argument("--x", type=_rational, required=True, help="cone coordinate in (0,1), rational")


def build_parser():
    parser = _Parser(prog="sasakijoin",
                     description="Exact classification of extremal and cscS "
                                 "rays over polarized products.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_profile = sub.add_parser("profile", help="solve one ray's profile")
    _add_setup_flags(p_profile)
    p_profile.add_argument("--c", type=_rational, required=True, help="ray coordinate in (-1,1), rational")
    p_profile.add_argument("--out", help="JSON output path (default: stdout)")

    p_scan = sub.add_parser("scan", help="classify the whole c-line")
    _add_setup_flags(p_scan)
    p_scan.add_argument("--grid-n", type=int, default=33, dest="grid_n",
                        help=f"number of grid rays, 8 to {GRID_N_MAX} (default 33)")
    p_scan.add_argument("--boundary-width", type=_rational,
                        default=Fraction(1, 2048), dest="boundary_width",
                        help="boundary bracket width, at least 1/2^256 (default 1/2048)")
    p_scan.add_argument("--out", help="JSON output path (default: stdout)")
    p_scan.add_argument("--csv", help="CSV table output path")
    p_scan.add_argument("--svg", help="SVG diagram output path")

    p_roots = sub.add_parser("csc-roots", help="isolate roots of the cscS condition")
    _add_setup_flags(p_roots)
    p_roots.add_argument("--width", type=_rational, default=Fraction(1, 10 ** 6),
                         help="root bracket width, any positive rational (default 1/10^6)")
    p_roots.add_argument("--out", help="JSON output path (default: stdout)")

    p_twins = sub.add_parser("twins", help="find rays sharing one profile")
    _add_setup_flags(p_twins)
    p_twins.add_argument("--c", type=_rational, required=True, help="ray coordinate in (-1,1), rational")
    p_twins.add_argument("--out", help="JSON output path (default: stdout)")

    p_toric = sub.add_parser("toric", help="toric csc candidate check")
    p_toric.add_argument("--n", type=int, required=True, help="simplex dimension, at least 2")
    p_toric.add_argument("--lambda", type=_rational, required=True, dest="lam",
                         help="constant term of the potential, a positive rational")
    p_toric.add_argument("--l", type=int, required=True,
                         help="number of equal components, 1 <= l < n")
    p_toric.add_argument("--out", help="JSON output path (default: stdout)")

    p_join = sub.add_parser("join", help="join smoothness and cone arithmetic")
    p_join.add_argument("--l1", type=int, required=True,
                        help="first join weight, a positive integer coprime to l2")
    p_join.add_argument("--l2", type=int, required=True, help="second join weight")
    p_join.add_argument("--order1", type=int, default=1,
                        help="first factor's largest orbifold order (default 1)")
    p_join.add_argument("--order2", type=int, default=1,
                        help="second factor's largest orbifold order (default 1)")
    p_join.add_argument("--dim1", type=int,
                        help="first factor's Sasaki cone dimension, given with --dim2")
    p_join.add_argument("--dim2", type=int, help="second factor's Sasaki cone dimension")
    p_join.add_argument("--out", help="JSON output path (default: stdout)")

    p_rep = sub.add_parser("reproduce", help="re-derive all frozen results")
    p_rep.add_argument("--out-dir", default="reproduce-out", dest="out_dir")

    return parser


# built once: the parser is a constant of the program
_PARSER = build_parser()


def _setup_from_args(args):
    return make_setup(d=args.d, a=args.a, genus_g2=args.g2,
                      degree_k=args.k, x=args.x)


def _run_profile(args):
    setup = _setup_from_args(args)
    prof = compute_profile(setup, args.c)
    doc = render.profile_document(setup, prof, rows_extremal(prof.rows),
                                  cscS_check(prof), csc_condition(setup, args.c))
    return 0, [(args.out, render.dump_json(doc))]


def _run_scan(args):
    setup = _setup_from_args(args)
    report = scan(setup, grid_n=args.grid_n,
                  boundary_width=args.boundary_width)
    outputs = [(args.out, render.dump_json(render.scan_document(report)))]
    if args.csv:
        outputs.append((args.csv, render.scan_csv(report)))
    if args.svg:
        outputs.append((args.svg, render.scan_svg(report)))
    return 0, outputs


def _run_csc_roots(args):
    setup = _setup_from_args(args)
    roots = csc_roots(setup, args.width)
    doc = render.roots_document(setup, args.width, roots)
    return 0, [(args.out, render.dump_json(doc))]


def _run_twins(args):
    setup = _setup_from_args(args)
    report = find_profile_twins(setup, args.c)
    return 0, [(args.out, render.dump_json(render.twins_document(setup, report)))]


def _run_toric(args):
    result = toric_csc_solutions(args.n, args.lam, args.l)
    doc = render.toric_document(args.n, args.lam, args.l, result)
    return 0, [(args.out, render.dump_json(doc))]


def _run_join(args):
    spec = JoinSpec(l1=args.l1, l2=args.l2,
                    order1=args.order1, order2=args.order2)
    if (args.dim1 is None) != (args.dim2 is None):
        raise DomainError("--dim1 and --dim2 must be given together")
    dims = None
    if args.dim1 is not None:
        dims = (args.dim1, args.dim2, cone_dim(args.dim1, args.dim2))
    doc = render.join_document(spec, join_is_smooth(spec),
                               join_vectors(spec.l1, spec.l2), dims)
    return 0, [(args.out, render.dump_json(doc))]


def _run_reproduce(args):
    ok, results = reproduce.run(args.out_dir)
    lines = "".join(f"{'PASS' if result['ok'] else 'FAIL'}  {result['name']}\n"
                    for result in results)
    return (0 if ok else 3), [(None, lines)]


_DISPATCH = {
    "profile": _run_profile,
    "scan": _run_scan,
    "csc-roots": _run_csc_roots,
    "twins": _run_twins,
    "toric": _run_toric,
    "join": _run_join,
    "reproduce": _run_reproduce,
}


def main(argv=None):
    """Run argv's subcommand, write its files and then stdout, and return
    the exit status: a DomainError exits 1, an ArithmeticError or
    RuntimeError 2, each with one line on stderr."""
    args = _PARSER.parse_args(argv)
    try:
        status, outputs = _DISPATCH[args.command](args)
        for path, text in outputs:
            if path:
                render.write_atomic(path, text)
        sys.stdout.write("".join(text for path, text in outputs if not path))
        return status
    except DomainError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
