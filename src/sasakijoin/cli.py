"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad flags or parameter values),
2 computation error, 3 reproduction-suite mismatch.  All file outputs are
written atomically and are byte-identical for identical configurations.
"""

import argparse
import re
import sys
from fractions import Fraction

from . import render, reproduce
from .conescan import GRID_N_MAX, _extremal_rows, scan
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
    p_profile.add_argument("--c", type=_rational, required=True)
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
    p_roots.add_argument("--width", type=_rational, default=Fraction(1, 10 ** 6))
    p_roots.add_argument("--out")

    p_twins = sub.add_parser("twins", help="find rays sharing one profile")
    _add_setup_flags(p_twins)
    p_twins.add_argument("--c", type=_rational, required=True)
    p_twins.add_argument("--out")

    p_toric = sub.add_parser("toric", help="toric csc candidate check")
    p_toric.add_argument("--n", type=int, required=True)
    p_toric.add_argument("--lambda", type=_rational, required=True, dest="lam")
    p_toric.add_argument("--l", type=int, required=True)
    p_toric.add_argument("--out")

    p_join = sub.add_parser("join", help="join smoothness and cone arithmetic")
    p_join.add_argument("--l1", type=int, required=True)
    p_join.add_argument("--l2", type=int, required=True)
    p_join.add_argument("--order1", type=int, default=1)
    p_join.add_argument("--order2", type=int, default=1)
    p_join.add_argument("--dim1", type=int)
    p_join.add_argument("--dim2", type=int)
    p_join.add_argument("--out")

    p_rep = sub.add_parser("reproduce", help="re-derive all frozen results")
    p_rep.add_argument("--out-dir", default="reproduce-out", dest="out_dir")

    return parser


# built once: the parser is a constant of the program
_PARSER = build_parser()


def _emit(text, path):
    if path:
        render.write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _setup_from_args(args):
    return make_setup(d=args.d, a=args.a, genus_g2=args.g2,
                      degree_k=args.k, x=args.x)


def _run_profile(args):
    setup = _setup_from_args(args)
    prof = compute_profile(setup, args.c)
    doc = render.profile_document(setup, prof, _extremal_rows(prof.rows),
                                  cscS_check(prof), csc_condition(setup, args.c))
    _emit(render.dump_json(doc), args.out)
    return 0


def _run_scan(args):
    setup = _setup_from_args(args)
    report = scan(setup, grid_n=args.grid_n,
                  boundary_width=args.boundary_width)
    _emit(render.dump_json(render.scan_document(report)), args.out)
    if args.csv:
        render.write_atomic(args.csv, render.scan_csv(report))
    if args.svg:
        render.write_atomic(args.svg, render.scan_svg(report))
    return 0


def _run_csc_roots(args):
    setup = _setup_from_args(args)
    roots = csc_roots(setup, args.width)
    doc = render.roots_document(setup, args.width, roots)
    _emit(render.dump_json(doc), args.out)
    return 0


def _run_twins(args):
    setup = _setup_from_args(args)
    report = find_profile_twins(setup, args.c)
    _emit(render.dump_json(render.twins_document(setup, report)), args.out)
    return 0


def _run_toric(args):
    result = toric_csc_solutions(args.n, args.lam, args.l)
    doc = render.toric_document(args.n, args.lam, args.l, result)
    _emit(render.dump_json(doc), args.out)
    return 0


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
    _emit(render.dump_json(doc), args.out)
    return 0


def _run_reproduce(args):
    ok, results = reproduce.run(args.out_dir)
    for result in results:
        sys.stdout.write(f"{'PASS' if result['ok'] else 'FAIL'}  {result['name']}\n")
    return 0 if ok else 3


_DISPATCH = {
    "profile": _run_profile,
    "scan": _run_scan,
    "csc-roots": _run_csc_roots,
    "twins": _run_twins,
    "toric": _run_toric,
    "join": _run_join,
    "reproduce": _run_reproduce,
}


def run(args):
    """Dispatch parsed arguments; DomainError exits 1, other failures 2."""
    try:
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2


def main(argv=None):
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
