"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad flags or parameter values),
2 computation error, 3 reproduction-suite mismatch.  All file outputs are
written atomically and are byte-identical for identical configurations.
"""

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import render, reproduce
from .conescan import is_extremal, scan
from .cscs import csc_condition, csc_roots
from .errors import DomainError
from .exactmath import parse_rational
from .joinsetup import JoinSpec, cone_dim, join_is_smooth, join_vectors, make_setup
from .profile import compute_profile
from .twins import find_profile_twins, toric_csc_solutions


@dataclass(frozen=True)
class RunConfig:
    command: str
    d: Optional[int] = None
    a: Optional[Fraction] = None
    g2: Optional[int] = None
    k: Optional[int] = None
    x: Optional[Fraction] = None
    c: Optional[Fraction] = None
    grid_n: int = 33
    boundary_width: Fraction = Fraction(1, 2048)
    width: Fraction = Fraction(1, 10 ** 6)
    search_width: Fraction = Fraction(1, 10 ** 6)
    l1: Optional[int] = None
    l2: Optional[int] = None
    order1: int = 1
    order2: int = 1
    dim1: Optional[int] = None
    dim2: Optional[int] = None
    n: Optional[int] = None
    lam: Optional[Fraction] = None
    l: Optional[int] = None
    out: Optional[str] = None
    csv: Optional[str] = None
    svg: Optional[str] = None
    out_dir: str = "reproduce-out"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1 (config).

    Also widens the negative-number detection so values like -43137/1337 are
    read as option arguments rather than mistaken for flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

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
    p_scan.add_argument("--grid-n", type=int, default=33, dest="grid_n")
    p_scan.add_argument("--boundary-width", type=_rational,
                        default=Fraction(1, 2048), dest="boundary_width")
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
    p_twins.add_argument("--search-width", type=_rational,
                         default=Fraction(1, 10 ** 6), dest="search_width")
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


def config_from_args(args):
    fields = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__
              if hasattr(args, name)}
    return RunConfig(**fields)


def _emit(text, path):
    if path:
        render.write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _setup_from_config(config):
    return make_setup(d=config.d, a=config.a, genus_g2=config.g2,
                      degree_k=config.k, x=config.x)


def _run_profile(config):
    setup = _setup_from_config(config)
    prof = compute_profile(setup, config.c)
    doc = render.profile_document(setup, prof, is_extremal(prof.F),
                                  csc_condition(setup, config.c))
    _emit(render.dump_json(doc), config.out)
    return 0


def _run_scan(config):
    setup = _setup_from_config(config)
    report = scan(setup, grid_n=config.grid_n,
                  boundary_width=config.boundary_width)
    _emit(render.dump_json(render.scan_document(report)), config.out)
    if config.csv:
        render.write_atomic(config.csv, render.scan_csv(report))
    if config.svg:
        render.write_atomic(config.svg, render.scan_svg(report))
    return 0


def _run_csc_roots(config):
    setup = _setup_from_config(config)
    roots = csc_roots(setup, config.width)
    doc = render.roots_document(setup, config.width, roots)
    _emit(render.dump_json(doc), config.out)
    return 0


def _run_twins(config):
    setup = _setup_from_config(config)
    report = find_profile_twins(setup, config.c, config.search_width)
    _emit(render.dump_json(render.twins_document(setup, report)), config.out)
    return 0


def _run_toric(config):
    result = toric_csc_solutions(config.n, config.lam, config.l)
    doc = render.toric_document(config.n, config.lam, config.l, result)
    _emit(render.dump_json(doc), config.out)
    return 0


def _run_join(config):
    spec = JoinSpec(l1=config.l1, l2=config.l2,
                    order1=config.order1, order2=config.order2)
    dims = None
    if config.dim1 is not None and config.dim2 is not None:
        dims = (config.dim1, config.dim2, cone_dim(config.dim1, config.dim2))
    doc = render.join_document(spec, join_is_smooth(spec),
                               join_vectors(spec.l1, spec.l2), dims)
    _emit(render.dump_json(doc), config.out)
    return 0


def _run_reproduce(config):
    ok, results = reproduce.run(config.out_dir)
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


def run(config):
    handler = _DISPATCH.get(config.command)
    if handler is None:
        sys.stderr.write(f"unknown command: {config.command}\n")
        return 1
    # configuration-level validation errors (bad setup values) -> exit 1;
    # failures inside the computation itself -> exit 2
    try:
        if config.command in ("profile", "scan", "csc-roots", "twins"):
            _setup_from_config(config)
    except DomainError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    try:
        return handler(config)
    except DomainError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    raise SystemExit(main())
