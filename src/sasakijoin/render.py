"""Report rendering: JSON documents, the scan CSV table, and the SVG diagram.

A document holds dicts with str keys, lists, tuples, str, int, bool, None and
Fraction.  dump_json writes each Fraction as a number field: its exact
rational string and a display-only decimal, the repr of the nearest double
("inf" or "-inf" past the largest finite one).  The text is that of
json.dumps(doc, indent=2, sort_keys=True) with each Fraction replaced by its
number field, byte for byte.  No timestamps appear anywhere, so identical
inputs give identical text.  A root's "certificate" is the constant "exact",
and a scan's slope_map is read off each ray's c.
"""

import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from ._version import __version__
from .conescan import slope
from .errors import DomainError
from .exactmath import decimal_str, format_rational


def poly_field(poly):
    return {
        "degree": poly.degree,
        "coefficients_low_to_high": poly.coeffs,
    }


def root_field(root):
    return {
        "lo": root.lo,
        "hi": root.hi,
        # every RootInterval is certified by a Sturm count of 1
        "certificate": "exact",
        "exact_value": root.exact_value,
    }


def setup_field(setup):
    return {
        "d": setup.d,
        "a": setup.a,
        "g2": setup.genus_g2,
        "k": setup.degree_k,
        "s": setup.s,
        "x": setup.x,
        "p": setup.p,
    }


def region_field(region):
    (left_lo, left_hi), (right_lo, right_hi) = region.left, region.right
    return {"left": {"lo": left_lo, "hi": left_hi}, "right": {"lo": right_lo, "hi": right_hi}}


def _document(command, schema=1):
    return {
        "schema": schema,
        "generator": {"name": "sasakijoin", "version": __version__},
        "command": command,
    }


def profile_document(setup, prof, extremal, cscS, condition_value):
    doc = _document("profile")
    doc.update({
        "setup": setup_field(setup),
        "c": prof.c,
        "F": poly_field(prof.F),
        "A1": prof.A1,
        "A2": prof.A2,
        "extremal": extremal,
        "cscS": cscS,
        "csc_condition": condition_value,
    })
    return doc


def roots_document(setup, width, roots):
    doc = _document("csc-roots")
    doc.update({
        "setup": setup_field(setup),
        "width": width,
        "roots": [root_field(r) for r in roots],
    })
    return doc


def scan_document(report):
    doc = _document("scan", schema=2)
    doc.update({
        "setup": setup_field(report.setup),
        "boundary_width": report.boundary_width,
        "connectivity": report.connectivity,
        "whole_cone_boxes": report.whole_cone_boxes,
        "rays": [
            {
                "c": r.c,
                "extremal": r.extremal,
                "cscS": r.cscS,
                "F": poly_field(r.F),
            }
            for r in report.rays
        ],
        "extremal_intervals": [region_field(r) for r in report.extremal_intervals],
        "moats": [region_field(r) for r in report.moats],
        "csc_rays": [
            {
                "root": root_field(entry.root),
                "genuine": entry.genuine,
                "contested": entry.contested,
            }
            for entry in report.csc_rays
        ],
        "slope_map": [{"c": r.c, "slope": slope(r.c)} for r in report.rays],
    })
    return doc


def twins_document(setup, report):
    doc = _document("twins")
    doc.update({
        "setup": setup_field(setup),
        "base_c": report.base_c,
        "partners": report.partners,
        "shared_F": poly_field(report.shared_F),
        "unresolved": [root_field(r) for r in report.unresolved],
    })
    return doc


def toric_document(n, lam, l, result):
    doc = _document("toric")
    doc.update({
        "n": n,
        "lambda": lam,
        "l": l,
        "solutions": [
            {"v": sol["v"], "admissible": sol["admissible"]}
            for sol in result["solutions"]
        ],
        "any_admissible": result["any_admissible"],
    })
    return doc


def join_document(spec, smooth, vectors, dims=None):
    doc = _document("join")
    doc.update({
        "l1": spec.l1,
        "l2": spec.l2,
        "order1": spec.order1,
        "order2": spec.order2,
        "smooth": smooth,
        "vectors": {
            "reeb": vectors["reeb"],
            "lvec": vectors["lvec"],
            "contact": list(vectors["contact"]),
        },
    })
    if dims is not None:
        dim1, dim2, total = dims
        doc["cone_dim"] = {"dim1": dim1, "dim2": dim2, "join": total}
    return doc


def reproduce_document(results):
    doc = _document("reproduce")
    doc.update({
        "ok": all(r["ok"] for r in results),
        "checks": results,
    })
    return doc


def dump_json(doc):
    """The document as indented JSON text with sorted keys and a final newline.

    A float, a non-str key or any type a document does not hold raises
    TypeError.
    """
    parts = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value, newline, parts):
    """Append the JSON text of value to parts; newline is "\n" plus the
    indent of the line value starts on."""
    if isinstance(value, Fraction):
        # both strings are ASCII with no quote or backslash: nothing to escape
        inner = newline + "  "
        parts.append(f'{{{inner}"decimal": "{decimal_str(value)}",'
                     f'{inner}"exact": "{format_rational(value)}"{newline}}}')
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"document key {key!r} is not a str")
            parts.append(opener)
            parts.append(_quote(key))
            parts.append(": ")
            _write(value[key], inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            parts.append(opener)
            _write(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"a document holds no {type(value).__name__}")


def write_atomic(path, text):
    """Write text to path through a temporary file next to its resolved
    target, which it replaces, so a symlink stays a link.

    The file gets the mode a plain open() would create it with, 0o666 less
    the umask, not mkstemp's 0o600.  A path that cannot be written, or that
    exists and is not a regular file, is a DomainError, and no temporary
    file is left behind.
    """
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        target = os.path.realpath(path)
        if os.path.exists(target) and not os.path.isfile(target):
            raise DomainError(f"cannot write {path}: not a regular file")
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-out-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def scan_csv(report):
    lines = ["c_num,c_den,extremal,cscS,F_coeffs"]
    for ray in report.rays:
        coeffs = ";".join(format_rational(c) for c in ray.F.coeffs)
        lines.append(f"{ray.c.numerator},{ray.c.denominator},"
                     f"{str(ray.extremal).lower()},{str(ray.cscS).lower()},{coeffs}")
    return "\n".join(lines) + "\n"


# --- SVG cone diagram -------------------------------------------------------

_SIDE = 340.0
_MARGIN = 40.0


def _fmt(v):
    return f"{float(v):.3f}"


def _edge_point(slope_value):
    """Intersection of the ray of given slope with the plot-square boundary:
    the vertical edge for None (c -> -1) or a slope past the largest double."""
    if slope_value is None or slope_value > sys.float_info.max:
        return (0.0, _SIDE)
    m = float(slope_value)
    if m <= 1.0:
        return (_SIDE, _SIDE * m)
    return (_SIDE / m, _SIDE)


def _to_px(point):
    x, y = point
    return (_MARGIN + x, _MARGIN + _SIDE - y)


def _line(p1, p2, style):
    (x1, y1), (x2, y2) = _to_px(p1), _to_px(p2)
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" {style}/>')


def _bracket_slope(bracket):
    lo, hi = bracket
    if lo == hi == -1:
        return None  # vertical
    return slope((lo + hi) / 2)


def _wedge_path(slope_hi, slope_lo):
    """Polygon from the origin sweeping from the steeper to the flatter ray."""
    points = [(0.0, 0.0), _edge_point(slope_hi)]
    hi_steep = slope_hi is None or float(slope_hi) > 1.0
    lo_flat = slope_lo is not None and float(slope_lo) < 1.0
    if hi_steep and lo_flat:
        points.append((_SIDE, _SIDE))
    points.append(_edge_point(slope_lo))
    px = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (_to_px(pt) for pt in points))
    return px


def scan_svg(report):
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 420 420" width="420" height="420">',
        '<rect x="0" y="0" width="420" height="420" fill="#ffffff"/>',
    ]
    # moat wedges first so rays draw on top
    for moat in report.moats:
        slope_hi = _bracket_slope(moat.left)   # smaller c -> steeper ray
        slope_lo = _bracket_slope(moat.right)
        parts.append(f'<polygon points="{_wedge_path(slope_hi, slope_lo)}" '
                     'fill="#d9d9d9" stroke="none"/>')
    # cone edges: the vertical (c -> -1) and horizontal (c -> 1) boundary rays
    edge_style = 'stroke="#000000" stroke-width="1.5"'
    parts.append(_line((0.0, 0.0), (0.0, _SIDE), edge_style))
    parts.append(_line((0.0, 0.0), (_SIDE, 0.0), edge_style))
    # sampled rays
    for ray in report.rays:
        color = "#5588cc" if ray.extremal else "#bbbbbb"
        parts.append(_line((0.0, 0.0), _edge_point(slope(ray.c)),
                           f'stroke="{color}" stroke-width="0.6"'))
    # cscS rays on top, labeled
    for entry in report.csc_rays:
        root = entry.root
        value = root.exact_value if root.exact_value is not None else root.midpoint
        end = _edge_point(slope(value))
        if entry.contested:
            color, dash = "#cc8800", ' stroke-dasharray="2,2"'
        elif entry.genuine:
            color, dash = "#117733", ""
        else:
            color, dash = "#cc3311", ' stroke-dasharray="6,3"'
        parts.append(_line((0.0, 0.0), end,
                           f'stroke="{color}" stroke-width="2"{dash}'))
        ex, ey = _to_px(end)
        parts.append(f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="3" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_fmt(ex + 4)}" y="{_fmt(ey - 4)}" '
                     f'font-size="10" font-family="sans-serif">'
                     f'c={_fmt(value)}</text>')
    # legend
    legend = [
        ("#5588cc", "extremal ray"),
        ("#bbbbbb", "non-extremal ray"),
        ("#117733", "genuine cscS ray"),
        ("#cc3311", "spurious cscS root"),
        ("#cc8800", "contested cscS root"),
        ("#d9d9d9", "moat"),
    ]
    y = 18.0
    for color, label in legend:
        parts.append(f'<rect x="252" y="{_fmt(y - 8)}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="266" y="{_fmt(y + 1)}" font-size="10" '
                     f'font-family="sans-serif">{label}</text>')
        y += 14.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
