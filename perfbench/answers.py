"""Answer checks: compare CLI documents with reference answers on meaning.

summarize() reduces one CLI document to what it means (verdicts, counts,
labels, exact values, brackets), as JSON-ready data.  agreement() compares a
summary with the reference summary that record.py stored.  It accepts
refinements a later exact method may bring: a root bracket may move as long as
it meets the reference bracket, a root the reference left unidentified may
gain an exact value inside that bracket, and a contested label may be settled.
profile_residual() re-checks a profile document with sympy.
"""

from fractions import Fraction


def _exact(field):
    return None if field is None else field["exact"]


def _bracket(root):
    return [root["lo"]["exact"], root["hi"]["exact"], _exact(root["exact_value"])]


def summarize(doc):
    command = doc["command"]
    if command == "scan":
        return {
            "rays": [[r["c"]["exact"], r["extremal"], r["cscS"]] for r in doc["rays"]],
            "extremal_regions": len(doc["extremal_intervals"]),
            "moats": len(doc["moats"]),
            "csc_rays": [_bracket(e["root"]) + [e["genuine"], e["contested"]]
                         for e in doc["csc_rays"]],
        }
    if command == "csc-roots":
        return {"roots": [_bracket(r) for r in doc["roots"]]}
    if command == "profile":
        return {key: (doc[key] if key in ("extremal", "cscS") else doc[key]["exact"])
                for key in ("c", "A1", "A2", "extremal", "cscS", "csc_condition")}
    if command == "twins":
        partners = doc["partners"]
        return {
            "partners": (partners if isinstance(partners, str)
                         else [p["exact"] for p in partners]),
            "unresolved": [_bracket(r)[:2] for r in doc["unresolved"]],
        }
    raise ValueError(f"no summary for command {command!r}")


def _meets(a_lo, a_hi, b_lo, b_hi):
    return max(Fraction(a_lo), Fraction(b_lo)) <= min(Fraction(a_hi), Fraction(b_hi))


def _root_agreement(ref, got):
    """ref and got are [lo, hi, exact] brackets of the same root."""
    if not _meets(ref[0], ref[1], got[0], got[1]):
        return f"bracket [{got[0]}, {got[1]}] misses reference [{ref[0]}, {ref[1]}]"
    if ref[2] is not None and got[2] != ref[2]:
        return f"exact value {got[2]} != reference {ref[2]}"
    if ref[2] is None and got[2] is not None and not (
            Fraction(ref[0]) <= Fraction(got[2]) <= Fraction(ref[1])):
        return f"exact value {got[2]} outside reference bracket"
    return None


def _roots_agreement(ref_roots, got_roots):
    if len(got_roots) != len(ref_roots):
        return f"{len(got_roots)} roots, reference has {len(ref_roots)}"
    for ref, got in zip(ref_roots, got_roots):
        reason = _root_agreement(ref, got)
        if reason:
            return reason
    return None


def agreement(ref, got, command):
    """None when got means the same as ref, else the first difference."""
    if command == "scan":
        if got["rays"] != ref["rays"]:
            return "ray verdicts differ"
        for key in ("extremal_regions", "moats"):
            if got[key] != ref[key]:
                return f"{key}: {got[key]} != reference {ref[key]}"
        reason = _roots_agreement([r[:3] for r in ref["csc_rays"]],
                                  [r[:3] for r in got["csc_rays"]])
        if reason:
            return reason
        for ref_row, got_row in zip(ref["csc_rays"], got["csc_rays"]):
            contested = ref_row[4]
            if not contested and got_row[3:] != ref_row[3:]:
                return f"genuine/contested {got_row[3:]} != reference {ref_row[3:]}"
        return None
    if command == "csc-roots":
        return _roots_agreement(ref["roots"], got["roots"])
    if command == "profile":
        for key, value in ref.items():
            if got[key] != value:
                return f"{key}: {got[key]} != reference {value}"
        return None
    if command == "twins":
        if isinstance(ref["partners"], str) or isinstance(got["partners"], str):
            same = got["partners"] == ref["partners"]
            return None if same else f"partners {got['partners']} != {ref['partners']}"
        missing = set(ref["partners"]) - set(got["partners"])
        if missing:
            return f"partners {sorted(missing)} missing"
        for extra in set(got["partners"]) - set(ref["partners"]):
            if not any(Fraction(lo) <= Fraction(extra) <= Fraction(hi)
                       for lo, hi in ref["unresolved"]):
                return f"partner {extra} not in any reference candidate interval"
        for lo, hi in got["unresolved"]:
            if not any(_meets(lo, hi, r_lo, r_hi) for r_lo, r_hi in ref["unresolved"]):
                return f"unresolved candidate [{lo}, {hi}] not in the reference"
        return None
    raise ValueError(f"no agreement rule for command {command!r}")


def consistency(docs):
    """None when the documents of one item agree with each other.

    A rays item runs profile then twins on one ray; twins must report the
    profile's own F as the shared profile.
    """
    by_command = {doc["command"]: doc for doc in docs}
    if "profile" in by_command and "twins" in by_command:
        if by_command["twins"]["shared_F"] != by_command["profile"]["F"]:
            return "twins shared_F differs from the profile's F"
    return None


def profile_residual(doc):
    """None when the profile meets its endpoint conditions and ODE, per sympy."""
    import sympy

    def q(field):
        return sympy.Rational(field["exact"])

    setup = doc["setup"]
    p = setup["d"] + 4
    a, s, x = q(setup["a"]), q(setup["s"]), q(setup["x"])
    c, A1, A2 = q(doc["c"]), q(doc["A1"]), q(doc["A2"])
    z = sympy.Symbol("z")
    F = sum(q(coeff) * z ** i
            for i, coeff in enumerate(doc["F"]["coefficients_low_to_high"]))
    dF = sympy.diff(F, z)
    ends = (F.subs(z, 1), F.subs(z, -1), dF.subs(z, 1) + 2 * (1 + x),
            dF.subs(z, -1) - 2 * (1 - x))
    if any(v != 0 for v in ends):
        return "endpoint conditions fail"
    w = c * z + 1
    lhs = w ** 2 * sympy.diff(F, z, 2) - 2 * (p - 1) * c * w * dF + p * (p - 1) * c ** 2 * F
    rhs = w ** 2 * (2 * a * (1 + x * z) + 2 * s * x) - (A1 * z + A2) * (1 + x * z)
    if sympy.expand(lhs - rhs) != 0:
        return "ODE residual nonzero"
    return None
