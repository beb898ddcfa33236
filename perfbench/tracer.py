"""Per-layer tracing from outside the program: counts and self time.

Wrappers go on each layer's public functions.  A function imported with
`from x import f` is bound under several module names; the wrapper replaces
every such binding, so a call through any of them is seen.  Self time is the
wrapped call's duration minus the time of wrapped calls it made.  A recursive
function is counted on every call but timed only at its outermost call.  A
function the program no longer has reports null.
"""

import functools
import sys
from time import perf_counter

_PKG = "sasakijoin"

# metric prefix -> (module under the package, function); calls and self time
TIMED = (
    ("cli.main", "cli", "main"),
    ("conescan.scan", "conescan", "scan"),
    ("conescan.classify_ray", "conescan", "classify_ray"),
    ("profile.compute_profile", "profile", "compute_profile"),
    ("profile.solve_A", "profile", "solve_A"),
    ("cscs.csc_roots", "cscs", "csc_roots"),
    ("cscs.condition_numerator", "cscs", "condition_numerator"),
    ("cscs.csc_condition", "cscs", "csc_condition"),
    ("twins.find_profile_twins", "twins", "find_profile_twins"),
    ("exactmath.integrals.integrate_weighted_monomial", "exactmath.integrals",
     "integrate_weighted_monomial"),
    ("exactmath.linsolve.solve_exact", "exactmath.linsolve", "solve_exact"),
    ("exactmath.roots.sturm_count_roots", "exactmath.roots", "sturm_count_roots"),
    ("exactmath.roots.is_positive_on_open", "exactmath.roots", "is_positive_on_open"),
    ("exactmath.roots.isolate_roots", "exactmath.roots", "isolate_roots"),
    ("exactmath.roots.identify_rational_root", "exactmath.roots",
     "identify_rational_root"),
    ("exactmath.unipoly.poly_gcd", "exactmath.unipoly", "poly_gcd"),
    ("exactmath.unipoly.squarefree_part", "exactmath.unipoly", "squarefree_part"),
    ("exactmath.unipoly.exact_divide", "exactmath.unipoly", "exact_divide"),
)

# functions too small or too recursive to time: calls only
COUNTED = (
    ("exactmath.roots.simplest_rational_in", "exactmath.roots", "simplest_rational_in"),
)

# the rendering layer, timed as one span
RENDER = ("profile_document", "scan_document", "roots_document",
          "twins_document", "dump_json")

IDENTIFY = "exactmath.roots.identify_rational_root"
NUMERATOR = "cscs.condition_numerator"

# every per-layer metric of a traced pass, with its unit
METRICS = (
    [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
     ("render.self_s", "s"), ("render.bytes", "bytes")]
    + [(f"{prefix}.{kind}", unit) for prefix, _, _ in TIMED[1:]
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("cscs.numerator_bits", "bits"), (f"{IDENTIFY}.hit_ratio", "ratio")]
    + [(f"{prefix}.calls", "count") for prefix, _, _ in COUNTED]
    + [("exactmath.unipoly.eval.calls", "count")]
)

# metrics that must repeat exactly between traced passes of one seed
DETERMINISTIC = tuple(name for name, unit in METRICS
                      if unit in ("count", "bytes", "bits", "ratio"))


def _max_bits(poly):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Installs wrappers on the loaded package and aggregates one pass."""

    def __init__(self):
        self._stack = []
        self._stats = {}        # prefix -> [calls, self seconds]
        self._missing = set()   # prefixes whose function no longer exists
        self._patches = []      # (namespace, attribute, original)
        self._bytes = 0
        self._bits = 0
        self._hits = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for prefix, module, attr in table:
                if not self._wrap(prefix, module, attr, timed):
                    self._missing.add(prefix)
        if not [attr for attr in RENDER if self._wrap("render", "render", attr, True)]:
            self._missing.add("render")
        self._wrap_eval()

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _original(self, module, attr):
        mod = sys.modules.get(f"{_PKG}.{module}")
        return getattr(mod, attr, None) if mod is not None else None

    def _wrap(self, prefix, module, attr, timed):
        original = self._original(module, attr)
        if original is None:
            return False
        stats = self._stats.setdefault(prefix, [0, 0.0])
        wrapper = (self._timed(stats, original, self._on_return(prefix)) if timed
                   else self._counted(stats, original))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == _PKG or name.startswith(_PKG + ".")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapper)
        return True

    def _wrap_eval(self):
        poly_cls = getattr(sys.modules.get(f"{_PKG}.exactmath.unipoly"), "UniPoly", None)
        original = getattr(poly_cls, "__call__", None)
        if original is None:
            self._missing.add("exactmath.unipoly.eval")
            return
        stats = self._stats.setdefault("exactmath.unipoly.eval", [0, 0.0])
        self._patches.append((poly_cls, "__call__", original))
        poly_cls.__call__ = self._counted(stats, original)

    def _on_return(self, prefix):
        if prefix == IDENTIFY:
            def hit(result):
                self._hits += result is not None
            return hit
        if prefix == NUMERATOR:
            def bits(result):
                self._bits = max(self._bits, _max_bits(result))
            return bits
        if prefix == "render":
            def size(result):
                if isinstance(result, str):
                    self._bytes += len(result.encode())
            return size
        return None

    def _timed(self, stats, fn, on_return):
        stack = self._stack
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            frame = [0.0]   # time spent in wrapped calls made by this one
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[0] = 0
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    @staticmethod
    def _counted(stats, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- one pass ---------------------------------------------------------------

    def reset(self):
        for stats in self._stats.values():
            stats[0], stats[1] = 0, 0.0
        self._bytes = self._bits = self._hits = 0

    def snapshot(self):
        """Per-layer metrics of the pass since the last reset; None if absent."""
        out = {}
        for name, _ in METRICS:
            prefix, kind = name.rsplit(".", 1)
            if prefix in self._missing:
                out[name] = None
            elif kind == "calls":
                out[name] = self._stats[prefix][0]
            elif kind == "self_s":
                out[name] = self._stats[prefix][1]
        out["render.bytes"] = None if "render" in self._missing else self._bytes
        out["cscs.numerator_bits"] = None if NUMERATOR in self._missing else self._bits
        attempts = self._stats.get(IDENTIFY, [0])[0]
        out[f"{IDENTIFY}.hit_ratio"] = self._hits / attempts if attempts else None
        return out
