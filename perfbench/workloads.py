"""Seeded CLI inputs for the benchmark workloads.

Each workload has a fixed pool of candidate items, drawn from POOL_SEED.
record.py runs every candidate and stores, in reference/<workload>.json, its
answer and its group: the setup's dimension d plus the shape of the
answer (number of cscS roots and how many stayed irrational, extremality).
The shape sets most of an item's cost: each irrational root costs a full
rational identification.  Each group is stored in order of the item's cost
at recording, and a run's --seed picks its pass: one item of each
neighbouring pair in every group (and an unpaired last item), in a seeded
order.  So two seeds run different setups but nearly the same work.

An item is a tuple of argv lists, run one after the other through the CLI.
"""

import json
import os
import random
from fractions import Fraction

POOL_SEED = 1976

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# csc-roots isolation width 1/2^64
ROOTS_WIDTH = f"1/{2 ** 64}"


def _fmt(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _random_x(rng, max_den):
    den = rng.randint(3, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def _random_rational(rng, lo=-10, hi=10, max_den=9):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _setup_flags(d, a, g2, k, x):
    return ["--d", str(d), "--a", _fmt(a), "--g2", str(g2), "--k", str(k),
            "--x", _fmt(x)]


def _random_setup(rng, d):
    return _setup_flags(d, _random_rational(rng), rng.randint(0, 6),
                        rng.randint(1, 6), _random_x(rng, 20))


def _regime_setup(rng, regime, d):
    """One setup from a constant-curvature existence regime (criterion 11)."""
    if regime == "flat":
        a, g2 = Fraction(0), 1
    else:
        a = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        g2 = 0 if regime == "positive-a" else rng.randint(1, 5)
    return _setup_flags(d, a, g2, rng.randint(1, 6), _random_x(rng, 12))


def _moat_setup(rng):
    """Weight-6 family with s = -3 whose cscS condition has the root c = x."""
    x = _random_x(rng, 20)
    a = 3 * (x ** 4 + 7) / ((1 - x ** 2) * (3 - x ** 2))
    return _setup_flags(2, a, 4, 2, x)


def _distinct(draw, count):
    items = []
    while len(items) < count:
        item = draw()
        if item not in items:
            items.append(item)
    return items


def _scan_pool(rng):
    # scan at CLI defaults: grid_n 33, boundary width 1/2048
    regimes = ("positive-a", "flat", "higher-genus")
    return _distinct(lambda: (["scan"] + _regime_setup(
        rng, rng.choice(regimes), rng.choice((1, 2))),), 48)


def _rays_pool(rng):
    def ray():
        flags = _random_setup(rng, rng.choice((1, 2, 3)))
        den = rng.randint(2, 40)
        flags += ["--c", _fmt(Fraction(rng.randint(1 - den, den - 1), den))]
        return (["profile"] + flags, ["twins"] + flags)

    return _distinct(ray, 120)


def _roots_pool(rng):
    # a third from the moat family, whose rational root c = x is found early;
    # random setups have irrational roots, where identification runs to its
    # halving cap
    def item(flags):
        return (["csc-roots"] + flags + ["--width", ROOTS_WIDTH],)

    return (_distinct(lambda: item(_moat_setup(rng)), 16)
            + _distinct(lambda: item(_random_setup(rng, rng.choice((1, 2, 3)))), 32))


_POOLS = {"scan": _scan_pool, "rays": _rays_pool, "roots": _roots_pool}

WORKLOADS = tuple(_POOLS)


def candidates(workload):
    """Every item of a workload's pool, in a fixed order."""
    return _POOLS[workload](random.Random(f"{workload}-{POOL_SEED}"))


def group(item, answer):
    """Group label of an item: its setup's d and the shape of its answer."""
    d = item[0][item[0].index("--d") + 1]
    first = answer[0]
    if "csc_rays" in first:
        roots = [row[:3] for row in first["csc_rays"]]
    elif "roots" in first:
        roots = first["roots"]
    else:
        return f"d={d} extremal={first['extremal']}"
    irrational = sum(1 for root in roots if root[2] is None)
    return f"d={d} roots={len(roots)} irrational={irrational}"


def item_key(item):
    return " ; ".join(" ".join(argv) for argv in item)


def load_reference(workload):
    with open(os.path.join(REFERENCE, f"{workload}.json")) as handle:
        return json.load(handle)


def make_pass(workload, seed):
    """The items of one pass: one of each pair of like cost, chosen and ordered by seed."""
    rng = random.Random(seed)
    items = []
    for _, members in sorted(load_reference(workload)["groups"].items()):
        items += [tuple(rng.choice(members[i:i + 2])) for i in range(0, len(members), 2)]
    rng.shuffle(items)
    return items
