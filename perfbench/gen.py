"""Seeded input generators for the benchmark workloads.

Everything here is pure Python over integers; the only
library objects built are the representations handed to the program.  Each
generator takes a ``random.Random`` so that one seed fixes every input.

Three generators:

* ``conjugate`` applies a random change of basis at every vertex.  The
  result is isomorphic to its input, so every verdict and every oracle set
  is unchanged, but it is a new object: the oracle's per-process cache
  cannot answer it, and repeated cycles measure real work.
* ``EndoDraws`` makes direct sums of distinct D5tilde members with the
  procedure of acceptance criterion 4, stratified on the dimension of the
  endomorphism algebra (see its docstring).
* ``fm_problem`` plants a weight and builds a mixed-sign feasibility problem
  around it; ``fm_pair_count`` counts the row pairs Fourier-Motzkin forms on
  it, which ``stratified_fm`` uses to keep the share of heavy problems the
  same in every run.  Run ``python3 gen.py`` to rebuild the reference
  distribution in fm_reference.json after changing the generator.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from math import comb, gcd
from pathlib import Path

from goldens import DISTINCT

# --- change of basis -------------------------------------------------------


def _random_gl(rng: random.Random, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random d x d integer matrix of determinant +-1 and its inverse.

    A product of sign changes and elementary row operations with factor
    +-1: entries stay small integers, so the exact arithmetic costs about
    what it costs on the catalog matrices, and the matrix stays invertible
    modulo every prime.
    """
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(d):
        if rng.random() < 0.5:
            g[i] = [-x for x in g[i]]
            for row in inv:
                row[i] = -row[i]
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1))
        # g <- E g with E = I + c e_ij, inv <- inv E^-1
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in inv:
            row[j] -= c * row[i]
    return g, inv


def _matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def conjugate_matrices(dims, arrows, matrices, rng: random.Random):
    """Arrow matrices after a random change of basis at each vertex.

    ``arrows`` lists (tail, head) vertex indices and ``matrices`` the row
    lists, each ``dims[head]`` rows of ``dims[tail]`` entries.
    """
    bases = [_random_gl(rng, d) for d in dims]
    out = []
    for (tail, head), m in zip(arrows, matrices):
        if not dims[tail] or not dims[head]:
            out.append([[0] * dims[tail] for _ in range(dims[head])])
            continue
        g_head, _ = bases[head]
        _, inv_tail = bases[tail]
        out.append(_matmul(_matmul(g_head, m), inv_tail))
    return out


def conjugate(rep, rng: random.Random):
    """An isomorphic copy of a library Representation in a random basis."""
    q = rep.quiver
    arrows = [(a.tail, a.head) for a in q.arrows]
    mats = conjugate_matrices(rep.dim, arrows, [m.data for m in rep.matrices], rng)
    return type(rep)(q, rep.dim, tuple(
        type(m).shaped(m.rows, m.cols, rows) for m, rows in zip(rep.matrices, mats)))


# --- endo-sums draws -------------------------------------------------------

CONFLICTING_PAIRS = (("E1", "V1"), ("E3", "V1"), ("L1", "V3"), ("L2", "V3"))
MAX_TOTAL_DIM = 28
MULTS = (1, 2, 3)


class EndoDraws:
    """Direct sums drawn like acceptance criterion 4, stratified on End dim.

    A free draw takes 1-4 distinct members, a forced draw one of the four
    non-orthogonal pairs plus 0-2 further members; multiplicities are 1-3
    and a draw whose total dimension exceeds 28 is redrawn.  One draw in
    three is forced.

    Run time is set mostly by the dimension of End of the sum, which spans
    1 to 31 with the large values rare (above End dimension 20 a draw takes
    seconds, against 0.06 s for the median one), and next by the total
    dimension.  Plain sampling puts a different number of the rare, slow
    draws into each run, so throughput and latency would track the seed.
    Instead every cycle has the same profile of (End dimension, total
    dimension) pairs: with ``n`` draws of a kind per cycle, draw i has the
    pair at quantile (i + 1/2) / n of that kind's distribution, ordered by
    End dimension and then total dimension and computed exactly by
    enumerating the procedure above.  The draw itself comes from the
    procedure's own conditional distribution given the pair; the seed picks
    the summands, multiplicities and order.  Each cycle holds its share of
    slow draws, up to End dimension 27 (3.5-4 s); End dimensions 28-31, 0.2%
    of criterion-4 draws, lie above the top quantile and do not occur.
    """

    def __init__(self, hom: dict[tuple[str, str], int], total_dim: dict[str, int]):
        self.hom = hom
        self.total_dim = total_dim
        self.kinds = {"free": self._enumerate(free=True),
                      "forced": self._enumerate(free=False)}

    def end_dim(self, names, mults) -> int:
        return sum(ma * mb * self.hom[a, b]
                   for a, ma in zip(names, mults) for b, mb in zip(names, mults))

    def _enumerate(self, free: bool):
        """(End dim, total dim) -> list of (weight, names, mults) of accepted
        draws, plus the cumulative distribution over those pairs."""
        weighted: list[tuple[float, tuple[str, ...]]] = []
        if free:
            for k in range(1, 5):
                for names in combinations(DISTINCT, k):
                    weighted.append((1 / 4 / comb(len(DISTINCT), k), names))
        else:
            for pair in CONFLICTING_PAIRS:
                extras = [n for n in DISTINCT if n not in pair]
                for j in range(3):
                    for more in combinations(extras, j):
                        weighted.append((1 / len(CONFLICTING_PAIRS) / 3 / comb(len(extras), j),
                                         pair + more))
        by_key: dict[tuple[int, int], list[tuple[float, tuple[str, ...], tuple[int, ...]]]] = {}
        for w, names in weighted:
            for mults in product(MULTS, repeat=len(names)):
                total_dim = sum(m * self.total_dim[n] for n, m in zip(names, mults))
                if total_dim > MAX_TOTAL_DIM:
                    continue
                by_key.setdefault((self.end_dim(names, mults), total_dim), []).append(
                    (w / len(MULTS) ** len(names), names, mults))
        total = sum(w for entries in by_key.values() for w, _, _ in entries)
        cdf, acc = [], 0.0
        for key in sorted(by_key):
            acc += sum(w for w, _, _ in by_key[key]) / total
            cdf.append((acc, key))
        return by_key, cdf

    def cycle(self, rng: random.Random, n_free: int, n_forced: int):
        """One cycle of draws: list of (kind, names, mults), in seeded order."""
        out = []
        for kind, n in (("free", n_free), ("forced", n_forced)):
            by_key, cdf = self.kinds[kind]
            for i in range(n):
                u = (i + 0.5) / n
                key = next((key for c, key in cdf if u < c), cdf[-1][1])
                entries = by_key[key]
                r = rng.random() * sum(w for w, _, _ in entries)
                for w, names, mults in entries:
                    r -= w
                    if r <= 0:
                        break
                order = list(range(len(names)))
                rng.shuffle(order)
                out.append((kind, tuple(names[j] for j in order),
                            tuple(mults[j] for j in order)))
        rng.shuffle(out)
        return out


# --- Fourier-Motzkin problems ----------------------------------------------

FM_N = 5            # weight length
FM_ROWS = (10, 13)  # strict rows, inclusive range
FM_ENTRY = 3        # entries of theta, equality and rows lie in [-3, 3]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def fm_problem(rng: random.Random):
    """(equalities, strict rows) with a planted theta: theta . e = 0 for the
    one equality and theta . s <= -1 for every strict row."""
    def vec():
        return tuple(rng.randint(-FM_ENTRY, FM_ENTRY) for _ in range(FM_N))

    theta = vec()
    while not any(theta):
        theta = vec()
    eq = vec()
    while not any(eq) or _dot(theta, eq) != 0:
        eq = vec()
    strict = []
    for _ in range(rng.randint(*FM_ROWS)):
        s = vec()
        while _dot(theta, s) == 0:
            s = vec()
        strict.append(s if _dot(theta, s) < 0 else tuple(-x for x in s))
    return (eq,), tuple(strict)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def fm_pair_count(equalities, strict) -> int:
    """Row pairs Fourier-Motzkin combines on the problem, summed over steps.

    Follows ``find_weight``'s order: the one equality is substituted by the
    kernel basis with a unit at each free coordinate, variables are then
    eliminated from the last to the second, rows are normalized and
    de-duplicated after each step.  The last step's pairs are counted, not
    formed, which keeps this cheap.  Used only to stratify problems.
    """
    (e,) = equalities
    j = next(i for i, x in enumerate(e) if x)
    sign = 1 if e[j] > 0 else -1
    ker = []
    for f in range(len(e)):
        if f != j:
            v = [0] * len(e)
            v[f], v[j] = sign * e[j], -sign * e[f]
            ker.append(v)
    rows = {_primitive([_dot(s, k) for k in ker] + [-abs(e[j])]) for s in strict}
    pairs = 0
    for var in range(len(ker) - 1, 0, -1):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        pairs += len(pos) * len(neg)
        if var == 1:
            break
        nxt = {r for r in rows if r[var] == 0}
        for a in pos:
            for b in neg:
                c = _primitive([-b[var] * x + a[var] * y for x, y in zip(a, b)])
                if any(c[:-1]):
                    nxt.add(c)
        rows = nxt
    return pairs


REFERENCE_FILE = Path(__file__).with_name("fm_reference.json")


def reference_quantiles(count: int = 20000, seed: int = 0, steps: int = 1000) -> list[int]:
    """``fm_pair_count`` at quantiles k / steps, k = 0..steps, of ``count``
    problems drawn with a fixed seed.  Stored in fm_reference.json."""
    rng = random.Random(seed)
    counts = sorted(fm_pair_count(*fm_problem(rng)) for _ in range(count))
    return [counts[min(count - 1, k * count // steps)] for k in range(steps + 1)]


def stratified_fm(rng: random.Random, count: int, reference: list[int]):
    """``count`` planted problems, one from each of ``count`` equal-probability
    strata of the generator's distribution of ``fm_pair_count``.

    Stratum i covers the pair counts between the reference quantiles at
    i / count and (i + 1) / count.  Problems are drawn from the generator
    and each goes to the first empty stratum that admits it, until all are
    filled, so inside a stratum the draw follows the generator.  Every run
    then holds the same share of heavy problems, the heaviest stratum
    included; only which problems fill the strata depends on the seed.
    Returned in seeded order.
    """
    steps = len(reference) - 1
    bounds = [(reference[i * steps // count], reference[-(-(i + 1) * steps // count)])
              for i in range(count)]
    bounds[-1] = (bounds[-1][0], float("inf"))
    slots: list = [None] * count
    empty = count
    while empty:
        problem = fm_problem(rng)
        pairs = fm_pair_count(*problem)
        for i, (lo, hi) in enumerate(bounds):
            if slots[i] is None and lo <= pairs <= hi:
                slots[i] = problem
                empty -= 1
                break
    rng.shuffle(slots)
    return slots


if __name__ == "__main__":
    # regenerate the reference distribution of the Fourier-Motzkin generator
    REFERENCE_FILE.write_text(json.dumps({
        "generator": {"n": FM_N, "rows": FM_ROWS, "entry": FM_ENTRY, "equalities": 1,
                      "problems": 20000, "seed": 0},
        "pair_count_quantiles": reference_quantiles()}) + "\n", "utf-8")
