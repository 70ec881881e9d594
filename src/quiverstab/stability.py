"""Numerical stability of representations and stability-weight search.

A weight theta is tested with King's criterion: theta(dim V) = 0 and
theta(dim V') < 0 for every proper nonzero subrepresentation V'.  The
quantifier over subrepresentations is decided by an exhaustive oracle over
small finite fields: every subrepresentation of the mod-p reduction is
generated, vertex by vertex in topological order, and its dimension vector
collected, with a union over several primes.  The budget counts subspaces
visited.  Verdicts are relative to the primes used, which every report
records.

Weight search is exact rational linear feasibility: equalities are removed
by substituting a kernel basis, and the strict inequalities (read as <= -1,
which homogeneity allows) go to phase 1 of an exact simplex on their Farkas
system.  It returns either a weight or a certificate lam >= 0 with
sum lam = 1 and sum lam_i a_i = 0 that no weight exists; both are checked
before find_weight answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .linalg import Mat, kernel_basis, primitive_integer_vector
from .reps import Representation, are_isomorphic, is_indecomposable, reduce_mod_p

__all__ = [
    "DEFAULT_PRIMES",
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "SubrepDimSet",
    "StabilityReport",
    "FeasibilityProblem",
    "STABLE",
    "SEMISTABLE",
    "UNSTABLE",
    "subrep_dimvectors",
    "subrep_dimvectors_union",
    "check_stability",
    "find_weight",
    "common_weight",
    "is_locally_semisimple",
]

DEFAULT_PRIMES: tuple[int, ...] = (5, 7, 11)
DEFAULT_BUDGET = 10_000_000

STABLE = "stable"
SEMISTABLE = "semistable-not-stable"
UNSTABLE = "unstable"


class BudgetExceeded(Exception):
    """The oracle visited more subspaces than its budget allows."""


def _subspaces(p: int, d: int,
               coords: Sequence[int] | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every subspace of F_p^d spanned by unit vectors e_c, c in coords
    (default: all of F_p^d), exactly once, as its reduced echelon row basis.

    A generator, so that a caller stopping early never builds the rest.
    """
    coords = range(d) if coords is None else coords
    yield ()  # the zero subspace
    for k in range(1, len(coords) + 1):
        for pivots in itertools.combinations(coords, k):
            free_positions = [
                (i, c)
                for i in range(k)
                for c in coords
                if c > pivots[i] and c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, c), val in zip(free_positions, values):
                    rows[i][c] = val
                yield tuple(tuple(r) for r in rows)


def _echelon(rows: Sequence[tuple[int, ...]],
             p: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Echelon basis of the span of rows over F_p, with its pivot columns."""
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for v in rows:
        for b, c in zip(basis, pivots):
            f = v[c]
            if f:
                v = tuple((x - f * y) % p for x, y in zip(v, b))
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            basis.append(tuple(x * inv % p for x in v))
            pivots.append(lead)
    return tuple(basis), pivots


@dataclass(frozen=True)
class SubrepDimSet:
    """Dimension vectors of subrepresentations found by the mod-p oracle."""

    rep: Representation
    primes: tuple[int, ...]
    dimvectors: frozenset[tuple[int, ...]]

    def proper_nonzero(self) -> list[tuple[int, ...]]:
        full = self.rep.dim
        zero = tuple(0 for _ in full)
        return sorted(v for v in self.dimvectors if v not in (zero, full))


def subrep_dimvectors(v: Representation, p: int,
                      budget: int = DEFAULT_BUDGET) -> SubrepDimSet:
    """Exact set of dimension vectors of subrepresentations of v mod p.

    Vertices are assigned in topological order.  At each vertex the images
    of the tail subspaces already chosen span a subspace U, and only the
    subspaces containing U are generated: U plus a subspace of the
    coordinates off U's pivots.  Every complete assignment is therefore a
    subrepresentation, and every partial one extends to some, so at most
    (number of vertices) x (number of subrepresentations mod p) subspaces
    are visited.  Raises BadPrime (via the reduction), or BudgetExceeded as
    soon as more than ``budget`` subspaces have been visited.
    """
    rep_p = reduce_mod_p(v, p)
    q = v.quiver
    arrows = list(zip(q.arrows, rep_p.matrices))
    chosen: list[tuple[tuple[int, ...], ...]] = [()] * q.n
    found: set[tuple[int, ...]] = set()
    visits = itertools.count(1)

    def assign(i: int) -> None:
        if i == q.n:
            found.add(tuple(len(b) for b in chosen))
            return
        x = q.topological_order[i]
        images = [tuple(sum(r * c for r, c in zip(row, u)) % p for row in m)
                  for a, m in arrows if a.head == x for u in chosen[a.tail]]
        span, pivots = _echelon(images, p)
        free = [c for c in range(v.dim[x]) if c not in pivots]
        for sub in _subspaces(p, v.dim[x], free):
            if next(visits) > budget:
                raise BudgetExceeded(f"budget of {budget} subspaces exceeded")
            chosen[x] = span + sub
            assign(i + 1)

    assign(0)
    return SubrepDimSet(v, (p,), frozenset(found))


def subrep_dimvectors_union(v: Representation, primes: Sequence[int],
                            budget: int = DEFAULT_BUDGET) -> SubrepDimSet:
    """Union of the oracle sets over several primes."""
    if not primes:
        raise ValueError("at least one prime required")
    union: frozenset[tuple[int, ...]] = frozenset()
    for p in primes:
        union |= subrep_dimvectors(v, p, budget).dimvectors
    return SubrepDimSet(v, tuple(primes), union)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a King criterion check, relative to the primes used."""

    verdict: str
    weight: tuple[int, ...]
    destabilizer: tuple[int, ...] | None
    primes: tuple[int, ...]

    @property
    def is_stable(self) -> bool:
        return self.verdict == STABLE


def _dot(theta: Sequence[int], vec: Sequence[int]) -> int:
    return sum(t * c for t, c in zip(theta, vec))


def check_stability(v: Representation, theta: Sequence[int],
                    primes: Sequence[int] = DEFAULT_PRIMES,
                    budget: int = DEFAULT_BUDGET) -> StabilityReport:
    """King check of theta on v over the union oracle.

    Unstable when theta(dim v) != 0 or some subrepresentation pairs
    positively; semistable-not-stable when some proper nonzero one pairs to
    zero; stable otherwise.
    """
    theta = v.quiver.check_vector(theta)
    primes = tuple(primes)
    if _dot(theta, v.dim) != 0:
        return StabilityReport(UNSTABLE, theta, v.dim, primes)
    subreps = subrep_dimvectors_union(v, primes, budget).proper_nonzero()
    tie = None
    for vec in subreps:
        val = _dot(theta, vec)
        if val > 0:
            return StabilityReport(UNSTABLE, theta, vec, primes)
        if val == 0 and tie is None:
            tie = vec
    if tie is not None:
        return StabilityReport(SEMISTABLE, theta, tie, primes)
    return StabilityReport(STABLE, theta, None, primes)


@dataclass(frozen=True)
class FeasibilityProblem:
    """Homogeneous weight constraints: theta . v = 0 for every equality,
    theta . v < 0 for every strict vector."""

    equalities: tuple[tuple[int, ...], ...]
    strict: tuple[tuple[int, ...], ...]


def _farkas(rows: Sequence[Sequence[Fraction]]
            ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide whether some y has a . y <= -1 for every row a (Farkas).

    Phase 1 of a Fraction tableau simplex on sum_i lam_i a_i = 0,
    sum_i lam_i = 1, lam >= 0: one artificial variable per equation, the
    sum of the artificials minimized, Bland's rule (lowest entering column
    with negative reduced cost, ratio ties to the lowest basic index), which
    cannot cycle.  Returns (None, lam) when the optimum is 0, so lam proves
    that no y exists; else (y, None) with y = u / t, where the optimal duals
    (u, t) = 1 - (reduced costs of the artificial columns) satisfy
    a_i . u + t <= 0 and t, the optimum, is positive.
    """
    m, h = len(rows), len(rows[0])
    width = m + h + 1
    one, zero = Fraction(1), Fraction(0)
    tab = [[a[r] for a in rows] + [one if k == r else zero for k in range(h + 1)]
           + [zero] for r in range(h)]
    tab.append([one] * m + [one if k == h else zero for k in range(h + 1)] + [one])
    # last row: reduced costs of the phase-1 objective, then minus its value
    tab.append([-sum(col) for col in zip(*tab)])
    tab[-1][m:width] = [zero] * (h + 1)
    basis = list(range(m, width))
    cost = tab[-1]
    while True:
        col = next((j for j in range(width) if cost[j] < 0), None)
        if col is None:
            break
        _, _, row = min((tab[r][-1] / tab[r][col], basis[r], r)
                        for r in range(h + 1) if tab[r][col] > 0)
        pivot = [x / tab[row][col] for x in tab[row]]
        tab = [pivot if r == row else
               [x - line[col] * y for x, y in zip(line, pivot)] if line[col] else line
               for r, line in enumerate(tab)]
        basis[row] = col
        cost = tab[-1]
    if cost[-1] == 0:
        lam = [zero] * m
        for r, j in enumerate(basis):
            if j < m:
                lam[j] = tab[r][-1]
        return None, lam
    duals = [1 - d for d in cost[m:width]]
    return [u / duals[h] for u in duals[:h]], None


def find_weight(problem: FeasibilityProblem) -> tuple[int, ...] | None:
    """Integral weight satisfying the problem, or None when infeasible.

    Strict negativity is the closed condition theta . v <= -1 (equivalent by
    homogeneity).  Equality constraints are substituted away via an exact
    kernel basis; the strict rows then go to one exact simplex (`_farkas`).
    A weight is scaled to coprime integers and checked on every constraint;
    None is returned only after the Farkas certificate lam >= 0,
    sum lam = 1, sum lam_i a_i = 0 has been checked on the substituted rows.
    Either check failing is a fault of the program (RuntimeError).
    """
    vectors = list(problem.equalities) + list(problem.strict)
    if not vectors:
        raise ValueError("empty feasibility problem")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("mixed vector lengths")

    if problem.equalities:
        null = kernel_basis(Mat.from_rows(problem.equalities))
    else:
        null = [tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)]
    h = len(null)
    rows = [[sum((Fraction(si) * kj for si, kj in zip(s, k)), Fraction(0)) for k in null]
            for s in problem.strict]
    ys = [Fraction(0)] * h  # with no strict rows the zero weight will do
    if rows:
        ys, lam = _farkas(rows)
        if ys is None:
            if any(x < 0 for x in lam) or sum(lam) != 1 or any(
                    sum(x * a[j] for x, a in zip(lam, rows)) != 0 for j in range(h)):
                raise RuntimeError(f"Farkas certificate {lam} does not prove infeasibility")
            return None

    theta_frac = [sum((y * k[i] for y, k in zip(ys, null)), Fraction(0))
                  for i in range(n)]
    theta = primitive_integer_vector(theta_frac)
    if any(_dot(theta, e) != 0 for e in problem.equalities) or any(
            _dot(theta, s) > -1 for s in problem.strict):
        raise RuntimeError(f"weight {theta} found by the simplex violates the problem")
    return theta


def common_weight(members: Sequence[Representation],
                  primes: Sequence[int] = DEFAULT_PRIMES,
                  budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """Weight vanishing on every member's dimension vector and negative on
    every proper nonzero subrepresentation the oracle finds, or None."""
    equalities: list[tuple[int, ...]] = []
    for rep in members:
        if rep.dim not in equalities:
            equalities.append(rep.dim)
    strict: set[tuple[int, ...]] = set()
    for rep in members:
        strict.update(subrep_dimvectors_union(rep, primes, budget).proper_nonzero())
    return find_weight(FeasibilityProblem(tuple(equalities), tuple(sorted(strict))))


def is_locally_semisimple(summands: Sequence[Representation],
                          primes: Sequence[int] = DEFAULT_PRIMES,
                          budget: int = DEFAULT_BUDGET) -> tuple[bool, tuple[int, ...] | None]:
    """Search a common stability weight for the given indecomposables.

    The summands must be pairwise non-isomorphic indecomposables (checked).
    Builds the feasibility problem from the oracle subrepresentation sets,
    solves it, verifies any weight found on every summand, and returns
    (True, weight) or (False, None).
    """
    if not summands:
        raise ValueError("no summands given")
    for i, rep in enumerate(summands):
        if not is_indecomposable(rep):
            raise ValueError(f"summand {i} is not indecomposable")
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            if are_isomorphic(summands[i], summands[j]):
                raise ValueError(f"summands {i} and {j} are isomorphic")

    theta = common_weight(summands, primes, budget)
    if theta is None:
        return False, None
    for rep in summands:
        report = check_stability(rep, theta, primes, budget)
        if not report.is_stable:  # cannot happen: constraints cover the oracle
            raise RuntimeError(f"weight verification failed on summand {rep.dim}")
    return True, theta
