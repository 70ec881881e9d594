"""Numerical stability of representations and stability-weight search.

A weight theta is tested with King's criterion: theta(dim V) = 0 and
theta(dim V') < 0 for every proper nonzero subrepresentation V'.  The
quantifier over subrepresentations is decided by an exhaustive oracle over
small finite fields: all tuples of arrow-invariant subspaces of the mod-p
reduction are enumerated and their dimension vectors collected, with a
union over several primes.  Verdicts are therefore relative to the primes
used, which every report records.

Weight search is exact rational linear feasibility: equalities are removed
by substituting a kernel basis and the strict inequalities (normalized to
<= -1, which homogeneity allows) go through Fourier-Motzkin elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

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
_MAX_VERTEX_DIM = 4

STABLE = "stable"
SEMISTABLE = "semistable-not-stable"
UNSTABLE = "unstable"


class BudgetExceeded(Exception):
    """The subspace enumeration would be too large."""


@lru_cache(maxsize=None)
def _subspaces(p: int, d: int) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """All subspaces of F_p^d as (echelon row basis, pivot columns) pairs.

    Echelon representatives are unique per subspace, so this enumerates each
    subspace exactly once.  Cached per (p, d).
    """
    out = [((), ())]  # the zero subspace
    for k in range(1, d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_positions = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, d)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, c), val in zip(free_positions, values):
                    rows[i][c] = val
                out.append((tuple(tuple(r) for r in rows), pivots))
    return tuple(out)


def _contains(basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...],
              vec: Sequence[int], p: int) -> bool:
    """True when vec lies in the row span of an echelon basis over F_p."""
    v = list(vec)
    for row, piv in zip(basis, pivots):
        c = v[piv]
        if c:
            for i in range(len(v)):
                v[i] = (v[i] - c * row[i]) % p
    return not any(v)


def _image_rows(matrix: tuple[tuple[int, ...], ...],
                basis: tuple[tuple[int, ...], ...], p: int) -> list[tuple[int, ...]]:
    """Images of subspace basis vectors under a mod-p arrow matrix."""
    images = []
    for v in basis:
        w = tuple(sum(mrow[c] * v[c] for c in range(len(v))) % p
                  for mrow in matrix)
        if any(w):
            images.append(w)
    return images


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


_oracle_cache: dict[tuple[Representation, int], frozenset[tuple[int, ...]]] = {}


def subrep_dimvectors(v: Representation, p: int,
                      budget: int = DEFAULT_BUDGET) -> SubrepDimSet:
    """Exact set of dimension vectors of subrepresentations of v mod p.

    Enumerates every tuple of subspaces, vertex by vertex, pruning as soon
    as some arrow fails to map a tail subspace into the head subspace.
    Raises BadPrime (via the reduction) or BudgetExceeded.
    """
    if any(d > _MAX_VERTEX_DIM for d in v.dim):
        raise BudgetExceeded(
            f"vertex dimension exceeds {_MAX_VERTEX_DIM}; enumeration refused")
    count = 1
    for d in v.dim:
        count *= len(_subspaces(p, d))
    if count > budget:
        raise BudgetExceeded(f"{count} subspace tuples exceed budget {budget}")

    key = (v, p)
    if key in _oracle_cache:
        return SubrepDimSet(v, (p,), _oracle_cache[key])
    rep_p = reduce_mod_p(v, p)

    q = v.quiver
    per_vertex = [_subspaces(p, d) for d in v.dim]
    # arrows checked once both endpoints are assigned, keyed by the later one
    checks_at: list[list[int]] = [[] for _ in range(q.n)]
    for ai, a in enumerate(q.arrows):
        checks_at[max(a.tail, a.head)].append(ai)

    found: set[tuple[int, ...]] = set()
    chosen: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = [None] * q.n  # type: ignore

    def assign(x: int) -> None:
        if x == q.n:
            found.add(tuple(len(chosen[i][0]) for i in range(q.n)))
            return
        for sub in per_vertex[x]:
            chosen[x] = sub
            ok = True
            for ai in checks_at[x]:
                a = q.arrows[ai]
                tail_basis = chosen[a.tail][0]
                head_basis, head_pivots = chosen[a.head]
                for img in _image_rows(rep_p.matrices[ai], tail_basis, p):
                    if not _contains(head_basis, head_pivots, img, p):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assign(x + 1)

    assign(0)
    result = frozenset(found)
    _oracle_cache[key] = result
    return SubrepDimSet(v, (p,), result)


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


_Row = tuple[tuple[Fraction, ...], Fraction]


def _normalize_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    prim = primitive_integer_vector(tuple(coeffs) + (rhs,))
    return prim[:-1], prim[-1]


def _eliminate(rows: list[tuple[tuple[int, ...], int]],
               var: int) -> list[tuple[tuple[int, ...], int]] | None:
    """One Fourier-Motzkin step; None signals a violated constant row."""
    zeros, pos, neg = [], [], []
    for coeffs, rhs in rows:
        c = coeffs[var]
        if c == 0:
            zeros.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    out: list[tuple[tuple[int, ...], int]] = []
    seen = set()

    def push(coeffs: Sequence[Fraction], rhs: Fraction) -> bool:
        c, r = _normalize_row(coeffs, rhs)
        if not any(c):
            return r >= 0  # constant row: drop if true, fail if violated
        if (c, r) not in seen:
            seen.add((c, r))
            out.append((c, r))
        return True

    for coeffs, rhs in zeros:
        if not push(coeffs, rhs):
            return None
    for (pc, pr) in pos:
        for (nc, nr) in neg:
            cp = pc[var]
            cn = -nc[var]
            combined = tuple(cn * a + cp * b for a, b in zip(pc, nc))
            if not push(combined, cn * pr + cp * nr):
                return None
    return out


def find_weight(problem: FeasibilityProblem) -> tuple[int, ...] | None:
    """Integral weight satisfying the problem, or None when infeasible.

    Strict negativity is the closed condition theta . v <= -1 (equivalent by
    homogeneity).  Equality constraints are substituted away via an exact
    kernel basis; the strict system is solved by Fourier-Motzkin elimination
    with duplicate rows dropped after each step, then back-substitution.
    The result is scaled to coprime integers.
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
    zero_theta = tuple(0 for _ in range(n))
    if h == 0:
        return None if problem.strict else zero_theta

    rows: list[tuple[tuple[int, ...], int]] = []
    seen = set()
    for s in problem.strict:
        coeffs = tuple(sum((Fraction(si) * kj for si, kj in zip(s, k)), Fraction(0))
                       for k in null)
        c, r = _normalize_row(coeffs, Fraction(-1))
        if not any(c):
            if r < 0:
                return None  # a strict vector lies in the span of equalities
            continue
        if (c, r) not in seen:
            seen.add((c, r))
            rows.append((c, r))

    systems: list[list[tuple[tuple[int, ...], int]]] = [None] * h  # type: ignore
    systems[h - 1] = rows
    for j in range(h - 1, 0, -1):
        nxt = _eliminate(systems[j], j)
        if nxt is None:
            return None
        systems[j - 1] = nxt

    ys: list[Fraction] = []
    for j in range(h):
        lo = hi = None
        for coeffs, rhs in systems[j]:
            c = coeffs[j]
            if c == 0:
                continue
            bound = (Fraction(rhs) - sum(
                (Fraction(coeffs[k]) * ys[k] for k in range(j)), Fraction(0))) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        if (lo is None or lo <= 0) and (hi is None or hi >= 0):
            ys.append(Fraction(0))
        elif lo is not None and lo > 0:
            ys.append(lo)
        else:
            ys.append(hi)  # type: ignore[arg-type]

    theta_frac = [sum((y * k[i] for y, k in zip(ys, null)), Fraction(0))
                  for i in range(n)]
    theta = primitive_integer_vector(theta_frac)
    if any(_dot(theta, e) != 0 for e in problem.equalities) or any(
            _dot(theta, s) > -1 for s in problem.strict):
        raise RuntimeError(f"weight {theta} found by elimination violates the problem")
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
