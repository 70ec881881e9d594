"""Quivers, dimension vectors, Euler/Tits forms and type classification.

A quiver here is a finite connected acyclic directed graph.  Dimension
vectors and weights are plain integer tuples indexed by the quiver's vertex
order, which is fixed once by the ``vertices`` list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Sequence

from .linalg import Mat, kernel_basis, primitive_integer_vector, solve_linear

__all__ = [
    "Arrow",
    "Quiver",
    "QuiverClass",
    "euler_form",
    "tits_form",
    "euler_matrix",
    "symmetrized_euler_matrix",
    "classify",
    "defect",
    "defect_weight",
    "coxeter_matrix",
    "weight_from_dimvec",
]

DimVector = tuple[int, ...]
Weight = tuple[int, ...]


class Arrow(NamedTuple):
    name: str
    tail: int
    head: int


@dataclass(frozen=True)
class Quiver:
    """Finite connected acyclic quiver with named vertices and arrows.

    ``vertices`` fixes the coordinate order of every vector and matrix tied
    to this quiver.  Arrow endpoints are stored as vertex indices.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        if len({a.name for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow names")
        n = len(self.vertices)
        for a in self.arrows:
            if not (0 <= a.tail < n and 0 <= a.head < n):
                raise ValueError(f"arrow {a.name} references a missing vertex")
        self.topological_order  # raises on an oriented cycle
        self._check_connected()

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Vertex indices ordered so that every arrow's tail precedes its head."""
        deps: dict[int, set[int]] = {v: set() for v in range(len(self.vertices))}
        for a in self.arrows:
            deps[a.head].add(a.tail)
        try:
            return tuple(TopologicalSorter(deps).static_order())
        except CycleError as exc:
            raise ValueError("quiver has an oriented cycle") from exc

    def _check_connected(self) -> None:
        n = len(self.vertices)
        neighbours: dict[int, set[int]] = {v: set() for v in range(n)}
        for a in self.arrows:
            neighbours[a.tail].add(a.head)
            neighbours[a.head].add(a.tail)
        seen = {0}
        stack = [0]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise ValueError("quiver is not connected")

    @classmethod
    def from_names(cls, vertices: Sequence[str],
                   arrows: Sequence[tuple[str, str, str]]) -> "Quiver":
        """Build from (arrow name, tail name, head name) triples."""
        index = {v: i for i, v in enumerate(vertices)}
        try:
            arr = tuple(Arrow(name, index[t], index[h]) for name, t, h in arrows)
        except KeyError as exc:
            raise ValueError(f"unknown vertex {exc.args[0]!r} in arrow list") from exc
        return cls(tuple(vertices), arr)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def unit_vector(self, x: int) -> DimVector:
        return tuple(1 if i == x else 0 for i in range(self.n))

    def check_vector(self, v: Sequence[int]) -> DimVector:
        if len(v) != self.n:
            raise ValueError(f"vector has length {len(v)}, expected {self.n}")
        return tuple(int(c) for c in v)


def euler_form(q: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """<alpha, beta> = sum_x a(x)b(x) - sum_{arrows} a(tail)b(head)."""
    a = q.check_vector(alpha)
    b = q.check_vector(beta)
    return sum(x * y for x, y in zip(a, b)) - sum(a[ar.tail] * b[ar.head]
                                                  for ar in q.arrows)


def tits_form(q: Quiver, alpha: Sequence[int]) -> int:
    """Tits quadratic form q(alpha) = <alpha, alpha>."""
    return euler_form(q, alpha, alpha)


def euler_matrix(q: Quiver) -> Mat:
    """Matrix C with <alpha, beta> = alpha^T C beta."""
    n = q.n
    entries = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for a in q.arrows:
        entries[a.tail][a.head] -= 1
    return Mat.from_rows(entries)


def symmetrized_euler_matrix(q: Quiver) -> Mat:
    c = euler_matrix(q)
    return c + c.transpose()


@dataclass(frozen=True)
class QuiverClass:
    """Representation type: "Dynkin", "Euclidean" (with radical vector) or "Wild"."""

    kind: str
    delta: DimVector | None = None

    @property
    def is_dynkin(self) -> bool:
        return self.kind == "Dynkin"

    @property
    def is_euclidean(self) -> bool:
        return self.kind == "Euclidean"

    @property
    def is_wild(self) -> bool:
        return self.kind == "Wild"


def _semidefinite_profile(b: Mat) -> tuple[bool, int]:
    """Exact (is positive semidefinite, rank) for a symmetric matrix.

    Symmetric elimination: a positive pivot is eliminated, a zero pivot is
    admissible only when its whole row vanishes, anything else refutes
    semidefiniteness.
    """
    work = [[x for x in row] for row in b.data]
    alive = list(range(b.rows))
    rank = 0
    while alive:
        i = alive.pop(0)
        d = work[i][i]
        if d < 0:
            return False, rank
        if d == 0:
            if any(work[i][j] != 0 for j in alive):
                return False, rank
            continue
        rank += 1
        for r in alive:
            f = work[r][i] / d
            if f != 0:
                for s in alive:
                    work[r][s] -= f * work[i][s]
    return True, rank


@cache
def classify(q: Quiver) -> QuiverClass:
    """Classify by definiteness of the symmetrized Euler matrix.

    Positive definite -> Dynkin; positive semidefinite with one-dimensional
    radical -> Euclidean, returning the primitive positive radical vector;
    anything else -> Wild.  All decisions are exact.
    """
    b = symmetrized_euler_matrix(q)
    psd, rank = _semidefinite_profile(b)
    if not psd:
        return QuiverClass("Wild")
    if rank == q.n:
        return QuiverClass("Dynkin")
    if rank == q.n - 1:
        (ker,) = kernel_basis(b)
        delta = primitive_integer_vector(ker)
        if delta[next(i for i, c in enumerate(delta) if c != 0)] < 0:
            delta = tuple(-c for c in delta)
        if any(c <= 0 for c in delta):
            raise ValueError("radical vector is not strictly positive; "
                             "quiver is not connected Euclidean")
        return QuiverClass("Euclidean", delta)
    return QuiverClass("Wild")


def _require_radical(q: Quiver, delta: Sequence[int]) -> None:
    qc = classify(q)
    if not qc.is_euclidean:
        raise ValueError(f"quiver is {qc.kind}, not Euclidean")
    if tuple(delta) != qc.delta:
        raise ValueError(f"{tuple(delta)} is not the radical vector {qc.delta}")


def defect(q: Quiver, delta: Sequence[int], alpha: Sequence[int]) -> int:
    """<delta, alpha>; negative / zero / positive sorts representations into
    preprojective / regular / preinjective.  Requires a Euclidean quiver
    with its radical vector."""
    _require_radical(q, delta)
    return euler_form(q, delta, alpha)


def defect_weight(q: Quiver, delta: Sequence[int]) -> Weight:
    """The weight x -> <delta, e_x>, vanishing exactly on regular vectors."""
    _require_radical(q, delta)
    return tuple(euler_form(q, delta, q.unit_vector(x)) for x in range(q.n))


@cache
def coxeter_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Integer matrix Phi with <beta, Phi alpha> = -<alpha, beta> for all
    alpha, beta; realizes the Auslander-Reiten translate on dimension
    vectors.  Equivalently C Phi = -C^T, i.e. Phi = -C^{-1} C^T.
    """
    c = euler_matrix(q)
    ct = c.transpose()
    n = q.n
    cols = []
    for j in range(n):
        x, _ = solve_linear(c, [-ct.data[i][j] for i in range(n)])
        cols.append(x)
    phi = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    for row in phi:
        for entry in row:
            if entry.denominator != 1:
                raise ValueError("Coxeter matrix is not integral")
    return tuple(tuple(int(e) for e in row) for row in phi)


def apply_matrix(m: tuple[tuple[int, ...], ...], v: Sequence[int]) -> tuple[int, ...]:
    """Integer matrix times integer vector."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def weight_from_dimvec(q: Quiver, alpha: Sequence[int]) -> Weight:
    """The weight x -> <alpha, e_x> - <e_x, alpha>.

    It vanishes on alpha itself; for a Dynkin indecomposable of dimension
    vector alpha it is a stability weight.
    """
    return tuple(
        euler_form(q, alpha, q.unit_vector(x)) - euler_form(q, q.unit_vector(x), alpha)
        for x in range(q.n)
    )
