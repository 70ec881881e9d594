"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction`, so results are exact: no
rounding ever happens and row reduction is deterministic (first nonzero
pivot in column order).  Matrices are immutable; all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Mat",
    "InconsistentSystem",
    "parse_rational",
    "format_rational",
    "rref",
    "kernel_basis",
    "solve_linear",
    "sparse_kernel_basis",
    "primitive_integer_vector",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class InconsistentSystem(Exception):
    """Raised when a linear system A x = b has no solution."""


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (optional sign, no whitespace) into a Fraction."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, "p/q" otherwise."""
    return str(x)


def _as_fraction_rows(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(e if isinstance(e, Fraction) else Fraction(e) for e in row)
                 for row in rows)


@dataclass(frozen=True)
class Mat:
    """An immutable rows x cols matrix with Fraction entries."""

    rows: int
    cols: int
    data: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        data = _as_fraction_rows(rows)
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    @classmethod
    def shaped(cls, nrows: int, ncols: int, rows: Sequence[Sequence]) -> "Mat":
        """Build with an explicit shape; required when a dimension is zero."""
        data = _as_fraction_rows(rows)
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise ValueError(f"expected shape {nrows}x{ncols}")
        return cls(nrows, ncols, data)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        zero = Fraction(0)
        return cls(nrows, ncols, tuple((zero,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        ))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   tuple(tuple(self.data[i][j] for i in range(self.rows))
                         for j in range(self.cols)))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        ot = other.transpose().data
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.data
        )
        # sum() over an empty zip yields int 0; normalize to Fraction
        if self.cols == 0:
            data = tuple((Fraction(0),) * other.cols for _ in range(self.rows))
        return Mat(self.rows, other.cols, data)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.data, other.data)
        ))

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.rows, self.cols,
                   tuple(tuple(c * a for a in row) for row in self.data))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * Fraction(v) for a, v in zip(row, vec)), Fraction(0))
                     for row in self.data)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            return False
        return rref(self).rank == self.rows

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(a) for a in row) + "]"
                         for row in self.data)


class RrefResult(NamedTuple):
    matrix: Mat
    pivots: tuple[int, ...]
    rank: int


def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form with first-nonzero pivoting.

    Returns the reduced matrix, the pivot column indices in order, and the
    rank (= number of pivots).
    """
    work = [list(row) for row in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = [a * inv for a in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = Mat(m.rows, m.cols, tuple(tuple(row) for row in work))
    return RrefResult(reduced, tuple(pivots), len(pivots))


def kernel_basis(m: Mat) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : m v = 0}, one vector per free column."""
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][f]
        basis.append(tuple(v))
    return basis


def solve_linear(a: Mat, b: Sequence) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """Solve a x = b exactly; return (particular solution, kernel basis).

    Raises InconsistentSystem when no solution exists.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Mat(a.rows, a.cols + 1, tuple(
        row + (Fraction(bi),) for row, bi in zip(a.data, b)
    ))
    red, pivots, _ = rref(aug)
    if a.cols in pivots:
        raise InconsistentSystem("rank of augmented matrix exceeds rank of matrix")
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][a.cols]
    return tuple(x), kernel_basis(a)


def sparse_kernel_basis(equations: Sequence[dict[int, Fraction]],
                        ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of a sparse homogeneous system given as coefficient dicts.

    Columns not coupled by any equation yield unit basis vectors.  The system
    splits into connected components of the column graph, each solved densely;
    this keeps block-diagonal systems (e.g. commutation equations of direct
    sums) cheap.  Output order follows the smallest column of each group.
    """
    parent = list(range(ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    live_eqs = [eq for eq in equations if eq]
    for eq in live_eqs:
        cols = sorted(eq)
        for c in cols[1:]:
            union(cols[0], c)

    comp_cols: dict[int, list[int]] = {}
    touched = set()
    for eq in live_eqs:
        touched.update(eq)
    for c in sorted(touched):
        comp_cols.setdefault(find(c), []).append(c)
    comp_eqs: dict[int, list[dict[int, Fraction]]] = {root: [] for root in comp_cols}
    for eq in live_eqs:
        comp_eqs[find(next(iter(eq)))].append(eq)

    groups: list[tuple[int, list[tuple[Fraction, ...]]]] = []
    for c in range(ncols):
        if c not in touched:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            groups.append((c, [tuple(v)]))
    for root, cols in comp_cols.items():
        index = {c: i for i, c in enumerate(cols)}
        dense = Mat.shaped(len(comp_eqs[root]), len(cols), [
            [eq.get(c, Fraction(0)) for c in cols] for eq in comp_eqs[root]
        ])
        vecs = []
        for small in kernel_basis(dense):
            v = [Fraction(0)] * ncols
            for c, i in index.items():
                v[c] = small[i]
            vecs.append(tuple(v))
        if vecs:
            groups.append((cols[0], vecs))
    groups.sort(key=lambda g: g[0])
    return [v for _, vecs in groups for v in vecs]


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale by a positive rational to coprime integers (sign pattern kept)."""
    fracs = [Fraction(x) for x in vec]
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g > 1:
        ints = [n // g for n in ints]
    return tuple(ints)
