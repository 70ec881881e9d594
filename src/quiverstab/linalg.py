"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction`, so results are exact: no
rounding ever happens.  All elimination goes through one sparse row
reduction (`_reduce`) whose work follows the nonzero entries; `rref`,
`kernel_basis`, `solve_linear` and `sparse_kernel_basis` read its reduced
echelon basis, which equals first-nonzero pivoting in column order.
Matrices are immutable; all functions are pure.
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


def _subtract(target: dict[int, Fraction], factor: Fraction,
              row: dict[int, Fraction]) -> None:
    """target -= factor * row, dropping entries that cancel."""
    for c, x in row.items():
        y = target.get(c, 0) - factor * x
        if y:
            target[c] = y
        else:
            del target[c]


def _reduce(rows: Iterable[dict[int, object]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon basis of the span of sparse rows, keyed by pivot column.

    Rows are {column: value} dicts; entries are coerced to Fraction and zeros
    are dropped, and the input is not mutated.  Each row is reduced by the
    pivot rows found so far; a nonzero remainder is scaled to a leading 1 and
    its pivot column is cleared from the other pivot rows.  The reduced
    echelon form of a row space is unique, so sorting the result by pivot
    gives the dense first-nonzero-pivot RREF, and fill-in never couples
    columns that no row couples.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {c: v if isinstance(v, Fraction) else Fraction(v)
               for c, v in raw.items() if v}
        # pivot rows are zero at every other pivot, so one pass suffices
        for p in [c for c in row if c in basis]:
            _subtract(row, row[p], basis[p])
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: x * inv for c, x in row.items()}
        for other in basis.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        basis[pivot] = row
    return basis


def _kernel(basis: dict[int, dict[int, Fraction]],
            ncols: int) -> list[tuple[Fraction, ...]]:
    """Null space read off a reduced basis: one vector per free column below
    ``ncols``, in column order (columns from ``ncols`` on are ignored)."""
    zero, one = Fraction(0), Fraction(1)
    vecs = {f: [zero] * ncols for f in range(ncols) if f not in basis}
    for f, v in vecs.items():
        v[f] = one
    for p, row in basis.items():
        for c, x in row.items():
            if c in vecs:
                vecs[c][p] = -x
    return [tuple(v) for v in vecs.values()]


def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form with first-nonzero pivoting.

    Returns the reduced matrix, the pivot column indices in order, and the
    rank (= number of pivots).
    """
    basis = _reduce(dict(enumerate(row)) for row in m.data)
    pivots = tuple(sorted(basis))
    zero = Fraction(0)
    data = [tuple(basis[p].get(c, zero) for c in range(m.cols)) for p in pivots]
    data += [(zero,) * m.cols] * (m.rows - len(pivots))
    return RrefResult(Mat(m.rows, m.cols, tuple(data)), pivots, len(pivots))


def kernel_basis(m: Mat) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : m v = 0}, one vector per free column."""
    return _kernel(_reduce(dict(enumerate(row)) for row in m.data), m.cols)


def solve_linear(a: Mat, b: Sequence) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """Solve a x = b exactly; return (particular solution, kernel basis).

    Raises InconsistentSystem when no solution exists.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    basis = _reduce({**dict(enumerate(row)), a.cols: bi} for row, bi in zip(a.data, b))
    if a.cols in basis:
        raise InconsistentSystem("rank of augmented matrix exceeds rank of matrix")
    x = [Fraction(0)] * a.cols
    for p, row in basis.items():
        x[p] = row.get(a.cols, Fraction(0))
    return tuple(x), _kernel(basis, a.cols)


def sparse_kernel_basis(equations: Sequence[dict[int, Fraction]],
                        ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of a sparse homogeneous system given as coefficient dicts.

    The same vectors as ``kernel_basis`` of the dense matrix: one per free
    column, in column order.  Columns not coupled by any equation yield unit
    vectors; the elimination touches only nonzero entries, so block-diagonal
    systems (e.g. commutation equations of direct sums) stay cheap.
    """
    return _kernel(_reduce(equations), ncols)


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
