"""Representations, Hom spaces, endomorphism algebras, modular reduction.

A representation assigns a rational vector space to each vertex and a matrix
of shape dim(head) x dim(tail) to each arrow.  Hom spaces are computed as
the exact kernel of the commutation system

    phi(head a) V(a) = W(a) phi(tail a)   for every arrow a,

assembled as one sparse linear system over all vertices.  End(v) is kept
as a basis of morphisms inside prod_x End(v(x)); its Jacobson radical is
the kernel of the trace form (f, g) -> sum_x tr(f(x) g(x)) (Dickson's
criterion, valid in characteristic zero).  Isomorphism of an
indecomposable v with w is decided exactly by looking for an invertible
element of the Hom(v, w) basis (Fitting's lemma).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Mat, kernel_basis, rref, sparse_kernel_basis
from .quiver import Quiver, euler_form

__all__ = [
    "Representation",
    "Morphism",
    "EndAlgebra",
    "RepModP",
    "BadPrime",
    "simple_rep",
    "hom_space",
    "hom_dim",
    "ext1_dim",
    "end_algebra",
    "radical_dim",
    "is_schur",
    "is_indecomposable",
    "are_isomorphic",
    "direct_sum",
    "reduce_mod_p",
]


class BadPrime(Exception):
    """Raised when a matrix entry denominator vanishes modulo the prime."""


@dataclass(frozen=True)
class Representation:
    """Per-vertex dimensions plus one rational matrix per arrow.

    ``matrices`` is aligned with ``quiver.arrows``; the matrix for arrow a
    maps the tail space into the head space, so its shape is
    dim(head) x dim(tail).
    """

    quiver: Quiver
    dim: tuple[int, ...]
    matrices: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.dim) != self.quiver.n:
            raise ValueError("dimension vector length mismatch")
        if any(d < 0 for d in self.dim):
            raise ValueError("negative dimension")
        if len(self.matrices) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for a, m in zip(self.quiver.arrows, self.matrices):
            want = (self.dim[a.head], self.dim[a.tail])
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"arrow {a.name}: matrix is {m.rows}x{m.cols}, "
                    f"expected {want[0]}x{want[1]}")

    @classmethod
    def from_dict(cls, quiver: Quiver, dim: Sequence[int],
                  matrices: dict[str, Sequence[Sequence]] | None = None) -> "Representation":
        """Build from a dimension vector and matrices keyed by arrow name.

        Arrows missing from ``matrices`` get the zero matrix of the right
        shape, which is the common case for simples.
        """
        dims = quiver.check_vector(dim)
        matrices = matrices or {}
        known = {a.name for a in quiver.arrows}
        for name in matrices:
            if name not in known:
                raise ValueError(f"matrix given for unknown arrow {name!r}")
        mats = []
        for a in quiver.arrows:
            shape = (dims[a.head], dims[a.tail])
            if a.name in matrices:
                mats.append(Mat.shaped(shape[0], shape[1], matrices[a.name]))
            else:
                mats.append(Mat.zeros(*shape))
        return cls(quiver, dims, tuple(mats))

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def is_zero(self) -> bool:
        return self.total_dim == 0


def simple_rep(quiver: Quiver, vertex: int | str) -> Representation:
    """The one-dimensional representation supported at a single vertex."""
    x = quiver.vertex_index[vertex] if isinstance(vertex, str) else vertex
    return Representation.from_dict(quiver, quiver.unit_vector(x))


# A morphism V -> W is a per-vertex tuple of matrices phi(x) of shape
# dim_W(x) x dim_V(x) satisfying the commutation equations.
Morphism = tuple[Mat, ...]


def _check_same_quiver(v: Representation, w: Representation) -> None:
    if v.quiver != w.quiver:
        raise ValueError("representations live on different quivers")


def hom_space(v: Representation, w: Representation) -> list[Morphism]:
    """Basis of Hom(v, w), each element a per-vertex matrix tuple.

    The commutation equations form one sparse homogeneous system in the
    entries of all phi(x); its kernel is the Hom space.  The basis is
    ``sparse_kernel_basis`` of that system: one element per free unknown, in
    unknown order (vertex by vertex, each phi(x) row by row).
    """
    _check_same_quiver(v, w)
    q = v.quiver
    offsets = []
    total = 0
    for x in range(q.n):
        offsets.append(total)
        total += w.dim[x] * v.dim[x]

    def unknown(x: int, r: int, c: int) -> int:
        return offsets[x] + r * v.dim[x] + c

    # entry (r, c) of phi(head) V(a) - W(a) phi(tail); head != tail, as a
    # quiver has no loops, so the two parts never share an unknown
    equations: list[dict[int, Fraction]] = []
    for a, va, wa in zip(q.arrows, v.matrices, w.matrices):
        for r in range(w.dim[a.head]):
            for c in range(v.dim[a.tail]):
                eq = {unknown(a.head, r, k): va.data[k][c]
                      for k in range(v.dim[a.head]) if va.data[k][c]}
                eq.update((unknown(a.tail, k, c), -wa.data[r][k])
                          for k in range(w.dim[a.tail]) if wa.data[r][k])
                equations.append(eq)

    basis = []
    for vec in sparse_kernel_basis(equations, total):
        mats = []
        for x in range(q.n):
            rows = [
                vec[unknown(x, r, 0):unknown(x, r, 0) + v.dim[x]]
                for r in range(w.dim[x])
            ]
            mats.append(Mat.shaped(w.dim[x], v.dim[x], rows))
        basis.append(tuple(mats))
    return basis


def hom_dim(v: Representation, w: Representation) -> int:
    return len(hom_space(v, w))


def ext1_dim(v: Representation, w: Representation) -> int:
    """dim Ext^1(v, w) = dim Hom(v, w) - <dim v, dim w> (hereditary case)."""
    _check_same_quiver(v, w)
    d = hom_dim(v, w) - euler_form(v.quiver, v.dim, w.dim)
    if d < 0:
        raise ValueError("negative Ext dimension: corrupted representation data")
    return d


def compose(f: Morphism, g: Morphism) -> Morphism:
    """(f o g)(x) = f(x) g(x) for endomorphism tuples."""
    return tuple(fm @ gm for fm, gm in zip(f, g))


def _flatten(morphism: Morphism) -> tuple[Fraction, ...]:
    return tuple(e for m in morphism for row in m.data for e in row)


@dataclass(frozen=True)
class EndAlgebra:
    """Endomorphism algebra of a representation: a basis of End(v) as a
    subalgebra of the block-diagonal matrix algebra prod_x End(v(x))."""

    rep: Representation
    basis: tuple[Morphism, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def end_algebra(v: Representation) -> EndAlgebra:
    """Basis of End(v), checked to be linearly independent."""
    basis = hom_space(v, v)
    if basis and rref(Mat.from_rows([_flatten(f) for f in basis])).rank != len(basis):
        raise RuntimeError("hom basis is not linearly independent")
    return EndAlgebra(v, tuple(basis))


def radical_basis(algebra: EndAlgebra) -> list[tuple[Fraction, ...]]:
    """Coordinate basis of the Jacobson radical of End(v).

    End(v) is a subalgebra of prod_x End(v(x)), so in characteristic zero
    its radical is the kernel of the Gram matrix of the trace form
    (f, g) -> sum_x tr(f(x) g(x)) on the basis (Dickson's criterion);
    coordinates refer to ``algebra.basis``.
    """
    n = algebra.dim
    if n == 0:
        return []
    flat = [_flatten(f) for f in algebra.basis]
    # tr(f(x) g(x)) pairs the entries of f(x) with those of g(x) transposed
    flat_t = [_flatten(tuple(m.transpose() for m in f)) for f in algebra.basis]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(
                (a * b for a, b in zip(flat[i], flat_t[j]) if a and b), Fraction(0))
    return kernel_basis(Mat.shaped(n, n, gram))


def radical_dim(algebra: EndAlgebra) -> int:
    """Dimension of the Jacobson radical."""
    return len(radical_basis(algebra))


def is_schur(v: Representation) -> bool:
    """True when End(v) is one-dimensional."""
    return hom_dim(v, v) == 1


def is_indecomposable(v: Representation) -> bool:
    """True when End(v) is local, i.e. End(v) modulo its radical is the base
    field (characteristic zero, algebraically closed setting)."""
    if v.is_zero():
        raise ValueError("the zero representation is not indecomposable")
    algebra = end_algebra(v)
    return algebra.dim - radical_dim(algebra) == 1


def are_isomorphic(v: Representation, w: Representation) -> bool:
    """Decide isomorphism exactly: look for an invertible element of the
    Hom(v, w) basis.

    When v is indecomposable this is exact (Fitting's lemma): an isomorphism
    phi makes Hom(v, w) = phi End(v), whose non-invertible elements form the
    proper subspace phi rad End(v), so no basis lies inside it.  Raises
    ValueError when no basis element is invertible and v is decomposable,
    where the test would not be conclusive.
    """
    _check_same_quiver(v, w)
    if v.dim != w.dim:
        return False
    if v.is_zero():
        return True
    if any(all(m.is_invertible() for m in f) for f in hom_space(v, w)):
        return True
    if not is_indecomposable(v):
        raise ValueError("isomorphism test needs an indecomposable first argument")
    return False


def direct_sum(summands: Sequence[tuple[Representation, int]]) -> Representation:
    """Block-diagonal direct sum of (representation, multiplicity) pairs."""
    if not summands:
        raise ValueError("direct sum of nothing")
    quiver = summands[0][0].quiver
    copies: list[Representation] = []
    for rep, mult in summands:
        _check_same_quiver(rep, summands[0][0])
        if mult < 1:
            raise ValueError("multiplicity must be at least 1")
        copies.extend([rep] * mult)

    dim = tuple(sum(rep.dim[x] for rep in copies) for x in range(quiver.n))
    mats = []
    for ai, a in enumerate(quiver.arrows):
        block = [[Fraction(0)] * dim[a.tail] for _ in range(dim[a.head])]
        roff = coff = 0
        for rep in copies:
            m = rep.matrices[ai]
            for r in range(m.rows):
                for c in range(m.cols):
                    block[roff + r][coff + c] = m.data[r][c]
            roff += m.rows
            coff += m.cols
        mats.append(Mat.shaped(dim[a.head], dim[a.tail], block))
    return Representation(quiver, dim, tuple(mats))


@dataclass(frozen=True)
class RepModP:
    """A representation reduced modulo a prime; matrices over F_p."""

    quiver: Quiver
    p: int
    dim: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]


def reduce_mod_p(v: Representation, p: int) -> RepModP:
    """Entrywise reduction mod p; raises BadPrime if a denominator dies."""
    if p < 2:
        raise ValueError("modulus must be a prime")
    mats = []
    for m in v.matrices:
        rows = []
        for row in m.data:
            out = []
            for e in row:
                if e.denominator % p == 0:
                    raise BadPrime(f"denominator of {e} vanishes mod {p}")
                out.append(e.numerator * pow(e.denominator, -1, p) % p)
            rows.append(tuple(out))
        mats.append(tuple(rows))
    return RepModP(v.quiver, p, v.dim, tuple(mats))
