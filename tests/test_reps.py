import random

import pytest

from quiverstab import catalog
from quiverstab.linalg import Mat, rref
from quiverstab.quiver import Quiver, euler_form
from quiverstab.reps import (
    BadPrime,
    Representation,
    are_isomorphic,
    compose,
    direct_sum,
    end_algebra,
    ext1_dim,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_schur,
    radical_basis,
    radical_dim,
    reduce_mod_p,
    simple_rep,
)


def assert_is_morphism(v, w, phi):
    for ai, a in enumerate(v.quiver.arrows):
        left = phi[a.head] @ v.matrices[ai]
        right = w.matrices[ai] @ phi[a.tail]
        assert left == right


def kronecker2():
    return Quiver.from_names(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def jordan_rep(q):
    return Representation.from_dict(q, (2, 2), {
        "a": [[1, 0], [0, 1]],
        "b": [[0, 1], [0, 0]],
    })


class TestConstruction:
    def test_shape_validated(self):
        q = kronecker2()
        with pytest.raises(ValueError, match="expected"):
            Representation.from_dict(q, (1, 2), {"a": [[1, 1]]})

    def test_unknown_arrow(self):
        q = kronecker2()
        with pytest.raises(ValueError, match="unknown arrow"):
            Representation.from_dict(q, (1, 1), {"zz": [[1]]})

    def test_missing_matrices_are_zero(self):
        q = kronecker2()
        rep = Representation.from_dict(q, (1, 1), {"a": [[2]]})
        assert rep.matrices[1].is_zero()


class TestHomSpace:
    def test_simple_self(self, d5):
        s = simple_rep(d5.quiver, "3")
        assert hom_dim(s, s) == 1

    def test_tube_simples_orthogonal(self, d5):
        e1, e2 = d5.representations["E1"], d5.representations["E2"]
        assert hom_dim(e1, e2) == 0
        assert hom_dim(e2, e1) == 0

    def test_catalog_members_schur(self, d5):
        v1 = d5.representations["V1"]
        assert hom_dim(v1, v1) == 1

    def test_quiver_mismatch(self, d5, a3):
        with pytest.raises(ValueError, match="different quivers"):
            hom_space(d5.representations["E1"], a3.representations["S1"])

    def test_all_basis_elements_commute(self, d5):
        reps = [d5.representations[n] for n in ("E1", "L1", "V0", "V1")]
        for v in reps:
            for w in reps:
                for phi in hom_space(v, w):
                    assert_is_morphism(v, w, phi)

    def test_hom_via_socle_and_top(self, d5):
        v1 = d5.representations["V1"]
        assert hom_dim(v1, d5.representations["E1"]) == 1   # regular top
        assert hom_dim(d5.representations["E3"], v1) == 1   # regular socle
        assert hom_dim(d5.representations["E1"], v1) == 0


class TestExt1:
    def test_simple_self(self, a3):
        s1 = a3.representations["S1"]
        assert ext1_dim(s1, s1) == 0

    def test_arrow_count(self, a3, k3):
        assert ext1_dim(a3.representations["S1"], a3.representations["S2"]) == 1
        v1 = simple_rep(k3.quiver, "1")
        v2 = simple_rep(k3.quiver, "2")
        assert ext1_dim(v1, v2) == 3

    def test_tube_neighbours(self, d5):
        assert ext1_dim(d5.representations["E1"], d5.representations["E2"]) == 1

    def test_nonnegative_over_catalog(self, d5):
        # dim Hom >= <dim V, dim W> for every pair, i.e. ext1_dim never raises
        names = ("E1", "E2", "E3", "L1", "L2", "Y1", "Y2", "V0", "V1", "V3")
        for a in names:
            for b in names:
                va, vb = d5.representations[a], d5.representations[b]
                assert ext1_dim(va, vb) >= 0
                assert hom_dim(va, vb) >= euler_form(d5.quiver, va.dim, vb.dim)


def flat(morphism):
    return tuple(e for m in morphism for row in m.data for e in row)


def in_span(morphisms, candidate):
    """True when the candidate morphism is a linear combination of the others."""
    target = flat(candidate)
    if all(c == 0 for c in target):
        return True
    if not morphisms:
        return False
    rows = [flat(m) for m in morphisms]
    return rref(Mat.from_rows(rows + [target])).rank == rref(Mat.from_rows(rows)).rank


def identity_of(v):
    return tuple(Mat.identity(d) for d in v.dim)


def combination(coords, basis):
    """The morphism with the given coordinates in a basis."""
    return tuple(
        sum((f[x].scale(c) for c, f in zip(coords, basis)),
            Mat.zeros(basis[0][x].rows, basis[0][x].cols))
        for x in range(len(basis[0])))


class TestEndAlgebra:
    def test_simple(self, a3):
        v = a3.representations["S1"]
        algebra = end_algebra(v)
        assert algebra.dim == 1
        assert in_span(algebra.basis, identity_of(v))
        assert in_span(algebra.basis, compose(algebra.basis[0], algebra.basis[0]))

    def test_matrix_algebra(self, a3):
        v = direct_sum([(a3.representations["S1"], 2)])
        algebra = end_algebra(v)
        assert algebra.dim == 4
        assert radical_dim(algebra) == 0

    def test_jordan_kronecker(self):
        algebra = end_algebra(jordan_rep(kronecker2()))
        assert algebra.dim == 2
        assert radical_dim(algebra) == 1

    def test_closed_under_composition(self, d5):
        v = direct_sum([(d5.representations["E3"], 1), (d5.representations["V1"], 1)])
        algebra = end_algebra(v)
        for f in algebra.basis:
            for g in algebra.basis:
                product = compose(f, g)
                assert_is_morphism(v, v, product)
                assert in_span(algebra.basis, product)

    def test_associative_on_basis_triples(self):
        v = jordan_rep(kronecker2())
        algebra = end_algebra(v)
        for x in algebra.basis:
            for y in algebra.basis:
                for z in algebra.basis:
                    left = compose(compose(x, y), z)
                    assert left == compose(x, compose(y, z))
                    assert in_span(algebra.basis, left)

    def test_contains_identity(self, d5):
        v = d5.representations["V0"]
        algebra = end_algebra(v)
        e = identity_of(v)
        assert in_span(algebra.basis, e)
        for f in algebra.basis:
            assert compose(e, f) == f == compose(f, e)


class TestRadical:
    def test_semisimple_pair(self, d5):
        v = direct_sum([(d5.representations["V0"], 1), (d5.representations["V1"], 1)])
        assert radical_dim(end_algebra(v)) == 0

    def test_nilpotent_part_detected(self, d5):
        v = direct_sum([(d5.representations["E3"], 1), (d5.representations["V1"], 1)])
        assert radical_dim(end_algebra(v)) == 1

    def test_non_schur_summand_breaks_semisimplicity(self, k2):
        v = direct_sum([(k2.representations["J2"], 1),
                        (simple_rep(k2.quiver, "1"), 1)])
        assert radical_dim(end_algebra(v)) >= 1

    def test_radical_is_nilpotent_two_sided_ideal(self, d5, k2):
        targets = [
            jordan_rep(kronecker2()),
            direct_sum([(d5.representations["E3"], 1),
                        (d5.representations["V1"], 1)]),
            direct_sum([(k2.representations["J2"], 1),
                        (simple_rep(k2.quiver, "1"), 1)]),
        ]
        for v in targets:
            algebra = end_algebra(v)
            rad = [combination(coords, algebra.basis)
                   for coords in radical_basis(algebra)]
            assert rad
            # two-sided ideal
            for r in rad:
                for f in algebra.basis:
                    assert in_span(rad, compose(f, r))
                    assert in_span(rad, compose(r, f))
            # nilpotent: successive powers of the span die out
            power = rad
            for _ in range(algebra.dim + 1):
                power = [p for p in (compose(a, b) for a in power for b in rad)
                         if any(flat(p))]
                if not power:
                    break
            else:
                raise AssertionError("radical span did not become nilpotent")


class TestSchurAndIndecomposable:
    def test_simple(self, d5):
        s = simple_rep(d5.quiver, "5")
        assert is_schur(s)
        assert is_indecomposable(s)

    def test_double_simple(self, d5):
        v = direct_sum([(simple_rep(d5.quiver, "5"), 2)])
        assert not is_schur(v)
        assert not is_indecomposable(v)

    def test_k3_catalog_rep(self, k3):
        assert is_schur(k3.representations["V"])

    def test_jordan_local_not_schur(self):
        v = jordan_rep(kronecker2())
        assert not is_schur(v)
        assert is_indecomposable(v)

    def test_zero_rep_rejected(self, k3):
        zero = Representation.from_dict(k3.quiver, (0, 0))
        with pytest.raises(ValueError):
            is_indecomposable(zero)


class TestIsomorphism:
    def test_reflexive(self, d5):
        v0 = d5.representations["V0"]
        assert are_isomorphic(v0, v0)

    def test_dimension_mismatch(self, d5):
        assert not are_isomorphic(d5.representations["E2"], d5.representations["E3"])

    def test_kronecker_family(self, k2):
        q = k2.quiver
        r_lambda = Representation.from_dict(q, (1, 1), {"a1": [[1]], "a2": [[2]]})
        r_mu = Representation.from_dict(q, (1, 1), {"a1": [[1]], "a2": [[3]]})
        assert not are_isomorphic(r_lambda, r_mu)

    def test_scaled_pair_isomorphic(self, k2):
        q = k2.quiver
        v = Representation.from_dict(q, (1, 1), {"a1": [[1]], "a2": [[2]]})
        w = Representation.from_dict(q, (1, 1), {"a1": [[3]], "a2": [[6]]})
        assert are_isomorphic(v, w)

    def test_base_change_isomorphic(self):
        q = kronecker2()
        v = jordan_rep(q)
        g1 = Mat.from_rows([[1, 1], [0, 1]])
        g2 = Mat.from_rows([[2, 0], [1, 1]])
        g1_inv = Mat.from_rows([[1, -1], [0, 1]])
        mats = tuple(g2 @ m @ g1_inv for m in v.matrices)
        w = Representation(q, v.dim, mats)
        assert are_isomorphic(v, w)
        assert not are_isomorphic(v, Representation.from_dict(q, (2, 2), {
            "a": [[1, 0], [0, 1]]}))

    def test_zero_reps(self, k2):
        z1 = Representation.from_dict(k2.quiver, (0, 0))
        z2 = Representation.from_dict(k2.quiver, (0, 0))
        assert are_isomorphic(z1, z2)

    def test_aliases(self, d5):
        assert are_isomorphic(d5.representations["E2"], d5.representations["V2"])
        assert are_isomorphic(d5.representations["Y1"], d5.representations["V4"])

    @pytest.mark.parametrize("name", catalog.CATALOG_NAMES)
    def test_base_change_over_catalog(self, name):
        bundle = catalog.load(name)
        aliases = CATALOG_ALIASES.get(name, ())
        members = {n: r for n, r in bundle.representations.items()
                   if is_indecomposable(r)}
        rng = random.Random(0)
        copies = {n: unimodular_conjugate(r, rng) for n, r in members.items()}
        for a, v in members.items():
            for b, w in copies.items():
                expected = a == b or {a, b} in aliases
                assert are_isomorphic(v, w) == expected, (a, b)

    def test_nonisomorphic_with_one_dimensional_hom(self, k3):
        q = k3.quiver
        v = Representation.from_dict(q, (2, 2), {
            "a1": [[0, -1], [0, 0]], "a2": [[0, 1], [1, 1]], "a3": [[2, 1], [0, 0]]})
        w = Representation.from_dict(q, (2, 2), {
            "a1": [[2, 0], [-1, 0]], "a2": [[1, 1], [-1, 0]], "a3": [[0, 0], [2, 0]]})
        assert is_indecomposable(v) and is_indecomposable(w)
        assert hom_dim(v, w) == 1
        assert not are_isomorphic(v, w)
        assert not are_isomorphic(w, v)

    def test_decomposable_without_invertible_basis_element_rejected(self, a3):
        # End(S1^3) = M_3(Q): its elementary-matrix basis holds no unit, so
        # the Hom basis cannot decide isomorphism for a decomposable source
        s1_cubed = direct_sum([(a3.representations["S1"], 3)])
        with pytest.raises(ValueError, match="indecomposable"):
            are_isomorphic(s1_cubed, s1_cubed)


CATALOG_ALIASES = {"D5tilde": ({"E2", "V2"}, {"Y1", "V4"}, {"Y2", "V5"})}


def unimodular_pair(d, rng):
    """An integer d x d matrix of determinant +-1 and its inverse, built from
    random elementary row operations and one random sign."""
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    g_inv = [row[:] for row in g]
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        # g <- (1 + c e_ij) g  and  g_inv <- g_inv (1 - c e_ij)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g_inv:
            row[j] -= c * row[i]
    if d and rng.random() < 0.5:
        g[0] = [-a for a in g[0]]
        for row in g_inv:
            row[0] = -row[0]
    return Mat.shaped(d, d, g), Mat.shaped(d, d, g_inv)


def unimodular_conjugate(v, rng):
    """A copy of v in a random integer basis of determinant +-1 per vertex."""
    changes = [unimodular_pair(d, rng) for d in v.dim]
    mats = tuple(changes[a.head][0] @ m @ changes[a.tail][1]
                 for a, m in zip(v.quiver.arrows, v.matrices))
    return Representation(v.quiver, v.dim, mats)


class TestDirectSum:
    def test_single_copy_identity(self, d5):
        v0 = d5.representations["V0"]
        assert direct_sum([(v0, 1)]) == v0

    def test_double_simple_dims(self, d5):
        v = direct_sum([(simple_rep(d5.quiver, "1"), 2)])
        assert v.dim == (2, 0, 0, 0, 0, 0)

    def test_full_catalog_sum_dimension(self, d5):
        names = ["V0", "V1", "V2", "V3", "V4", "V5"]
        reps = [d5.representations[n] for n in names]
        expected = tuple(sum(r.dim[x] for r in reps) for x in range(d5.quiver.n))
        assert expected == (4, 4, 4, 4, 9, 8)
        assert direct_sum([(r, 1) for r in reps]).dim == expected

    def test_block_structure(self, k2):
        v = direct_sum([(k2.representations["R0"], 1), (k2.representations["R1"], 1)])
        assert v.matrices[0] == Mat.from_rows([[1, 0], [0, 1]])
        assert v.matrices[1] == Mat.from_rows([[0, 0], [0, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct_sum([])

    def test_bad_multiplicity(self, k2):
        with pytest.raises(ValueError):
            direct_sum([(k2.representations["R0"], 0)])


class TestReduceModP:
    def test_integer_entries(self, d5):
        v0 = d5.representations["V0"]
        reduced = reduce_mod_p(v0, 5)
        assert reduced.p == 5
        assert reduced.matrices[4] == ((1, 2),)

    def test_bad_prime(self, k2):
        q = k2.quiver
        v = Representation.from_dict(q, (1, 1), {"a1": [["1/2"]]})
        with pytest.raises(BadPrime):
            reduce_mod_p(v, 2)
        reduced = reduce_mod_p(v, 3)
        assert reduced.matrices[0] == ((2,),)  # 1/2 = 2 mod 3

    def test_catalog_entries_reduce_everywhere(self, d5):
        for rep in d5.representations.values():
            reduce_mod_p(rep, 5)
