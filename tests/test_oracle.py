"""Differential and metamorphic tests of the subrepresentation oracle.

The reference below enumerates every tuple of subspaces, one per vertex, and
keeps the arrow-invariant ones.  It shares no code with the oracle: its
subspaces are sets of vectors grown by spans, and invariance is checked on
those sets directly.
"""

import itertools
import random
from functools import cache

import pytest

from quiverstab import catalog
from quiverstab.quiver import Quiver
from quiverstab.reps import Representation, direct_sum
from quiverstab.stability import subrep_dimvectors

D4_MIXED = Quiver.from_names(["0", "1", "2", "3"],
                             [("a", "1", "0"), ("b", "0", "2"), ("c", "3", "0")])


@cache
def _all_subspaces(p, d):
    """(dimension, generators, vector set) for every subspace of F_p^d."""
    vectors = list(itertools.product(range(p), repeat=d))
    zero = frozenset([(0,) * d])
    found = {zero: (0, ())}
    frontier = [zero]
    while frontier:
        grown = []
        for space in frontier:
            k, gens = found[space]
            for v in vectors:
                if v in space:
                    continue
                span = frozenset(tuple((a + c * b) % p for a, b in zip(u, v))
                                 for u in space for c in range(p))
                if span not in found:
                    found[span] = (k + 1, gens + (v,))
                    grown.append(span)
        frontier = grown
    return [(k, gens, space) for space, (k, gens) in found.items()]


def _brute_force(quiver, dim, matrices, p):
    """Dimension vectors of all arrow-invariant subspace tuples mod p."""
    def image(m, u):
        return tuple(sum(a * b for a, b in zip(row, u)) % p for row in m)

    out = set()
    for choice in itertools.product(*(_all_subspaces(p, d) for d in dim)):
        if all(image(matrices[a.name], u) in choice[a.head][2]
               for a in quiver.arrows for u in choice[a.tail][1]):
            out.add(tuple(k for k, _, _ in choice))
    return out


def _random_case(quiver, p, rng):
    """Integer matrices on a random dimension vector small enough to brute-force."""
    while True:
        dim = [rng.randint(0, 3 if p < 5 else 2) for _ in quiver.vertices]
        tuples = 1
        for d in dim:
            tuples *= len(_all_subspaces(p, d))
        if tuples <= 5000:
            break
    matrices = {a.name: [[rng.randint(-2, 2) for _ in range(dim[a.tail])]
                         for _ in range(dim[a.head])] for a in quiver.arrows}
    return dim, matrices


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["A3", "K2", "K3", "D5tilde", "D4-mixed"])
def test_matches_brute_force(name, p):
    quiver = D4_MIXED if name == "D4-mixed" else catalog.load(name).quiver
    rng = random.Random(f"{name}/{p}")
    for _ in range(4):
        dim, matrices = _random_case(quiver, p, rng)
        rep = Representation.from_dict(quiver, dim, matrices)
        assert subrep_dimvectors(rep, p).dimvectors == _brute_force(quiver, dim, matrices, p)


def _dual(rep):
    """The representation of the opposite quiver with transposed matrices."""
    q = rep.quiver
    opposite = Quiver(q.vertices, tuple(a._replace(tail=a.head, head=a.tail)
                                        for a in q.arrows))
    return Representation(opposite, rep.dim, tuple(m.transpose() for m in rep.matrices))


def _d5_cases():
    reps = catalog.load("D5tilde").representations
    cases = dict(reps)
    cases["E1^2+E2"] = direct_sum([(reps["E1"], 2), (reps["E2"], 1)])
    cases["V0+E1"] = direct_sum([(reps["V0"], 1), (reps["E1"], 1)])
    return cases


@pytest.mark.parametrize("p", [5, 7])
def test_duality(p):
    # subrepresentations of DV are the annihilators of quotients of V
    for name, rep in _d5_cases().items():
        dims = subrep_dimvectors(rep, p).dimvectors
        dual = subrep_dimvectors(_dual(rep), p).dimvectors
        assert dual == {tuple(n - u for n, u in zip(rep.dim, vec)) for vec in dims}, name


@pytest.mark.parametrize("left,right", [(("E1", 2), ("E2", 1)), (("V0", 1), ("E1", 1))])
def test_direct_sum_contains_sums(left, right):
    reps = catalog.load("D5tilde").representations
    v = direct_sum([(reps[left[0]], left[1])])
    w = direct_sum([(reps[right[0]], right[1])])
    both = subrep_dimvectors(direct_sum([(v, 1), (w, 1)]), 5).dimvectors
    for a in subrep_dimvectors(v, 5).dimvectors:
        for b in subrep_dimvectors(w, 5).dimvectors:
            assert tuple(x + y for x, y in zip(a, b)) in both
