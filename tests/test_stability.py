import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverstab import stability
from quiverstab.quiver import Quiver
from quiverstab.reps import Representation, direct_sum, simple_rep
from quiverstab.stability import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    BudgetExceeded,
    FeasibilityProblem,
    _subspaces,
    check_stability,
    find_weight,
    is_locally_semisimple,
    subrep_dimvectors,
    subrep_dimvectors_union,
)


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("p,d,count", [
        (2, 1, 2), (5, 1, 2),       # zero and full line
        (2, 2, 5), (3, 2, 6),       # 1 + (p+1) + 1
        (2, 3, 16),                  # 1 + 7 + 7 + 1
        (5, 2, 8),
    ])
    def test_counts(self, p, d, count):
        assert len(list(_subspaces(p, d))) == count

    def test_echelon_bases_unique(self):
        subs = list(_subspaces(3, 3))
        assert len({s for s in subs}) == len(subs)


class TestSubrepOracle:
    def test_simple(self, d5):
        s = simple_rep(d5.quiver, "2")
        found = subrep_dimvectors(s, 5)
        assert found.dimvectors == {(0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)}

    def test_a3_sincere(self, a3):
        m = a3.representations["M"]
        found = subrep_dimvectors(m, 5)
        assert found.dimvectors == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}

    def test_k3_has_diagonal_subrep(self, k3):
        found = subrep_dimvectors(k3.representations["V"], 5)
        assert (1, 1) in found.dimvectors

    def test_v1_regular_tails(self, d5):
        found = subrep_dimvectors(d5.representations["V1"], 5)
        assert (0, 0, 0, 0, 0, 1) in found.dimvectors
        assert (0, 0, 0, 0, 1, 1) in found.dimvectors

    def test_zero_and_full_always_present(self, d5):
        for name in ("E1", "L2", "V0", "V3"):
            rep = d5.representations[name]
            found = subrep_dimvectors(rep, 7)
            assert tuple(0 for _ in rep.dim) in found.dimvectors
            assert rep.dim in found.dimvectors

    def test_union_monotone(self, d5):
        rep = d5.representations["V0"]
        single = subrep_dimvectors(rep, 5).dimvectors
        union = subrep_dimvectors_union(rep, (5, 7, 11)).dimvectors
        assert single <= union

    def test_budget(self, d5):
        with pytest.raises(BudgetExceeded):
            subrep_dimvectors(d5.representations["V0"], 5, budget=10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_large_vertex_dimension_decided(self, k2, p):
        # a1 = I and a2 = the nilpotent shift: U1 <= U2 is the only constraint
        # on dimensions, and every flag of shift-invariant subspaces meets it
        shift = [[1 if c == r + 1 else 0 for c in range(5)] for r in range(5)]
        identity = [[int(r == c) for c in range(5)] for r in range(5)]
        big = Representation.from_dict(k2.quiver, (5, 5),
                                       {"a1": identity, "a2": shift})
        found = subrep_dimvectors(big, p).dimvectors
        assert found == {(k, m) for m in range(6) for k in range(m + 1)}

    def test_refusal_counts_visits(self, k2):
        zero = Representation.from_dict(k2.quiver, (5, 5))
        with pytest.raises(BudgetExceeded, match="10000 subspaces"):
            subrep_dimvectors(zero, 5, budget=10_000)

    @pytest.mark.parametrize("p", [4, 6, 9])
    def test_composite_modulus_rejected(self, k2, d5, p):
        with pytest.raises(ValueError, match="not a prime"):
            check_stability(k2.representations["R0"], (1, -1), primes=(p,))
        with pytest.raises(ValueError, match="not a prime"):
            subrep_dimvectors(d5.representations["V0"], p)


class TestCheckStability:
    def test_simple_zero_weight(self, d5):
        s = simple_rep(d5.quiver, "4")
        report = check_stability(s, (0, 0, 0, 0, 0, 0))
        assert report.verdict == STABLE
        assert report.destabilizer is None

    def test_a3_sincere_stable(self, a3):
        report = check_stability(a3.representations["M"], (1, 0, -1))
        assert report.verdict == STABLE

    def test_k3_never_stable(self, k3):
        report = check_stability(k3.representations["V"], (1, -1))
        assert report.verdict in (UNSTABLE, SEMISTABLE)
        assert report.destabilizer == (1, 1)

    def test_nonzero_pairing_unstable(self, a3):
        report = check_stability(a3.representations["M"], (1, 0, 0))
        assert report.verdict == UNSTABLE
        assert report.destabilizer == (1, 1, 1)

    def test_semistable_not_stable(self, k2):
        # R0 + R1 direct sum: theta must vanish on the (1,1) summands
        v = direct_sum([(k2.representations["R0"], 1), (k2.representations["R1"], 1)])
        report = check_stability(v, (1, -1))
        assert report.verdict == SEMISTABLE

    def test_primes_recorded(self, d5):
        report = check_stability(d5.representations["E2"], (0, 0, 0, 0, 0, 0),
                                 primes=(5, 7))
        assert report.primes == (5, 7)


class TestFindWeight:
    def test_forced_direction(self):
        theta = find_weight(FeasibilityProblem(
            equalities=((1, 1),), strict=((1, 0),)))
        assert theta == (-1, 1)

    def test_k3_infeasible(self):
        assert find_weight(FeasibilityProblem(
            equalities=((2, 2),), strict=((1, 1),))) is None

    def test_equalities_only(self):
        theta = find_weight(FeasibilityProblem(equalities=((1, 0),), strict=()))
        assert theta is not None
        assert theta[0] == 0

    def test_d5_sequence_problem(self, d5):
        names = ("V0", "V1", "V2", "V3", "V4", "V5")
        reps = [d5.representations[n] for n in names]
        equalities = []
        for rep in reps:
            if rep.dim not in equalities:
                equalities.append(rep.dim)
        strict = set()
        for rep in reps:
            strict.update(subrep_dimvectors_union(rep, (5, 7, 11)).proper_nonzero())
        theta = find_weight(FeasibilityProblem(tuple(equalities),
                                               tuple(sorted(strict))))
        assert theta is not None
        for rep in reps:
            assert check_stability(rep, theta).verdict == STABLE

    def test_constraints_satisfied_exactly(self):
        problem = FeasibilityProblem(
            equalities=((1, 1, 1),),
            strict=((0, 0, 1), (0, 1, 1), (0, 1, 2)))
        theta = find_weight(problem)
        assert theta is not None
        for e in problem.equalities:
            assert sum(t * c for t, c in zip(theta, e)) == 0
        for s in problem.strict:
            assert sum(t * c for t, c in zip(theta, s)) <= -1

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError):
            find_weight(FeasibilityProblem((), ()))

    @pytest.mark.parametrize("problem", [
        FeasibilityProblem(equalities=((1, 0),), strict=()),
        FeasibilityProblem(equalities=(), strict=((1, 0),)),
    ])
    def test_violating_result_is_an_internal_error(self, monkeypatch, problem):
        # primitive_integer_vector only scales the final weight, whose
        # length is n = 2
        real = stability.primitive_integer_vector
        monkeypatch.setattr(stability, "primitive_integer_vector",
                            lambda vec: (1, 0) if len(vec) == 2 else real(vec))
        with pytest.raises(RuntimeError, match="violates"):
            find_weight(problem)

    def test_mixed_sign_rows_solve_quickly(self):
        # 6 unknowns, 24 strict rows of mixed signs, planted weight
        # (-1, -2, 0, 2, -3, -3): rows like these make the row count of
        # Fourier-Motzkin elimination explode
        problem = FeasibilityProblem((), (
            (3, 1, -3, -1, 1, -3), (1, -2, -3, -3, 0, 0), (3, 2, 3, -1, 0, 3),
            (3, 1, -3, -2, 2, 2), (-1, 3, -1, -1, 0, 3), (2, 3, -1, -3, 2, 1),
            (0, -2, 1, -3, 1, -1), (1, 3, 2, -2, -3, 1), (1, 2, -2, -1, -3, 1),
            (-2, 3, -1, 3, -1, 2), (0, 2, 1, 0, 3, -1), (0, -1, 0, 1, 1, 2),
            (-3, 2, -2, -3, 2, 3), (1, -1, 1, 0, -1, 2), (0, 1, -1, 3, 3, -1),
            (0, 2, -3, 1, 2, 0), (0, -3, 2, -3, 3, 1), (1, 3, 3, -1, -1, 2),
            (-1, 1, 0, 1, 3, 0), (-3, 3, -3, -1, 0, 2), (-2, 3, 3, -2, -2, 1),
            (-2, -1, -2, -3, 0, 1), (-2, 0, -2, 1, 3, 0), (1, 2, -1, 3, 0, 3)))
        with time_limit(1):
            theta = find_weight(problem)
        assert theta is not None
        assert all(sum(t * c for t, c in zip(theta, s)) <= -1 for s in problem.strict)

    @pytest.mark.parametrize("lam", [
        (1, 0, 0),    # sum lam_i a_i != 0
        (1, 1, 0),    # sum lam != 1
        (-1, 1, 1),   # a negative multiplier
    ])
    def test_bogus_certificate_is_an_internal_error(self, monkeypatch, lam):
        monkeypatch.setattr(stability, "_farkas",
                            lambda rows: (None, [Fraction(x) for x in lam]))
        with pytest.raises(RuntimeError, match="certificate"):
            find_weight(FeasibilityProblem((), ((1, 0), (-1, 0), (2, 0))))


@contextmanager
def time_limit(seconds):
    """Fail the enclosed call instead of hanging when it runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def feasibility_problems(draw):
    """At most 5 unknowns, 2 equalities and 10 strict rows with entries in
    [-3, 3]; some strict rows are zero, repeat an earlier row or lie in the
    span of the equalities."""
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    equalities = draw(st.lists(vector, max_size=2))
    strict = draw(st.lists(vector, min_size=0 if equalities else 1, max_size=10))
    for i in range(len(strict)):
        kind = draw(st.sampled_from(("keep", "zero", "repeat", "span")))
        if kind == "zero":
            strict[i] = (0,) * n
        elif kind == "repeat" and i:
            strict[i] = strict[draw(st.integers(0, i - 1))]
        elif kind == "span" and equalities:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(equalities),
                                   max_size=len(equalities)))
            strict[i] = tuple(sum(c * e[j] for c, e in zip(coeffs, equalities))
                              for j in range(n))
    return FeasibilityProblem(tuple(equalities), tuple(strict))


@settings(max_examples=200, deadline=None)
@given(feasibility_problems())
# Bland's rule without the lowest-basic-index tie-break cycles on this one
@example(FeasibilityProblem((), (
    (3, -1, -2, -3, 1), (-3, -3, 3, -3, 3), (3, 1, -3, 2, -1), (0, -1, 3, 2, 2),
    (-3, 1, 0, -3, 3), (-3, 1, 0, -3, 0), (2, -1, 0, 0, 3), (-3, -1, 2, 3, 0),
    (-1, 2, -3, 3, -1))))
def test_find_weight_answers_are_checked(problem):
    # a wrong weight or a wrong certificate raises RuntimeError inside
    with time_limit(5):
        theta = find_weight(problem)
    if theta is not None:
        assert all(sum(t * c for t, c in zip(theta, e)) == 0 for e in problem.equalities)
        assert all(sum(t * c for t, c in zip(theta, s)) <= -1 for s in problem.strict)


class TestLocallySemisimple:
    def test_single_simple(self, d5):
        ok, theta = is_locally_semisimple([simple_rep(d5.quiver, "6")])
        assert ok
        assert theta == (0, 0, 0, 0, 0, 0)

    def test_d5_sequence(self, d5):
        reps = [d5.representations[n] for n in ("V0", "V1", "V2", "V3", "V4", "V5")]
        ok, theta = is_locally_semisimple(reps)
        assert ok
        assert check_stability(reps[0], theta).verdict == STABLE

    def test_k3_negative(self, k3):
        ok, theta = is_locally_semisimple([k3.representations["V"]])
        assert not ok
        assert theta is None

    def test_isomorphic_summands_rejected(self, d5):
        e2 = d5.representations["E2"]
        with pytest.raises(ValueError, match="isomorphic"):
            is_locally_semisimple([e2, d5.representations["V2"]])

    def test_decomposable_summand_rejected(self, d5):
        v = direct_sum([(simple_rep(d5.quiver, "1"), 1),
                        (simple_rep(d5.quiver, "2"), 1)])
        with pytest.raises(ValueError, match="not indecomposable"):
            is_locally_semisimple([v])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_locally_semisimple([])
