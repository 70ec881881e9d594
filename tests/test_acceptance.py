"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); a failed assertion surfaces as an ordinary pytest failure.
Criterion 8 audits every stability verdict issued by this module, so the
other tests route their checks through ``checked_stability``.
"""

import random

from quiverstab.quiver import apply_matrix, classify, coxeter_matrix, defect
from quiverstab.reps import direct_sum, end_algebra, hom_dim, radical_dim, is_schur
from quiverstab.stability import (
    check_stability,
    is_locally_semisimple,
    subrep_dimvectors,
    subrep_dimvectors_union,
)
from quiverstab.synthesis import (
    SequenceValidationError,
    assemble_tube_system,
    locate_in_tube,
    maximal_extension,
    regular_subrep_dims,
    shift_sigma,
    solve_tube_system,
    synthesize_weight,
    validate_sequence,
)

PRIMES = (5, 7, 11)
THETA = (1, 1, 0, 0, 0, -1)
SIGMA = (3, -1, -2, 2, 0, -1)
SIGMA_BOUND = (4, -2, -3, 3, 0, -1)
DELTA = (1, 1, 1, 1, 2, 2)

MAIN = ("V0", "V1", "V2", "V3", "V4", "V5")
# pairwise non-isomorphic catalog members (V2, V4, V5 duplicate E2, Y1, Y2)
DISTINCT = ("E1", "E2", "E3", "L1", "L2", "Y1", "Y2", "V0", "V1", "V3")

_verdict_log = []


def checked_stability(rep, weight, primes=PRIMES):
    report = check_stability(rep, weight, primes)
    _verdict_log.append((rep, report))
    return report


def main_members(d5):
    return [d5.representations[n] for n in MAIN]


def tube_system_for_main(d5):
    members_by_tube = [[] for _ in d5.tubes.tubes]
    for rep in main_members(d5):
        pos = locate_in_tube(rep, d5.tubes)
        if pos is not None:
            members_by_tube[pos.tube_index].append(pos)
    maximal = [maximal_extension(ms, ti, d5.tubes)
               for ti, ms in enumerate(members_by_tube)]
    return assemble_tube_system(d5.tubes, maximal)


def test_criterion_1_tube_system_matches_reference(d5):
    system = tube_system_for_main(d5)
    active = [(r.vector, r.rhs) for r in system.active]
    assert active == [
        ((1, 1, 1, 1, 1, 1), 1),
        ((0, 0, 0, 0, 1, 0), 0),
        ((0, 0, 0, 0, 0, 1), -1),
        ((1, 1, 0, 0, 1, 1), 1),
        ((1, 0, 1, 0, 1, 1), 0),
    ]
    for vector, rhs in active:
        assert sum(t * c for t, c in zip(THETA, vector)) == rhs
    assert solve_tube_system(system) == THETA
    print("ACCEPTANCE 1 PASS: tube system has the five reference rows with "
          "rhs (1,0,-1,1,0) and accepts theta=(1,1,0,0,0,-1)")


def test_criterion_2_exact_shift_and_stability(d5):
    members = main_members(d5)
    excess = max(
        sum(t * c for t, c in zip(THETA, sub))
        for rep in members
        for sub in subrep_dimvectors_union(rep, PRIMES).dimvectors
        if defect(d5.quiver, DELTA, sub) != 0
    )
    assert excess == 1
    assert shift_sigma(THETA, members, "exact", PRIMES) == SIGMA
    for rep in members:
        assert checked_stability(rep, SIGMA).verdict == "stable"
    print("ACCEPTANCE 2 PASS: exact shift N=1 gives sigma=(3,-1,-2,2,0,-1), "
          "stable on all six members at primes {5,7,11}")


def test_criterion_3_wild_counterexample(k3):
    rep = k3.representations["V"]
    assert is_schur(rep)
    assert (1, 1) in subrep_dimvectors(rep, 5).dimvectors
    verdict, weight = is_locally_semisimple([rep], PRIMES)
    assert verdict is False and weight is None
    assert synthesize_weight(validate_sequence([rep]), None, PRIMES) is None
    print("ACCEPTANCE 3 PASS: 3-arrow Kronecker Schur representation has the "
          "(1,1) subrepresentation and no stability weight")


def test_criterion_4_semisimplicity_equivalence(d5):
    # free random subsets plus subsets forced through a non-orthogonal pair,
    # so both sides of the equivalence get exercised
    rng = random.Random(20240801)
    conflicting_pairs = [("E1", "V1"), ("E3", "V1"), ("L1", "V3"), ("L2", "V3")]

    def draw(force_conflict):
        while True:
            if force_conflict:
                names = list(rng.choice(conflicting_pairs))
                extras = [n for n in DISTINCT if n not in names]
                names += rng.sample(extras, rng.randint(0, 2))
            else:
                names = rng.sample(DISTINCT, rng.randint(1, 4))
            mults = [rng.randint(1, 3) for _ in names]
            reps = [d5.representations[n] for n in names]
            if sum(m * r.total_dim for m, r in zip(mults, reps)) <= 28:
                return names, reps, mults

    # the members are pairwise non-isomorphic Schur representations, so
    # End/rad is a product of full matrix algebras M_m(Q), one per member
    hom = {(a, b): hom_dim(d5.representations[a], d5.representations[b])
           for a in DISTINCT for b in DISTINCT}
    valid_count = invalid_count = 0
    for case in range(60):
        names, reps, mults = draw(force_conflict=case % 3 == 2)
        rad = radical_dim(end_algebra(direct_sum(list(zip(reps, mults)))))
        assert rad == (sum(mi * mj * hom[a, b]
                           for a, mi in zip(names, mults)
                           for b, mj in zip(names, mults))
                       - sum(m * m for m in mults)), (names, mults)
        semisimple = rad == 0
        try:
            validate_sequence(reps)
            valid = True
        except SequenceValidationError:
            valid = False
        assert semisimple == valid, (names, mults)
        if valid:
            valid_count += 1
        else:
            invalid_count += 1
    assert valid_count >= 15 and invalid_count >= 15
    print(f"ACCEPTANCE 4 PASS: radical=0 iff orthogonal Schur sequence on "
          f"{valid_count + invalid_count} sampled direct sums "
          f"({valid_count} valid, {invalid_count} invalid)")


def test_criterion_5_oracle_structure_equivalence(d5):
    zero = (0,) * 6
    regular_names = [
        n for n in d5.representations
        if defect(d5.quiver, DELTA, d5.representations[n].dim) == 0
    ]
    assert set(MAIN) <= set(regular_names)
    for name in regular_names:
        rep = d5.representations[name]
        oracle_regular = {
            v for v in subrep_dimvectors(rep, 5).dimvectors
            if defect(d5.quiver, DELTA, v) == 0
        }
        pos = locate_in_tube(rep, d5.tubes)
        tails = [] if pos is None else regular_subrep_dims(pos, d5.tubes)
        assert oracle_regular == {zero, rep.dim} | set(tails), name
    print(f"ACCEPTANCE 5 PASS: defect-zero oracle subrepresentations match "
          f"the structural tails for all {len(regular_names)} regular "
          f"catalog members")


def test_criterion_6_tube_coherence(d5):
    phi = coxeter_matrix(d5.quiver)
    assert apply_matrix(phi, DELTA) == DELTA
    periods = []
    for tube in d5.tubes.tubes:
        dims = [s.dim for s in tube.simples]
        for k, d in enumerate(dims):
            assert apply_matrix(phi, d) == dims[(k + 1) % len(dims)]
        orbit_sum = tuple(sum(d[x] for d in dims) for x in range(6))
        assert orbit_sum == DELTA
        periods.append(len(dims))
    assert periods == [3, 2, 2]
    print("ACCEPTANCE 6 PASS: Coxeter transformation cycles the tubes with "
          "periods (3,2,2), orbits sum to delta, and fixes delta")


def test_criterion_7_classification(a3, k2, k3, d5):
    assert classify(a3.quiver).kind == "Dynkin"
    d5_class = classify(d5.quiver)
    assert d5_class.kind == "Euclidean" and d5_class.delta == DELTA
    k2_class = classify(k2.quiver)
    assert k2_class.kind == "Euclidean" and k2_class.delta == (1, 1)
    assert classify(k3.quiver).kind == "Wild"
    print("ACCEPTANCE 7 PASS: A3 Dynkin, D5tilde Euclidean (1,1,1,1,2,2), "
          "K2 Euclidean (1,1), K3 wild")


def test_criterion_9_bound_mode_soundness(d5):
    members = main_members(d5)
    bound_excess = sum(
        max(t, 0) * max(rep.dim[x] for rep in members)
        for x, t in enumerate(THETA)
    )
    assert bound_excess == 2
    assert shift_sigma(THETA, members, "bound") == SIGMA_BOUND
    for rep in members:
        assert checked_stability(rep, SIGMA_BOUND).verdict == "stable"
    print("ACCEPTANCE 9 PASS: bound-mode shift N_bound=2 gives "
          "sigma=(4,-2,-3,3,0,-1), stable on all six members")


def test_criterion_8_stable_implies_schur():
    # audits every verdict issued through checked_stability above; runs last
    # in file order so the log is populated
    assert _verdict_log, "no stability checks recorded"
    stable_count = 0
    for rep, report in _verdict_log:
        if report.verdict == "stable":
            stable_count += 1
            assert hom_dim(rep, rep) == 1
    assert stable_count >= 12
    print(f"ACCEPTANCE 8 PASS: all {stable_count} stable verdicts issued by "
          f"the suite belong to Schur representations")
