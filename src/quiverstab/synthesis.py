"""Constructive stability-weight synthesis for tame quivers.

The pipeline: validate an orthogonal Schur sequence, classify members by
defect, and then either

* solve the generic feasibility problem over the oracle's
  subrepresentation dimension vectors, or
* for all-regular sequences on a Euclidean quiver, place every member in a
  tube of the supplied catalog, extend to a maximal orthogonal sequence per
  tube, solve the tube weight system (socle rows -1, top rows +1, member
  simples 0, one redundant row dropped per extra tube), and shift the
  solution by a multiple of the defect weight to kill non-regular
  destabilizers.

Every weight handed back has been verified with the stability oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .linalg import InconsistentSystem, Mat, rref, solve_linear
from .quiver import Quiver, QuiverClass, classify, defect, defect_weight
from .reps import BadPrime, Representation, are_isomorphic, ext1_dim, hom_dim, is_schur
from .stability import (
    DEFAULT_BUDGET,
    DEFAULT_PRIMES,
    check_stability,
    common_weight,
    subrep_dimvectors,
    subrep_dimvectors_union,
)

__all__ = [
    "SequenceValidationError",
    "NotSchurError",
    "NotOrthogonalError",
    "IsomorphicMembersError",
    "NotInCatalog",
    "DependentRows",
    "SynthesisError",
    "SchurSequence",
    "Tube",
    "TubeCatalog",
    "TubePosition",
    "TubeSystemRow",
    "TubeSystem",
    "validate_sequence",
    "build_ext_quiver",
    "exceptional_order",
    "locate_in_tube",
    "regular_subrep_dims",
    "check_orthogonality_structurally",
    "maximal_extension",
    "assemble_tube_system",
    "solve_tube_system",
    "shift_sigma",
    "synthesize_weight",
    "validate_catalog",
]

PREPROJECTIVE = "preprojective"
REGULAR = "regular"
PREINJECTIVE = "preinjective"


class SequenceValidationError(ValueError):
    """A proposed orthogonal Schur sequence fails one of its hypotheses."""


class NotSchurError(SequenceValidationError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"member {index} is not Schur")


class NotOrthogonalError(SequenceValidationError):
    def __init__(self, source: int, target: int):
        self.pair = (source, target)
        super().__init__(f"Hom from member {source} to member {target} is nonzero")


class IsomorphicMembersError(SequenceValidationError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"members {i} and {j} are isomorphic")


class NotInCatalog(Exception):
    """A regular representation matches no position in the tube catalog."""


class DependentRows(Exception):
    """Tube system rows are linearly dependent: the catalog is inconsistent."""


class SynthesisError(Exception):
    """The synthesis pipeline cannot proceed (e.g. missing catalog)."""


@dataclass(frozen=True)
class SchurSequence:
    """A validated orthogonal Schur sequence with per-member defect classes.

    ``classes[i]`` is preprojective/regular/preinjective on Euclidean
    quivers and None otherwise.
    """

    members: tuple[Representation, ...]
    classes: tuple[str | None, ...]
    quiver_class: QuiverClass

    @property
    def quiver(self) -> Quiver:
        return self.members[0].quiver

    def all_regular(self) -> bool:
        return all(c == REGULAR for c in self.classes)


def validate_sequence(members: Sequence[Representation]) -> SchurSequence:
    """Check the orthogonal Schur sequence hypotheses and classify members.

    Raises NotSchurError, NotOrthogonalError or IsomorphicMembersError
    naming the offending member or pair.  Isomorphic members always fail
    the orthogonality scan (the isomorphism is a nonzero morphism), so the
    isomorphism test only runs on pairs already known to be non-orthogonal.
    """
    if not members:
        raise SequenceValidationError("empty sequence")
    quiver = members[0].quiver
    for m in members:
        if m.quiver != quiver:
            raise SequenceValidationError("members live on different quivers")
    for i, m in enumerate(members):
        if not is_schur(m):
            raise NotSchurError(i)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            forward = hom_dim(members[i], members[j])
            backward = hom_dim(members[j], members[i])
            if forward or backward:
                if (members[i].dim == members[j].dim and forward and backward
                        and are_isomorphic(members[i], members[j])):
                    raise IsomorphicMembersError(i, j)
                if forward:
                    raise NotOrthogonalError(i, j)
                raise NotOrthogonalError(j, i)

    qc = classify(quiver)
    if qc.is_euclidean:
        assert qc.delta is not None
        classes = []
        for m in members:
            d = defect(quiver, qc.delta, m.dim)
            classes.append(PREPROJECTIVE if d < 0 else PREINJECTIVE if d > 0 else REGULAR)
        return SchurSequence(tuple(members), tuple(classes), qc)
    return SchurSequence(tuple(members), (None,) * len(members), qc)


def build_ext_quiver(seq: SchurSequence) -> set[tuple[int, int]]:
    """Arrows (i, j) with Ext^1(member i, member j) nonzero."""
    arrows = set()
    r = len(seq.members)
    for i in range(r):
        for j in range(r):
            if i != j and ext1_dim(seq.members[i], seq.members[j]) > 0:
                arrows.add((i, j))
    return arrows


_CLASS_RANK = {PREPROJECTIVE: 0, REGULAR: 1, None: 1, PREINJECTIVE: 2}


def exceptional_order(seq: SchurSequence) -> tuple[int, ...] | None:
    """Order the members so that Ext^1(earlier, later) always vanishes.

    Ties are broken so preprojectives come before regulars before
    preinjectives.  Returns None when the Ext-quiver has a directed cycle
    (possible only for all-regular sequences, which the tube pipeline
    handles instead).
    """
    arrows = build_ext_quiver(seq)
    r = len(seq.members)
    # an arrow i -> j forces j to appear before i
    blockers: dict[int, set[int]] = {i: set() for i in range(r)}
    dependents: dict[int, set[int]] = {i: set() for i in range(r)}
    for i, j in arrows:
        blockers[i].add(j)
        dependents[j].add(i)
    ready = [( _CLASS_RANK[seq.classes[i]], i) for i in range(r) if not blockers[i]]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for k in dependents[i]:
            blockers[k].discard(i)
            if not blockers[k]:
                heapq.heappush(ready, (_CLASS_RANK[seq.classes[k]], k))
    if len(order) < r:
        return None
    return tuple(order)


@dataclass(frozen=True)
class Tube:
    """One non-homogeneous tube: regular simples listed in translate order,
    so simples[k+1] is the Auslander-Reiten translate of simples[k],
    wrapping modulo the period."""

    period: int
    simples: tuple[Representation, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if self.period != len(self.simples) or self.period != len(self.names):
            raise ValueError("tube period must match the number of simples")

    def dim_of(self, index: int) -> tuple[int, ...]:
        return self.simples[index % self.period].dim


@dataclass(frozen=True)
class TubeCatalog:
    tubes: tuple[Tube, ...]

    def __post_init__(self):
        if len(self.tubes) > 3:
            raise ValueError("a Euclidean quiver has at most three "
                             "non-homogeneous tubes")


@dataclass(frozen=True)
class TubePosition:
    """Placement of a regular indecomposable: tube, top index, regular length."""

    tube_index: int
    top: int
    length: int

    def socle(self, period: int) -> int:
        return (self.top + self.length - 1) % period

    def factors(self, period: int) -> frozenset[int]:
        return frozenset((self.top + k) % period for k in range(self.length))


def validate_catalog(cat: TubeCatalog, quiver: Quiver) -> None:
    """Check tube catalog coherence against the quiver.

    Per tube: every simple has defect zero and no proper nonzero defect-zero
    subrepresentation in the oracle at the first default prime dividing no
    denominator of its matrices (so it is stable among regulars), the
    dimension vectors sum to the radical vector, and the listed order agrees
    with the Coxeter transformation.
    """
    from .quiver import apply_matrix, coxeter_matrix

    qc = classify(quiver)
    if not qc.is_euclidean:
        raise ValueError("tube catalogs only make sense on Euclidean quivers")
    delta = qc.delta
    phi = coxeter_matrix(quiver)
    for t, tube in enumerate(cat.tubes):
        total = tuple(0 for _ in range(quiver.n))
        for k, simple in enumerate(tube.simples):
            if defect(quiver, delta, simple.dim) != 0:
                raise ValueError(f"tube {t} simple {tube.names[k]} has nonzero defect")
            succ = tube.simples[(k + 1) % tube.period]
            if apply_matrix(phi, simple.dim) != succ.dim:
                raise ValueError(
                    f"tube {t}: translate of {tube.names[k]} does not match "
                    f"{tube.names[(k + 1) % tube.period]}")
            for p in DEFAULT_PRIMES:
                try:
                    subs = subrep_dimvectors(simple, p).proper_nonzero()
                    break
                except BadPrime:
                    continue
            else:
                raise ValueError(f"tube {t} simple {tube.names[k]}: every default "
                                 f"prime {DEFAULT_PRIMES} divides a denominator")
            for sub in subs:
                if defect(quiver, delta, sub) == 0:
                    raise ValueError(
                        f"tube {t} simple {tube.names[k]} has a proper "
                        f"regular subrepresentation: not regular simple")
            total = tuple(a + b for a, b in zip(total, simple.dim))
        if total != delta:
            raise ValueError(f"tube {t} dimension vectors do not sum to delta")


def locate_in_tube(v: Representation, cat: TubeCatalog) -> TubePosition | None:
    """Find the tube position of a regular Schur representation.

    The tube and top are the unique catalog simple receiving a nonzero map
    from v; the length is recovered by walking the translate orbit until the
    dimension vectors add up.  Returns None for homogeneous members (those
    of dimension delta seeing no catalog simple).  Raises NotInCatalog when
    no consistent position exists.
    """
    quiver = v.quiver
    qc = classify(quiver)
    if not qc.is_euclidean:
        raise ValueError("tube placement requires a Euclidean quiver")
    if defect(quiver, qc.delta, v.dim) != 0:
        raise ValueError("only regular representations live in tubes")

    hits = [
        (ti, si)
        for ti, tube in enumerate(cat.tubes)
        for si in range(tube.period)
        if hom_dim(v, tube.simples[si]) > 0
    ]
    if not hits:
        if v.dim == qc.delta:
            return None
        raise NotInCatalog(f"no tube admits a map from dimension vector {v.dim}")
    if len(hits) > 1:
        raise NotInCatalog("several tube simples receive maps: not uniserial "
                           "or catalog inconsistent")
    ti, top = hits[0]
    tube = cat.tubes[ti]
    acc = tuple(0 for _ in v.dim)
    for ell in range(tube.period):
        acc = tuple(a + b for a, b in zip(acc, tube.dim_of(top + ell)))
        if acc == v.dim:
            return TubePosition(ti, top, ell + 1)
    raise NotInCatalog(f"dimension vector {v.dim} does not match any regular "
                       f"length from top {tube.names[top]}")


def regular_subrep_dims(pos: TubePosition, cat: TubeCatalog) -> list[tuple[int, ...]]:
    """Dimension vectors of the proper nonzero regular subrepresentations:
    the tails of the composition chain, longest first."""
    tube = cat.tubes[pos.tube_index]
    out = []
    for j in range(1, pos.length):
        acc = tuple(0 for _ in range(len(tube.simples[0].dim)))
        for k in range(j, pos.length):
            acc = tuple(a + b for a, b in zip(acc, tube.dim_of(pos.top + k)))
        out.append(acc)
    return out


def check_orthogonality_structurally(pos1: TubePosition, pos2: TubePosition,
                                     cat: TubeCatalog) -> bool:
    """Orthogonality test from tube combinatorics alone.

    Different tubes are always orthogonal; in one tube the factor sets must
    be disjoint or one member strictly nested inside the other (top and
    socle strictly interior)."""
    if pos1.tube_index != pos2.tube_index:
        return True
    p = cat.tubes[pos1.tube_index].period

    def nested(inner: TubePosition, outer: TubePosition) -> bool:
        ell = outer.length - 1
        j = (inner.top - outer.top) % p
        i = (inner.socle(p) - outer.top) % p
        return 0 < j <= i < ell and i - j + 1 == inner.length

    if not (pos1.factors(p) & pos2.factors(p)):
        return True
    return nested(pos1, pos2) or nested(pos2, pos1)


def maximal_extension(members: Sequence[TubePosition], tube_index: int,
                      cat: TubeCatalog) -> list[TubePosition]:
    """Extend members of one tube to a maximal orthogonal family by adding
    every simple that is neither a member nor a top or socle of one."""
    tube = cat.tubes[tube_index]
    for pos in members:
        if pos.tube_index != tube_index:
            raise ValueError("member placed in a different tube")
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if not check_orthogonality_structurally(members[a], members[b], cat):
                raise ValueError(
                    f"members at tops {members[a].top} and {members[b].top} "
                    f"of tube {tube_index} are not orthogonal")
    used = set()
    for pos in members:
        if pos.length == 1:
            used.add(pos.top)
        else:
            used.add(pos.top)
            used.add(pos.socle(tube.period))
    out = list(members)
    for s in range(tube.period):
        if s not in used:
            out.append(TubePosition(tube_index, s, 1))
    return out


SOCLE_ROW = "socle"
TOP_ROW = "top"
SIMPLE_ROW = "member-simple"


@dataclass(frozen=True)
class TubeSystemRow:
    vector: tuple[int, ...]
    rhs: int
    kind: str
    tube_index: int
    simple_name: str
    dropped: bool = False


@dataclass(frozen=True)
class TubeSystem:
    """Linear system pinning a weight on the regular part: one row per tube
    simple (socle -1 / top +1 / member simple 0), with one redundant row
    dropped in every tube after the first."""

    rows: tuple[TubeSystemRow, ...]

    @property
    def active(self) -> tuple[TubeSystemRow, ...]:
        return tuple(r for r in self.rows if not r.dropped)


def assemble_tube_system(cat: TubeCatalog,
                         members_by_tube: Sequence[Sequence[TubePosition]]) -> TubeSystem:
    """Build the tube weight system from maximal member families.

    Every simple of every tube is labelled exactly once as a member simple
    (row value 0), a top (+1) or a socle (-1); rows follow the translate
    order within each tube.  In each tube after the first, the redundant row
    is dropped: the last member-simple row in translate order, or the last
    socle row when the tube has no member simples (its value is implied by
    the vanishing of the weight on the radical vector).  Raises
    DependentRows if the active rows are not linearly independent.
    """
    if len(members_by_tube) != len(cat.tubes):
        raise ValueError("one member family per catalog tube required")
    rows: list[TubeSystemRow] = []
    for ti, tube in enumerate(cat.tubes):
        labels: dict[int, tuple[str, int]] = {}

        def put(simple: int, kind: str, rhs: int, ti=ti, labels=labels):
            if simple in labels:
                raise ValueError(
                    f"tube {ti}: simple index {simple} labelled twice; "
                    f"family is not a maximal orthogonal sequence")
            labels[simple] = (kind, rhs)

        for pos in members_by_tube[ti]:
            if pos.length == 1:
                put(pos.top, SIMPLE_ROW, 0)
            else:
                put(pos.top, TOP_ROW, 1)
                put(pos.socle(tube.period), SOCLE_ROW, -1)
        if set(labels) != set(range(tube.period)):
            raise ValueError(f"tube {ti}: family is not maximal")

        drop_index = None
        if ti > 0:
            simple_rows = [s for s in range(tube.period)
                           if labels[s][0] == SIMPLE_ROW]
            if simple_rows:
                drop_index = max(simple_rows)
            else:
                drop_index = max(s for s in range(tube.period)
                                 if labels[s][0] == SOCLE_ROW)
        for s in range(tube.period):
            kind, rhs = labels[s]
            rows.append(TubeSystemRow(tube.dim_of(s), rhs, kind, ti,
                                      tube.names[s], dropped=(s == drop_index)))

    system = TubeSystem(tuple(rows))
    active = system.active
    matrix = Mat.from_rows([r.vector for r in active])
    if rref(matrix).rank != len(active):
        raise DependentRows("active tube system rows are linearly dependent")
    return system


_PARAM_SEARCH_LIMIT = 60


def _small_integers():
    yield 0
    for k in range(1, _PARAM_SEARCH_LIMIT + 1):
        yield k
        yield -k


def solve_tube_system(system: TubeSystem) -> tuple[int, ...]:
    """Integral solution of the tube system, free coordinates fixed to the
    smallest integers (increasing absolute value, positive first) that make
    every coordinate integral.  The result satisfies all rows, dropped ones
    included."""
    active = system.active
    matrix = Mat.from_rows([r.vector for r in active])
    particular, kernel = solve_linear(matrix, [r.rhs for r in active])

    def integral(theta):
        return all(c.denominator == 1 for c in theta)

    solution = None
    if not kernel:
        if integral(particular):
            solution = particular
    else:
        found = None

        def search(idx, current):
            nonlocal found
            if found is not None:
                return
            if idx == len(kernel):
                if integral(current):
                    found = current
                return
            for t in _small_integers():
                candidate = tuple(c + t * kc for c, kc in zip(current, kernel[idx]))
                search(idx + 1, candidate)
                if found is not None:
                    return

        search(0, particular)
        solution = found
    if solution is None:
        raise SynthesisError("no small integral solution of the tube system found")
    theta = tuple(int(c) for c in solution)
    for row in system.rows:
        value = sum(t * c for t, c in zip(theta, row.vector))
        if value != row.rhs:
            raise DependentRows(
                f"solution violates {'dropped ' if row.dropped else ''}row "
                f"{row.simple_name}: {value} != {row.rhs}")
    return theta


def shift_sigma(theta: Sequence[int], members: Sequence[Representation],
                mode: str = "exact",
                primes: Sequence[int] = DEFAULT_PRIMES,
                budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Turn a weight stable on the regular part into a genuine stability
    weight by adding a multiple of the defect weight.

    Non-regular subrepresentations all have negative defect, so adding
    (N+1) times the defect weight pushes their pairing below zero once N
    bounds theta on them.  Mode "exact" computes N from the oracle over
    subrepresentations of nonzero defect; mode "bound" uses the sound
    overestimate  sum_x max(theta(x), 0) * max_i dim V_i(x).
    """
    if not members:
        raise ValueError("no members")
    quiver = members[0].quiver
    qc = classify(quiver)
    if not qc.is_euclidean:
        raise ValueError("defect shift requires a Euclidean quiver")
    theta = quiver.check_vector(theta)
    dw = defect_weight(quiver, qc.delta)

    if mode == "exact":
        best = None
        for rep in members:
            for sub in subrep_dimvectors_union(rep, primes, budget).dimvectors:
                if defect(quiver, qc.delta, sub) != 0:
                    value = sum(t * c for t, c in zip(theta, sub))
                    if best is None or value > best:
                        best = value
        n = best
    elif mode == "bound":
        n = sum(max(t, 0) * max(rep.dim[x] for rep in members)
                for x, t in enumerate(theta))
    else:
        raise ValueError(f"unknown shift mode {mode!r}")

    if n is None or n < 0:
        return theta
    factor = 1 if n == 0 else n + 1
    return tuple(t + factor * d for t, d in zip(theta, dw))


def synthesize_weight(seq: SchurSequence,
                      cat: TubeCatalog | None = None,
                      primes: Sequence[int] = DEFAULT_PRIMES,
                      mode: str = "exact",
                      budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """Common stability weight for a validated sequence, or None.

    All-regular sequences on Euclidean quivers go through the tube pipeline
    (catalog required); everything else goes to the generic feasibility
    solver, which is complete relative to the oracle.
    Any returned weight has been verified on every member.
    """
    quiver = seq.quiver
    if seq.quiver_class.is_euclidean and seq.all_regular():
        if cat is None:
            raise SynthesisError(
                "all-regular Euclidean sequences need a tube catalog")
        members_by_tube: list[list[TubePosition]] = [[] for _ in cat.tubes]
        homogeneous: list[Representation] = []
        for rep in seq.members:
            pos = locate_in_tube(rep, cat)
            if pos is None:
                homogeneous.append(rep)
            else:
                members_by_tube[pos.tube_index].append(pos)
        maximal = [maximal_extension(ms, ti, cat)
                   for ti, ms in enumerate(members_by_tube)]
        system = assemble_tube_system(cat, maximal)
        if system.active:
            theta = solve_tube_system(system)
        else:
            # only homogeneous members: any weight vanishing on the radical
            # vector works on the regular part, the zero weight included
            theta = (0,) * quiver.n
        sigma = shift_sigma(theta, seq.members, mode, primes, budget)
    else:
        sigma = common_weight(seq.members, primes, budget)
        if sigma is None:
            return None

    for rep in seq.members:
        report = check_stability(rep, sigma, primes, budget)
        if not report.is_stable:
            raise SynthesisError(
                f"synthesized weight fails verification on member of "
                f"dimension vector {rep.dim}")
    return sigma
