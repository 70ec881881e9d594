"""The three workloads: inputs, operations and the checks on their answers.

A workload yields its operations one cycle at a time.  Inputs for a cycle
are made before the cycle is timed; each operation is a callable whose
result is checked after its time is taken.  A check raises ``WrongAnswer``.

Every workload ends with the same reach ladder: the oracle at p = 5 with
the default budget on growing D5tilde direct sums, stopping at the first
refusal.  A refusal is an outcome, not a failure; a wrong set is a failure.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import quiverstab as Q
from quiverstab import catalog

import gen
import goldens as G

ORACLE_LIST = ("V0", "E1+E2+E3", "L1+Y1", "E1+L1", "E1^2", "K3:V")
LSS_SUBSET = ("V0", "V1", "V3")
LADDER = ("V0", "E1^2+E2", "V0+E1", "V0+V3", "V0^2")
LADDER_PRIME = 5

# endo-sums: draws per cycle, one in three forced through a non-orthogonal pair
ENDO_FREE, ENDO_FORCED = 84, 42
# oracle-weights, per cycle: the oracle list once, each King check and each
# local semi-simplicity test on several random bases, and planted
# Fourier-Motzkin problems, one per stratum of the generator's distribution
KING_BASES, LSS_BASES = 10, 5
FM_PER_CYCLE = 360


class WrongAnswer(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _parse_sum(text: str) -> tuple[tuple[str, int], ...]:
    """'E1^2+E2' -> (('E1', 2), ('E2', 1))."""
    parts = []
    for chunk in text.split("+"):
        name, _, mult = chunk.partition("^")
        parts.append((name, int(mult or 1)))
    return tuple(parts)


def check_weight(theta, members: dict[str, object], what: str) -> None:
    """theta is a stability weight for each member by the recorded oracle sets:
    theta . dim V = 0 and theta . d <= -1 on every proper nonzero d."""
    expect(theta is not None, f"{what}: no weight")
    for name, dim in members.items():
        expect(_dot(theta, dim) == 0, f"{what}: theta . dim {name} != 0")
        for d in G.ORACLE[name]:
            if any(d) and d != tuple(dim):
                expect(_dot(theta, d) <= -1, f"{what}: {name} destabilized by {d}")


def check_ladder_set(name: str, found) -> None:
    """A decided rung equals its recorded set, or, for rungs the program
    could not decide when the sets were recorded, contains every sum of
    subrepresentation dimension vectors of its summands and stays inside
    the dimension vector."""
    found = frozenset(tuple(v) for v in found)
    if name in G.ORACLE_P5:
        expect(found == G.ORACLE_P5[name], f"ladder {name}: oracle set differs")
        return
    parts = _parse_sum(name)
    sums = {(0,) * 6}
    full = (0,) * 6
    for part, mult in parts:
        for _ in range(mult):
            sums = {tuple(a + b for a, b in zip(s, d)) for s in sums for d in G.ORACLE_P5[part]}
            full = tuple(a + max(c) for a, c in zip(full, zip(*G.ORACLE_P5[part])))
    expect(sums <= found, f"ladder {name}: missing sums of summand subrepresentations")
    expect(all(all(a <= b for a, b in zip(v, full)) for v in found),
           f"ladder {name}: vector outside the dimension vector")


class Workload:
    catalogs: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.entries = {name: catalog.load(name) for name in self.catalogs}

    def rep(self, name: str):
        """Catalog representation or direct sum, 'K3:V' or 'E1^2+E2'."""
        cat, _, rest = name.rpartition(":")
        reps = self.entries[cat or "D5tilde"].representations
        parts = _parse_sum(rest)
        if parts == ((rest, 1),):
            return reps[rest]
        return Q.reps.direct_sum([(reps[n], m) for n, m in parts])

    def cycle(self) -> list[tuple[str, object, object]]:
        """One cycle of (label, operation, check) triples."""
        raise NotImplementedError

    def ladder(self) -> list[tuple[str, str]]:
        """Run the reach ladder in process: [(rung, 'decided' | 'refused')]."""
        out = []
        for name in LADDER:
            rep = self.rep(name)
            try:
                found = Q.stability.subrep_dimvectors(rep, LADDER_PRIME).dimvectors
            except Q.stability.BudgetExceeded:
                out.append((name, "refused"))
                break
            check_ladder_set(name, found)
            out.append((name, "decided"))
        return out


class EndoSums(Workload):
    """Direct sums of distinct D5tilde members through the endomorphism
    radical and the orthogonal-Schur validation."""

    catalogs = ("D5tilde",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = gen.EndoDraws(G.HOM, G.TOTAL_DIM)
        self.params = {"free_per_cycle": ENDO_FREE, "forced_per_cycle": ENDO_FORCED,
                       "max_total_dim": gen.MAX_TOTAL_DIM, "multiplicities": gen.MULTS}

    def cycle(self):
        reps = self.entries["D5tilde"].representations
        ops = []
        for kind, names, mults in self.draws.cycle(self.rng, ENDO_FREE, ENDO_FORCED):
            members = [reps[n] for n in names]
            summands = list(zip(members, mults))

            def op(members=members, summands=summands):
                algebra = Q.reps.end_algebra(Q.reps.direct_sum(summands))
                rad = Q.reps.radical_dim(algebra)
                try:
                    Q.synthesis.validate_sequence(members)
                    valid = True
                except Q.synthesis.SequenceValidationError:
                    valid = False
                return algebra.dim, rad, valid

            def check(result, names=names, mults=mults):
                end_dim, rad, valid = result
                label = "+".join(f"{n}^{m}" for n, m in zip(names, mults))
                expect(end_dim == self.draws.end_dim(names, mults),
                       f"{label}: End dimension {end_dim}")
                orthogonal = all(G.HOM[a, b] == 0 for a in names for b in names if a != b)
                expect(valid == orthogonal, f"{label}: validation says {valid}")
                expect((rad == 0) == valid, f"{label}: radical {rad} but validation {valid}")

            label = f"endo/{kind}/End{self.draws.end_dim(names, mults)}"
            ops.append((label, op, check))
        return ops


class OracleWeights(Workload):
    """The subrepresentation oracle, King checks, local semi-simplicity and
    the weight search on planted problems."""

    catalogs = ("D5tilde", "K3")

    def __init__(self, seed: int):
        super().__init__(seed)
        reference = json.loads(gen.REFERENCE_FILE.read_text("utf-8"))
        generator = {"n": gen.FM_N, "rows": list(gen.FM_ROWS), "entry": gen.FM_ENTRY,
                     "equalities": 1}
        if {k: reference["generator"][k] for k in generator} != generator:
            raise RuntimeError("fm_reference.json is stale: run python3 gen.py")
        self.fm_reference = reference["pair_count_quantiles"]
        self.params = {"fm": generator, "fm_per_cycle": FM_PER_CYCLE,
                       "king_bases": KING_BASES, "lss_bases": LSS_BASES}

    def cycle(self):
        st = Q.stability
        d5 = self.entries["D5tilde"].representations
        ops = []
        for name in ORACLE_LIST:
            rep = gen.conjugate(self.rep(name), self.rng)

            def check(found, name=name):
                expect(found == G.ORACLE[name], f"oracle {name}: set differs")

            ops.append((f"oracle/{name}",
                        lambda rep=rep: st.subrep_dimvectors_union(rep, st.DEFAULT_PRIMES).dimvectors,
                        check))
        for name in G.MAIN * KING_BASES:
            rep = gen.conjugate(d5[name], self.rng)

            def check(report, name=name):
                expect(report.verdict == "stable", f"King {name}: {report.verdict}")

            ops.append((f"king/{name}", lambda rep=rep: st.check_stability(rep, G.SIGMA), check))

        def check_k3(result):
            expect(result == (False, None), f"K3 local semi-simplicity: {result}")

        def check_subset(result):
            ok, theta = result
            expect(ok, "D5tilde subset not locally semi-simple")
            check_weight(theta, {n: d5[n].dim for n in LSS_SUBSET}, "D5tilde subset weight")

        for _ in range(LSS_BASES):
            k3v = [gen.conjugate(self.rep("K3:V"), self.rng)]
            subset = [gen.conjugate(d5[n], self.rng) for n in LSS_SUBSET]
            ops.append(("lss/K3:V", lambda k3v=k3v: st.is_locally_semisimple(k3v), check_k3))
            ops.append(("lss/" + "+".join(LSS_SUBSET),
                        lambda subset=subset: st.is_locally_semisimple(subset), check_subset))
        for eqs, strict in gen.stratified_fm(self.rng, FM_PER_CYCLE, self.fm_reference):
            problem = st.FeasibilityProblem(eqs, strict)

            def check(theta, eqs=eqs, strict=strict):
                expect(theta is not None, "planted problem reported infeasible")
                expect(all(_dot(theta, e) == 0 for e in eqs), "theta . e != 0")
                expect(all(_dot(theta, s) <= -1 for s in strict), "theta . s > -1")

            ops.append((f"fm/m{len(strict)}", lambda problem=problem: st.find_weight(problem), check))
        self.rng.shuffle(ops)
        return ops


def _bundle_json(data: dict, reps: dict[str, tuple[tuple[int, ...], list]], name: str) -> dict:
    """A bundle on the quiver of ``data`` holding ``reps`` (dims, matrices)."""
    vertices = data["quiver"]["vertices"]
    arrows = data["quiver"]["arrows"]
    out = {"name": name, "quiver": data["quiver"], "representations": {}}
    for rep_name, (dims, mats) in reps.items():
        out["representations"][rep_name] = {
            "dim": {v: d for v, d in zip(vertices, dims) if d},
            "matrices": {a["id"]: m for a, m in zip(arrows, mats)
                         if dims[vertices.index(a["tail"])] and dims[vertices.index(a["head"])]},
        }
    return out


def _raw_reps(data: dict) -> dict[str, tuple[tuple[int, ...], list]]:
    """Catalog JSON -> name -> (dimension vector, dense integer matrices)."""
    vertices = data["quiver"]["vertices"]
    arrows = data["quiver"]["arrows"]
    out = {}
    for name, rep in data["representations"].items():
        dims = tuple(rep["dim"].get(v, 0) for v in vertices)
        mats = []
        for a in arrows:
            rows, cols = dims[vertices.index(a["head"])], dims[vertices.index(a["tail"])]
            given = rep["matrices"].get(a["id"])
            mats.append([[int(x) for x in row] for row in given] if given
                        else [[0] * cols for _ in range(rows)])
        out[name] = (dims, mats)
    return out


def _block_sum(name: str, raw, arrows, vertices):
    """Block-diagonal direct sum 'E1^2+E2' of raw catalog representations."""
    copies = [raw[n] for n, m in _parse_sum(name) for _ in range(m)]
    dims = tuple(sum(c[0][x] for c in copies) for x in range(len(vertices)))
    mats = []
    for ai, a in enumerate(arrows):
        rows, cols = dims[vertices.index(a["head"])], dims[vertices.index(a["tail"])]
        block = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for cdims, cmats in copies:
            m = cmats[ai]
            for r, row in enumerate(m):
                for c, x in enumerate(row):
                    block[r0 + r][c0 + c] = x
            r0 += cdims[vertices.index(a["head"])]
            c0 += cdims[vertices.index(a["tail"])]
        mats.append(block)
    return dims, mats


def _file_name(name: str) -> str:
    """A ladder rung's name in the input file, free of the CLI's '^' syntax."""
    return name.replace("^", "x").replace("+", "_")


class CliMix:
    """The README's command list as fresh CLI processes, plus commands on a
    generated input file."""

    CYCLE = 9

    def __init__(self, seed: int, work: Path, root: Path, env: dict, traced: bool):
        self.rng = random.Random(seed)
        self.work = work
        self.env = env
        self.traced = traced
        self.trace_files: list[Path] = []
        self.params = {"commands_per_cycle": self.CYCLE}
        data = json.loads((root / "src/quiverstab/data/d5tilde.json").read_text("utf-8"))
        vertices = data["quiver"]["vertices"]
        arrows = data["quiver"]["arrows"]
        ends = [(vertices.index(a["tail"]), vertices.index(a["head"])) for a in arrows]
        raw = _raw_reps(data)
        # every representation in its own random basis; tubes and sequences
        # refer to them by name, so the answers are those of the catalog
        conj = {n: (dims, gen.conjugate_matrices(dims, ends, mats, self.rng))
                for n, (dims, mats) in raw.items()}
        bundle = _bundle_json(data, conj, f"D5tilde in a random basis (seed {seed})")
        bundle["tubes"] = data["tubes"]
        bundle["sequences"] = data["sequences"]
        self.bundle = work / "bundle.json"
        self.bundle.write_text(json.dumps(bundle), "utf-8")
        ladder = {_file_name(name): _block_sum(name, raw, arrows, vertices) for name in LADDER}
        self.ladder_file = work / "ladder.json"
        self.ladder_file.write_text(json.dumps(_bundle_json(data, ladder, "reach ladder")), "utf-8")
        self.calls = 0

    def run_cli(self, args: list[str]):
        self.calls += 1
        if self.traced:
            out = self.work / f"cli-trace-{self.calls}.json"
            self.trace_files.append(out)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(out)]
        else:
            cmd = [sys.executable, "-m", "quiverstab.cli"]
        proc = subprocess.run(cmd + args + ["--format", "json"], env=self.env,
                              capture_output=True, text=True, timeout=120)
        payload = json.loads(proc.stdout) if proc.stdout.strip() else None
        return proc.returncode, payload

    def _commands(self):
        main = ",".join(G.MAIN)
        sigma = ",".join(map(str, G.SIGMA))
        theta = ",".join(map(str, G.THETA))
        bundle = ["--input", str(self.bundle)]
        d5 = ["--catalog", "D5tilde"]

        def classify(r):
            expect(r[0] == 0 and r[1]["class"] == "Euclidean"
                   and tuple(r[1]["delta"]) == G.DELTA, f"classify: {r}")

        def check_sigma(r):
            expect(r[0] == 0 and r[1]["all_stable"]
                   and all(x["verdict"] == "stable" for x in r[1]["results"]), f"check sigma: {r}")

        def synth(weight):
            def check(r):
                expect(r[0] == 0 and tuple(r[1]["weight"]) == weight
                       and all(x["verdict"] == "stable" for x in r[1]["verification"]),
                       f"synthesize: {r}")
            return check

        def endcheck(r):
            # V2 is isomorphic to E2
            names, mults = ("V0", "V1", "E2"), (1, 2, 1)
            end_dim = sum(ma * mb * G.HOM[a, b]
                          for a, ma in zip(names, mults) for b, mb in zip(names, mults))
            expect(r[0] == 0 and r[1]["end_dim"] == end_dim and r[1]["radical_dim"] == 0
                   and r[1]["semisimple"] and r[1]["validation"]["valid"], f"endcheck: {r}")

        def subreps(r):
            found = frozenset(tuple(v) for v in r[1]["results"][0]["dimvectors"])
            expect(r[0] == 0 and found == G.ORACLE["K3:V"] and (1, 1) in found, f"subreps: {r}")

        def hom(r):
            expect(r[0] == 0 and r[1]["hom_dim"] == G.HOM_V1_E1
                   and r[1]["ext1_dim"] == G.EXT1_V1_E1, f"hom: {r}")

        def check_theta(r):
            expect(r[0] == 1, f"check theta: exit {r[0]}")
            for name, res, verdict in zip(G.MAIN, r[1]["results"], G.THETA_VERDICTS):
                expect(res["verdict"] == verdict, f"check theta {name}: {res['verdict']}")
                d = res["destabilizer"]
                if verdict != "stable":
                    expect(tuple(d) in G.ORACLE[name], f"check theta {name}: {d} not a subrep")
                    value = _dot(G.THETA, d)
                    expect(value > 0 if verdict == "unstable" else value == 0,
                           f"check theta {name}: theta . {d} = {value}")

        return [
            ("cli/classify", ["classify", *d5], classify),
            ("cli/check", ["check", *d5, "--reps", main, "--weight", sigma], check_sigma),
            ("cli/synthesize", ["synthesize", *d5, "--sequence", "main"], synth(G.SIGMA)),
            ("cli/synthesize-bound", ["synthesize", *d5, "--sequence", "main", "--mode", "bound"],
             synth(G.SIGMA_BOUND)),
            ("cli/endcheck", ["endcheck", *d5, "--reps", "V0,V1^2,V2"], endcheck),
            ("cli/subreps", ["subreps", "--catalog", "K3", "--reps", "V", "--prime", "5"], subreps),
            ("cli/hom", ["hom", *d5, "--reps", "V1,E1"], hom),
            ("cli/synthesize-input", ["synthesize", *bundle, "--sequence", "main"], synth(G.SIGMA)),
            ("cli/check-input", ["check", *bundle, "--reps", main, "--weight", theta], check_theta),
        ]

    def cycle(self):
        ops = [(label, lambda args=args: self.run_cli(args), check)
               for label, args, check in self._commands()]
        self.rng.shuffle(ops)
        return ops

    def ladder(self):
        out = []
        for name in LADDER:
            code, payload = self.run_cli(["subreps", "--input", str(self.ladder_file),
                                          "--reps", _file_name(name),
                                          "--prime", str(LADDER_PRIME)])
            if code == 3:
                out.append((name, "refused"))
                break
            expect(code == 0, f"ladder {name}: exit {code}")
            check_ladder_set(name, payload["results"][0]["dimvectors"])
            out.append((name, "decided"))
        return out
