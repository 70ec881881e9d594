"""Command line front end.

Commands work on a single input bundle (a JSON file via --input, or a
built-in entry via --catalog) and report as text or JSON.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 input
error, 3 resource error (enumeration budget, bad prime).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import catalog as catalog_mod
from .jsonio import Bundle, InputError, load_bundle
from .quiver import classify
from .reps import BadPrime, Representation, _is_prime, direct_sum, end_algebra, ext1_dim, hom_dim, radical_dim
from .stability import (
    DEFAULT_BUDGET,
    DEFAULT_PRIMES,
    STABLE,
    BudgetExceeded,
    check_stability,
    subrep_dimvectors_union,
)
from .synthesis import (
    NotInCatalog,
    SequenceValidationError,
    SynthesisError,
    synthesize_weight,
    validate_sequence,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_PRIME_CAVEAT = ("verdicts are relative to subrepresentations detected "
                 "modulo the listed primes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverstab",
        description="Exact stability weights and local semi-simplicity "
                    "tests for quiver representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, reps=False, weight=False,
                   sequence=False, mode=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="FILE", help="JSON input bundle")
        src.add_argument("--catalog", metavar="NAME",
                         choices=catalog_mod.CATALOG_NAMES,
                         help="built-in entry: %(choices)s")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--prime", type=int, action="append", metavar="P",
                       help="oracle prime, repeatable (default: 5 7 11)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="subspaces the oracle may visit")
        if reps:
            p.add_argument("--reps", required=True, metavar="A,B,...",
                           help="comma separated representation names"
                                + (" (NAME^MULT for multiplicities)"
                                   if reps == "mult" else ""))
        if weight:
            p.add_argument("--weight", required=True, metavar="W1,...,WN",
                           help="integer weight in vertex order")
        if sequence:
            p.add_argument("--sequence", required=True, metavar="NAME")
        if mode:
            p.add_argument("--mode", choices=("exact", "bound"),
                           default="exact", help="defect shift mode")

    add_common(sub.add_parser("classify", help="Dynkin / Euclidean / wild"))
    add_common(sub.add_parser(
        "check", help="stability of representations under a weight"),
        reps=True, weight=True)
    add_common(sub.add_parser(
        "synthesize", help="common stability weight for a sequence"),
        sequence=True, mode=True)
    add_common(sub.add_parser(
        "endcheck", help="endomorphism algebra semi-simplicity of a direct sum"),
        reps="mult")
    add_common(sub.add_parser(
        "subreps", help="oracle subrepresentation dimension vectors"),
        reps=True)
    add_common(sub.add_parser(
        "hom", help="Hom and Ext dimensions for an ordered pair"),
        reps=True)
    return parser


def _load(args) -> Bundle:
    if args.catalog:
        return catalog_mod.load(args.catalog)
    return load_bundle(args.input)


def _primes(args) -> tuple[int, ...]:
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES
    for p in primes:
        if not _is_prime(p):
            raise InputError(f"--prime {p}: not a prime")
    return primes


def _parse_weight(text: str, n: int) -> tuple[int, ...]:
    try:
        weight = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise InputError(f"--weight: {exc}") from exc
    if len(weight) != n:
        raise InputError(f"--weight has {len(weight)} entries, expected {n}")
    return weight


def _parse_reps(bundle: Bundle, text: str) -> list[tuple[str, Representation]]:
    out = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            raise InputError("--reps: empty name")
        out.append((name, bundle.rep(name)))
    return out


def _parse_reps_mult(bundle: Bundle, text: str) -> list[tuple[str, Representation, int]]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        name, _, mult_text = chunk.partition("^")
        mult = 1
        if mult_text:
            try:
                mult = int(mult_text)
            except ValueError as exc:
                raise InputError(f"--reps: bad multiplicity in {chunk!r}") from exc
        if mult < 1:
            raise InputError(f"--reps: multiplicity must be positive in {chunk!r}")
        out.append((name, bundle.rep(name), mult))
    return out


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fmt_vec(vec: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in vec) + ")"


def cmd_classify(args) -> int:
    bundle = _load(args)
    result = classify(bundle.quiver)
    payload = {
        "command": "classify",
        "class": result.kind,
        "delta": list(result.delta) if result.delta else None,
    }
    lines = [f"quiver class: {result.kind}"]
    if result.delta:
        lines.append(f"delta: {_fmt_vec(result.delta)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    bundle = _load(args)
    primes = _primes(args)
    weight = _parse_weight(args.weight, bundle.quiver.n)
    reps = _parse_reps(bundle, args.reps)
    results = []
    lines = [f"weight {_fmt_vec(weight)}  primes {list(primes)}"]
    all_stable = True
    for name, rep in reps:
        report = check_stability(rep, weight, primes, args.budget)
        all_stable &= report.is_stable
        results.append({
            "rep": name,
            "verdict": report.verdict,
            "destabilizer": list(report.destabilizer) if report.destabilizer else None,
        })
        line = f"{name}: {report.verdict}"
        if report.destabilizer:
            line += f"  (destabilizing dimension vector {_fmt_vec(report.destabilizer)})"
        lines.append(line)
    lines.append(f"note: {_PRIME_CAVEAT}")
    payload = {"command": "check", "weight": list(weight),
               "primes": list(primes), "results": results,
               "all_stable": all_stable, "note": _PRIME_CAVEAT}
    _emit(args, payload, lines)
    return EXIT_OK if all_stable else EXIT_NEGATIVE


def cmd_synthesize(args) -> int:
    bundle = _load(args)
    primes = _primes(args)
    members = bundle.sequence(args.sequence)
    names = list(bundle.sequences[args.sequence])
    seq = validate_sequence(members)
    weight = synthesize_weight(seq, bundle.tubes, primes, args.mode, args.budget)

    classes = [c if c else "-" for c in seq.classes]
    lines = [f"sequence {args.sequence!r}: valid orthogonal Schur sequence",
             "classes: " + ", ".join(f"{n}={c}" for n, c in zip(names, classes))]
    verification = []
    if weight is None:
        lines.append("no common weight found")
        payload_weight = None
    else:
        lines.append(f"weight: {_fmt_vec(weight)}")
        payload_weight = list(weight)
        # synthesize_weight returns a weight only once every member checks stable
        for name in names:
            verification.append({"rep": name, "verdict": STABLE})
            lines.append(f"  {name}: {STABLE}")
    lines.append(f"note: {_PRIME_CAVEAT}")
    payload = {"command": "synthesize", "sequence": args.sequence,
               "classes": dict(zip(names, classes)), "weight": payload_weight,
               "verification": verification, "primes": list(primes),
               "note": _PRIME_CAVEAT}
    _emit(args, payload, lines)
    return EXIT_OK if weight is not None else EXIT_NEGATIVE


def cmd_endcheck(args) -> int:
    bundle = _load(args)
    reps = _parse_reps_mult(bundle, args.reps)
    total = direct_sum([(rep, mult) for _, rep, mult in reps])
    algebra = end_algebra(total)
    rad = radical_dim(algebra)
    semisimple = rad == 0

    validation = {"valid": True, "detail": "orthogonal Schur sequence"}
    try:
        validate_sequence([rep for _, rep, _ in reps])
    except SequenceValidationError as exc:
        validation = {"valid": False, "detail": str(exc)}

    summand_text = " + ".join(f"{name}^{mult}" if mult > 1 else name
                              for name, _, mult in reps)
    lines = [
        f"End({summand_text}): dimension {algebra.dim}, radical dimension {rad}",
        f"semisimple: {'yes' if semisimple else 'no'}",
        f"sequence validation: "
        f"{validation['detail'] if not validation['valid'] else 'ok'}",
    ]
    payload = {"command": "endcheck", "summands": [
        {"rep": name, "multiplicity": mult} for name, _, mult in reps],
        "end_dim": algebra.dim, "radical_dim": rad,
        "semisimple": semisimple, "validation": validation}
    _emit(args, payload, lines)
    return EXIT_OK if semisimple else EXIT_NEGATIVE


def cmd_subreps(args) -> int:
    bundle = _load(args)
    primes = _primes(args)
    reps = _parse_reps(bundle, args.reps)
    results = []
    lines = [f"primes {list(primes)}"]
    for name, rep in reps:
        found = subrep_dimvectors_union(rep, primes, args.budget)
        vectors = sorted(found.dimvectors)
        results.append({"rep": name, "dimvectors": [list(v) for v in vectors]})
        lines.append(f"{name}: {len(vectors)} subrepresentation dimension vectors")
        for v in vectors:
            lines.append(f"  {_fmt_vec(v)}")
    payload = {"command": "subreps", "primes": list(primes), "results": results}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hom(args) -> int:
    bundle = _load(args)
    reps = _parse_reps(bundle, args.reps)
    if len(reps) != 2:
        raise InputError("hom needs exactly two representation names")
    (name_v, v), (name_w, w) = reps
    h = hom_dim(v, w)
    e = ext1_dim(v, w)
    lines = [f"dim Hom({name_v}, {name_w}) = {h}",
             f"dim Ext1({name_v}, {name_w}) = {e}"]
    payload = {"command": "hom", "source": name_v, "target": name_w,
               "hom_dim": h, "ext1_dim": e}
    _emit(args, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "check": cmd_check,
    "synthesize": cmd_synthesize,
    "endcheck": cmd_endcheck,
    "subreps": cmd_subreps,
    "hom": cmd_hom,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise InputError(f"--budget {args.budget}: must be at least 1")
        return _COMMANDS[args.command](args)
    except (BadPrime, BudgetExceeded) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, SequenceValidationError, NotInCatalog, SynthesisError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
