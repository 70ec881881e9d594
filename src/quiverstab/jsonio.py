"""JSON input bundles: quiver + representations + tubes + sequences.

One file carries everything a command needs; representations, tube simples
and sequence members are cross-referenced by name.  The vertex order of the
"vertices" list fixes the coordinate order of all vectors and weights.

Schema sketch::

    {
      "name": "...",
      "quiver": {"vertices": ["1", "2"],
                 "arrows": [{"id": "a", "tail": "1", "head": "2"}]},
      "representations": {
        "V": {"dim": {"1": 2, "2": 2},
              "matrices": {"a": [["1", "0"], ["0", "1"]]}}
      },
      "tubes": [{"period": 2, "simples": ["E1", "E2"]}],
      "sequences": {"main": ["V"]}
    }

Matrix entries are rational strings ("p", "p/q"); rows are listed head-dim
times, each of tail-dim entries.  Arrows omitted from "matrices" get the
zero matrix.  A tube catalog is validated while the bundle is parsed
(``synthesis.validate_catalog``); malformed or inconsistent data raises
InputError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .linalg import format_rational, parse_rational
from .quiver import Quiver
from .reps import Representation
from .synthesis import Tube, TubeCatalog, validate_catalog

__all__ = [
    "InputError",
    "Bundle",
    "parse_quiver",
    "parse_representation",
    "serialize_representation",
    "parse_bundle",
    "load_bundle",
]


class InputError(ValueError):
    """Malformed input file or object."""


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise InputError(f"{context}: missing key {key!r}")
    return obj[key]


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{context} must be a JSON object")
    return value


def _objects(value, context: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise InputError(f"{context} must be a list of JSON objects")
    return value


def parse_quiver(obj: dict) -> Quiver:
    obj = _object(obj, "quiver")
    vertices = _require(obj, "vertices", "quiver")
    arrows_raw = _objects(_require(obj, "arrows", "quiver"), "quiver: \"arrows\"")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("quiver: \"vertices\" must be a list of strings")
    arrows = []
    for a in arrows_raw:
        arrows.append((str(_require(a, "id", "arrow")),
                       str(_require(a, "tail", "arrow")),
                       str(_require(a, "head", "arrow"))))
    try:
        return Quiver.from_names(vertices, arrows)
    except ValueError as exc:
        raise InputError(f"quiver: {exc}") from exc


def _parse_entry(value) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return parse_rational(str(value))
    raise InputError(f"matrix entry {value!r} is neither an integer nor a "
                     f"rational string")


def parse_representation(quiver: Quiver, obj: dict, name: str = "?") -> Representation:
    context = f"representation {name}"
    obj = _object(obj, context)
    dim_raw = _object(_require(obj, "dim", context), f"{context}: \"dim\"")
    dim = [0] * quiver.n
    for vertex, d in dim_raw.items():
        if vertex not in quiver.vertex_index:
            raise InputError(f"representation {name}: unknown vertex {vertex!r}")
        if not isinstance(d, int) or d < 0:
            raise InputError(f"representation {name}: bad dimension at {vertex!r}")
        dim[quiver.vertex_index[vertex]] = d
    matrices = {}
    for arrow_name, rows in _object(obj.get("matrices", {}),
                                    f"{context}: \"matrices\"").items():
        try:
            matrices[arrow_name] = [[_parse_entry(e) for e in row] for row in rows]
        except ValueError as exc:
            raise InputError(f"representation {name}, arrow {arrow_name}: {exc}") from exc
    try:
        return Representation.from_dict(quiver, dim, matrices)
    except ValueError as exc:
        raise InputError(f"representation {name}: {exc}") from exc


def serialize_representation(rep: Representation) -> dict:
    """Inverse of parse_representation; zero matrices are omitted."""
    quiver = rep.quiver
    dim = {quiver.vertices[i]: d for i, d in enumerate(rep.dim) if d}
    matrices = {}
    for arrow, mat in zip(quiver.arrows, rep.matrices):
        if mat.rows and mat.cols and not mat.is_zero():
            matrices[arrow.name] = [[format_rational(e) for e in row]
                                    for row in mat.data]
    return {"dim": dim, "matrices": matrices}


@dataclass(frozen=True)
class Bundle:
    """Parsed input file: a quiver with named representations and optional
    tube catalog and sequences."""

    name: str
    quiver: Quiver
    representations: dict[str, Representation]
    tubes: TubeCatalog | None = None
    sequences: dict[str, tuple[str, ...]] = field(default_factory=dict)
    notes: str = ""

    def rep(self, name: str) -> Representation:
        if name not in self.representations:
            raise InputError(f"unknown representation {name!r}")
        return self.representations[name]

    def sequence(self, name: str) -> list[Representation]:
        if name not in self.sequences:
            raise InputError(f"unknown sequence {name!r}")
        return [self.rep(r) for r in self.sequences[name]]


def parse_bundle(obj: dict) -> Bundle:
    quiver = parse_quiver(_require(obj, "quiver", "input"))
    reps = {}
    for name, rep_obj in _object(obj.get("representations", {}),
                                 "\"representations\"").items():
        reps[name] = parse_representation(quiver, rep_obj, name)

    # "tubes": [] is meaningful (a Euclidean quiver whose tubes are all
    # homogeneous), distinct from the key being absent
    tubes = None
    if obj.get("tubes") is not None:
        tube_list = []
        for t in _objects(obj["tubes"], "\"tubes\""):
            simple_names = tuple(_require(t, "simples", "tube"))
            missing = [s for s in simple_names if s not in reps]
            if missing:
                raise InputError(f"tube references unknown representations {missing}")
            period = _require(t, "period", "tube")
            try:
                tube_list.append(Tube(int(period),
                                      tuple(reps[s] for s in simple_names),
                                      simple_names))
            except ValueError as exc:
                raise InputError(f"tube {simple_names}: {exc}") from exc
        try:
            tubes = TubeCatalog(tuple(tube_list))
            validate_catalog(tubes, quiver)
        except ValueError as exc:
            raise InputError(f"tube catalog: {exc}") from exc

    sequences = {}
    for name, members in _object(obj.get("sequences", {}), "\"sequences\"").items():
        missing = [m for m in members if m not in reps]
        if missing:
            raise InputError(f"sequence {name!r} references unknown "
                             f"representations {missing}")
        sequences[name] = tuple(members)

    return Bundle(str(obj.get("name", "")), quiver, reps, tubes, sequences,
                  str(obj.get("notes", "")))


def load_bundle(path: str | Path) -> Bundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top level must be an object")
    return parse_bundle(obj)
