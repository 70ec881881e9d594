"""Built-in example data: quivers, representations, tubes and sequences.

Entries are stored as JSON files in the package's input format, so they
double as format documentation and as ingestion fixtures.  Everything is
validated at load time: representation shapes at construction, tube
catalogs against the radical vector and the Coxeter transformation.
"""

from __future__ import annotations

import json
from importlib import resources

from .jsonio import Bundle, parse_bundle

__all__ = ["CATALOG_NAMES", "load"]

CATALOG_NAMES = ("A3", "K2", "K3", "D5tilde")

_FILES = {
    "A3": "a3.json",
    "K2": "k2.json",
    "K3": "k3.json",
    "D5tilde": "d5tilde.json",
}


def load(name: str) -> Bundle:
    """Load and validate a built-in entry; name is one of CATALOG_NAMES."""
    if name not in _FILES:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"choose from {', '.join(CATALOG_NAMES)}")
    text = resources.files("quiverstab.data").joinpath(_FILES[name]).read_text("utf-8")
    return parse_bundle(json.loads(text))
