"""Golden digests for equivalence suites whose reference path was retired.

Some suites once proved an optimization invisible by running every
script twice — optimization on and off — and comparing all observables.
When the reference path was deleted, each script's observables were
recorded instead, from both arms (which agreed) and under two
``PYTHONHASHSEED`` values, into ``tests/golden/<suite>.json``.  A test
now compares its run against that record, one SHA-256 per observable,
so a failure names what diverged (results, clock, DBStats, ...).

Digests hash a canonical ``repr``: dict items are sorted by key and
tuples become lists, so the text depends only on the values.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

_DIR = Path(__file__).resolve().parent


def canonical(value):
    """``value`` with dicts as sorted item lists and tuples as lists."""
    if isinstance(value, dict):
        return [[key, canonical(value[key])] for key in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical repr."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def digests(observed: Dict[str, object]) -> Dict[str, str]:
    """Per-observable digests of one run."""
    return {name: digest(value) for name, value in observed.items()}


def assert_golden(suite: str, case: str, observed: Dict[str, object]) -> None:
    """Assert every observable of ``case`` matches its recorded digest."""
    with open(_DIR / f"{suite}.json") as handle:
        expected = json.load(handle)[case]
    got = digests(observed)
    assert sorted(got) == sorted(expected), f"{case}: observables changed"
    for name in sorted(expected):
        assert got[name] == expected[name], \
            f"{case}: {name} diverged from the golden digest"
