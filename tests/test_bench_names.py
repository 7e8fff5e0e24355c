"""The benchmark's tracer wraps kegraph names by string; a rename in the
package would otherwise show up only as a non-empty ``unwrapped_names`` in a
traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from kegraph import generate

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

pytestmark = pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is absent")


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(monkeypatch):
    missing = []
    for module, path, _span in _load_tracer(monkeypatch).WRAPPED:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_offpath_names_exist():
    from kegraph.critical import critical_difference
    from kegraph.independence import enumerate_maximum_independent_sets

    g = generate("cycle", 5)
    assert critical_difference(g) == 0
    assert enumerate_maximum_independent_sets(g, limit=None).alpha == 2
