"""The repository benchmark's tracer can still find every entry point.

``perfbench/tracing.py`` patches the program's layer entry points by
name: a module global (for an imported function, on the module that
calls it) or a class attribute.  A refactor that moves or renames one of
those names leaves the benchmark's ``--trace 1`` pass broken without any
program test failing.  This test reads the tracer's ``ENTRY_POINTS``
table (never calling ``instrument()``, so nothing is patched) and makes
exactly the lookup ``instrument()`` makes for each entry.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
        assert Path(tracing.__file__).parent == ROOT / "perfbench"
        return tracing.ENTRY_POINTS
    finally:
        sys.modules.pop("tracing", None)


def test_every_traced_entry_point_is_owned_where_it_is_patched(monkeypatch):
    entries = _entry_points(monkeypatch)
    assert entries
    missing = []
    for module_name, attr_path, span in entries:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module_name}:{attr_path} ({span})")
    assert not missing, missing
