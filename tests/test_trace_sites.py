"""The benchmark's tracer must find every function it wraps.

``perfbench/spans.py`` wraps gridprep functions by module and attribute
name; a refactor that renames or removes one breaks ``perfbench/run.py
--trace 1``.  This test only resolves the names; it installs nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(monkeypatch):
    sites = load_spans(monkeypatch).SITES
    assert sites
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in sites
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
