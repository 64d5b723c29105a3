"""The benchmark's tracer (``benchmarks/spans.py``) wraps program
functions by their names; a renamed function fails here."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_install_wraps_every_name_and_uninstall_restores_it(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)     # for its dataclasses
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()        # raises KeyError for a name it cannot find
        installed = list(tracer._installed)
        for owner, attr, raw in installed:
            wrapper = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper, raw = wrapper.__func__, raw.__func__
            assert wrapper.__wrapped__ is raw, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert installed
    for owner, attr, raw in installed:
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr}"
