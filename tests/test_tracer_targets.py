"""The benchmark's tracer must find every package attribute it wraps."""

import importlib.util
import sys
from pathlib import Path

import survconcord
import survconcord.cli  # noqa: F401  (the tracer also wraps cli and io)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target(monkeypatch):
    tracing = _load_tracing(monkeypatch)

    def owner_of(path):
        owner = survconcord
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [owner_of(path).__dict__[attr] for path, attr, _ in tracing.TARGETS]
    uninstall = tracing.Recorder().install(survconcord)
    try:
        wrapped = [owner_of(path).__dict__[attr] for path, attr, _ in tracing.TARGETS]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        uninstall()
    after = [owner_of(path).__dict__[attr] for path, attr, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))
