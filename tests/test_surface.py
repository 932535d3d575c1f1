"""The public names that callers and the benchmark's layer tracer look up."""

import sys
from pathlib import Path

import pytest

import nvpolar
import nvpolar.cli  # noqa: F401  (the tracer wraps cli.main)
from nvpolar import schedule

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", [nvpolar, schedule], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def _traced(layers) -> dict:
    """Every attribute bench/layers.py wraps, keyed by (owner, name)."""
    found = {}
    for mod_name, attr, _ in layers.FUNCTIONS:
        mod = sys.modules[mod_name]
        found[mod, attr] = getattr(mod, attr)
    for mod_name, cls_name, attr, _ in layers.METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        found[cls, attr] = vars(cls)[attr]
    for mod_name, _ in layers.SOLVERS:
        mod = sys.modules[mod_name]
        found[mod, "least_squares"] = mod.least_squares
    return found


def test_tracer_wraps_every_traced_attribute_and_restores_it(layers):
    originals = _traced(layers)
    expm = nvpolar.lindblad.expm
    tracer = layers.Tracer()
    tracer.install()
    try:
        wrapped = _traced(layers)
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not fn for key, fn in originals.items())
    assert _traced(layers) == originals
    assert nvpolar.lindblad.expm is expm
