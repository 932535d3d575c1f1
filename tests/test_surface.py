"""The public names that callers and the benchmark's layer tracer look up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvpolar
import nvpolar.cli  # noqa: F401  (the tracer wraps cli.main)
from nvpolar import schedule
from nvpolar.experiments import sequence_polarization
from nvpolar.presets import get_preset

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", [nvpolar, schedule], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _loaded_by_cli_import(*prefixes: str, module: str = "nvpolar.cli") -> list[str]:
    """Modules whose names start with a prefix, after a fresh `import <module>`."""
    env = dict(os.environ, PYTHONPATH=str(Path(nvpolar.__file__).parent.parent))
    code = (
        f"import sys, {module}; "
        f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only; scipy is a test and benchmark oracle."""
    assert _loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_pool_machinery():
    """The fan-out needs threading only, and numpy loads it anyway."""
    assert _loaded_by_cli_import("concurrent", "multiprocessing", "signal") == []
    assert _loaded_by_cli_import("threading", module="numpy") == ["threading"]


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


@pytest.mark.parametrize("n_cycles", [None, 2])
def test_bench_reference_path_matches_the_engine(monkeypatch, n_cycles):
    """The benchmark gate's reference_p builds its schedule from Preset.schedule."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    preset = get_preset("table-a1-fit")
    for delta in (-325e3, 325e3):
        ref = workloads.reference_p(preset, delta, n_cycles)
        got = sequence_polarization(preset, delta, n_cycles=n_cycles)
        assert abs(ref - got) <= workloads.DP_TOL
