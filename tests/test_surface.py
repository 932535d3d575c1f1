"""The public names that callers and the benchmark's layer tracer look up."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import with_cycles

import nvpolar
import nvpolar.cli  # noqa: F401  (the tracer wraps cli.main)
from nvpolar.experiments import sequence_polarization
from nvpolar.presets import get_preset

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _fresh(code: str, *argv: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports this nvpolar."""
    env = dict(os.environ, PYTHONPATH=str(Path(nvpolar.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout


def _loaded_by_cli_import(*prefixes: str, module: str = "nvpolar.cli") -> list[str]:
    """Modules whose names start with a prefix, after a fresh `import <module>`."""
    return _fresh(
        f"import sys, {module}; "
        f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    ).split()


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only; scipy is a test and benchmark oracle."""
    assert _loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_pool_machinery():
    """No pool or signal machinery; threading comes with numpy, and the sweeps start no thread."""
    assert _loaded_by_cli_import("concurrent", "multiprocessing", "signal") == []
    assert _loaded_by_cli_import("threading", module="numpy") == ["threading"]


#: Prints, after each step, the lazily imported modules whose code has run.
#: A module's own namespace is read through object.__getattribute__, which
#: does not load it, and gains __builtins__ once its code runs.
_COLD_START = """
import contextlib, io, sys
import nvpolar, nvpolar.cli

def executed():
    names = []
    for name in ("fitting", "ramsey"):
        module = sys.modules["nvpolar." + name]
        assert getattr(nvpolar, name) is module
        if "__builtins__" in object.__getattribute__(module, "__dict__"):
            names.append(name)
    return names

out = sys.argv[1]
for argv in (
    ["sweep-detuning", "--min=0", "--max=40000", "--step=20000", "--out", out + "/sweep"],
    ["list-presets"],
    ["ramsey", "--out", out + "/ramsey"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = nvpolar.cli.main(argv)
    print(argv[0], code, *executed())
"""


def test_only_the_commands_that_use_them_run_ramsey_and_fitting(tmp_path):
    """import nvpolar.cli registers both modules without running them; a sweep
    and list-presets leave them unrun, ramsey runs both (it fits lines)."""
    assert _fresh(_COLD_START, str(tmp_path)).splitlines() == [
        "sweep-detuning 0",
        "list-presets 0",
        "ramsey 0 fitting ramsey",
    ]


def test_a_lazy_module_imports_as_usual_after_the_cli():
    assert _fresh("import nvpolar.cli; import nvpolar.ramsey; print(nvpolar.ramsey.T2_STAR)") == (
        "2e-06\n"
    )
    assert _fresh(
        "import nvpolar.cli; from nvpolar.fitting import CURVE_FIT_INIT; print(CURVE_FIT_INIT)"
    ) == "(0.0, 600000.0, 100000.0)\n"


#: Four threads make the first ramsey and fit-curve calls of a fresh
#: interpreter at once, switching every microsecond, and print each call's
#: exit code or the name of the exception that escaped main. fit-curve's
#: three-row curve reaches fitting, which refuses it as a config error.
_FIRST_CALLS_IN_THREADS = """
import contextlib, io, sys, threading
import nvpolar.cli

out = sys.argv[1]
curve = out + "/curve.csv"
with open(curve, "w") as fh:
    fh.write("delta_hz,P\\n-325000.0,-0.89\\n0.0,0.01\\n325000.0,0.89\\n")
calls = [["ramsey"]] * 2 + [["fit-curve", curve]] * 2
results = {}

def call(i):
    try:
        results[i] = nvpolar.cli.main([*calls[i], "--out", f"{out}/{i}"])
    except Exception as exc:
        results[i] = type(exc).__name__

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(4)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
print(*(results.get(i, "unfinished") for i in range(4)))
"""


def test_lazy_modules_run_once_when_threads_reach_them_together(tmp_path):
    """LazyLoader takes no lock; without cli's, some of these calls see a
    half-run module and raise AttributeError or ImportError out of main."""
    assert _fresh(_FIRST_CALLS_IN_THREADS, str(tmp_path)) == "0 0 2 2\n"


def test_the_tracer_installs_after_a_bare_cli_import():
    """bench/layers.py looks every traced module up in sys.modules, so the
    lazy modules must be there before any command has used them."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nvpolar.cli, layers; "
        "tracer = layers.Tracer(); tracer.install(); tracer.uninstall(); print('ok')"
    )
    assert _fresh(code, str(BENCH)) == "ok\n"


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
    # The CLI calls the spectral fit as fit_spectrum; the tracer reaches it
    # through fit_lorentzian_pair, the same object.
    ramsey = sys.modules["nvpolar.ramsey"]
    found[ramsey, "fit_spectrum"] = ramsey.fit_spectrum
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
        got = sequence_polarization(with_cycles(preset, n_cycles), delta)
        assert abs(ref - got) <= workloads.DP_TOL


def test_readme_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    """README's Python example, which imports every name from its submodule."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == 402
    assert 0.85 < abs(float(capsys.readouterr().out)) < 0.95
