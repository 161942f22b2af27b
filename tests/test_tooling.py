"""Guards for the start-up cost of the package, for the names the
benchmark's tracer wraps and for the benchmark's workloads."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with args that imports pdmag from the source
    tree, and require exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_import_leaves_scipy_unloaded():
    # import pdmag loads its eight modules and no scipy module; the
    # Nikiforov-Uvarov reference lives under tests/
    out = _fresh("-c", "import sys, pdmag\n"
                       "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pdmag'))\n"
                       f"import pdmag.cli\nprint({_SCIPY_LOADED})")
    modules, scipy_loaded = out.stdout.splitlines()
    assert modules.split() == ["pdmag", "pdmag.errors", "pdmag.fields", "pdmag.models",
                               "pdmag.oracle", "pdmag.params", "pdmag.specfun", "pdmag.sweeps"]
    assert scipy_loaded == "False"


# every command but verify prints closed forms, which need numpy alone
_CLOSED_FORM_COMMANDS = [
    ["spectrum", "--model", "c", "--nrho-max", "1", "--m-min", "0", "--m-max", "1", "--mu", "0.15",
     "--delta", "0.1"],
    ["wavefunction", "--model", "c", "--state", "0,1", "--mu", "0.15", "--delta", "0.1",
     "--form", "paper", "--points", "5"],
    ["field", "--sigma", "0.5", "--beta", "-1.5", "--points", "5"],
    ["sweep", "--model", "b", "--state", "0,1", "--param", "mu", "--lo", "0.8", "--hi", "2.5",
     "--steps", "5", "--beta", "-6", "--kz", "1"],
    ["crossings", "--model", "a", "--s1", "2,1", "--s2", "1,0", "--param", "beta", "--lo", "-3",
     "--hi", "3"],
    ["greene-aldrich", "--delta", "1.0"],
]


def test_closed_form_commands_leave_scipy_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from pdmag.cli import run\n"
        f"for argv in {_CLOSED_FORM_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = run(argv)\n"
        f"    print(argv[0], code, {_SCIPY_LOADED})\n"
    )
    rows = _fresh("-c", code).stdout.split("\n")[:-1]
    assert rows == [f"{argv[0]} 0 False" for argv in _CLOSED_FORM_COMMANDS]


def test_verify_loads_only_the_lapack_extensions_it_calls():
    # the oracle loads scipy.linalg's _flapack and cython_lapack extensions
    # from their files; the scipy.linalg package, and with it scipy's
    # array-API layer, stays unloaded
    modules = ["scipy.linalg._flapack", "scipy.linalg.cython_lapack", "scipy.linalg",
               "scipy._lib._array_api"]
    code = (
        "import contextlib, io, sys\n"
        "from pdmag.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = run(['verify', '--model', 'a', '--nrho-max', '0', '--m-min', '1', '--m-max', '1'])\n"
        f"print(code, *(m in sys.modules for m in {modules!r}))\n"
    )
    assert _fresh("-c", code).stdout.split() == ["0", "True", "True", "False", "False"]


_LEVEL = (
    "from pdmag.models import ModelKind\n"
    "from pdmag.oracle import oracle_energy\n"
    "from pdmag.params import PhysicalParams, QuantumState\n"
    "def level():\n"
    "    return oracle_energy(ModelKind.A, QuantumState(1, 1), PhysicalParams()).energy.hex()\n"
)


def test_oracle_levels_do_not_depend_on_the_scipy_linalg_import_order(monkeypatch, tmp_path):
    # a level before and after the scipy.linalg package is imported (and
    # used), and one with the package imported first, call the same LAPACK
    import pdmag.oracle
    from pdmag.models import ModelKind
    from pdmag.params import PhysicalParams, QuantumState

    here = pdmag.oracle.oracle_energy(ModelKind.A, QuantumState(1, 1), PhysicalParams()).energy.hex()
    level_first = _fresh("-c", _LEVEL + (
        "first = level()\n"
        "import numpy as np, scipy.linalg\n"
        "scipy.linalg.eigh_tridiagonal(np.arange(3.0), np.ones(2), eigvals_only=True)\n"
        "print(first, level())\n"
    ))
    package_first = _fresh("-c", "import scipy.linalg\n" + _LEVEL + "print(level())\n")
    assert level_first.stdout.split() == [here, here]
    assert package_first.stdout.split() == [here]

    # an extension module missing from the directory searched is named
    (tmp_path / "linalg").mkdir()
    scipy = importlib.util.spec_from_loader("scipy", None, is_package=True)
    scipy.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match="_flapack") as missing:
        pdmag.oracle._linalg_extension.__wrapped__("_flapack")
    assert str(tmp_path / "linalg") in str(missing.value)


def test_crossing_search_goes_through_the_traced_names(monkeypatch):
    # perfbench/spans.py also swaps pdmag.sweeps.dataclasses for a namespace
    # whose replace it times, and perfbench/layers.py reads the median of
    # those params.replace spans and of the models.energy spans under each
    # crossing search: a traced run needs one of each per search
    import pdmag.sweeps
    from pdmag.models import ModelKind
    from pdmag.params import PhysicalParams, QuantumState

    assert callable(pdmag.sweeps.dataclasses.replace)
    calls = []
    energy, replace = pdmag.sweeps.energy, pdmag.sweeps.dataclasses.replace
    monkeypatch.setattr(
        pdmag.sweeps, "energy", lambda *a, **k: calls.append("energy") or energy(*a, **k)
    )
    monkeypatch.setattr(
        pdmag.sweeps.dataclasses, "replace", lambda *a, **k: calls.append("replace") or replace(*a, **k)
    )
    found = pdmag.sweeps.find_crossings(
        ModelKind.A, QuantumState(2, 1), QuantumState(1, 0), "beta", (-3.0, 3.0), PhysicalParams()
    )
    assert len(found) == 1
    assert calls.count("energy") >= 1 and calls.count("replace") >= 1


def test_only_the_crossings_command_loads_json():
    commands = sorted(_CLOSED_FORM_COMMANDS, key=lambda argv: argv[0] == "crossings")
    code = (
        "import contextlib, io, sys\n"
        "from pdmag.cli import run\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = run(argv)\n"
        "    print(argv[0], code, 'json' in sys.modules)\n"
    )
    rows = _fresh("-c", code).stdout.split("\n")[:-1]
    assert rows == [f"{argv[0]} 0 {argv[0] == 'crossings'}" for argv in commands]


def test_oracle_level_makes_one_eigensolve_call_per_grid(monkeypatch):
    # perfbench's oracle.eigensolve_ms.n4000 / .n8000 spans wrap
    # pdmag.oracle.eigh_tridiagonal and read the grid size from the length
    # of its first positional argument, so the Rayleigh-quotient solves, the
    # Sturm counts that certify them and any fallback bisection must stay
    # inside that one call; a settled level stops at 4000 cells, an
    # unsettled one goes on to 8000
    import pdmag.oracle
    from pdmag.models import ModelKind
    from pdmag.params import PhysicalParams, QuantumState

    sizes = []
    solve = pdmag.oracle.eigh_tridiagonal
    monkeypatch.setattr(
        pdmag.oracle, "eigh_tridiagonal", lambda *a, **k: sizes.append(len(a[0])) or solve(*a, **k)
    )
    pdmag.oracle.oracle_energy(ModelKind.A, QuantumState(1, 1), PhysicalParams())
    assert sizes == [1000, 2000, 4000]
    sizes.clear()
    pdmag.oracle.oracle_energy(ModelKind.C, QuantumState(0, 0), PhysicalParams(delta=0.1),
                               target="ga")
    assert sizes == [1000, 2000, 4000, 8000]


def test_every_exported_name_resolves():
    # a deleted function must not leave a dangling name in the __all__ of
    # pdmag or of any of its modules (errors has none; __main__ runs the CLI)
    stems = [path.stem for path in sorted((ROOT / "src" / "pdmag").glob("*.py"))]
    modules = [importlib.import_module("pdmag")] + [
        importlib.import_module(f"pdmag.{stem}") for stem in stems
        if stem not in ("__init__", "__main__", "errors")]
    missing = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []


_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in _BENCHMARK["workloads"]])
def test_benchmark_workload_runs(workload, monkeypatch):
    # the path perfbench/run.py drives: set-up with its warm-up operation,
    # the timed loop (here one item) and the end-to-end metrics; an error on
    # it fails the whole benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    t0 = time.perf_counter()
    stream = workloads.setup(workload, 1)
    setup_s = time.perf_counter() - t0
    out = workloads.run_workload(workload, stream, 0.05)
    metrics = workloads.end_to_end(workload, out, setup_s)
    assert out.attempted >= 1 and out.unchecked == 0, out.reasons
    for name in (m["name"] for m in _BENCHMARK["end_to_end"]):
        assert math.isfinite(metrics[name][0]), (name, metrics)


# The traced closed-form-scan and cli-cold runs exit 1 (ROADMAP item 1, the
# benchmark mend): their calibration pass, which every traced run appends,
# records no oracle.eigensolve_ms.n8000 span, and an in-process cli-cold run
# after another traced run finds models.wavefunction_cold_ms.A|B's tables in
# the norm cache. So their short runs show the same gaps as full ones.
_TRACE_GAPS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: oracle.eigensolve_ms.n8000 (and for cli-cold "
    "models.wavefunction_cold_ms.A|B) can be None in a traced run",
)


@pytest.mark.parametrize(
    "workload, seconds",
    [pytest.param("oracle-verify", 25, id="oracle-verify"),
     pytest.param("closed-form-scan", 1, marks=_TRACE_GAPS, id="closed-form-scan"),
     pytest.param("cli-cold", 1, marks=_TRACE_GAPS, id="cli-cold")],
)
def test_traced_benchmark_run_gives_every_per_layer_metric(monkeypatch, tmp_path, workload,
                                                           seconds):
    # perfbench/run.py --trace 1 swaps every module attribute that
    # perfbench/spans.py hooks for a timing wrapper and prints each
    # per-layer metric with a numeric format: a hooked name that is gone, or
    # a metric that is None because nothing recorded its span
    # (oracle.eigensolve_ms.n8000 when every level settles at 4000 cells),
    # ends the traced run with an uncaught exception
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers, spans, workloads = (importlib.import_module(m) for m in ("layers", "spans", "workloads"))
    hooks = spans._hooks()
    assert hooks
    for module_name, attr, _ in hooks:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    metrics, out, _ = layers.traced_run(workload, 1, seconds, workloads.setup(workload, 1),
                                        tmp_path)
    assert out.attempted >= 1 and out.unchecked == 0, out.reasons
    assert {m["name"] for m in _BENCHMARK["per_layer"]} <= metrics.keys()
    missing = [name for name, (value, _) in metrics.items()
               if value is None or not math.isfinite(value)]
    assert missing == []
