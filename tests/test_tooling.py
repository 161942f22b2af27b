"""Guards for the start-up cost of the package and for the names the
benchmark's tracer wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_integrate_and_special_unloaded():
    code = (
        "import sys, pdmag; "
        "print(','.join(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == ""


def test_perfbench_hooks_resolve():
    # perfbench/spans.py swaps these module attributes for timing wrappers,
    # so each one must exist under its name
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = spans._hooks()
    assert hooks
    for module_name, attr, _ in hooks:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
