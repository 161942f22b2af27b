"""The traced run: per-layer metrics from spans at pdmag's module boundaries.

Timings of a traced run include the wrappers' own cost; the end-to-end
metrics always come from an untraced run, and ``trace.ops_per_s`` set
against the untraced ``ops_per_s`` gives the tracing overhead.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

import inputs
import workloads as wl
from spans import SpanTable, Tracer

IMPORT_PROBES = 3
IMPORTS = {"pdmag": "import.pdmag_ms", "scipy.integrate": "import.scipy_integrate_ms",
           "scipy.linalg": "import.scipy_linalg_ms"}


def import_times() -> dict:
    """Median cumulative `-X importtime` of `import pdmag`, in ms, per module.
    A module that `import pdmag` no longer loads reads 0."""
    seen = {module: [] for module in IMPORTS}
    for _ in range(IMPORT_PROBES):
        rc, _, err, _, _ = wl.run_child([sys.executable, "-X", "importtime", "-c", "import pdmag"])
        if rc != 0:
            raise RuntimeError(err.decode("utf-8", "replace"))
        found = {}
        for line in err.decode("utf-8", "replace").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1]) / 1e3
        for module in IMPORTS:
            seen[module].append(found.get(module, 0.0))
    return {IMPORTS[m]: statistics.median(v) for m, v in seen.items()}


def _p90(values) -> float:
    return float(np.percentile(values, 90))


def per_layer(spans: SpanTable, out: wl.Outcome, workload: str, rel_errs) -> dict:
    m = {}
    for command in inputs.CLI_COMMANDS:
        m[f"cli.run_ms.{command}"] = (spans.median_ms(spans.ids(f"cli.run.{command}")), "ms")

    eigh = spans.ids("oracle.eigh.")
    solves = spans.per_parent(eigh)
    for kind in inputs.KINDS:
        levels = spans.ids(f"oracle.level.{kind}")
        m[f"oracle.level_ms.{kind}"] = (spans.median_ms(levels), "ms")
        m[f"oracle.eigensolves_per_level.{kind}"] = (float(np.mean(solves[levels])), "count")
    for n in (4000, 8000):
        m[f"oracle.eigensolve_ms.n{n}"] = (spans.median_ms(spans.ids(f"oracle.eigh.n{n}")), "ms")
    verifies = spans.ids("oracle.verify_states")
    oracle_time = spans.per_parent(spans.ids("oracle.level."), spans.dur)
    check = spans.dur[verifies] - oracle_time[verifies]
    m["oracle.check_ms"] = (1e3 * float(np.median(check)), "ms")
    m["oracle.verify_ms_p90"] = (1e3 * _p90(spans.dur[verifies]), "ms")
    m["oracle.rel_err_p50"] = (float(np.median(rel_errs)), "ratio")
    m["oracle.worst_rel_err"] = (float(np.max(rel_errs)), "ratio")

    wavefunctions = spans.ids("models.wavefunction.")
    cold = spans.per_parent(spans.ids("specfun.normalize"))[wavefunctions] > 0
    for kind in inputs.KINDS:
        m[f"models.energy_us.{kind}"] = (1e3 * spans.median_ms(spans.ids(f"models.energy.{kind}")), "us")
        of_kind = np.isin(wavefunctions, spans.ids(f"models.wavefunction.{kind}"))
        m[f"models.wavefunction_cold_ms.{kind}"] = (spans.median_ms(wavefunctions[cold & of_kind]), "ms")
    m["models.wavefunction_warm_us"] = (1e3 * spans.median_ms(wavefunctions[~cold]), "us")
    m["specfun.normalize_ms"] = (spans.median_ms(spans.ids("specfun.normalize")), "ms")
    for poly in ("laguerre", "jacobi"):
        m[f"specfun.poly_us.{poly}"] = (1e3 * spans.median_ms(spans.ids(f"specfun.{poly}")), "us")
    m["params.replace_us"] = (1e3 * spans.median_ms(spans.ids("params.replace")), "us")

    for kind in inputs.KINDS:
        grids = spans.ids(f"sweeps.sweep.{kind}")
        m[f"sweeps.row_us.{kind}"] = (1e6 * spans.dur[grids].sum() / spans.items[grids].sum(), "us")
    crossings = spans.ids("sweeps.find_crossings")
    m["sweeps.crossing_ms"] = (spans.median_ms(crossings), "ms")
    m["sweeps.crossing_ms_p90"] = (1e3 * _p90(spans.dur[crossings]), "ms")
    energy_calls = spans.per_parent(spans.ids("models.energy."))
    m["sweeps.energy_calls_per_crossing"] = (float(np.mean(energy_calls[crossings])), "count")
    m["fields.field_table_ms"] = (spans.median_ms(spans.ids("fields.field_table")), "ms")

    # Share of the timed loop's wall time inside top-level spans.
    roots = np.nonzero(
        (spans.parent < 0) & (spans.start >= out.t_start) & (spans.start < out.t_start + out.wall_s)
    )[0]
    m["trace.span_cover_frac"] = (float(spans.dur[roots].sum()) / out.wall_s, "ratio")
    m["trace.ops_per_s"] = (wl.primary(workload, out)[0], "1/s")
    return m


def traced_run(workload: str, seed: int, seconds: float, stream, out_dir):
    """Run the workload with every wrapper installed, then the calibration
    pass; returns (metrics, outcome, extra provenance)."""
    tracer = Tracer()
    tracer.install()
    try:
        out = wl.run_workload(workload, stream, seconds, tracer)
        rel_errs = out.rel_errs + wl.calibrate(seed)
    finally:
        tracer.restore()
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}.npz"
    tracer.save(path)
    metrics = import_times()
    metrics = {name: (value, "ms") for name, value in metrics.items()}
    metrics.update(per_layer(SpanTable(tracer), out, workload, rel_errs))
    return metrics, out, {"spans": tracer.n_spans, "span_file": str(path.relative_to(out_dir.parent))}
