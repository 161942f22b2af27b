"""Tests of the benchmark itself: reproducible inputs, checkers that count
wrong outputs as failures, wrappers that are put back, and metric names
that match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

from pdmag import cli, models, oracle, sweeps  # noqa: E402
from pdmag.oracle import VerifyRow  # noqa: E402
from pdmag.params import QuantumState  # noqa: E402
from pdmag.sweeps import CrossingPoint  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

STREAMS = {
    "oracle-verify": (inputs.oracle_levels, 60),
    "closed-form-scan": (inputs.scan_blocks, 12),
    "cli-cold": (inputs.cli_rounds, 3),
}


def _take(workload, seed):
    make, count = STREAMS[workload]
    return list(itertools.islice(make(seed), count))


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _take(workload, 5) == _take(workload, 5)
    assert _take(workload, 5) != _take(workload, 6)


def test_longer_runs_only_append_inputs():
    short = list(itertools.islice(inputs.scan_blocks(3), 4))
    assert list(itertools.islice(inputs.scan_blocks(3), 8))[:4] == short


def test_known_defects_stay_in_the_oracle_stream():
    for seed in (0, 1, 12345):
        levels = list(itertools.islice(inputs.oracle_levels(seed), 100))
        for k, defect in inputs.KNOWN_DEFECTS.items():
            assert levels[k] == defect and levels[k + 50] == defect


def test_model_b_draws_are_bound():
    rng = np.random.default_rng(0)
    for _ in range(200):
        kind, state, params = inputs.draw_level(rng, "B")
        assert wl.direct_energy(kind, state, wl.PhysicalParams(**params)) is not None


def test_cli_rounds_hold_every_subcommand_once():
    for round_ in itertools.islice(inputs.cli_rounds(9), 3):
        assert sorted(args[0] for args in round_) == sorted(inputs.CLI_COMMANDS)


def test_a_run_works_through_a_fixed_number_of_items():
    assert wl.item_count("oracle-verify", 25) == 200
    assert wl.item_count("cli-cold", 25) == 4
    assert wl.item_count("cli-cold", 0) == 1
    runs = [wl.run_workload("closed-form-scan", wl.setup("closed-form-scan", 3), 0.3)
            for _ in range(2)]
    assert runs[0].attempted == 4 * wl.item_count("closed-form-scan", 0.3)
    assert [(o.attempted, o.failed, o.reasons) for o in runs] == [
        (runs[0].attempted, runs[0].failed, runs[0].reasons)] * 2


# ---------------------------------------------------------------------------
# Checkers count a wrong expected value as a failure
# ---------------------------------------------------------------------------


def _row(e_closed, e_oracle, nodes):
    return VerifyRow(QuantumState(1, 0), e_closed, e_oracle, abs(e_closed - e_oracle), 1e-9, nodes)


def test_check_level():
    assert wl.check_level("A", 1, [_row(2.0, 2.0 + 1e-7, 1)], []) is None
    assert wl.check_level("A", 1, [_row(2.0, 2.001, 1)], []) is not None
    assert wl.check_level("A", 2, [_row(2.0, 2.0, 1)], []) is not None
    assert wl.check_level("C", 1, [_row(2.0, 2.0 + 1e-5, 1)], []) is None
    assert wl.check_level("B", 0, [], [(QuantumState(0, 0), "not bound")]) is not None


def test_check_sweep():
    task = inputs.sweep_task(4, 0)
    task = dict(task, steps=20)
    rows = wl.run_sweep(task)
    assert wl.check_sweep(rows, task) is None

    def off_by_ulp(*args):
        e = wl.direct_energy(*args)
        return None if e is None else math.nextafter(e, math.inf)

    assert wl.check_sweep(rows, task, expected=off_by_ulp) is not None
    assert wl.check_sweep(rows[:-1], task) is not None


def test_check_crossings():
    task = inputs.crossing_task(0, 0)  # README atlas entry, documented at beta = 1
    points = wl.run_crossing(task)
    assert wl.check_crossings(points, task) is None
    assert wl.check_crossings(points, dict(task, expect=(1.1, 1e-6))) is not None
    moved = [CrossingPoint(p.param_value + 1e-3, p.energy, p.state_pair, p.bracket_width)
             for p in points]
    assert wl.check_crossings(moved, dict(task, expect=None)) is not None


def test_check_table():
    task = {"kind": "A", "state": (1, 0), "params": {"mu": 0.9, "kz": 0.3}, "form": None}
    r, u = wl.run_table(task)
    component = wl._table_call(task)
    assert wl.check_table(r, u, lambda rho: component(rho, "U")) is None
    assert wl.check_table(r, u, lambda rho: 1.01 * component(rho, "U")) is not None
    assert wl.check_table(np.append(r, np.nan), u, lambda rho: component(rho, "U")) is not None


def test_check_cli():
    args = ["greene-aldrich", "--delta", "0.5"]
    rc, out = wl.run_cli_in_process(args)
    assert wl.check_cli(args[0], rc, out, rc, out) is None
    assert wl.check_cli(args[0], rc, out + b"x", rc, out) is not None
    assert wl.check_cli(args[0], 1, out, 1, out) is not None
    assert wl.check_cli("verify", 2, out, 2, out) is None
    assert wl.check_cli(args[0], 0, out, 1, out) is not None


def test_a_raising_checker_is_a_failure_not_a_crash():
    out = wl.Outcome()

    def broken(*args):
        raise ZeroDivisionError("boom")

    reason = out.check(broken, 1, 2)
    out.record("level", 0.1, reason)
    assert out.failed == 1 and out.unchecked == 1 and "boom" in reason


def test_failed_operations_are_counted_and_the_run_goes_on():
    levels = [inputs.KNOWN_DEFECTS[17], inputs.warmup_level(0)]
    out = wl.Outcome()
    for level in levels:
        wl._oracle_step(level, out)
    assert (out.attempted, out.failed, out.unchecked) == (2, 1, 0)


# ---------------------------------------------------------------------------
# Tracing and metric names
# ---------------------------------------------------------------------------


def test_tracer_restores_every_wrapper():
    modules = (oracle, sweeps, models, cli)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    assert oracle.eigh_tridiagonal is not before[("pdmag.oracle", "eigh_tridiagonal")]
    tracer.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        wl.verify_level(inputs.warmup_level(0))
    finally:
        tracer.restore()
    spans = SpanTable(tracer)
    (level,) = spans.ids("oracle.level.A")
    (verify,) = spans.ids("oracle.verify_states")
    assert spans.parent[level] == verify
    assert 25 <= spans.per_parent(spans.ids("oracle.eigh."))[level] <= 40
    child_time = spans.per_parent(np.arange(len(spans.dur)), spans.dur)
    self_time = spans.dur - child_time
    assert np.all(self_time > -1e-9)
    assert math.isclose(self_time.sum(), spans.dur[verify], rel_tol=1e-9)


def test_end_to_end_names_match_benchmark_json():
    out = wl.Outcome()
    out.record("level", 0.1, None)
    metrics = wl.end_to_end("oracle-verify", out, 1.0)
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]


def test_per_layer_names_match_benchmark_json():
    tracer = Tracer()
    tracer.install()
    try:
        stream = wl.setup("oracle-verify", 0)
        out = wl.run_workload("oracle-verify", stream, 0.0, tracer)
        rel_errs = out.rel_errs + wl.calibrate(0)
    finally:
        tracer.restore()
    metrics = {name: (0.0, "ms") for name in layers.IMPORTS.values()}
    metrics.update(layers.per_layer(SpanTable(tracer), out, "oracle-verify", rel_errs))
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert all(value is not None and math.isfinite(value) for value, _ in metrics.values())


def test_in_process_cli_reference_captures_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc, out = wl.run_cli_in_process(["spectrum", "--model", "a", "--nrho-max", "0"])
    assert rc == 0 and out.startswith(b"n_rho,m,E\n") and buf.getvalue() == ""
