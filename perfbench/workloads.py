"""The three workloads: set-up, timed closed loop, and output checks.

One caller in one process sends the next operation only after the
previous one returned. Each operation is timed on its own and checked
right after; a wrong or raised result counts as a failed operation and
the run goes on. A run works through a fixed number of items, set by
``--seconds``, so that which operations it attempts, and which of them
fail, depends on the seed alone and not on how fast the host ran.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pdmag import cli, models, oracle, sweeps  # noqa: E402
from pdmag.errors import DomainError  # noqa: E402
from pdmag.models import ModelKind  # noqa: E402
from pdmag.params import PhysicalParams, QuantumState  # noqa: E402

# Gate tolerances of the acceptance criteria 1-3 (model C against 'ga').
LEVEL_TOL = {"A": 1e-5, "B": 1e-5, "C": 1e-4}
CROSSING_GAP = 1e-9
NORM_TOL = 1e-6
CLI_TIMEOUT_S = 120.0

# Items per second of --seconds: oracle levels, scan blocks (four
# operations each) and CLI rounds (seven invocations each). A 2-vCPU
# x86-64 VM (Python 3.11, numpy 2.4, scipy 1.17) works through 8 to 11
# levels or blocks, or 0.13 to 0.2 rounds, a second as its host's load
# changes, so a run takes about --seconds there in its slow spells.
ITEMS_PER_S = {"oracle-verify": 8.0, "closed-form-scan": 8.0, "cli-cold": 0.16}
# A loop that takes this many times --seconds stops early, so that a run
# on a much slower host still ends in time; its counts then depend on the host.
OVERRUN = 3.0


@dataclasses.dataclass
class Outcome:
    """What a timed loop saw: per-kind durations, failures, and extras."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = dataclasses.field(default_factory=Counter)
    times: dict = dataclasses.field(default_factory=dict)
    rows: int = 0
    rel_errs: list = dataclasses.field(default_factory=list)
    child_rss_kb: int = 0
    t_start: float = 0.0
    wall_s: float = 0.0
    unchecked: int = 0
    untraced: object = contextlib.nullcontext

    def check(self, checker, *args):
        """Run a checker; a checker that raises leaves the output unverified."""
        try:
            with self.untraced():
                return checker(*args)
        except Exception as err:
            self.unchecked += 1
            return "check " + _raised(err)

    def record(self, kind: str, seconds: float, reason: str | None) -> None:
        self.attempted += 1
        self.times.setdefault(kind, []).append(seconds)
        if reason is not None:
            self.failed += 1
            self.reasons[f"{kind}: {reason}"[:160]] += 1


def _kind(name: str) -> ModelKind:
    return ModelKind(name)


def _raised(err: BaseException) -> str:
    return f"raised {type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# Checkers: each returns None when the output is right, else a reason.
# ---------------------------------------------------------------------------


def rel_err(row) -> float:
    return row.abs_err / max(1e-12, abs(row.e_closed))


def check_level(kind: str, n_rho: int, rows, skipped):
    """One verify_states result for one state."""
    if skipped or len(rows) != 1:
        return f"expected one row, got {len(rows)} (skipped: {skipped})"
    rel, nodes = rel_err(rows[0]), rows[0].nodes
    if not rel <= LEVEL_TOL[kind]:
        return f"relative error {rel:.2e} above {LEVEL_TOL[kind]:g}"
    if nodes != n_rho:
        return f"{nodes} nodes, expected {n_rho}"
    return None


def direct_energy(kind: str, state, params: PhysicalParams, name: str | None = None, value=None):
    """Closed-form level straight from pdmag.models; None where it is not bound."""
    try:
        if name is not None:
            params = params.replace(**{name: float(value)})
        return models.energy(_kind(kind), QuantumState(*state), params)
    except DomainError:
        return None


def check_sweep(rows, task, expected=direct_energy):
    values = np.linspace(task["lo"], task["hi"], task["steps"])
    states = sorted(task["states"])
    if len(rows) != len(values) * len(states):
        return f"{len(rows)} rows, expected {len(values) * len(states)}"
    params = PhysicalParams(**task["params"])
    for row, (value, state) in zip(rows, itertools.product(values, states)):
        if row.value != float(value) or (row.state.n_rho, row.state.m) != state:
            return f"row at {row.value} for {row.state} out of order"
        want = expected(task["kind"], state, params, task["param"], value)
        if row.energy != want:
            return f"E={row.energy!r} at {task['param']}={value!r} {state}, direct {want!r}"
    return None


def check_crossings(points, task, expected=direct_energy):
    params = PhysicalParams(**task["params"])
    for point in points:
        e1 = expected(task["kind"], task["s1"], params, task["param"], point.param_value)
        e2 = expected(task["kind"], task["s2"], params, task["param"], point.param_value)
        if e1 is None or e2 is None:
            return f"crossing at {point.param_value!r} is not a bound point"
        if not abs(e1 - e2) <= CROSSING_GAP:
            return f"gap {abs(e1 - e2):.2e} at {point.param_value!r}"
    if task["expect"] is not None:
        where, tol = task["expect"]
        found = [p.param_value for p in points]
        if len(found) != 1 or not abs(found[0] - where) <= tol:
            return f"found {found}, documented {where} +- {tol:g}"
    return None


def norm_error(u_of) -> float:
    """|integral of U^2 over (0, inf) - 1| by composite Simpson in rho = R t^2,
    with R doubled until U(R) is negligible."""
    t = np.linspace(0.0, 1.0, 40001)
    reach = 30.0
    while True:
        rho = reach * t * t
        rho[0] = 1e-16 * reach  # U(0) = 0; the weight 2 R t vanishes there anyway
        u = np.asarray(u_of(rho), dtype=float)
        if abs(u[-1]) <= 1e-10 * np.max(np.abs(u)) or reach > 1e6:
            break
        reach *= 2.0
    f = 2.0 * reach * t * u * u
    h = t[1]
    total = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return abs(total - 1.0)


def check_table(r_values, u_values, u_of):
    if not (np.all(np.isfinite(r_values)) and np.all(np.isfinite(u_values))):
        return "non-finite values"
    err = norm_error(u_of)
    if not err <= NORM_TOL:
        return f"norm off by {err:.2e}"
    return None


def check_cli(command: str, child_rc: int, child_out: bytes, ref_rc: int, ref_out: bytes):
    documented = (0, 2) if command == "verify" else (0,)
    if child_rc != ref_rc:
        return f"exit {child_rc}, in-process {ref_rc}"
    if child_rc not in documented:
        return f"exit {child_rc}, documented {documented}"
    if child_out != ref_out:
        return f"stdout differs from in-process run ({len(child_out)} vs {len(ref_out)} bytes)"
    return None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def verify_level(level):
    kind, state, params = level
    return oracle.verify_states(_kind(kind), [QuantumState(*state)], PhysicalParams(**params))


def run_sweep(task):
    spec = sweeps.SweepSpec(
        kind=_kind(task["kind"]),
        states=tuple(QuantumState(*s) for s in task["states"]),
        param_name=task["param"],
        lo=task["lo"],
        hi=task["hi"],
        steps=task["steps"],
    )
    return sweeps.sweep(spec, PhysicalParams(**task["params"]))


def run_crossing(task):
    return sweeps.find_crossings(
        _kind(task["kind"]),
        QuantumState(*task["s1"]),
        QuantumState(*task["s2"]),
        task["param"],
        task["range"],
        PhysicalParams(**task["params"]),
    )


def _table_call(task):
    kind, state = _kind(task["kind"]), QuantumState(*task["state"])
    params = PhysicalParams(**task["params"])
    extra = {"form": task["form"]} if task["form"] else {}

    def component(rho, which):
        return models.wavefunction(kind, state, params, rho, component=which, **extra)

    return component


def run_table(task):
    """One `pdmag wavefunction` table: R then U on the CLI's default grid."""
    component = _table_call(task)
    rhos = np.linspace(*inputs.RHO_GRID)
    return component(rhos, "R"), component(rhos, "U")


def run_cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue().encode("utf-8")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, timeout=CLI_TIMEOUT_S):
    """Run a fresh interpreter to completion: (rc, stdout, stderr, seconds, max RSS kB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, b"".join(err), seconds, usage.ru_maxrss


def cli_argv(args):
    return [sys.executable, "-m", "pdmag", *args]


# ---------------------------------------------------------------------------
# Set-up: inputs plus one untimed warm-up operation
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Generate the inputs and run one untimed warm-up operation; returns the
    input stream with its generated prefix."""
    if workload == "oracle-verify":
        stream = inputs.oracle_levels(seed)
        prefix = list(itertools.islice(stream, 128))
        verify_level(inputs.warmup_level(seed))
    elif workload == "closed-form-scan":
        stream = inputs.scan_blocks(seed)
        prefix = list(itertools.islice(stream, 64))
        kind, state, params = inputs.warmup_level(seed)
        run_table({"kind": kind, "state": state, "params": params, "form": None})
    elif workload == "cli-cold":
        stream = inputs.cli_rounds(seed)
        prefix = list(itertools.islice(stream, 4))
        run_cli_in_process(["spectrum", "--model", "a"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return itertools.chain(prefix, stream)


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------


def item_count(workload: str, seconds: float) -> int:
    """Items of the stream a run of about `seconds` works through."""
    return max(1, round(seconds * ITEMS_PER_S[workload]))


def _loop(stream, count, seconds, step, out: Outcome) -> Outcome:
    out.t_start = perf_counter()
    deadline = out.t_start + OVERRUN * seconds
    for item in itertools.islice(stream, count):
        step(item, out)
        if perf_counter() >= deadline:
            break
    out.wall_s = perf_counter() - out.t_start
    return out


def _timed(fn, arg):
    t0 = perf_counter()
    try:
        result = fn(arg)
    except Exception as err:  # a raising operation is a failed operation
        return None, perf_counter() - t0, _raised(err)
    return result, perf_counter() - t0, None


def _oracle_step(level, out: Outcome) -> None:
    result, seconds, reason = _timed(verify_level, level)
    if reason is None:
        rows, skipped = result
        reason = out.check(check_level, level[0], level[1][0], rows, skipped)
        out.rel_errs += [rel_err(row) for row in rows]
    out.record("level", seconds, reason)


def _scan_step(block, out: Outcome) -> None:
    for kind, task in block:
        if kind == "sweep":
            rows, seconds, reason = _timed(run_sweep, task)
            if reason is None:
                reason = out.check(check_sweep, rows, task)
                out.rows += len(rows)
        elif kind == "crossing":
            points, seconds, reason = _timed(run_crossing, task)
            if reason is None:
                reason = out.check(check_crossings, points, task)
        else:
            table, seconds, reason = _timed(run_table, task)
            if reason is None:
                component = _table_call(task)
                reason = out.check(check_table, *table, lambda rho: component(rho, "U"))
        out.record(kind, seconds, reason)


def _cli_rounds(stream, count, seconds, out: Outcome, tracer=None):
    """Fresh-interpreter invocations, whole rounds only; returns what ran."""
    ran = []
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    def step(round_, out):
        for args in round_:
            with span(f"cli.child.{args[0]}"):
                rc, stdout, stderr, sec, rss = run_child(cli_argv(args))
            out.child_rss_kb = max(out.child_rss_kb, rss)
            ran.append((args, rc, stdout, stderr, sec))

    _loop(stream, count, seconds, step, out)
    return ran


def run_workload(workload: str, stream, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    if tracer is not None:
        out.untraced = tracer.paused
    count = item_count(workload, seconds)
    if workload == "oracle-verify":
        return _loop(stream, count, seconds, _oracle_step, out)
    if workload == "closed-form-scan":
        return _loop(stream, count, seconds, _scan_step, out)
    ran = _cli_rounds(stream, count, seconds, out, tracer)
    # Checks run after the timed window: the reference is the same argv
    # through pdmag.cli.run in this process.
    for args, rc, stdout, stderr, sec in ran:
        ref_rc, ref_out = run_cli_in_process(args)
        reason = out.check(check_cli, args[0], rc, stdout, ref_rc, ref_out)
        if reason is not None and stderr:
            reason += " | " + stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        out.record("invocation", sec, reason)
    return out


def peak_rss_mb(workload: str, out: Outcome) -> float:
    """Peak resident memory of the process doing the work: this one, or the
    largest CLI child for cli-cold (Linux reports kB)."""
    if workload == "cli-cold":
        return out.child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, out: Outcome, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    ops_per_s, latencies = primary(workload, out)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload, out), "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_mean": (1e3 * statistics.fmean(latencies), "ms"),
    }


def primary(workload: str, out: Outcome):
    """(ops per second, latency samples in seconds) of the workload: levels
    and levels, sweep rows and crossing searches, invocations and invocations.
    Both are means over the run, which stay steady when the host switches
    between fast and slow spells; a median jumps between them."""
    if workload == "oracle-verify":
        levels = out.times.get("level", [])
        return len(levels) / sum(levels), levels
    if workload == "closed-form-scan":
        return out.rows / sum(out.times["sweep"]), out.times["crossing"]
    calls = out.times.get("invocation", [])
    return len(calls) / sum(calls), calls


# ---------------------------------------------------------------------------
# Calibration pass of a traced run
# ---------------------------------------------------------------------------


def calibrate(seed: int) -> list:
    """A short fixed pass that reaches every traced layer: one oracle level,
    one small sweep and one cold table per model, and one in-process
    `pdmag` call per subcommand. Traced runs append it so that every
    per-layer metric has samples on every workload. Only the spans count:
    results are not checked, and a raising call still leaves its span.
    Returns the relative errors of its oracle levels."""
    rel_errs = []
    for i, kind in enumerate(inputs.KINDS):
        level = inputs.draw_level(np.random.default_rng([seed % 2**64, 99, i]), kind)
        table = {"kind": kind, "state": level[1], "params": level[2],
                 "form": "xi" if kind == "C" else None}
        sweep = dict(inputs.sweep_task(seed, i), steps=50, param="mu", lo=0.5, hi=1.5)
        with contextlib.suppress(Exception):
            rel_errs += [rel_err(row) for row in verify_level(level)[0]]
        with contextlib.suppress(Exception):
            run_sweep(sweep)
        with contextlib.suppress(Exception):
            run_table(table)
    for args in next(inputs.cli_rounds(seed + 7919)):
        run_cli_in_process(args)
    return rel_errs
