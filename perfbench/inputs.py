"""Seeded inputs for the three workloads, as plain data.

Nothing here imports pdmag: the program under test only ever sees the
values these generators produce. Every stream is an endless,
deterministic function of the seed: item ``k`` of a stream is drawn from
its own ``numpy`` generator keyed by ``(seed, stream, k)``, so a run that
measures longer only appends items and never changes earlier ones.

A level or table is ``(kind, (n_rho, m), params)`` with ``kind`` one of
"A", "B", "C" and ``params`` a dict of PhysicalParams field values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

KINDS = ("A", "B", "C")

_ORACLE, _SCAN, _CLI, _WARMUP, _ORDER = 1, 2, 3, 4, 5

# Draw space of the acceptance protocol, widened to continuous ranges.
_SHARED = {"beta": (-5.0, 1.0), "kz": (0.0, 1.0), "alpha_ab": (-0.5, 0.5), "eta": (0.5, 1.5)}
_MU_AB = (0.5, 2.0)
_MU_C = (0.1, 0.5)
_DELTA_C = (0.02, 0.3)

# Known oracle defects (truncated domain at rho_max = 25/sqrt(-Et)); they
# stay in the stream on purpose, one each per 50 levels.
KNOWN_DEFECTS = {
    17: ("A", (3, 3), {"mu": 1.730, "beta": -4.685, "kz": 0.589, "alpha_ab": -0.268, "eta": 1.085}),
    42: ("C", (3, 3), {"mu": 0.15, "delta": 0.05}),
}

# README "Documented crossing ranges": kind, s1, s2, param, range,
# base overrides, documented location, tolerance of the printed digits.
ATLAS = (
    ("A", (2, 1), (1, 0), "beta", (-3.0, 3.0), {}, 1.0, 1e-6),
    ("A", (1, 0), (0, 2), "b0", (0.0, 2.0), {"kz": 1.0}, 0.4143, 5e-5),
    ("A", (2, 1), (1, 0), "alpha_ab", (-1.0, 1.5), {}, 0.5, 1e-6),
    ("A", (1, 0), (0, 2), "mu", (0.1, 1.0), {"kz": 1.0}, 0.4143, 5e-5),
    ("B", (0, 1), (1, 0), "beta", (-6.0, -3.5), {"mu": 2.0, "kz": 1.0}, -4.456, 5e-4),
    ("B", (0, 1), (1, 0), "b0", (1.8, 4.0), {"beta": -2.0, "kz": 1.0}, 2.130, 5e-4),
    ("B", (0, 1), (1, 0), "alpha_ab", (-2.5, -0.8), {"b0": 2.0, "beta": -1.0, "kz": 1.0}, -1.228, 5e-4),
    ("B", (0, 1), (1, 0), "mu", (0.8, 2.5), {"beta": -6.0, "kz": 1.0}, 1.498, 5e-4),
    ("C", (0, 1), (1, 0), "delta", (0.01, 0.5), {"mu": 0.15}, 0.4373, 5e-5),
)

SWEEP_RANGES = {
    "beta": (-6.0, 3.0),
    "b0": (0.0, 4.0),
    "alpha_ab": (-2.5, 1.5),
    "mu": (0.1, 2.5),
    "delta": (0.01, 0.5),
}
SWEEP_STEPS = 1000
TABLES_PER_BLOCK = 2
RHO_GRID = (0.05, 30.0, 601)

CLI_COMMANDS = ("spectrum", "wavefunction", "field", "sweep", "crossings", "verify", "greene-aldrich")


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream, index])


def _u(rng, lo_hi) -> float:
    return float(rng.uniform(*lo_hi))


def b_bound(n_rho: int, m: int, params: dict) -> bool:
    """Whether model B has a level for this state: beta_acute/(2 s) - n - 1/2 > 0
    (README model b; e = b0 = 1 unless overridden)."""
    e, b0 = params.get("e", 1.0), params.get("b0", 1.0)
    mu, beta = params.get("mu", 1.0), params.get("beta", 0.0)
    mt = m - params.get("alpha_ab", 0.0)
    s = math.sqrt(params.get("kz", 0.0) ** 2 + (e * b0 * mu) ** 2)
    beta_acute = 2.0 * e * mt * b0 * mu - e**2 * b0**2 * mu * beta
    return beta_acute / (2.0 * s) - n_rho - 0.5 > 0.0


def draw_level(rng, kind: str):
    """One bound (state, params) of the given model from the protocol draw space."""
    while True:
        state = (int(rng.integers(0, 4)), int(rng.integers(-3, 4)))
        params = {name: _u(rng, span) for name, span in _SHARED.items()}
        if kind == "C":
            params["mu"] = _u(rng, _MU_C)
            params["delta"] = _u(rng, _DELTA_C)
        else:
            params["mu"] = _u(rng, _MU_AB)
        if kind != "B" or b_bound(*state, params):
            return kind, state, params


def oracle_levels(seed: int):
    """oracle-verify: levels cycling A, B, C, with the known defects every 50."""
    for k in itertools.count():
        if k % 50 in KNOWN_DEFECTS:
            yield KNOWN_DEFECTS[k % 50]
        else:
            yield draw_level(_rng(seed, _ORACLE, k), KINDS[k % 3])


def _jittered_crossing(rng, entry):
    kind, s1, s2, param, (lo, hi), overrides, _, _ = entry
    base = {name: value * (1.0 + _u(rng, (-0.05, 0.05))) for name, value in overrides.items()}
    width = hi - lo
    lo -= width * _u(rng, (0.0, 0.2))
    hi += width * _u(rng, (0.0, 0.2))
    floor = {"b0": 0.0, "mu": 0.05, "delta": 0.005}.get(param)
    if floor is not None:
        lo = max(lo, floor)
    if rng.random() < 0.5:
        s1, s2 = s2, s1
    return {"kind": kind, "s1": s1, "s2": s2, "param": param, "range": (lo, hi), "params": base,
            "expect": None}


def crossing_task(seed: int, b: int):
    """Crossing search of block b: every fourth is a README atlas entry as
    documented, the rest are atlas entries with jittered parameters and ranges."""
    if b % 4 == 0:
        kind, s1, s2, param, prange, base, where, tol = ATLAS[(b // 4) % len(ATLAS)]
        return {"kind": kind, "s1": s1, "s2": s2, "param": param, "range": prange,
                "params": dict(base), "expect": (where, tol)}
    return _jittered_crossing(_rng(seed, _SCAN, 3 * b + 1), ATLAS[b % len(ATLAS)])


def sweep_task(seed: int, b: int):
    rng = _rng(seed, _SCAN, 3 * b)
    kind = KINDS[b % 3]
    _, _, params = draw_level(rng, kind)
    states = []
    while len(states) < 2:
        state = (int(rng.integers(0, 4)), int(rng.integers(-3, 4)))
        if state not in states:
            states.append(state)
    names = ("beta", "b0", "alpha_ab", "mu") + (("delta",) if kind == "C" else ())
    param = names[int(rng.integers(0, len(names)))]
    span_lo, span_hi = SWEEP_RANGES[param]
    width = (span_hi - span_lo) * _u(rng, (0.1, 1.0))
    lo = span_lo + (span_hi - span_lo - width) * rng.random()
    return {"kind": kind, "states": tuple(states), "param": param, "lo": lo, "hi": lo + width,
            "steps": SWEEP_STEPS, "params": params}


def table_tasks(seed: int, b: int):
    rng = _rng(seed, _SCAN, 3 * b + 2)
    out = []
    for i in range(TABLES_PER_BLOCK):
        kind, state, params = draw_level(rng, KINDS[(TABLES_PER_BLOCK * b + i) % 3])
        form = ("paper", "xi")[int(rng.integers(0, 2))] if kind == "C" else None
        out.append({"kind": kind, "state": state, "params": params, "form": form})
    return out


def scan_blocks(seed: int):
    """closed-form-scan: blocks of one sweep grid, one crossing search and
    TABLES_PER_BLOCK cold wavefunction tables, in a seeded order."""
    for b in itertools.count():
        tasks = [("sweep", sweep_task(seed, b)), ("crossing", crossing_task(seed, b))]
        tasks += [("table", t) for t in table_tasks(seed, b)]
        order = _rng(seed, _ORDER, b).permutation(len(tasks))
        yield [tasks[i] for i in order]


def _fmt(x: float) -> str:
    return repr(float(x))


def _param_flags(params: dict) -> list[str]:
    flag = {"alpha_ab": "alpha"}
    out = []
    for name in sorted(params):
        out += [f"--{flag.get(name, name)}", _fmt(params[name])]
    return out


def _cli_argv(rng, command: str) -> list[str]:
    if command == "spectrum":
        kind = KINDS[int(rng.integers(0, 3))]
        _, _, params = draw_level(rng, kind)
        return ["spectrum", "--model", kind.lower(), "--nrho-max", str(int(rng.integers(0, 4))),
                "--m-min", str(int(rng.integers(-3, 1))), "--m-max", str(int(rng.integers(0, 4)))
                ] + _param_flags(params)
    if command == "wavefunction":
        kind, state, params = draw_level(rng, KINDS[int(rng.integers(0, 3))])
        argv = ["wavefunction", "--model", kind.lower(), "--state", f"{state[0]},{state[1]}"]
        if kind == "C":
            argv += ["--form", ("paper", "xi")[int(rng.integers(0, 2))]]
        return argv + _param_flags(params)
    if command == "field":
        params = {"sigma": (0.0, 0.5, 1.0, 1.5, 3.0)[int(rng.integers(0, 5))],
                  "mu": _u(rng, (0.1, 2.0)), "beta": _u(rng, (-2.0, 2.0)), "b0": _u(rng, (0.1, 2.0))}
        return ["field"] + _param_flags(params)
    if command == "sweep":
        task = sweep_task(int(rng.integers(0, 2**31)), int(rng.integers(0, 3)))
        argv = ["sweep", "--model", task["kind"].lower()]
        for n_rho, m in task["states"]:
            argv += ["--state", f"{n_rho},{m}"]
        swept = dict(task["params"])
        swept.pop(task["param"], None)
        return argv + ["--param", task["param"], "--lo", _fmt(task["lo"]), "--hi", _fmt(task["hi"]),
                       "--steps", str(int(rng.integers(41, 201)))] + _param_flags(swept)
    if command == "crossings":
        task = _jittered_crossing(rng, ATLAS[int(rng.integers(0, len(ATLAS)))])
        return ["crossings", "--model", task["kind"].lower(),
                "--s1", "%d,%d" % task["s1"], "--s2", "%d,%d" % task["s2"], "--param", task["param"],
                "--lo", _fmt(task["range"][0]), "--hi", _fmt(task["range"][1])
                ] + _param_flags(task["params"])
    if command == "verify":
        # One state, n_rho = 0: bound whenever the drawn (n_rho, m) is.
        kind, (_, m), params = draw_level(rng, KINDS[int(rng.integers(0, 3))])
        return ["verify", "--model", kind.lower(), "--nrho-max", "0", "--m-min", str(m),
                "--m-max", str(m)] + _param_flags(params)
    if command == "greene-aldrich":
        return ["greene-aldrich", "--delta", _fmt(_u(rng, (0.1, 2.0)))]
    raise ValueError(f"unknown command {command!r}")


def cli_rounds(seed: int):
    """cli-cold: rounds of all seven subcommands, each round in a seeded order."""
    for r in itertools.count():
        rng = _rng(seed, _CLI, r)
        yield [_cli_argv(rng, CLI_COMMANDS[i]) for i in rng.permutation(len(CLI_COMMANDS))]


def warmup_level(seed: int):
    return draw_level(_rng(seed, _WARMUP, 0), "A")
