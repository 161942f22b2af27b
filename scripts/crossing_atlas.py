#!/usr/bin/env python3
"""Tabulate the documented level crossings for all sweepable parameters.

For each entry the scan range is the documented one from the README; the
script prints each reported crossing with its residual degeneracy gap
(the closed-form |E1 - E2| there), so the table doubles as a check that
detection is not returning spurious points. The oracle column is
where the independent oracle's levels cross (oracle_crossing), less the
closed-form crossing, against the bound that the oracle's own error
estimates set on it.

Model C's closed form solves the Greene-Aldrich equation (target 'ga'),
not the stated Hamiltonian with every 1/rho kept (target 'exact'). For
each model C entry a second table (target_view) gives the oracle's gap
E1 - E2 under both targets at nine points of the range, each with the
summed error estimates of its two levels, and where the 'exact' gap
changes sign: on the README's entry it never does.
"""

import argparse

from pdmag.models import ModelKind
from pdmag.oracle import oracle_energy
from pdmag.params import PhysicalParams, QuantumState
from pdmag.sweeps import find_crossings

ATLAS = (
    # kind, s1, s2, param, (lo, hi), base parameter overrides
    (ModelKind.A, (2, 1), (1, 0), "beta", (-3.0, 3.0), {}),
    (ModelKind.A, (1, 0), (0, 2), "b0", (0.0, 2.0), {"kz": 1.0}),
    (ModelKind.A, (2, 1), (1, 0), "alpha_ab", (-1.0, 1.5), {}),
    (ModelKind.A, (1, 0), (0, 2), "mu", (0.1, 1.0), {"kz": 1.0}),
    (ModelKind.B, (0, 1), (1, 0), "beta", (-6.0, -3.5), {"mu": 2.0, "kz": 1.0}),
    (ModelKind.B, (0, 1), (1, 0), "b0", (1.8, 4.0), {"beta": -2.0, "kz": 1.0}),
    (ModelKind.B, (0, 1), (1, 0), "alpha_ab", (-2.5, -0.8), {"b0": 2.0, "beta": -1.0, "kz": 1.0}),
    (ModelKind.B, (0, 1), (1, 0), "mu", (0.8, 2.5), {"beta": -6.0, "kz": 1.0}),
    (ModelKind.C, (0, 1), (1, 0), "delta", (0.01, 0.5), {"mu": 0.15}),
)


def oracle_gap(kind, state1, state2, name, base, target):
    """p -> (E1 - E2, summed error estimates) of the oracle's two levels at
    target, with name set to p."""

    def gap(p):
        at = base.replace(**{name: p})
        one, two = (oracle_energy(kind, s, at, target=target) for s in (state1, state2))
        return one.energy - two.energy, one.error + two.error

    return gap


def bisect(gap, lo, hi, g_lo):
    """Where gap changes sign on [lo, hi], with g_lo = gap(lo)[0], to a width of 1e-12."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)[0]
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_crossing(kind, state1, state2, name, base, p_c):
    """Where the oracle's E1 - E2 changes sign near the closed-form crossing
    p_c: bisected from p_c -+ 1e-3 max(1, |p_c|) to a width of 1e-12.
    Returns (p, err, slope): the oracle crossing, the summed error
    estimates of its two levels there and the secant slope of E1 - E2 over
    the first bracket, so p lies within err/|slope| of the true crossing.
    Model C reads the Greene-Aldrich equation that its closed form solves.
    """
    gap = oracle_gap(kind, state1, state2, name, base, "ga" if kind is ModelKind.C else "exact")
    half = 1e-3 * max(1.0, abs(p_c))
    lo, hi = p_c - half, p_c + half
    g_lo, g_hi = gap(lo)[0], gap(hi)[0]
    if not g_lo * g_hi < 0:
        raise ValueError(f"the oracle's levels do not cross on [{lo}, {hi}]")
    p = bisect(gap, lo, hi, g_lo)
    return p, gap(p)[1], (g_hi - g_lo) / (hi - lo)


def target_view(state1, state2, name, prange, base, points=9):
    """Print model C's oracle gap E1 - E2 under 'ga' and 'exact' at `points`
    values of name across prange, each with its summed error estimate, and
    the 'exact' crossing: bisected in the first sampled bracket whose gaps
    differ in sign, or 'none' where every sampled gap has one sign."""
    gaps = {t: oracle_gap(ModelKind.C, state1, state2, name, base, t) for t in ("ga", "exact")}
    lo, hi = prange
    values = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    print(f"{name:>9} {'gap ga':>12} {'err':>8} {'gap exact':>12} {'err':>8}")
    exact = []
    for value in values:
        (g_ga, e_ga), (g_ex, e_ex) = gaps["ga"](value), gaps["exact"](value)
        exact.append(g_ex)
        print(f"{value:>9.4g} {g_ga:>+12.6f} {e_ga:>8.1e} {g_ex:>+12.6f} {e_ex:>8.1e}")
    brackets = [i for i in range(points - 1) if (exact[i] < 0) != (exact[i + 1] < 0)]
    if brackets:
        i = brackets[0]
        crossing = f"{bisect(gaps['exact'], values[i], values[i + 1], exact[i]):.15g}"
    else:
        crossing = f"none (one sign at all {points} points)"
    print(f"exact crossing: {crossing}")


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    print(f"{'model':5} {'pair':12} {'param':9} {'range':16} {'crossing':>22} {'E':>22} {'|gap|':>9} "
          f"{'oracle-crossing':>15} {'bound':>8}")
    for kind, s1, s2, name, prange, overrides in ATLAS:
        state1, state2 = QuantumState(*s1), QuantumState(*s2)
        base = PhysicalParams(**overrides)
        points = find_crossings(kind, state1, state2, name, prange, base)
        pair = f"{s1}-{s2}".replace(" ", "")
        span = f"[{prange[0]:g}, {prange[1]:g}]"
        if not points:
            print(f"{kind.value:5} {pair:12} {name:9} {span:16} {'none found':>22}")
            continue
        for point in points:
            p, err, slope = oracle_crossing(kind, state1, state2, name, base, point.param_value)
            print(
                f"{kind.value:5} {pair:12} {name:9} {span:16} "
                f"{point.param_value:>22.15g} {point.energy:>22.15g} {point.gap:>9.1e} "
                f"{p - point.param_value:>15.1e} {err / abs(slope):>8.1e}"
            )
    for kind, s1, s2, name, prange, overrides in ATLAS:
        if kind is ModelKind.C:
            print(f"\nC {s1}-{s2} under the surrogate ('ga') and the stated Hamiltonian ('exact'):")
            target_view(QuantumState(*s1), QuantumState(*s2), name, prange,
                        PhysicalParams(**overrides))


if __name__ == "__main__":
    main()
