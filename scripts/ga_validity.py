#!/usr/bin/env python3
"""Map where the exponential surrogate for 1/rho is trustworthy.

Two views: the pointwise relative error of the substitution itself as a
function of delta*rho, and the induced energy error, measured by solving
the true exponential-mass problem and the substituted one with the same
numerical oracle and comparing levels.
"""

import argparse

import numpy as np

from pdmag.models import ModelKind, energy, greene_aldrich
from pdmag.oracle import oracle_energy
from pdmag.params import PhysicalParams, QuantumState


def pointwise_table(delta: float) -> None:
    print(f"# pointwise surrogate error at delta = {delta:g}")
    print(f"{'delta*rho':>10} {'rel_err':>12}")
    for x in (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0):
        out = greene_aldrich(x / delta, delta)
        print(f"{x:>10g} {out.rel_err:>12.4e}")


def energy_table(state: QuantumState, deltas) -> None:
    base = PhysicalParams(mu=0.15)
    print("# induced level error, weak-field parameters, state "
          f"(n_rho={state.n_rho}, m={state.m})")
    print(f"{'delta':>7} {'E_closed':>14} {'E_exact_eq':>14} {'rel_gap':>10}")
    for delta in deltas:
        params = base.replace(delta=float(delta))
        closed = energy(ModelKind.C, state, params)
        exact = oracle_energy(ModelKind.C, state, params, target="exact").energy
        rel = abs(closed - exact) / max(1.0, abs(exact))
        print(f"{delta:>7g} {closed:>14.8f} {exact:>14.8f} {rel:>10.2e}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delta", type=float, default=0.1, help="pointwise-table decay rate")
    parser.add_argument("--state", default="0,1", help="'n_rho,m' for the energy table")
    args = parser.parse_args()
    n_rho, m = (int(part) for part in args.state.split(","))

    pointwise_table(args.delta)
    print()
    energy_table(QuantumState(n_rho, m), (0.01, 0.02, 0.05, 0.1, 0.2))


if __name__ == "__main__":
    main()
