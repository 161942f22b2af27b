#!/usr/bin/env python3
"""Grid-refinement study of the numerical oracle against the closed forms.

Shows the relative error of the oracle level as n_points doubles, next
to the oracle's own estimate of it, for one representative state of each
model. n_points is the finest grid of a settled level: the oracle's
ladder solves n/4, n/2 and n cells and stops once their fit is settled
to 1e-6, with the fit's |R23 - R12| as its estimate. Otherwise it also
solves 2n cells and takes the fit of n/2, n and 2n or the Richardson
value of n and 2n, whichever estimate (|R23 - R12| or |E_2n - E_n|/3) is
smaller. Useful when picking n_points for a verification run at a
tolerance other than the default.
"""

import argparse
import time

from pdmag.models import ModelKind, energy
from pdmag.oracle import oracle_energy
from pdmag.params import PhysicalParams, QuantumState

CASES = (
    (ModelKind.A, QuantumState(1, 1), PhysicalParams(beta=0.5, kz=1.0), "exact"),
    (ModelKind.B, QuantumState(0, 2), PhysicalParams(), "exact"),
    (ModelKind.C, QuantumState(0, 1), PhysicalParams(mu=0.15, delta=0.1), "ga"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-points", type=int, default=16000)
    args = parser.parse_args()

    for kind, state, params, target in CASES:
        closed = energy(kind, state, params)
        print(f"# model {kind.value}, state (n_rho={state.n_rho}, m={state.m}), "
              f"closed form E = {closed:.12g}")
        print(f"{'n_points':>9} {'E_oracle':>20} {'rel_err':>10} {'rel_est':>10} {'seconds':>8}")
        n = 1000
        while n <= args.max_points:
            t0 = time.perf_counter()
            got, err = oracle_energy(kind, state, params, n_points=n, target=target)
            dt = time.perf_counter() - t0
            scale = max(1.0, abs(closed))
            rel = abs(got - closed) / scale
            print(f"{n:>9} {got:>20.12g} {rel:>10.2e} {err / scale:>10.2e} {dt:>8.2f}")
            n *= 2
        print()


if __name__ == "__main__":
    main()
