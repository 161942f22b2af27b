"""Model C's printed formula, the paper's 'paper' form, as a test-side
reference for what README says about it.

The paper's Nikiforov-Uvarov route prints R = N rho^((upsilon-1)/2)
e^(-delta rho (1+kappa)/2) P_n^(kappa,upsilon)(1 - 2 e^(-delta rho)), whose
reduced function U is delta^p rho^p e^(-delta kappa rho/2) P_n with
p = (1 + upsilon)/2 (`wavefunction(..., form="paper")`). It solves neither
the exact nor the Greene-Aldrich equation, so the library's `curvature`
builds no U'' for it; this module does, for README's form table and the
lobes node counts. It imports nothing from pdmag.oracle.
"""

import numpy as np

from pdmag.models import _CLOSED_FORMS, ModelKind
from pdmag.specfun import normalize


def curvature(state, params):
    """(rho, U, U'') of the unit-norm 'paper' form of model C, with U''
    exact, on the 2 n_rho + 16 Gauss nodes of its Jacobi family mapped to
    rho (the nodes of the library's `curvature` for the same state)."""
    closed = _CLOSED_FORMS[ModelKind.C](state, params, "paper")
    _, n, kappa, upsilon, _ = closed.norm
    d, p = params.delta, 0.5 * (1.0 + upsilon)

    def slopes(rho):  # (ln A)', its derivative, t' and t'' of A = (d rho)^p e^(-d kappa rho/2)
        xi = np.exp(-d * rho)
        return p / rho - d * kappa / 2.0, -p / rho**2, 2.0 * d * xi, -2.0 * d * d * xi

    scale = normalize(*closed.norm)
    rho = closed.nodes(2 * n + 16)
    u, upp = closed._replace(slopes=slopes).curvature(rho)
    return rho, scale * u, scale * upp
