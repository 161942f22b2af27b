"""Each input rule of the reduced radial equation has one owner, whose
message every public entry that takes the input raises: sigma = 1
(models.reduced_equation and the level kernels' Invalid.SIGMA), rho > 0
(fields._positive, for the wavefunctions, the field functions, the
Greene-Aldrich surrogate and the radial potential W of
ReducedEquation.potential), the sweepable names (models._check_sweepable)
and the Greene-Aldrich surrogate's delta > 0 (models._check_ga_delta)."""

from pathlib import Path

import numpy as np
import pytest

from pdmag.cli import run
from pdmag.errors import DomainError
from pdmag.fields import magnetic_field, shape_function, vector_potential
from pdmag.models import (
    Invalid,
    ModelKind,
    energy,
    greene_aldrich,
    level_axis,
    reason_text,
    reduced_equation,
    wavefunction,
)
from pdmag.oracle import oracle_energy, verify_states
from pdmag.params import PhysicalParams, QuantumState
from pdmag.sweeps import SweepSpec, find_crossings

SIGMA = "closed-form models require sigma = 1, got 2.0"
RHO = "rho must be positive: the formulas are singular at the axis rho = 0"
NAME = "cannot sweep 'eta'; choose one of beta, b0, alpha_ab, mu, delta"
GA_DELTA = "Greene-Aldrich target requires delta > 0"

STATE = QuantumState(0, 1)
PARAMS = PhysicalParams(delta=0.1)


def raised(call) -> str:
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("entry", [
    lambda p: energy(ModelKind.A, STATE, p),
    lambda p: reduced_equation(ModelKind.C, STATE, p, "ga"),
    lambda p: oracle_energy(ModelKind.A, STATE, p),
    lambda p: verify_states(ModelKind.A, [STATE], p),
], ids=["energy", "reduced_equation", "oracle_energy", "verify_states"])
def test_sigma_other_than_one_has_one_message(entry):
    assert raised(lambda: entry(PARAMS.replace(sigma=2.0))) == SIGMA


def test_sigma_on_a_parameter_axis_is_the_same_rule():
    # a parameter axis records the rule per point instead of raising, with
    # the value-free text of the same table entry
    _, reason = level_axis(ModelKind.A, [STATE], PARAMS.replace(sigma=2.0), "mu", [0.5, 1.0])
    assert (reason == Invalid.SIGMA).all()
    assert SIGMA.startswith(reason_text(Invalid.SIGMA, "mu") + ", got")


@pytest.mark.parametrize("entry", [
    lambda rho: wavefunction(ModelKind.A, STATE, PARAMS, rho),
    lambda rho: wavefunction(ModelKind.C, STATE, PARAMS, rho, component="U"),
    lambda rho: shape_function(rho, PARAMS),
    lambda rho: magnetic_field(rho, PARAMS),
    lambda rho: vector_potential(rho, PARAMS),
    lambda rho: reduced_equation(ModelKind.A, STATE, PARAMS).potential(rho, 0.3),
    lambda rho: reduced_equation(ModelKind.C, STATE, PARAMS, "ga").potential(rho, 0.3),
    lambda rho: greene_aldrich(rho, 1.0),
], ids=["wavefunction-A", "wavefunction-C", "shape_function", "magnetic_field",
        "vector_potential", "radial_potential", "radial_potential-ga", "greene_aldrich"])
@pytest.mark.parametrize("rho", [0.0, -1.0, np.array([1.0, 0.0])], ids=["0", "-1", "array"])
def test_non_positive_rho_has_one_message(entry, rho):
    assert raised(lambda: entry(rho)) == RHO


@pytest.mark.parametrize("entry", [
    lambda: SweepSpec(kind=ModelKind.A, states=(STATE,), param_name="eta", lo=0.5, hi=1.0,
                      steps=3),
    lambda: find_crossings(ModelKind.A, STATE, QuantumState(1, 0), "eta", (0.5, 1.0), PARAMS),
    lambda: level_axis(ModelKind.A, [STATE], PARAMS, "eta", [1.0]),
], ids=["SweepSpec", "find_crossings", "level_axis"])
def test_unknown_axis_has_one_message(entry):
    assert raised(entry) == NAME


@pytest.mark.parametrize("rho, delta", [(1.0, 0.0), (1.0, -0.5),
                                        (np.ones(2), np.array([1.0, 0.0]))],
                         ids=["0", "negative", "array"])
def test_greene_aldrich_delta_has_one_message(rho, delta):
    assert raised(lambda: greene_aldrich(rho, delta)) == GA_DELTA


def test_greene_aldrich_target_raises_the_same_message():
    # the 'ga' reduced equation uses the same surrogate, so the same rule
    # (PhysicalParams itself rejects a negative delta)
    p = PARAMS.replace(delta=0.0)
    assert raised(lambda: reduced_equation(ModelKind.C, STATE, p, "ga")) == GA_DELTA
    assert raised(lambda: oracle_energy(ModelKind.C, STATE, p, target="ga")) == GA_DELTA


def test_greene_aldrich_command_raises_the_owners_message(capsys):
    assert run(["greene-aldrich", "--delta", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == f"error: {GA_DELTA}"


@pytest.mark.parametrize("message",
                         ["closed-form models require sigma = 1", RHO, "cannot sweep", GA_DELTA])
def test_each_message_is_written_once(message):
    # one owner per rule: no copy of its check, and so of its text, elsewhere
    # in the package (the sigma text is Invalid.SIGMA's, which _raise_invalid raises
    # and a sweep row carries)
    src = Path(__file__).resolve().parent.parent / "src" / "pdmag"
    source = "\n".join(path.read_text(encoding="utf-8") for path in src.glob("*.py"))
    assert source.count(message) == 1
