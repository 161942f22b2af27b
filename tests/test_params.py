"""Parameter container, quantum numbers, derived scalars, config parsing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmag.errors import DomainError
from pdmag.params import (
    PhysicalParams,
    QuantumState,
    e_tilde,
    load_config,
    m_tilde,
    params_from_mapping,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestPhysicalParams:
    def test_defaults_are_the_unit_scenario(self):
        p = PhysicalParams()
        assert (p.e, p.b0, p.mu, p.beta) == (1.0, 1.0, 1.0, 0.0)
        assert (p.sigma, p.alpha_ab, p.kz, p.eta) == (1.0, 0.0, 0.0, 1.0)
        assert (p.delta, p.v0, p.v1, p.v2) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, -1e-12])
    def test_eta_must_be_positive(self, eta):
        with pytest.raises(DomainError, match="eta"):
            PhysicalParams(eta=eta)

    def test_delta_negative_rejected(self):
        with pytest.raises(DomainError, match="delta"):
            PhysicalParams(delta=-0.1)

    def test_b0_negative_rejected(self):
        with pytest.raises(DomainError, match="b0"):
            PhysicalParams(b0=-2.0)

    @pytest.mark.parametrize("name", ["b0", "mu", "delta", "v0", "v1", "v2", "eta", "kz"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            PhysicalParams(**{name: value})

    def test_frozen(self):
        with pytest.raises(Exception):
            PhysicalParams().e = 2.0  # type: ignore[misc]

    def test_replace_leaves_original_alone(self):
        p = PhysicalParams()
        q = p.replace(beta=0.5, kz=1.0)
        assert (q.beta, q.kz) == (0.5, 1.0)
        assert (p.beta, p.kz) == (0.0, 0.0)

    def test_radial_scale_flag(self):
        # the Coulomb-like closed forms need a radial scale, s^2 > 0
        assert PhysicalParams().s_squared > 0
        assert PhysicalParams(b0=0.0, kz=2.0).s_squared > 0
        assert not PhysicalParams(b0=0.0, kz=0.0).s_squared > 0
        assert not PhysicalParams(mu=0.0, kz=0.0).s_squared > 0

    def test_decay_rate_is_sqrt_of_s_squared(self):
        p = PhysicalParams(e=2.0, b0=1.0, mu=0.5, kz=1.0)
        assert p.s_squared == pytest.approx(2.0, abs=0)
        assert p.decay_rate == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_s_squared_overflows_to_inf_not_an_exception(self):
        # written with products, so a square beyond the largest double is
        # inf (the closed forms then report a non-finite level)
        assert PhysicalParams(mu=1e200).s_squared == math.inf
        assert PhysicalParams(kz=1e200, b0=0.0).decay_rate == math.inf


class TestQuantumState:
    def test_holds_quantum_numbers(self):
        s = QuantumState(2, -3)
        assert (s.n_rho, s.m) == (2, -3)

    def test_negative_n_rho_rejected(self):
        with pytest.raises(DomainError, match="n_rho"):
            QuantumState(-1, 0)

    @pytest.mark.parametrize("bad", [0.5, "1", None, True])
    def test_non_integer_quantum_numbers_rejected(self, bad):
        with pytest.raises(DomainError):
            QuantumState(bad, 0)
        with pytest.raises(DomainError):
            QuantumState(0, bad)

    def test_states_are_orderable_and_hashable(self):
        assert QuantumState(0, 1) < QuantumState(1, 0)
        assert len({QuantumState(0, 1), QuantumState(0, 1)}) == 1


class TestMTilde:
    @pytest.mark.parametrize(
        "m, alpha, expected",
        [(0, 0.0, 0.0), (3, 0.5, 2.5), (-1, -0.25, -0.75)],
    )
    def test_values(self, m, alpha, expected):
        state = QuantumState(0, m)
        params = PhysicalParams(alpha_ab=alpha)
        assert m_tilde(state, params) == expected

    @given(m=st.integers(-20, 20), k=st.integers(-5, 5))
    def test_integer_flux_keeps_m_tilde_integer(self, m, k):
        value = m_tilde(QuantumState(0, m), PhysicalParams(alpha_ab=float(k)))
        assert value == int(value)

    @given(m=st.integers(-20, 20), k=st.integers(-5, 5))
    def test_fractional_flux_makes_m_tilde_fractional(self, m, k):
        value = m_tilde(QuantumState(0, m), PhysicalParams(alpha_ab=k + 0.5))
        assert value != int(value)


class TestETilde:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(e=1.0, b0=1.0, mu=1.0, kz=0.0), -1.0),
            (dict(e=1.0, b0=0.0, mu=1.0, kz=2.0), -4.0),
            (dict(e=2.0, b0=1.0, mu=0.5, kz=1.0), -2.0),
        ],
    )
    def test_values(self, kwargs, expected):
        assert e_tilde(PhysicalParams(**kwargs)) == expected

    @given(e=finite, b0=finite.map(abs), mu=finite, kz=finite)
    def test_never_positive(self, e, b0, mu, kz):
        assert e_tilde(PhysicalParams(e=e, b0=b0, mu=mu, kz=kz)) <= 0.0


class TestConfig:
    def test_load_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a scenario\n"
            "\n"
            "e = 2.0\n"
            "b0=1.5\n"
            "kz = 1\n"
        )
        values = load_config(cfg)
        assert values == {"e": 2.0, "b0": 1.5, "kz": 1.0}
        params = params_from_mapping(values)
        assert (params.e, params.b0, params.kz) == (2.0, 1.5, 1.0)
        # untouched fields keep their defaults
        assert params.mu == 1.0

    def test_error_carries_path_and_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("e = 1.0\nnot a pair\n")
        with pytest.raises(DomainError, match=r"bad\.cfg:2"):
            load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zeta = 1.0\n")
        with pytest.raises(DomainError, match="zeta"):
            load_config(cfg)

    def test_non_numeric_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("e = much\n")
        with pytest.raises(DomainError, match="much"):
            load_config(cfg)

    def test_mapping_with_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown"):
            params_from_mapping({"e": 1.0, "charge": 2.0})
