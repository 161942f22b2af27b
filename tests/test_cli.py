"""End-to-end checks of the command-line front end (via cli.run)."""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import readme_doc
from pdmag.cli import run
from pdmag.models import ModelKind, energy
from pdmag.params import PhysicalParams, QuantumState


def lines_of(text):
    return [ln for ln in text.splitlines() if ln]


class TestSpectrum:
    def test_default_grid_of_states(self, capsys):
        assert run(["spectrum", "--model", "a"]) == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "n_rho,m,E"
        assert len(out) == 1 + 3 * 5  # n_rho 0..2, m -2..2
        assert "0,0,1.5" in out

    def test_values_round_trip_at_full_precision(self, capsys):
        run(["spectrum", "--model", "a", "--beta", "0.37", "--kz", "0.9"])
        params = PhysicalParams(beta=0.37, kz=0.9)
        for row in lines_of(capsys.readouterr().out)[1:]:
            n, m, e_text = row.split(",")
            expected = energy(ModelKind.A, QuantumState(int(n), int(m)), params)
            assert float(e_text) == expected

    def test_byte_identical_reruns(self, capsys):
        run(["spectrum", "--model", "c", "--delta", "0.1", "--mu", "0.15"])
        first = capsys.readouterr().out
        run(["spectrum", "--model", "c", "--delta", "0.1", "--mu", "0.15"])
        assert capsys.readouterr().out == first

    def test_unbound_states_are_skipped_with_a_note(self, capsys):
        assert run(["spectrum", "--model", "b"]) == 0
        captured = capsys.readouterr()
        assert "# skipped" in captured.err
        body = lines_of(captured.out)[1:]
        assert body  # the bound ones are still there
        assert all(int(row.split(",")[1]) != 0 for row in body)

    def test_integer_cells_are_printed_in_full(self, capsys):
        # m = 10^17 + 1 has 18 digits: through %.17g it would print as 1e+17
        m = str(10**17 + 1)
        assert run(["spectrum", "--model", "a", "--nrho-max", "0", "--m-min", m, "--m-max", m]) == 0
        (row,) = lines_of(capsys.readouterr().out)[1:]
        assert row.split(",")[:2] == ["0", m]

    def test_params_echoed_to_stderr(self, capsys):
        run(["spectrum", "--model", "a", "--kz", "2.0"])
        err = capsys.readouterr().err
        assert "# params:" in err and "kz=2" in err

    @pytest.mark.parametrize("model, flag", [("a", "--v1"), ("b", "--v2"), ("a", "--v0")])
    def test_models_without_a_potential_skip_every_state(self, model, flag, capsys):
        # models A and B are the V = 0 models: a confining potential is not
        # silently dropped
        assert run(["spectrum", "--model", model, flag, "0.5", "--nrho-max", "0"]) == 0
        captured = capsys.readouterr()
        assert lines_of(captured.out) == ["n_rho,m,E"]
        assert captured.err.count("need v0 = v1 = v2 = 0") == 5
        assert "use model C" in captured.err


class TestWavefunction:
    def test_columns_and_component_relation(self, capsys):
        code = run(
            ["wavefunction", "--model", "a", "--state", "0,1",
             "--eta", "4.0", "--points", "5"]
        )
        assert code == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "rho,R,U"
        assert len(out) == 6
        rho, r, u = map(float, out[1].split(","))
        assert u == pytest.approx(rho * r / math.sqrt(4.0), rel=1e-12)

    def test_model_c_defaults_to_the_xi_form(self, capsys):
        argv = ["wavefunction", "--model", "c", "--state", "1,0", "--mu", "0.3", "--v0", "0.2",
                "--delta", "0.1", "--points", "9"]
        assert run(argv) == 0
        default = capsys.readouterr().out
        assert run([*argv, "--form", "xi"]) == 0
        assert capsys.readouterr().out == default
        assert run([*argv, "--form", "paper"]) == 0
        assert capsys.readouterr().out != default

    def test_form_flag_is_model_c_only(self, capsys):
        code = run(["wavefunction", "--model", "a", "--state", "0,1", "--form", "xi"])
        assert code == 1
        assert "model C only" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["a", "c"])
    def test_huge_radial_number_is_rejected_at_once(self, model, capsys):
        # the polynomial recurrence ran n_rho steps and never returned
        start = time.perf_counter()
        code = run(["wavefunction", "--model", model, "--state", f"{10**23},0", "--delta", "0.1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: n_rho must be at most 1000000 for a closed-form wavefunction" in captured.err
        assert elapsed < 1.0

    def test_malformed_state(self, capsys):
        assert run(["wavefunction", "--model", "a", "--state", "0;1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_table_that_underflows_is_an_error(self, capsys):
        # a decay rate of 1e150 leaves R = U = 0 at every printed rho
        code = run(["wavefunction", "--model", "b", "--state", "0,1", "--mu", "1e150",
                    "--beta=-1", "--points", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "underflows to 0 at every rho" in captured.err

    @pytest.mark.parametrize("form", ["paper", "xi"])
    @pytest.mark.parametrize("delta", ["1e-170", "1e-160"])
    def test_tiny_delta_names_delta(self, delta, form, capsys):
        # kappa = 2 sqrt(r0)/delta overflows: a DomainError before the norm
        code = run(["wavefunction", "--model", "c", "--state", "0,1", "--delta", delta,
                    "--form", form])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"delta = {delta} is too small" in captured.err

    @pytest.mark.parametrize("form", ["paper", "xi"])
    def test_small_delta_table(self, form, capsys):
        # the recurrence in z lost P_n near z = -1, and the paper norm's rules
        # then missed their 1e-13 agreement: exit 1 with a NormalizationError
        code = run(["wavefunction", "--model", "c", "--state", "2,-1", "--delta", "1e-4",
                    "--form", form])
        assert code == 0
        assert len(lines_of(capsys.readouterr().out)) == 602


class TestField:
    def test_table_columns(self, capsys):
        assert run(["field", "--points", "4"]) == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "rho,S,Bz,Aphi"
        assert len(out) == 5

    def test_flux_without_generator(self, capsys):
        # at sigma=2 the field itself exists but no vector potential does,
        # so the table cannot be produced
        assert run(["field", "--sigma", "2"]) == 1
        assert "sigma=2" in capsys.readouterr().err

    def test_overflowing_table_is_an_error(self, capsys):
        # B0 mu = 1e600 is inf in double precision
        assert run(["field", "--b0", "1e300", "--mu", "1e300", "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "field table is not finite" in captured.err


class TestSweep:
    def test_invalid_rows_have_empty_energy(self, capsys):
        code = run(
            ["sweep", "--model", "b", "--state", "1,1", "--param", "mu",
             "--lo", "0.01", "--hi", "0.4", "--steps", "21",
             "--beta", "-25", "--kz", "1"]
        )
        assert code == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "param,value,n_rho,m,E,valid,reason"
        rows = [row.split(",") for row in out[1:]]
        assert {len(row) for row in rows} == {7}
        assert {row[5] for row in rows} == {"true", "false"}
        for row in rows:
            assert "nan" not in row
            if row[5] == "false":
                assert row[4] == ""
                assert row[6] == "state not bound: beta_acute/(2 s) - n_rho - 1/2 <= 0"
            else:
                assert row[6] == ""

    def test_multiple_states(self, capsys):
        code = run(
            ["sweep", "--model", "a", "--state", "0,1", "--state", "1,0",
             "--param", "beta", "--lo", "-1", "--hi", "1", "--steps", "3"]
        )
        assert code == 0
        assert len(lines_of(capsys.readouterr().out)) == 1 + 6


    @pytest.mark.parametrize("bounds", [["--lo=-inf", "--hi=0"], ["--lo=0", "--hi=nan"]])
    def test_non_finite_range_is_a_validation_error(self, capsys, bounds):
        code = run(["sweep", "--model", "a", "--state", "0,0", "--param", "beta",
                    *bounds, "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        bound = "lo" if "inf" in bounds[0] else "hi"
        assert f"bound {bound} must be finite" in captured.err

    def test_huge_parameter_rows_carry_a_reason(self, capsys):
        # mu = 1e200 squares past the largest double: the rows stay, invalid
        code = run(["sweep", "--model", "a", "--state", "0,0", "--param", "mu",
                    "--lo=1e200", "--hi=1e201", "--steps", "3"])
        assert code == 0
        rows = [row.split(",") for row in lines_of(capsys.readouterr().out)[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[4:] == ["", "false", "level not finite: a parameter is too large for double precision"]

    @pytest.mark.parametrize("model", ["a", "b"])
    def test_potential_rows_of_models_a_and_b_carry_a_reason(self, model, capsys):
        code = run(["sweep", "--model", model, "--state", "0,1", "--param", "beta",
                    "--lo=-1", "--hi=1", "--steps", "3", "--v0", "0.2"])
        assert code == 0
        rows = [row.split(",") for row in lines_of(capsys.readouterr().out)[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[4:] == ["", "false", "models A and B need v0 = v1 = v2 = 0; use model C"]

    @pytest.mark.parametrize(
        "states, steps, message",
        [
            (["0,1"], "1000000000000", "steps must be at most 1000000 points, got 1000000000000"),
            (["0,1", "1,0"], "500001", "steps x 2 states must be at most 1000000 points"),
        ],
        ids=["one-state", "two-states"],
    )
    def test_too_many_rows_is_a_validation_error(self, capsys, states, steps, message):
        argv = ["sweep", "--model", "a", "--param", "mu", "--lo", "0.5", "--hi", "1", "--steps", steps]
        for state in states:
            argv += ["--state", state]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert message in captured.err

    def test_repeated_state_is_a_validation_error(self, capsys):
        code = run(["sweep", "--model", "a", "--state", "0,1", "--state", "1,0", "--state", "0,1",
                    "--param", "beta", "--lo", "-1", "--hi", "1", "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "state (0, 1) is given more than once" in captured.err


class TestCrossings:
    def test_flux_crossing_as_json(self, capsys):
        code = run(
            ["crossings", "--model", "a", "--s1", "2,1", "--s2", "1,0",
             "--param", "beta", "--lo", "-3", "--hi", "3"]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        rec = records[0]
        assert list(rec) == ["param", "value", "E", "state1", "state2", "bracket_width", "gap"]
        assert 0.0 <= rec["bracket_width"] <= 1e-10
        assert rec["gap"] <= 1e-9
        assert rec["param"] == "beta"
        assert rec["value"] == pytest.approx(1.0, abs=1e-9)
        assert rec["E"] == pytest.approx(4.0 + 2.0 * math.sqrt(0.3125), rel=1e-9)
        assert rec["state1"] == {"n_rho": 2, "m": 1}
        assert rec["state2"] == {"n_rho": 1, "m": 0}

    def test_no_crossing_gives_empty_list(self, capsys):
        code = run(
            ["crossings", "--model", "a", "--s1", "0,1", "--s2", "2,1",
             "--param", "beta", "--lo", "-3", "--hi", "3"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_non_finite_range_is_a_validation_error(self, capsys):
        code = run(["crossings", "--model", "a", "--s1", "2,1", "--s2", "1,0",
                    "--param", "beta", "--lo=-inf", "--hi=3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "bound lo must be finite" in captured.err

    def test_scan_steps_is_a_usage_error(self, capsys):
        # the scan has a fixed 2001 points; a narrower range scans finer
        code = run(["crossings", "--model", "a", "--s1", "2,1", "--s2", "1,0",
                    "--param", "beta", "--lo=-3", "--hi=3", "--scan-steps", "201"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: --scan-steps 201" in captured.err


class TestVerify:
    def test_passes_at_default_tolerance(self, capsys):
        code = run(
            ["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "1"]
        )
        assert code == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "n_rho,m,E_closed,E_oracle,abs_err,residual,nodes,oracle_err"
        assert len(out) == 3
        for row in out[1:]:
            abs_err, oracle_err = float(row.split(",")[4]), float(row.split(",")[7])
            assert 0.0 < oracle_err < 1e-4
            assert abs_err <= oracle_err

    def test_exit_two_beyond_tolerance(self, capsys):
        code = run(
            ["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0",
             "--m-max", "0", "--tol", "1e-12"]
        )
        assert code == 2
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tol_must_be_positive_and_finite(self, capsys, monkeypatch, tol):
        # --tol nan passed every row (worst > nan is false) and --tol -1 failed
        # every row; both are now rejected before the oracle runs
        import pdmag.cli

        monkeypatch.setattr(pdmag.cli, "verify_states", lambda *a, **k: pytest.fail("oracle ran"))
        code = run(["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0",
                    "--m-max", "0", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert "--tol must be a positive finite number" in captured.err
        assert captured.out == ""

    def test_wrong_closed_form_fails_verification(self, capsys, monkeypatch):
        # the oracle is never seeded from the closed form it checks, so a
        # closed form 20 % off is a verification failure (exit 2), not a
        # solver error (exit 1)
        import pdmag.oracle

        true_energy = pdmag.oracle.closed_form_energy
        monkeypatch.setattr(
            pdmag.oracle, "closed_form_energy", lambda *a, **k: 1.2 * true_energy(*a, **k)
        )
        code = run(["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "verification failed" in captured.err
        assert "at n_rho=0 m=0" in captured.err
        assert "oracle-limited" not in captured.err  # abs_err is far beyond oracle_err
        assert "no sign change" not in captured.err
        e_closed, e_oracle = (float(x) for x in lines_of(captured.out)[1].split(",")[2:4])
        assert e_closed == pytest.approx(1.8, rel=1e-12)
        assert e_oracle == pytest.approx(1.5, rel=1e-5)

    def test_oracle_limited_failure_says_so(self, capsys):
        # state (2, 0) misses the 1e-5 gate with abs_err 3.0e-5, inside its own
        # oracle_err of 9.9e-5: the message names it and suggests more cells
        code = run(["verify", "--model", "c", "--mu", "0.15", "--delta", "0.1",
                    "--nrho-max", "2", "--m-min", "0", "--m-max", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert len(lines_of(captured.out)) == 4
        err = captured.err.splitlines()[-1]
        assert err.startswith("verification failed: worst relative error 1.806e-05")
        assert "at n_rho=2 m=0" in err
        assert "oracle-limited" in err and "--n-points" in err

    # model C's level at v0 = 0.5312071897723665 is 0, and at v0 = 0.5312 it
    # is 7.19e-6; each abs_err is 5.6e-9, inside its oracle_err of 1.4e-6
    _NEAR_ZERO = ["verify", "--model", "c", "--mu", "0.3", "--delta", "0.1", "--nrho-max", "0",
                  "--m-min", "0", "--m-max", "0"]

    @pytest.mark.parametrize("v0", ["0.5312071897723665", "0.5312"])
    def test_level_near_zero_is_gated_on_the_criteria_scale(self, capsys, v0):
        # the gate is abs_err / max(1, |E|), as in the acceptance criteria; an
        # error over max(1e-12, |E|) read 5.6e3 and 7.8e-4 at these levels
        code = run([*self._NEAR_ZERO, "--v0", v0])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "verification failed" not in captured.err
        assert len(lines_of(captured.out)) == 2

    def test_level_near_zero_moved_by_ten_tolerances_fails(self, capsys, monkeypatch):
        # the oracle level -5.6e-9 moved by 1e-4: abs_err 9.9994e-5 on the scale 1
        import pdmag.oracle

        tol = 1e-5
        level = pdmag.oracle.oracle_energy

        def moved(*args, **kwargs):
            found = level(*args, **kwargs)
            return found._replace(energy=found.energy + 10 * tol)

        monkeypatch.setattr(pdmag.oracle, "oracle_energy", moved)
        code = run([*self._NEAR_ZERO, "--v0", "0.5312071897723665", "--tol", str(tol)])
        captured = capsys.readouterr()
        assert code == 2
        assert "verification failed: worst relative error 9.999e-05 exceeds 1.000e-05" in captured.err
        assert "oracle-limited" not in captured.err

    def test_too_few_cells_for_the_coarsest_grid(self, capsys):
        # n_points // 4 = 0 cells hold no level
        code = run(["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "0",
                    "--n-points", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "n_rho = 0 exceeds n_points // 4 - 1 = -1" in captured.err

    def test_n_points_is_checked_when_every_state_is_skipped(self, capsys):
        # B (0, -3) is not bound, so no state reaches the oracle; this exited
        # 0 with an empty table, the same flag with a bound state 1
        code = run(["verify", "--model", "b", "--nrho-max", "0", "--m-min", "-3", "--m-max", "-3",
                    "--n-points", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "n_points must be a positive integer, got 0" in captured.err

    def test_too_many_cells_is_a_validation_error(self, capsys):
        # was a numpy _ArrayMemoryError traceback
        code = run(["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "0",
                    "--n-points", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "n_points must be at most 500000" in captured.err

    @pytest.mark.parametrize("target", [[], ["--target", "exact"], ["--target", "ga"]],
                             ids=["ga", "exact", "explicit_ga"])
    def test_model_c_at_zero_delta_points_to_model_a(self, capsys, target):
        code = run(["verify", "--model", "c", *target])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "model C at delta = 0 is model A's equation" in captured.err
        assert "--model a" in captured.err and "--delta > 0" in captured.err

    def test_ga_target_on_model_a_is_a_validation_error(self, capsys):
        code = run(["verify", "--model", "a", "--target", "ga"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: Greene-Aldrich target applies to model C only" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [(["--target", "ga", "--v1", "0.5"], "Greene-Aldrich target applies to model C only"),
         (["--sigma", "0.5"], "closed-form models require sigma = 1, got 0.5")],
        ids=["ga_target", "sigma"],
    )
    def test_equation_rules_are_checked_before_any_state(self, capsys, argv, message):
        # was: every state skipped (no closed form), only the header, exit 0
        code = run(["verify", "--model", "a", *argv, "--nrho-max", "0", "--m-min", "0",
                    "--m-max", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "# skipped" not in captured.err
        assert f"error: {message}" in captured.err

    def test_model_a_with_a_potential_is_skipped(self, capsys):
        # was: rows that passed on energy with a residual of 2.6, exit 0
        code = run(["verify", "--model", "a", "--v1", "0.5", "--nrho-max", "1",
                    "--m-min", "0", "--m-max", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert lines_of(captured.out) == [
            "n_rho,m,E_closed,E_oracle,abs_err,residual,nodes,oracle_err"
        ]
        assert captured.err.count("# skipped") == 4
        assert "need v0 = v1 = v2 = 0" in captured.err

    def test_eigensolve_that_does_not_converge_is_a_validation_error(self, capsys, monkeypatch):
        import pdmag.oracle

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz (eigh_tridiagonal) did not converge")

        argv = ["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "0"]
        with monkeypatch.context() as patch:
            patch.setattr(pdmag.oracle, "eigh_tridiagonal", fail)
            assert run(argv) == 1
        captured = capsys.readouterr()
        assert "eigensolve did not converge" in captured.err
        assert "Traceback" not in captured.err
        # mu = 1e150: the oracle solves its pencil in units of the decay
        # length, and the closed form's wavefunction is what overflows
        assert run([*argv, "--mu", "1e150"]) == 1
        captured = capsys.readouterr()
        assert "normalized wavefunction is not finite" in captured.err
        assert "Traceback" not in captured.err

    def test_surrogate_level_error_and_grid_convergence(self, capsys):
        # README's two study commands: how far the Greene-Aldrich surrogate
        # moves model C's level from the stated Hamiltonian's, and how the
        # oracle's error falls as the grid is refined
        def rows(*argv):
            assert run(["verify", *argv, "--tol", "1"]) == 0
            header, *body = lines_of(capsys.readouterr().out)
            return [dict(zip(header.split(","), map(float, row.split(",")))) for row in body]

        for delta, rel in (("0.01", 1.58e-2), ("0.1", 0.166)):
            (row,) = rows("--model", "c", "--nrho-max", "0", "--m-min", "1", "--m-max", "1",
                          "--mu", "0.15", "--delta", delta, "--target", "exact")
            assert row["abs_err"] / max(1.0, abs(row["E_closed"])) == pytest.approx(rel, rel=0.01)

        ladder = []
        for n in ("1000", "2000", "4000", "8000"):
            ladder += [row for row in rows("--model", "a", "--nrho-max", "1", "--m-min", "1",
                                           "--m-max", "1", "--beta", "0.5", "--kz", "1",
                                           "--n-points", n)
                       if row["n_rho"] == 1]
        # the 2000 and 4000 rows are both the fit of 1000, 2000 and 4000
        # cells, so they agree to rounding; the other two steps fall
        errs = [row["oracle_err"] for row in ladder]
        assert len(errs) == 4 and errs[1] < errs[0] and errs[3] < errs[2]
        assert errs[2] == pytest.approx(errs[1], rel=1e-6)
        assert all(row["abs_err"] <= row["oracle_err"] for row in ladder)


class TestGreeneAldrich:
    def test_documented_table(self, capsys):
        assert run(["greene-aldrich", "--delta", "1.0"]) == 0
        out = lines_of(capsys.readouterr().out)
        assert out[0] == "rho,exact,approx,rel_err"
        assert len(out) == 201
        first = out[1].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert float(first[3]) == pytest.approx(0.0050083333194443471, rel=1e-12)
        rel = [float(row.split(",")[3]) for row in out[1:]]
        assert all(b > a for a, b in zip(rel, rel[1:]))

    def test_needs_positive_delta(self, capsys):
        assert run(["greene-aldrich"]) == 1
        assert "delta > 0" in capsys.readouterr().err


class TestNoSilentNonFiniteOutput:
    """No command prints nan or inf and exits 0: every input either gets a
    DomainError (exit 1), a skipped state or an invalid row with its
    reason, or finite numbers."""

    EXTREME = st.one_of(
        st.floats(min_value=-10.0, max_value=10.0),
        st.sampled_from(
            [0.0, 1e-300, -1e-300, 1e154, 1e200, -1e200, 1.7e308, -1.7e308,
             math.inf, -math.inf, math.nan]
        ),
    )
    FLAGS = ("e", "b0", "mu", "beta", "alpha", "kz", "eta", "delta", "v0", "v1", "v2")

    @staticmethod
    def _flags(values):
        return [f"--{name}={value!r}" for name, value in values.items()]

    @staticmethod
    def _check(argv, codes=(0, 1)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in codes, (argv, err.getvalue())
        if code != 0:
            return
        text = out.getvalue()
        if argv[0] == "crossings":
            def reject(constant):
                raise AssertionError(f"{constant} in {text!r} for {argv}")

            json.loads(text, parse_constant=reject)
            return
        for line in text.splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert math.isfinite(value), (argv, line)

    @settings(max_examples=80)
    @given(model=st.sampled_from("abc"), values=st.dictionaries(st.sampled_from(FLAGS), EXTREME))
    def test_spectrum(self, model, values):
        self._check(["spectrum", "--model", model, "--nrho-max", "1", "--m-min", "-1",
                     "--m-max", "1", *self._flags(values)])

    @settings(max_examples=80)
    @given(
        model=st.sampled_from("abc"),
        param=st.sampled_from(("beta", "b0", "alpha_ab", "mu", "delta")),
        lo=EXTREME,
        hi=EXTREME,
        values=st.dictionaries(st.sampled_from(FLAGS), EXTREME, max_size=4),
    )
    def test_sweep(self, model, param, lo, hi, values):
        self._check(["sweep", "--model", model, "--state", "0,1", "--state", "1,0",
                     "--param", param, f"--lo={lo!r}", f"--hi={hi!r}", "--steps", "9",
                     *self._flags(values)])

    @settings(max_examples=60)
    @given(
        model=st.sampled_from("abc"),
        param=st.sampled_from(("beta", "b0", "alpha_ab", "mu", "delta")),
        lo=EXTREME,
        hi=EXTREME,
        values=st.dictionaries(st.sampled_from(FLAGS), EXTREME, max_size=4),
    )
    def test_crossings(self, model, param, lo, hi, values):
        self._check(["crossings", "--model", model, "--s1", "0,1", "--s2", "1,0",
                     "--param", param, f"--lo={lo!r}", f"--hi={hi!r}", *self._flags(values)])

    @settings(max_examples=60)
    @given(values=st.dictionaries(st.sampled_from(("b0", "mu", "beta", "sigma", "alpha", "e")),
                                  EXTREME))
    def test_field(self, values):
        self._check(["field", "--points", "5", *self._flags(values)])

    @settings(max_examples=40)
    @given(values=st.dictionaries(st.sampled_from(("delta", "mu", "b0")), EXTREME))
    def test_greene_aldrich(self, values):
        self._check(["greene-aldrich", "--points", "5", *self._flags(values)])

    @settings(max_examples=60)
    @given(model=st.sampled_from("abc"), form=st.sampled_from(("paper", "xi")),
           values=st.dictionaries(st.sampled_from(FLAGS), EXTREME))
    def test_wavefunction(self, model, form, values):
        self._check(["wavefunction", "--model", model, "--state", "1,1", "--form", form,
                     "--points", "7", *self._flags(values)])

    @settings(max_examples=25)
    @given(model=st.sampled_from("abc"), values=st.dictionaries(st.sampled_from(FLAGS), EXTREME))
    def test_verify(self, model, values):
        # exit 2 (verification failed) is a loud failure too
        self._check(["verify", "--model", model, "--nrho-max", "0", "--m-min", "1", "--m-max", "1",
                     "--n-points", "200", *self._flags(values)], codes=(0, 1, 2))

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_huge_field_skips_the_state(self, model, capsys):
        code = run(["spectrum", "--model", model, "--mu", "1e200", "--beta=-1e200",
                    "--delta", "0.1", "--nrho-max", "0", "--m-min", "0", "--m-max", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert lines_of(captured.out) == ["n_rho,m,E"]
        assert "# skipped n_rho=0 m=0" in captured.err


class TestPlumbing:
    @pytest.mark.parametrize("argv, message", [
        (["wavefunction", "--model", "a", "--state", "1,x"],
         "state must be two integers 'n_rho,m', got '1,x'"),
        (["spectrum", "--model", "a", "--nrho-max", "-1"], "--nrho-max must be >= 0, got -1"),
        (["spectrum", "--model", "a", "--m-min", "2", "--m-max", "1"],
         "--m-min must not exceed --m-max, got 2 > 1"),
        (["wavefunction", "--model", "a", "--state", "0,1", "--rho-min", "0"],
         "need 0 < --rho-min < --rho-max, got 0.0, 30.0"),
        (["field", "--rho-min", "3", "--rho-max", "3"],
         "need 0 < --rho-min < --rho-max, got 3.0, 3.0"),
        (["field", "--rho-min", "3", "--rho-max", "2"],
         "need 0 < --rho-min < --rho-max, got 3.0, 2.0"),
    ], ids=["state", "nrho-max", "m-range", "rho-min", "rho-equal", "rho-reversed"])
    def test_argument_rules_name_the_condition(self, capsys, argv, message):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "a", "--nrho-max", "0"],
        ["wavefunction", "--model", "a", "--state", "0,1", "--points", "3"],
        ["field", "--points", "3"],
        ["sweep", "--model", "a", "--state", "0,1", "--param", "mu", "--lo", "0.5", "--hi", "1",
         "--steps", "3"],
        ["crossings", "--model", "a", "--s1", "0,1", "--s2", "1,0", "--param", "beta",
         "--lo", "-1", "--hi", "1"],
        ["verify", "--model", "a", "--nrho-max", "0", "--m-min", "0", "--m-max", "0"],
        ["greene-aldrich", "--delta", "0.5", "--points", "3"],
    ], ids=lambda argv: argv[0])
    def test_each_command_echoes_its_parameters_once(self, capsys, argv):
        assert run(argv) == 0
        assert capsys.readouterr().err.count("# params:") == 1

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_too_many_states_is_a_validation_error(self, capsys, monkeypatch, command):
        # was a MemoryError traceback from building the state list
        import pdmag.cli

        monkeypatch.setattr(pdmag.cli, "verify_states", lambda *a, **k: pytest.fail("oracle ran"))
        code = run([command, "--model", "a", "--nrho-max", "0", "--m-min", "-1000000000000",
                    "--m-max", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert ("error: the state range must hold at most 1000000 states, got 2000000000001"
                in captured.err)
        assert "Traceback" not in captured.err

    def test_parameters_are_echoed_before_a_command_error(self, capsys):
        # run resolves the parameter set before the command validates its flags
        assert run(["verify", "--model", "a", "--tol", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("# params: ") and err[1].startswith("error: --tol must be")

    @pytest.mark.parametrize("command", [["field"], ["greene-aldrich", "--delta", "0.1"],
                                         ["wavefunction", "--model", "a", "--state", "0,1"]])
    def test_too_many_points_is_a_validation_error(self, capsys, command):
        # was a numpy _ArrayMemoryError traceback
        code = run([*command, "--points", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--points must be between 2 and 1000000, got 1000000000000" in captured.err

    def test_non_finite_parameter_is_a_validation_error(self, capsys):
        assert run(["spectrum", "--model", "c", "--delta", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta must be finite" in captured.err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("mu = 0.5\nkz = 1.0\n", encoding="utf-8")
        code = run(["spectrum", "--model", "a", "--config", str(cfg), "--mu", "2.0"])
        assert code == 0
        err = capsys.readouterr().err
        assert "mu=2" in err and "kz=1" in err

    def test_bad_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("mu = 0.5\nwhat\n", encoding="utf-8")
        assert run(["spectrum", "--model", "a", "--config", str(cfg)]) == 1
        assert f"{cfg}:2" in capsys.readouterr().err

    def test_non_utf8_config_is_a_validation_error(self, tmp_path, capsys):
        # was a UnicodeDecodeError traceback
        cfg = tmp_path / "params.cfg"
        cfg.write_bytes(b"\xff\xfe mu=1")
        assert run(["spectrum", "--model", "a", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {cfg}: not UTF-8 text" in captured.err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "spectrum.csv"
        code = run(["spectrum", "--model", "a", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("n_rho,m,E\n")

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["spectrum", "--model", "a", "--nrho-max", "1"], "--beta", "-1e-3"),
            (["spectrum", "--model", "a", "--nrho-max", "1"], "--mu", "-.5"),
            (["spectrum", "--model", "a", "--nrho-max", "1"], "--alpha", "-2E-1"),
            (["spectrum", "--model", "a", "--nrho-max", "1"], "--kz", "-inf"),
            (["spectrum", "--model", "a", "--nrho-max", "1"], "--kz", "-NaN"),
            (["sweep", "--model", "a", "--state", "0,1", "--param", "beta", "--hi", "1",
              "--steps", "3"], "--lo", "-1e300"),
        ],
    )
    def test_negative_number_after_a_space_is_a_value(self, capsys, argv, flag, value):
        # Python 3.11's argparse took "-1e-3", "-inf" and "-nan" for flags
        # ("expected one argument"); only "--beta=-1e-3" worked
        spaced = run([*argv, flag, value]), capsys.readouterr()
        joined = run([*argv, f"{flag}={value}"]), capsys.readouterr()
        assert "expected one argument" not in spaced[1].err
        assert (spaced[0], spaced[1].out) == (joined[0], joined[1].out)

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["spectrum", "--model", "a", "--frequency", "3"]) == 1

    def test_unknown_model(self, capsys):
        assert run(["spectrum", "--model", "q"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1


# README's verify command for the target-'exact' gap of model C at mu =
# 0.15, less its --delta value, and the gap E(0,1) - E(1,0) it documents
# at each delta
_GAP_COMMAND = ("verify --model c --mu 0.15 --nrho-max 1 --m-min 0 --m-max 1 --target exact "
                "--tol 1 --delta").split()
_EXACT_GAPS = {"0.01": -0.408930, "0.1325": -0.783233, "0.43875": -1.161529, "0.5": -1.205323}


def test_readme_commands_exit_as_documented(capsys):
    # every pdmag line in README's sh blocks exits with its documented
    # status, a failing one's last stderr line starts with its documented
    # message, and the four exact-target gaps read as README's table
    wrong, gaps = [], {}
    for argv, status, message in readme_doc.commands():
        code = run(argv)
        captured = capsys.readouterr()
        last = (captured.err.splitlines() or [""])[-1]
        if code != status or (message is not None and not last.startswith(message)):
            wrong.append((argv, code, last))
        if argv[:-1] == _GAP_COMMAND:
            header, *body = lines_of(captured.out)
            rows = {(int(row[0]), int(row[1])): dict(zip(header.split(","), map(float, row)))
                    for row in (line.split(",") for line in body)}
            one, two = rows[0, 1], rows[1, 0]
            gaps[argv[-1]] = (one["E_oracle"] - two["E_oracle"],
                              one["oracle_err"] + two["oracle_err"])
    assert wrong == []
    assert gaps.keys() == _EXACT_GAPS.keys()
    for delta, (gap, err) in gaps.items():
        assert gap == pytest.approx(_EXACT_GAPS[delta], abs=5e-7) and err <= 7.3e-4, delta
