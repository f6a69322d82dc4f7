"""Failure-injection tests: the library must fail loudly and typed.

Every deliberate error path raises a :class:`repro.errors.CatError`
subclass with diagnostic payload — never a bare numpy warning or a
silent NaN field.  The resilience-layer tests go further: deterministic
faults are injected mid-run and the supervised solvers must either
recover (rollback + CFL backoff, per-cell Newton re-seeding) or fail
with a populated :class:`repro.resilience.FailureReport`.
"""

import numpy as np
import pytest

from repro.errors import (CatError, ConvergenceError, InputError,
                          StabilityError)
from repro.resilience import (FailureReport, FaultInjector, RetryPolicy,
                              RunSupervisor, supervised_call)


def _m8_solver(n_s=15, n_normal=21):
    """Small Mach-8 hemisphere Euler case (fast enough for fault tests)."""
    from repro.core.gas import IdealGasEOS
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.euler2d import AxisymmetricEulerSolver
    body = Hemisphere(1.0)
    grid = blunt_body_grid(body, n_s=n_s, n_normal=n_normal,
                           density_ratio=0.2, margin=2.5)
    s = AxisymmetricEulerSolver(grid, IdealGasEOS(1.4))
    rho, T = 0.01, 220.0
    s.set_freestream(rho, 8.0 * np.sqrt(1.4 * 287.0528 * T),
                     rho * 287.0528 * T)
    return s


def _sod_solver():
    """100-cell Sod shock tube on [0, 1]."""
    from repro.solvers.euler1d import Euler1DSolver
    x = np.linspace(0.0, 1.0, 101)
    xc = 0.5 * (x[1:] + x[:-1])
    s = Euler1DSolver(x)
    return s.set_initial(np.where(xc < 0.5, 1.0, 0.125), 0.0,
                         np.where(xc < 0.5, 1.0, 0.1))


class TestErrorHierarchy:
    def test_all_errors_are_cat_errors(self):
        for exc in (ConvergenceError("x"), InputError("x"),
                    StabilityError("x")):
            assert isinstance(exc, CatError)

    def test_convergence_error_payload(self):
        e = ConvergenceError("failed", iterations=42, residual=1e-3)
        assert e.iterations == 42
        # catlint: disable=CAT010 -- stored-attribute pass-through of the constructor literal
        assert e.residual == 1e-3

    def test_stability_error_payload(self):
        e = StabilityError("boom", step=7)
        assert e.step == 7

    def test_convergence_error_cell_forensics(self):
        traj = np.array([[1.0, 0.5], [0.9, 0.4]])
        e = ConvergenceError("failed", bad_indices=[3, 7],
                             residual_trajectory=traj,
                             worst={"indices": [3], "residuals": [0.4]})
        assert e.bad_indices == [3, 7]
        assert e.residual_trajectory is traj
        assert e.worst["indices"] == [3]

    def test_errors_carry_optional_report(self):
        rep = FailureReport(label="unit", error="x")
        e = StabilityError("boom", report=rep)
        assert e.report is rep
        assert ConvergenceError("x").report is None

    def test_input_error_is_value_error(self):
        # so generic callers catching ValueError still work
        assert isinstance(InputError("x"), ValueError)


class TestSolverBlowupDetection:
    def test_euler2d_detects_nan_state(self):
        from repro.core.gas import IdealGasEOS
        from repro.geometry import Hemisphere
        from repro.grid import blunt_body_grid
        from repro.solvers.euler2d import AxisymmetricEulerSolver
        body = Hemisphere(1.0)
        grid = blunt_body_grid(body, n_s=11, n_normal=11)
        s = AxisymmetricEulerSolver(grid, IdealGasEOS(1.4))
        s.set_freestream(0.01, 2000.0, 700.0)
        s.U[3, 3, 0] = np.nan
        with pytest.raises(StabilityError):
            s.step(0.4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_euler1d_detects_blowup_from_huge_cfl(self):
        # overflow warnings en route to the StabilityError are the point
        from repro.solvers.euler1d import Euler1DSolver
        x = np.linspace(0.0, 1.0, 51)
        xc = 0.5 * (x[1:] + x[:-1])
        s = Euler1DSolver(x)
        s.set_initial(np.where(xc < 0.5, 1.0, 0.125), 0.0,
                      np.where(xc < 0.5, 1.0, 0.1))
        with pytest.raises(StabilityError):
            for _ in range(200):
                s.step(0.5)   # dt >> CFL limit for dx = 0.02

    def test_vsl_grid_rejects_negative_radius_cells(self):
        from repro.errors import GridError
        from repro.grid.structured import StructuredGrid2D
        x, y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(-0.5, 0.5, 4),
                           indexing="ij")
        g = StructuredGrid2D(x, y)
        with pytest.raises(GridError):
            g.axisymmetric_volumes()


class TestEquilibriumSolverRobustness:
    def test_unreachable_energy_raises_convergence_error(self, air_gas):
        # requesting e far above the single-ionization model's reach
        with pytest.raises(ConvergenceError):
            air_gas.state_rho_e(np.array([10.0]), np.array([5e9]))

    def test_negative_density_raises_input_error(self, air_gas):
        with pytest.raises(InputError):
            air_gas.composition_rho_T(np.array([-0.1]), np.array([300.0]))

    def test_shock_below_sound_speed(self, air_gas):
        from repro.solvers.shock import equilibrium_normal_shock
        with pytest.raises(InputError):
            equilibrium_normal_shock(air_gas, 1.0, 300.0, 10.0)


class TestFaultInjector:
    def test_transient_fault_fires_once(self):
        s = _m8_solver(n_s=9, n_normal=11)
        faults = FaultInjector()
        faults.inject_nan(step=0, cell=(2, 3), component=0)
        assert faults.apply(s) is True
        assert np.isnan(s.U[2, 3, 0])
        s.U[2, 3, 0] = 0.01
        assert faults.apply(s) is False     # one-shot: does not refire
        assert faults.n_fired == 1

    def test_persistent_fault_refires(self):
        s = _m8_solver(n_s=9, n_normal=11)
        faults = FaultInjector()
        faults.inject_perturbation(step=0, cell=(1, 1), factor=10.0,
                                   persistent=True)
        rho0 = float(s.U[1, 1, 0])
        faults.apply(s)
        s.U[1, 1, 0] = rho0
        assert faults.apply(s) is True
        assert s.U[1, 1, 0] == pytest.approx(10.0 * rho0)

    def test_reset_rearms(self):
        s = _m8_solver(n_s=9, n_normal=11)
        faults = FaultInjector()
        faults.inject_nan(step=0, cell=(0, 0))
        faults.apply(s)
        faults.reset()
        s.U[0, 0, 0] = 0.01
        assert faults.apply(s) is True


class TestRunSupervisor:
    """Acceptance scenarios from the resilience-layer issue."""

    def test_transient_nan_recovers_and_converges(self):
        # poison one cell mid-run; rollback + CFL backoff must still
        # deliver a converged steady state
        s = _m8_solver()
        faults = FaultInjector()
        faults.inject_nan(step=40, cell=(5, 8), component=0)
        s.run(n_steps=3000, cfl=0.4, tol=1e-3,
              resilience=RetryPolicy(checkpoint_interval=20),
              faults=faults)
        assert faults.n_fired == 1
        assert s.converged is True
        assert s.residual_history[-1] < 1e-3
        assert np.all(np.isfinite(s.U))

    def test_retries_disabled_raises_with_report(self):
        s = _m8_solver()
        faults = FaultInjector()
        faults.inject_nan(step=40, cell=(5, 8), component=0)
        with pytest.raises(StabilityError) as exc:
            s.run(n_steps=3000, cfl=0.4, tol=1e-3,
                  resilience=RetryPolicy(max_retries=0), faults=faults)
        rep = exc.value.report
        assert isinstance(rep, FailureReport)
        # catlint: disable=CAT010 -- report records the attempted CFL literal verbatim
        assert rep.attempts and rep.attempts[0]["cfl"] == 0.4
        assert rep.step == 40
        assert len(rep.residual_history) > 0
        assert rep.config.get("flux_name")
        assert "U" in rep.state            # last good checkpoint payload
        assert "retry ladder exhausted" in str(exc.value)
        assert rep.label in rep.summary()

    def test_persistent_fault_return_best(self):
        # a fault that refires after every rollback exhausts the ladder;
        # return_best hands back the last good state instead of raising
        s = _m8_solver()
        faults = FaultInjector()
        faults.inject_nan(step=40, cell=(5, 8), persistent=True)
        s.run(n_steps=3000, cfl=0.4, tol=1e-3,
              resilience=RetryPolicy(max_retries=2, return_best=True),
              faults=faults)
        assert s.converged is False
        assert np.all(np.isfinite(s.U))    # checkpoint, not poisoned state

    def test_cfl_backoff_ladder_trace(self):
        s = _m8_solver(n_s=9, n_normal=11)
        faults = FaultInjector()
        faults.inject_nan(step=5, cell=(2, 3), persistent=True)
        sup = RunSupervisor(s, RetryPolicy(max_retries=2, cfl_backoff=0.5,
                                           return_best=True),
                            faults=faults, label="ladder-test")
        sup.march(s.step, n_steps=100, cfl=0.4, tol=1e-12)
        cfls = [a["cfl"] for a in sup.attempts]
        assert cfls == pytest.approx([0.4, 0.2, 0.1])
        assert sup.report is not None and sup.report.label == "ladder-test"

    def test_euler1d_supervised_transient_run(self):
        s = _sod_solver()
        faults = FaultInjector()
        faults.inject_nan(step=30, cell=50, component=2)
        s.run(0.2, cfl=0.45, resilience=RetryPolicy(checkpoint_interval=10),
              faults=faults)
        assert s.converged is True
        assert s.t == pytest.approx(0.2, abs=1e-12)
        assert np.all(np.isfinite(s.U))

    def test_euler1d_paths_agree_on_budget_and_converged(self):
        # the 100-cell Sod problem reaches t = 0.05 in exactly 22 steps:
        # a budget that runs out on the step reaching t_final still
        # converged, and max_steps counts the steps of this run() call,
        # supervised or not
        states = {}
        for supervised in (False, True):
            kw = {"resilience": RetryPolicy()} if supervised else {}
            s = _sod_solver()
            s.run(0.05, max_steps=22, **kw)
            assert (s.converged, s.steps) == (True, 22), kw
            again = _sod_solver()
            again.run(0.025, **kw)
            first = again.steps
            again.run(0.05, max_steps=8, **kw)
            assert (again.converged, again.steps) == (False, first + 8), kw
            states[supervised] = (s.U.tobytes(), again.U.tobytes())
        assert states[False] == states[True]


class TestSupervisedCall:
    def test_ladder_recovers(self):
        calls = []

        def fn(tol=1e-12):
            calls.append(tol)
            if tol < 1e-6:
                raise ConvergenceError("too tight")
            return "ok"

        assert supervised_call(fn, label="unit",
                               ladder=[{"tol": 1e-3}]) == "ok"
        assert calls == [1e-12, 1e-3]

    def test_exhaustion_attaches_report(self):
        def fn(**kw):
            raise ConvergenceError("always fails")

        with pytest.raises(ConvergenceError) as exc:
            supervised_call(fn, label="unit", ladder=[{"tol": 1e-3}],
                            config={"case": "demo"})
        rep = exc.value.report
        assert isinstance(rep, FailureReport)
        assert len(rep.attempts) == 2
        assert rep.config["case"] == "demo"


class TestEquilibriumPerCellRecovery:
    """Per-cell Newton failure isolation in the batched Gibbs solver."""

    @pytest.fixture(scope="class")
    def batch(self):
        r = np.random.default_rng(20260706)
        return 10 ** r.uniform(-4, 0, 200), r.uniform(1500.0, 12000.0, 200)

    def test_poisoned_initial_guesses_recover(self, air_gas, batch):
        # 10% of the batch seeded with absurd element potentials: the
        # recovery ladder must still converge every cell to the clean
        # solution
        rho, T = batch
        solver = air_gas.solver
        y_clean, lam = solver.solve_rho_T(rho, T, air_gas.b,
                                          return_lambda=True)
        lam0 = lam.copy()
        bad = np.arange(0, 200, 10)        # every 10th cell = 10%
        lam0[bad] = 150.0                  # exp(150) overflows the Newton
        y2 = solver.solve_rho_T(rho, T, air_gas.b, lam0=lam0)
        assert np.allclose(y2, y_clean, atol=1e-7)

    def test_fault_injected_newton_failures_recover(self, air11, batch):
        from repro.thermo.equilibrium import (EquilibriumGas,
                                              air_reference_mass_fractions)
        rho, T = batch
        y_ref = air_reference_mass_fractions(air11)
        y_clean = EquilibriumGas(air11, y_ref).composition_rho_T(rho, T)
        faults = FaultInjector()
        faults.inject_newton_failure(call=0, cells=tuple(range(0, 200, 10)),
                                     value=150.0)
        gas = EquilibriumGas(air11, y_ref, faults=faults)
        y2 = gas.composition_rho_T(rho, T)
        assert faults.n_fired == 1
        assert np.allclose(y2, y_clean, atol=1e-7)

    def test_unreachable_energy_error_is_enriched(self, air_gas):
        with pytest.raises(ConvergenceError) as exc:
            air_gas.state_rho_e(np.array([10.0]), np.array([5e9]))
        e = exc.value
        assert e.bad_indices is not None and len(e.bad_indices) == 1
        assert e.worst is not None and "rho" in e.worst


class TestRunnerResilience:
    """A failing figure must not cost the rest of the suite."""

    def _fake_modules(self):
        import types

        def make(name, main):
            mod = types.SimpleNamespace()
            mod.__doc__ = f"{name} docstring first line\nrest"
            mod.main = main
            return mod

        err = ConvergenceError("injected figure failure")
        err.report = FailureReport(label="fig-bad", error=str(err))

        def boom(quick=True):
            raise err

        return [("good1", make("good1", lambda quick=True: "result-1")),
                ("bad", make("bad", boom)),
                ("good2", make("good2", lambda quick=True: "result-2"))]

    def test_keep_going_collects_failures(self, monkeypatch):
        import io

        import repro.experiments.runner as runner
        monkeypatch.setattr(runner, "_MODULES", self._fake_modules())
        out = io.StringIO()
        res = runner.run_all(quick=True, stream=out)
        assert set(res["failures"]) == {"bad"}
        assert set(res["timings"]) == {"good1", "bad", "good2"}
        text = out.getvalue()
        assert "result-2" in text          # suite continued past failure
        assert "fig-bad" in text           # FailureReport was printed

    def test_fail_fast_mode_raises(self, monkeypatch):
        import io

        import repro.experiments.runner as runner
        monkeypatch.setattr(runner, "_MODULES", self._fake_modules())
        with pytest.raises(ConvergenceError):
            runner.run_all(quick=True, stream=io.StringIO(),
                           keep_going=False)


class TestAPIOnFailure:
    def test_stagnation_environment_report_mode(self, air_gas):
        from repro.core.api import stagnation_environment
        # subsonic "entry" is an InputError deep in the shock solve
        res = stagnation_environment(V=10.0, h=60e3, gas=air_gas,
                                     nose_radius=1.0,
                                     on_failure="report")
        assert res["ok"] is False
        assert isinstance(res["error"], CatError)

    def test_default_mode_still_raises(self, air_gas):
        from repro.core.api import stagnation_environment
        with pytest.raises(CatError):
            stagnation_environment(V=10.0, h=60e3, gas=air_gas,
                                   nose_radius=1.0)

    def test_degrade_mode_falls_back_to_correlation(self, air_gas):
        from repro.core.api import stagnation_environment
        res = stagnation_environment(V=10.0, h=60e3, gas=air_gas,
                                     nose_radius=1.0,
                                     on_failure="degrade")
        assert res["ok"] is True
        assert res["degraded"] is True
        assert res["degradation"]["ladder"] == "model"
        assert res["degradation"]["rung"] == "correlation"
        assert res["degradation"]["error_type"]
        assert np.isfinite(res["q_conv"]) and res["q_conv"] > 0
        assert res["profiles"] is None       # correlations have no profile

    def test_unknown_on_failure_rejected(self):
        from repro.core.api import stagnation_environment
        with pytest.raises(InputError, match="on_failure"):
            stagnation_environment(V=7000.0, h=60e3, nose_radius=1.0,
                                   on_failure="bogus")


class TestAdaptationOnPhysics:
    def test_adapt_concentrates_points_in_relaxation_front(self):
        """Solution-adaptive redistribution on a relaxation-zone-like
        temperature profile (the paper's grid-adaptation challenge)."""
        from repro.grid.adaptation import adapt_1d, gradient_weight
        x = np.linspace(0.0, 0.02, 200)
        # frozen-shock relaxation shape: sharp exponential decay near 0
        T = 9000.0 + 39000.0 * np.exp(-x / 5e-4)
        w = gradient_weight(x, T, alpha=4.0)
        x2 = adapt_1d(x, w)
        n_front_before = np.count_nonzero(x < 1e-3)
        n_front_after = np.count_nonzero(x2 < 1e-3)
        assert n_front_after > 2 * n_front_before
        assert np.all(np.diff(x2) > 0)


class TestVSLRadiativeCoolingAblation:
    @pytest.fixture(scope="class")
    def solutions(self, titan_gas):
        from repro.atmosphere import TitanAtmosphere
        from repro.solvers.vsl import StagnationVSL
        vsl = StagnationVSL(titan_gas, nose_radius=0.64)
        atm = TitanAtmosphere()
        h = 287e3
        kw = dict(rho_inf=float(atm.density(h)),
                  T_inf=float(atm.temperature(h)), V=10500.0,
                  T_wall=1800.0, n_profile=40, n_lambda=120)
        cooled = vsl.solve(radiative_cooling=True, **kw)
        uncooled = vsl.solve(radiative_cooling=False, **kw)
        return cooled, uncooled

    def test_cooling_reduces_radiative_flux(self, solutions):
        cooled, uncooled = solutions
        assert cooled.q_rad <= uncooled.q_rad

    def test_cooling_does_not_change_convection(self, solutions):
        cooled, uncooled = solutions
        assert cooled.q_conv == pytest.approx(uncooled.q_conv, rel=1e-12)


class TestMixtureEntropy:
    def test_entropy_increases_with_T(self, air_gas, air11):
        y = air_gas.y_ref
        s1 = float(air_gas.mix.s_mass(np.array(300.0), np.array(1e5), y))
        s2 = float(air_gas.mix.s_mass(np.array(1000.0), np.array(1e5), y))
        assert s2 > s1

    def test_entropy_decreases_with_p(self, air_gas):
        y = air_gas.y_ref
        s1 = float(air_gas.mix.s_mass(np.array(500.0), np.array(1e4), y))
        s2 = float(air_gas.mix.s_mass(np.array(500.0), np.array(1e6), y))
        assert s1 > s2
        # ideal-gas: ds = -R ln(p2/p1)
        from repro.constants import R_UNIVERSAL
        R_mix = float(air_gas.mix.gas_constant(y))
        assert s1 - s2 == pytest.approx(R_mix * np.log(100.0), rel=1e-6)

    def test_air_entropy_magnitude(self, air_gas):
        # standard air entropy at 298 K, 1 bar: ~6860 J/(kg K)
        s = float(air_gas.mix.s_mass(np.array(298.15), np.array(1e5),
                                     air_gas.y_ref))
        assert s == pytest.approx(6860.0, rel=0.02)

    def test_isentrope_consistency_with_pns_expansion(self, air_gas):
        # expanding isentropically and re-evaluating s returns the same s
        from repro.geometry import OrbiterWindwardProfile
        from repro.solvers.pns import WindwardHeatingPNS
        body = OrbiterWindwardProfile(40.0, 1.3)
        pns = WindwardHeatingPNS(body, gas=air_gas)
        s_target = 9000.0
        T = pns._T_of_s_p(s_target, 2000.0, 4000.0)
        y, _ = air_gas.composition_T_p(np.array(T), np.array(2000.0))
        s_back = float(air_gas.mix.s_mass(np.array(T), np.array(2000.0),
                                          y))
        assert s_back == pytest.approx(s_target, rel=1e-6)


def _make_reacting_small():
    """9x13 Mach-10 reacting hemisphere (the degradation test case)."""
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.reacting_euler2d import ReactingEulerSolver
    from repro.thermo.species import species_set
    grid = blunt_body_grid(Hemisphere(0.05), n_s=9, n_normal=13,
                           density_ratio=0.12, margin=2.5)
    db = species_set("air5")
    s = ReactingEulerSolver(grid, db)
    y = np.zeros(db.n)
    y[db.index["N2"]] = 0.767
    y[db.index["O2"]] = 0.233
    return s.set_freestream(1e-3, 5000.0, 250.0, y)


class TestDegradationLadder:
    """Ladder mechanics: demote, march clean, re-promote (LIFO)."""

    def test_numerics_round_trip_euler1d(self):
        from repro.resilience import (DegradationController,
                                      DegradationPolicy)
        from repro.solvers.euler1d import Euler1DSolver
        s = Euler1DSolver(np.linspace(0.0, 1.0, 41))
        s.set_initial(1.0, 0.0, 1.0)
        ctl = DegradationController(
            DegradationPolicy(promote_after=3, quarantine_halo=1))
        assert ctl.degrade(s, step=5, cells=[(10,)], reason="test")
        assert s.quarantined_cells is not None
        assert int(s.quarantined_cells.sum()) == 3   # cell + halo 1
        assert ctl.active
        for k in range(3):
            s.steps = 6 + k
            ctl.note_clean_step(s, step=s.steps)
        # LIFO restore: the pre-demotion mask (None) is back
        assert s.quarantined_cells is None
        assert not ctl.active
        led = ctl.ledger.to_dict()
        assert led["n_demotions"] == 1
        assert led["n_promotions"] == 1
        assert led["fully_promoted"] is True
        assert led["entries"][0]["rung"] == "first_order"

    def test_failure_resets_clean_counter(self):
        from repro.resilience import (DegradationController,
                                      DegradationPolicy)
        from repro.solvers.euler1d import Euler1DSolver
        s = Euler1DSolver(np.linspace(0.0, 1.0, 21))
        s.set_initial(1.0, 0.0, 1.0)
        ctl = DegradationController(DegradationPolicy(promote_after=2))
        ctl.degrade(s, step=0, cells=[(5,)], reason="test")
        ctl.note_clean_step(s, step=1)
        ctl.note_failure()                # resets the clean-step count
        ctl.note_clean_step(s, step=2)
        assert s.quarantined_cells is not None   # not yet re-promoted
        ctl.note_clean_step(s, step=3)
        assert s.quarantined_cells is None

    def test_physics_ladder_reacting(self):
        s = _make_reacting_small()
        assert s.chemistry_model == "finite_rate"
        rung = s.degrade_physics()            # whole domain, one rung down
        assert rung == "frozen"
        assert int(s.chem_rung.max()) == s.PHYSICS_LADDER.index("frozen")
        assert s.degrade_physics() is None    # ladder exhausted

    def test_controller_tries_numerics_then_physics(self):
        from repro.resilience import (DegradationController,
                                      DegradationPolicy)
        s = _make_reacting_small()
        ctl = DegradationController(DegradationPolicy(quarantine_halo=2))
        assert ctl.degrade(s, step=1, cells=[(4, 6)], reason="a")
        assert s.quarantined_cells is not None
        assert s.chem_rung is None            # physics untouched so far
        # same cells again: quarantine adds nothing, falls to physics
        assert ctl.degrade(s, step=2, cells=[(4, 6)], reason="b")
        assert s.chem_rung is not None
        ladders = [e["ladder"] for e in ctl.ledger.to_dict()["entries"]]
        assert ladders == ["numerics", "physics"]

    def test_max_actions_bounds_cascade(self):
        from repro.resilience import (DegradationController,
                                      DegradationPolicy)
        from repro.solvers.euler1d import Euler1DSolver
        s = Euler1DSolver(np.linspace(0.0, 1.0, 21))
        s.set_initial(1.0, 0.0, 1.0)
        ctl = DegradationController(DegradationPolicy(max_actions=1))
        assert ctl.degrade(s, step=0, cells=[(5,)], reason="one")
        assert not ctl.degrade(s, step=1, cells=[(15,)], reason="two")


class TestDegradationCascadeAcceptance:
    """The PR's acceptance scenario: a persistent density corruption
    that kills the plain rollback ladder must complete end-to-end once
    the degradation cascade is armed."""

    POLICY = dict(max_retries=1, cfl_backoff=0.8, cfl_min=0.2)

    @staticmethod
    def _faults():
        fi = FaultInjector()
        fi.inject_perturbation(step=10, cell=(4, 6), component=0,
                               factor=1e-4, persistent=True)
        return fi

    def test_aborts_without_degradation(self):
        s = _make_reacting_small()
        with pytest.raises(CatError) as ei:
            s.run(n_steps=40, cfl=0.4,
                  resilience=RetryPolicy(**self.POLICY),
                  faults=self._faults())
        # the exhausted ladder attaches its FailureReport
        assert getattr(ei.value, "report", None) is not None

    def test_completes_with_degradation(self):
        from repro.resilience import DegradationPolicy
        s = _make_reacting_small()
        s.run(n_steps=40, cfl=0.4, resilience=RetryPolicy(**self.POLICY),
              faults=self._faults(), watchdog=True,
              degradation=DegradationPolicy(promote_after=15))
        assert s.steps == 40
        led = s.degradation_ledger.to_dict()
        assert led["n_demotions"] >= 1
        assert led["entries"][0]["ladder"] == "numerics"
        assert led["entries"][0]["rung"] == "first_order"
        assert led["entries"][0]["n_cells"] > 0
        assert led["n_promotions"] >= 1          # re-promotion recorded
        assert s.quarantined_cells is not None
        assert s.watchdog_events                 # audit trail present

    def test_convergence_error_enters_retry_ladder(self):
        """A mid-march ConvergenceError (implicit sub-solve dying on a
        corrupted state) must be retryable, not a raw abort."""
        s = _make_reacting_small()
        with pytest.raises(StabilityError, match="retry ladder"):
            s.run(n_steps=40, cfl=0.4,
                  resilience=RetryPolicy(**self.POLICY),
                  faults=self._faults())
