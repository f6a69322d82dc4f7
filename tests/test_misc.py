"""Small-surface tests: constants helpers, misc dataclass behaviour,
experiment registry completeness."""

import numpy as np
import pytest

from repro import __version__
from repro.constants import (arrhenius_si, ev_to_joule, planck_lambda,
                             wavenumber_to_joule, wavenumber_to_kelvin)
from repro.errors import InputError


class TestConstantsHelpers:
    def test_version_string(self):
        assert __version__.count(".") == 2

    def test_arrhenius_conversion_orders(self):
        # catlint: disable=CAT010 -- order-1 conversion factor is (1e-3)**0 == 1 exactly
        assert arrhenius_si(1e12, 1) == 1e12
        assert arrhenius_si(1e12, 2) == pytest.approx(1e6)
        assert arrhenius_si(1e12, 3) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            arrhenius_si(1.0, 4)

    def test_wavenumber_conversions(self):
        # 1 eV ~ 8065.5 cm^-1
        assert wavenumber_to_joule(8065.5) == pytest.approx(
            ev_to_joule(1.0), rel=1e-4)
        # 1 cm^-1 ~ 1.4388 K
        assert wavenumber_to_kelvin(1.0) == pytest.approx(1.4388,
                                                          rel=1e-3)

    def test_planck_wien_displacement(self):
        # B_lambda at 5800 K peaks near 0.50 um
        lam = np.linspace(0.1e-6, 3e-6, 4000)
        B = planck_lambda(lam, 5800.0)
        assert lam[np.argmax(B)] == pytest.approx(2.898e-3 / 5800.0,
                                                  rel=0.01)

    def test_planck_stefan_boltzmann(self):
        from repro.constants import SIGMA_SB
        lam = np.geomspace(1e-8, 1e-3, 20000)
        T = 6000.0
        q = np.pi * np.trapezoid(planck_lambda(lam, T), lam)
        assert q == pytest.approx(SIGMA_SB * T**4, rel=1e-3)


class TestSmallSurfaces:
    def test_reaction_delta_nu(self):
        from repro.thermo.kinetics import Reaction
        rx = Reaction.from_cgs("N2 + M <=> 2N + M", {"N2": 1}, {"N": 2},
                               7e21, -1.6, 113200.0, third_body=True)
        assert rx.delta_nu == 1

    def test_kinetics_imports_first(self):
        # a fresh interpreter importing the kinetics module before
        # anything else must not trip the kinetics <-> numerics cycle
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.thermo.kinetics"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_vehicle_with_bank(self):
        from repro.trajectory import AOTV
        banked = AOTV.with_bank(0.5)
        assert banked.cl == pytest.approx(0.5 * AOTV.cl)
        assert banked.cd == AOTV.cd  # drag unchanged

    def test_speciesdb_len_iter(self, air11):
        assert len(air11) == 11
        assert [sp.name for sp in air11][:2] == ["N2", "O2"]

    def test_runner_covers_all_figures(self):
        from repro.experiments.runner import _MODULES
        names = [n for n, _ in _MODULES]
        assert names == [f"fig{i}" for i in range(1, 10)]
        for _, mod in _MODULES:
            assert hasattr(mod, "run") and hasattr(mod, "main")

    def test_blsolution_fields(self):
        from repro.solvers.boundary_layer import solve_falkner_skan
        sol = solve_falkner_skan(0.0, Pr=0.71, gw=0.9)
        assert sol.eta.shape == sol.fp.shape == sol.g.shape
        # catlint: disable=CAT010 -- f(0) = 0 is the imposed wall boundary condition
        assert sol.f[0] == 0.0

    def test_freestream_frozen_pressure_override(self):
        from repro.core import FreeStream
        fs = FreeStream(rho=1.0, T=300.0, V=0.0, p=12345.0)
        # catlint: disable=CAT010 -- explicit p is stored, not derived
        assert fs.p == 12345.0
