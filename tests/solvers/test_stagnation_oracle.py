"""Oracle tests of the stagnation-point path against recorded values.

The reference numbers were computed with the previous solvers of this
path — Falkner–Skan shooting (three RK45 integrations per Newton step),
the 0.7-damped fixed point on the shock density ratio and the linear
density fixed point of ``solve_T_p`` — at the conditions below.  The
collocation boundary layer and the secant iterations must reproduce them
within 0.5 % (they agree to a few 1e-6 in practice).
"""

import numpy as np
import pytest

import repro.solvers.boundary_layer as bl
from repro.atmosphere import EarthAtmosphere, TitanAtmosphere
from repro.errors import ConvergenceError
from repro.geometry import OrbiterWindwardProfile
from repro.solvers.pns import WindwardHeatingPNS
from repro.solvers.shock import equilibrium_normal_shock
from repro.solvers.vsl import StagnationVSL

REL = 5e-3

#: (V [m/s], h [m], nose radius [m]) -> (q_conv, q_rad [W/m^2],
#: standoff [m]); the four strata of the stagnation benchmark, Earth
#: air, T_wall = 1500 K, 40 profile points, 150 wavelengths.
VSL_AIR = {
    (6000.0, 55000.0, 1.0): (874702.7621588771, 12336.608115237379,
                             0.05582349096901353),
    (9000.0, 80000.0, 0.4): (907308.0624769625, 613.6936360498985,
                             0.016754201642723454),
    (12000.0, 67000.0, 2.0): (2604649.998848394, 2641093.6155982222,
                              0.09240555836689403),
    (7500.0, 80000.0, 0.6): (403802.20216628653, 132.8367195961791,
                             0.024764148960312114),
}

#: Fig 2 Titan point: 10 km/s at 287 km, 0.64 m nose, T_wall = 1800 K.
VSL_TITAN = (3572340.879646323, 117418.31851551746, 0.02858475992650172)

#: Equilibrium normal shock in Earth air: V -> (altitude, T2, eps).
SHOCK = {6000.0: (55000.0, 5879.996329017619, 0.07156857816540196),
         12000.0: (67000.0, 11548.825026838424, 0.05923433228647053)}

#: STS-3 windward point (71.3 km, 6.74 km/s, T_wall = 1100 K).
PNS_Q_STAG = 389688.0674233696

_GPTS = np.linspace(0.02, 1.0, 12)
_CPTS = np.array([3.0, 2.0, 1.66, 1.52, 1.42, 1.34, 1.27, 1.21, 1.15,
                  1.09, 1.05, 1.0])


def _deep_cooling_C(g):
    return np.interp(np.asarray(g, float), _GPTS, _CPTS)


#: name -> (beta, gw, C_of_g, fpp0, gp0) at Pr = 0.71.
BL_CASES = {
    "blasius": (0.0, 0.999, None, 0.4695999247782185,
                0.00041603078549745117),
    "homann": (0.5, 0.999, None, 0.9273337486442182,
               0.0004730300630927727),
    "deep_cooling": (0.5, 0.05, _deep_cooling_C, 0.25695124655713014,
                     0.17915701795382316),
}


@pytest.mark.parametrize("name", sorted(BL_CASES))
def test_boundary_layer_wall_gradients(name):
    beta, gw, C, fpp0, gp0 = BL_CASES[name]
    sol = bl.solve_falkner_skan(beta, Pr=0.71, gw=gw, C_of_g=C)
    assert sol.fpp0 == pytest.approx(fpp0, rel=REL)
    assert sol.gp0 == pytest.approx(gp0, rel=REL)
    assert sol.eta.shape == sol.f.shape == sol.fp.shape == sol.g.shape \
        == (201,)
    assert sol.fp[-1] == pytest.approx(1.0, abs=1e-6)
    assert sol.g[0] == pytest.approx(gw, abs=1e-9)


def test_continuation_fallback_reaches_the_direct_solution(monkeypatch):
    beta, gw, C, _fpp0, _gp0 = BL_CASES["deep_cooling"]
    direct = bl.solve_falkner_skan(beta, Pr=0.71, gw=gw, C_of_g=C)
    real = bl._collocate
    walls = []

    def fail_direct(beta, Pr, gw_k, *args):
        walls.append(gw_k)
        if len(walls) == 1:
            raise ConvergenceError("forced direct-solve failure")
        return real(beta, Pr, gw_k, *args)

    monkeypatch.setattr(bl, "_collocate", fail_direct)
    laddered = bl.solve_falkner_skan(beta, Pr=0.71, gw=gw, C_of_g=C)
    # the direct attempt, then the five continuation rungs ending on gw
    assert len(walls) == 6
    assert walls[1] == pytest.approx(0.8)
    assert walls[-1] == pytest.approx(gw)
    assert laddered.gp0 == pytest.approx(direct.gp0, rel=1e-6)
    assert laddered.fpp0 == pytest.approx(direct.fpp0, rel=1e-6)


@pytest.mark.parametrize("V", sorted(SHOCK))
def test_equilibrium_normal_shock(air_gas, V):
    h, T2, eps = SHOCK[V]
    atm = EarthAtmosphere()
    shock = equilibrium_normal_shock(air_gas, float(atm.density(h)),
                                     float(atm.temperature(h)), V)
    assert shock["T2"] == pytest.approx(T2, rel=REL)
    assert shock["eps"] == pytest.approx(eps, rel=REL)


@pytest.mark.parametrize("cond", sorted(VSL_AIR))
def test_vsl_benchmark_strata(cond):
    from repro.core.api import make_gas
    V, h, rn = cond
    atm = EarthAtmosphere()
    sol = StagnationVSL(make_gas("equilibrium-air"), nose_radius=rn).solve(
        rho_inf=float(atm.density(h)), T_inf=float(atm.temperature(h)),
        V=V, T_wall=1500.0, n_profile=40, n_lambda=150)
    q_conv, q_rad, standoff = VSL_AIR[cond]
    assert sol.q_conv == pytest.approx(q_conv, rel=REL)
    assert sol.q_rad == pytest.approx(q_rad, rel=REL)
    assert sol.standoff == pytest.approx(standoff, rel=REL)


def test_vsl_titan_fig2_point(titan_gas):
    atm = TitanAtmosphere()
    h = 287e3
    sol = StagnationVSL(titan_gas, nose_radius=0.64).solve(
        rho_inf=float(atm.density(h)), T_inf=float(atm.temperature(h)),
        V=10000.0, T_wall=1800.0, n_profile=50, n_lambda=150)
    q_conv, q_rad, standoff = VSL_TITAN
    assert sol.q_conv == pytest.approx(q_conv, rel=REL)
    assert sol.q_rad == pytest.approx(q_rad, rel=REL)
    assert sol.standoff == pytest.approx(standoff, rel=REL)


def test_pns_equilibrium_stagnation(air_gas):
    atm = EarthAtmosphere()
    h = 71300.0
    pns = WindwardHeatingPNS(OrbiterWindwardProfile(40.0, 1.3), gas=air_gas)
    stag = pns._stagnation_equilibrium(float(atm.density(h)),
                                       float(atm.temperature(h)), 6740.0,
                                       1100.0)
    assert stag["q_stag"] == pytest.approx(PNS_Q_STAG, rel=REL)
