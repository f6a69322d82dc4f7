"""Shock-wave and isentropic-flow relations, ideal and equilibrium gas.

The frozen (calorically perfect) relations are closed-form; the equilibrium
real-gas normal shock iterates the Rankine–Hugoniot system against the
Gibbs equilibrium solver — the density ratio no longer saturates at
(gamma+1)/(gamma-1) ~ 6 but climbs toward 15+ as dissociation absorbs the
shock heating, which is exactly the standoff-distance physics of Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, InputError
from repro.thermo.equilibrium import EquilibriumGas

__all__ = ["normal_shock_ideal", "isentropic_ratios", "oblique_shock_beta",
           "pitot_pressure_ideal", "equilibrium_normal_shock",
           "frozen_post_shock_state"]


def normal_shock_ideal(M1, gamma: float = 1.4):
    """Ideal-gas normal-shock jump ratios.

    Returns dict with p2/p1, rho2/rho1, T2/T1, M2, p02/p01.
    """
    M1 = np.asarray(M1, dtype=float)
    if np.any(M1 <= 1.0):
        raise InputError("normal shock requires M1 > 1")
    if gamma <= 1.0:
        raise InputError("gamma must exceed 1")
    g = gamma
    m2 = M1 * M1
    p_ratio = 1.0 + 2.0 * g / (g + 1.0) * (m2 - 1.0)
    rho_ratio = (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0)
    T_ratio = p_ratio / rho_ratio
    # catlint: disable=CAT002,CAT003 -- g > 1 and m2 > 1 validated, so
    # the argument and the denominator 2 g m2 - (g - 1) > g + 1 stay
    # positive
    M2 = np.sqrt(((g - 1.0) * m2 + 2.0) / (2.0 * g * m2 - (g - 1.0)))
    # catlint: disable=CAT003 -- g > 1 validated above
    p0_ratio = (rho_ratio ** (g / (g - 1.0))
                * p_ratio ** (-1.0 / (g - 1.0)))
    return {"p_ratio": p_ratio, "rho_ratio": rho_ratio,
            "T_ratio": T_ratio, "M2": M2, "p0_ratio": p0_ratio}


def isentropic_ratios(M, gamma: float = 1.4):
    """Stagnation-to-static isentropic ratios at Mach M."""
    M = np.asarray(M, dtype=float)
    if gamma <= 1.0:
        raise InputError("gamma must exceed 1")
    g = gamma
    T0_T = 1.0 + 0.5 * (g - 1.0) * M * M
    # catlint: disable=CAT003 -- g > 1 validated above
    return {"T0_T": T0_T,
            "p0_p": T0_T ** (g / (g - 1.0)),
            "rho0_rho": T0_T ** (1.0 / (g - 1.0))}


def pitot_pressure_ideal(M1, p1, gamma: float = 1.4):
    """Rayleigh pitot pressure behind a normal shock at supersonic M1."""
    ns = normal_shock_ideal(M1, gamma)
    isen = isentropic_ratios(ns["M2"], gamma)
    return np.asarray(p1, dtype=float) * ns["p_ratio"] * isen["p0_p"]


def oblique_shock_beta(M1, theta_rad, gamma: float = 1.4, *, weak=True,
                       tol=1e-12, max_iter=200):
    """Shock angle beta for flow deflection theta (theta-beta-M relation).

    Parameters
    ----------
    weak:
        Select the weak (attached) branch.

    Raises
    ------
    InputError
        If the deflection exceeds the maximum attached-shock angle.
    """
    M1 = float(M1)
    theta = float(theta_rad)
    if M1 <= 1.0:
        raise InputError("oblique shock requires M1 > 1")
    if theta <= 0.0:
        return np.arcsin(1.0 / M1)  # Mach wave

    def theta_of_beta(beta):
        m2 = M1 * M1
        num = m2 * np.sin(beta) ** 2 - 1.0
        den = m2 * (gamma + np.cos(2.0 * beta)) + 2.0
        return np.arctan(2.0 / np.tan(beta) * num / den)

    beta_min = np.arcsin(1.0 / M1) + 1e-9
    beta_max = np.pi / 2.0 - 1e-9
    # locate the maximum deflection to split branches
    bs = np.linspace(beta_min, beta_max, 400)
    ths = np.array([theta_of_beta(b) for b in bs])
    i_max = int(np.argmax(ths))
    if theta > ths[i_max]:
        raise InputError(f"deflection {np.rad2deg(theta):.2f} deg exceeds "
                         f"max {np.rad2deg(ths[i_max]):.2f} deg (detached)")
    lo, hi = ((beta_min, bs[i_max]) if weak else (bs[i_max], beta_max))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        t_mid = theta_of_beta(mid)
        if weak:
            lo, hi = (mid, hi) if t_mid < theta else (lo, mid)
        else:
            lo, hi = (mid, hi) if t_mid > theta else (lo, mid)
        if hi - lo < tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError("theta-beta-M bisection failed",
                           iterations=max_iter)


def frozen_post_shock_state(rho1, T1, u1, *, gamma=1.4, R=287.0528):
    """Dimensional ideal-gas post-shock state for upstream (rho1, T1, u1).

    Returns dict with rho2, T2, p2, u2.
    """
    a1 = np.sqrt(gamma * R * T1)  # catlint: disable=CAT002 -- physical upstream T1 > 0, gamma/R positive
    M1 = u1 / a1
    ns = normal_shock_ideal(M1, gamma)
    rho2 = rho1 * ns["rho_ratio"]
    T2 = T1 * ns["T_ratio"]
    p2 = rho1 * R * T1 * ns["p_ratio"]
    return {"rho2": rho2, "T2": T2, "p2": p2,
            "u2": u1 / ns["rho_ratio"]}


def equilibrium_normal_shock(gas: EquilibriumGas, rho1, T1, u1, *,
                             tol=1e-10, max_iter=100):
    """Normal shock with equilibrium real-gas downstream state.

    Upstream is taken as the (frozen) reference mixture at (rho1, T1)
    moving at u1 in the shock frame.  Solves Rankine–Hugoniot by a
    guarded secant iteration on the inverse density ratio::

        eps = rho1/rho2
        u2  = eps u1
        p2  = p1 + rho1 u1^2 (1 - eps)
        h2  = h1 + u1^2 (1 - eps^2) / 2
        T2 from h_eq(T2, p2) = h2; rho2 from the equilibrium state.

    Returns dict with rho2, T2, p2, u2, y2 (equilibrium composition),
    eps, and the upstream p1/h1.
    """
    rho1 = float(rho1)
    T1 = float(T1)
    u1 = float(u1)
    y1 = gas.y_ref
    p1 = float(gas.mix.pressure(np.array(rho1), np.array(T1), y1))
    h1 = float(gas.mix.h_mass(np.array(T1), y1))
    a1 = float(gas.mix.sound_speed_frozen(np.array(T1), y1))
    if u1 <= a1:
        raise InputError("equilibrium shock requires supersonic upstream")
    eps = 0.1  # strong-shock starting guess
    T2 = max(4.0 * T1, 1000.0)
    eps_prev = res_prev = None
    for it in range(max_iter):
        u2 = eps * u1
        p2 = p1 + rho1 * u1**2 * (1.0 - eps)
        h2 = h1 + 0.5 * u1**2 * (1.0 - eps**2)
        # find T2 with h_eq(T2, p2) = h2 (bracketed Newton, warm start)
        T2 = _solve_T_of_h_p(gas, h2, p2, T2)
        y2, rho2 = gas.composition_T_p(np.array(T2), np.array(p2))
        rho2 = float(rho2)
        eps_new = rho1 / rho2
        res = eps_new - eps
        if abs(res) < tol:
            return {"rho2": rho2, "T2": T2, "p2": p2, "u2": eps_new * u1,
                    "y2": y2, "eps": eps_new, "p1": p1, "h1": h1}
        # secant on the fixed-point residual; the damped update (the map
        # is a contraction for strong shocks) starts it and takes over
        # whenever the secant step leaves (0, 1)
        eps_next = 0.7 * eps_new + 0.3 * eps
        if res_prev is not None and res != res_prev:
            # catlint: disable=CAT003 -- res != res_prev checked above
            secant = eps - res * (eps - eps_prev) / (res - res_prev)
            if 0.0 < secant < 1.0:
                eps_next = secant
        eps_prev, res_prev = eps, res
        eps = eps_next
    raise ConvergenceError("equilibrium shock iteration failed",
                           iterations=max_iter)


def _solve_T_of_h_p(gas: EquilibriumGas, h_target, p, T_guess, *,
                    tol=1e-10, max_iter=60):
    """Invert h_eq(T, p) = h for T (monotone; bracketed Newton).

    Each iterate evaluates h at T and at T + dT (the slope) in one
    batched equilibrium solve.
    """
    T = float(T_guess)
    p_pair = np.full(2, float(p), dtype=np.float64)
    T_lo, T_hi = 50.0, 1.0e5
    for _ in range(max_iter):
        dT = 0.01 * T
        T_pair = np.array([T, T + dT])
        y, _ = gas.composition_T_p(T_pair, p_pair)
        h, h_pert = gas.mix.h_mass(T_pair, y)
        f = h - h_target
        if abs(f) < tol * max(abs(h_target), 1e4):
            return T
        if f > 0:
            T_hi = T
        else:
            T_lo = T
        T_new = T - f / max((h_pert - h) / dT, 1.0)
        if not (T_lo < T_new < T_hi):
            T_new = 0.5 * (T_lo + T_hi)
        T = T_new
    raise ConvergenceError("T(h, p) inversion failed", iterations=max_iter)
