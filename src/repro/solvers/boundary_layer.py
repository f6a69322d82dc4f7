"""Compressible laminar boundary layer (the BL of E+BL).

:class:`StagnationSimilarityBL` solves the Lees–Dorodnitsyn similarity
equations at an axisymmetric stagnation point::

    (C f'')' + f f'' + beta (rho_e/rho - f'^2) = 0,  beta = 1/2
    (C/Pr g')' + f g' = 0

with C = (rho mu)/(rho_e mu_e) evaluated along the layer from the local
enthalpy at the (constant) edge pressure — for the equilibrium-air gas
model this is a numerical Fay–Riddell calculation.  The two-point
problem (f = f' = 0, g = gw at the wall; f' = g = 1 at the edge) is
solved in one collocation solve of the first-order system; strongly
cooled real-gas walls that defeat the direct solve are reached by a
(gw, C) continuation ladder.  Downstream (local-similarity) heating
built on this stagnation solution lives in :mod:`repro.solvers.pns`.

Self-similar incompressible limits (Blasius for the flat plate via
beta = 0, Homann-like stagnation values) validate the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# solve_ivp stays bound here: perfbench/layers.py wraps this module's name
from scipy.integrate import solve_bvp, solve_ivp  # noqa: F401

from repro.errors import ConvergenceError, InputError

__all__ = ["StagnationSimilarityBL", "BLSolution", "solve_falkner_skan"]

#: Collocation residual tolerance and mesh-node cap.  C(g) is usually a
#: piecewise-linear table, so dC/dg jumps at the table nodes and the mesh
#: refines around every kink: a 48-node air table ends near 1,100 nodes
#: at this tolerance, and much tighter ones exhaust any sensible cap.
_BVP_TOL = 1e-5
_MAX_NODES = 5000
#: Nodes of the initial collocation mesh and of the returned profile.
_N_MESH = 161
_N_OUT = 201


@dataclass
class BLSolution:
    """Similarity boundary-layer profile."""

    eta: np.ndarray
    f: np.ndarray          #: stream function
    fp: np.ndarray         #: velocity ratio u/u_e
    g: np.ndarray          #: total-enthalpy ratio h0/h0e
    fpp0: float            #: wall shear parameter f''(0)
    gp0: float             #: wall heat parameter g'(0)


def _similarity_rhs(beta, C_of_g, Pr, gw):
    """Right-hand side z' = rhs(eta, z) of the first-order system
    z = (f, f', f'', g, g'), vectorised over the columns of z."""

    def rhs(eta, z):
        f, fp, fpp, g, gp = z
        # clip runaway Newton iterates so a bad trial profile returns a
        # large-but-finite residual instead of overflowing
        f = np.clip(f, -50.0, 50.0)
        fp = np.clip(fp, -10.0, 10.0)
        fpp = np.clip(fpp, -100.0, 100.0)
        g = np.clip(g, 0.02, 10.0)
        gp = np.clip(gp, -100.0, 100.0)
        C = C_of_g(g)
        # (C f'')' = C' f'' + C f''' => f''' = [ -f f'' - beta(rho_e/rho
        #   - fp^2) - C' f'' ] / C ; with C treated locally constant per
        # step (C' folded via finite differences of g would need dC/deta;
        # use the standard approximation C' ~ dC/dg * gp)
        dC = (C_of_g(g + 1e-6) - C) / 1e-6
        Cp = dC * gp
        rho_ratio = _rho_e_over_rho(g, gw)
        fppp = (-f * fpp - beta * (rho_ratio - fp * fp) - Cp * fpp) / C
        gpp = (-f * gp * Pr / C) - (Cp / C) * gp
        return np.array([fp, fpp, fppp, gp, gpp])

    return rhs


def _rho_e_over_rho(g, gw):
    """Density ratio across the layer.

    For a constant-pressure layer of a thermally perfect gas the density
    is inversely proportional to the static enthalpy; using the total-
    enthalpy ratio g is the standard low-speed-at-the-wall approximation
    at a stagnation point (u ~ 0 there, so static ~ total).
    """
    return np.maximum(g, 0.05)


def _starting_profile(beta, gw, eta):
    """Exponential-approach profile whose wall shear is the empirical
    f''(0) across the beta range, with g following f' (Crocco-like)."""
    a = 0.47 + 0.62 * beta
    # catlint: disable=CAT004 -- a > 0 and eta >= 0: the exponent is <= 0
    decay = np.exp(-a * eta)
    fp = 1.0 - decay
    fpp = a * decay
    return np.array([eta - fp / a, fp, fpp, gw + (1.0 - gw) * fp,
                     (1.0 - gw) * fpp])


def _collocate(beta, Pr, gw, C_of_g, eta, z):
    """One collocation solve on mesh ``eta`` from profile ``z``."""

    def bc(z0, z_edge):
        return np.array([z0[0], z0[1], z0[3] - gw,
                         z_edge[1] - 1.0, z_edge[3] - 1.0])

    sol = solve_bvp(_similarity_rhs(beta, C_of_g, Pr, gw), bc, eta, z,
                    tol=_BVP_TOL, max_nodes=_MAX_NODES)
    if not sol.success:
        raise ConvergenceError(f"BL collocation failed: {sol.message}")
    return sol


def solve_falkner_skan(beta, *, Pr=0.71, gw=1.0, C_of_g=None,
                       eta_max=8.0):
    """Collocation solution of the similarity system.

    ``beta = 0`` with C = 1, g = 1 reduces to Blasius; ``beta = 1/2`` is
    the axisymmetric stagnation point.  Strongly cooled real-gas walls
    (gw << 1, C far from 1) are reached by parameter continuation from an
    easy nearby problem when the direct solve fails.

    Returns a :class:`BLSolution` on a uniform 201-point eta grid.
    """
    if C_of_g is None:
        C_of_g = lambda g: np.ones_like(np.asarray(g, float))  # noqa: E731
    eta = np.linspace(0.0, eta_max, _N_MESH)
    try:
        sol = _collocate(beta, Pr, gw, C_of_g, eta,
                         _starting_profile(beta, gw, eta))
    except ConvergenceError:
        # continuation: blend from (gw=0.8, C=1) toward the target, each
        # rung starting from the previous rung's mesh and profile
        z = _starting_profile(beta, 0.8, eta)
        for w in (0.0, 0.3, 0.6, 0.85, 1.0):
            gw_k = 0.8 + w * (gw - 0.8)

            def C_k(g, w=w):
                return (1.0 - w) + w * np.asarray(C_of_g(g), float)

            sol = _collocate(beta, Pr, gw_k, C_k, eta, z)
            eta, z = sol.x, sol.y
    eta_out = np.linspace(0.0, eta_max, _N_OUT)
    f, fp, _, g, _ = sol.sol(eta_out)
    # the wall values are imposed: pin them against Newton round-off
    f[0], fp[0], g[0] = 0.0, 0.0, gw
    return BLSolution(eta=eta_out, f=f, fp=fp, g=g,
                      fpp0=float(sol.y[2, 0]), gp0=float(sol.y[4, 0]))


class StagnationSimilarityBL:
    """Axisymmetric stagnation-point boundary layer with a real-gas C(g).

    Parameters
    ----------
    h0e:
        Edge total enthalpy [J/kg].
    p_e:
        Edge (stagnation) pressure [Pa].
    rho_e, mu_e:
        Edge density and viscosity.
    rho_mu_of_h:
        Callable (rho*mu)(h) at constant p_e; if omitted, the ideal
        Chapman C = 1 closure is used.
    Pr:
        Prandtl number.
    """

    BETA = 0.5

    def __init__(self, *, h0e, p_e, rho_e, mu_e, rho_mu_of_h=None,
                 Pr=0.71):
        if h0e <= 0 or p_e <= 0:
            raise InputError("h0e and p_e must be positive")
        self.h0e = h0e
        self.p_e = p_e
        self.rho_e = rho_e
        self.mu_e = mu_e
        self.Pr = Pr
        if rho_mu_of_h is None:
            self._C_of_g = None
        else:
            rme = rho_mu_of_h(h0e)

            def C_of_g(g):
                h = np.maximum(np.asarray(g, float), 0.02) * h0e
                return np.maximum(rho_mu_of_h(h) / rme, 1e-3)

            self._C_of_g = C_of_g

    def solve(self, hw, *, eta_max=8.0) -> BLSolution:
        """Solve for a wall enthalpy hw [J/kg]."""
        gw = hw / self.h0e
        if not (0.0 < gw < 1.0):
            raise InputError("wall enthalpy must be below edge total "
                             "enthalpy")
        return solve_falkner_skan(self.BETA, Pr=self.Pr, gw=gw,
                                  C_of_g=self._C_of_g, eta_max=eta_max)

    def heat_flux(self, hw, due_dx, *, solution: BLSolution | None = None):
        """Dimensional stagnation heat flux [W/m^2].

        q_w = (C_w / Pr) g'(0) h0e sqrt(2 due/dx rho_e mu_e)
        """
        sol = solution if solution is not None else self.solve(hw)
        gw = hw / self.h0e
        Cw = 1.0 if self._C_of_g is None else float(self._C_of_g(gw))
        # catlint: disable=CAT002 -- rho_e, mu_e are a positive edge
        # state and due_dx a physical stagnation velocity gradient
        return (Cw / self.Pr) * sol.gp0 * self.h0e \
            * np.sqrt(2.0 * due_dx * self.rho_e * self.mu_e)
