"""One-dimensional finite-volume Euler solver.

The validation workhorse: MUSCL + HLLE (or any flux from the numerics
toolbox) with SSP-RK2 time stepping, verified against the exact Riemann
solution (Sod problem) in the integration tests and benchmarked in
bench_upwind.
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasEOS, IdealGasEOS, eos_from_spec, eos_spec
from repro.errors import InputError
from repro.numerics.fluxes import hlle_flux, primitives
from repro.numerics.limiters import minmod
from repro.numerics.muscl import muscl_interface_states
from repro.numerics.time_integration import (cfl_timestep_1d, check_state,
                                             ssp_rk2_step)
from repro.numerics.upwind import (ausm_plus_flux, steger_warming_flux,
                                   van_leer_flux)
from repro.solvers.degradable import QuarantineMixin

__all__ = ["Euler1DSolver"]

_FLUXES = {"hlle": None, "van_leer": van_leer_flux,
           "steger_warming": steger_warming_flux, "ausm": ausm_plus_flux}


class Euler1DSolver(QuarantineMixin):
    """Shock-capturing 1-D Euler solver on a fixed node grid.

    Parameters
    ----------
    x_nodes:
        Cell-interface coordinates (n+1 for n cells), strictly increasing.
    eos:
        Equation of state (defaults to ideal air).
    flux:
        "hlle" (any EOS), or "van_leer" / "steger_warming" / "ausm"
        (ideal gas).
    order:
        1 or 2 (MUSCL with the given limiter).
    bc:
        ("transmissive"|"reflective", same) for the two ends.
    """

    def __init__(self, x_nodes, eos: GasEOS | None = None, *,
                 flux: str = "hlle", order: int = 2, limiter=minmod,
                 bc=("transmissive", "transmissive")):
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        if np.any(np.diff(self.x_nodes) <= 0):
            raise InputError("x_nodes must be strictly increasing")
        self.dx = np.diff(self.x_nodes)
        self.xc = 0.5 * (self.x_nodes[1:] + self.x_nodes[:-1])
        self.n = self.xc.size
        self.eos = eos if eos is not None else IdealGasEOS(1.4)
        if flux not in _FLUXES:
            raise InputError(f"unknown flux {flux!r}; options: "
                             f"{sorted(_FLUXES)}")
        self.flux_name = flux
        self.order = order
        self.limiter = limiter
        self.bc = bc
        self.U = None
        self.t = 0.0
        self.steps = 0
        self.converged = False
        self.quarantined_cells = None

    state_attrs = ("U", "t", "steps")

    # ------------------------------------------------------------------
    # resilience protocol
    # ------------------------------------------------------------------

    @property
    def closed_domain(self) -> bool:
        """True when both boundaries are reflective walls — mass and
        energy are then exact invariants the watchdog can audit."""
        return self.bc == ("reflective", "reflective")

    def conservation_totals(self):
        """Global invariants for the conservation watchdog."""
        return {"mass": float(np.sum(self.U[:, 0] * self.dx)),
                "energy": float(np.sum(self.U[:, 2] * self.dx))}

    def total_entropy(self):
        """Global entropy functional ``sum(rho s dx)`` with the ideal-gas
        ``s = ln(p) - gamma ln(rho)`` (per unit R/(gamma-1); only the
        sign of changes matters to the watchdog).  None for non-ideal
        EOS."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None:
            return None
        rho, _, p = self.primitives()
        s = np.log(np.maximum(p, 1e-300)) \
            - gamma * np.log(np.maximum(rho, 1e-300))
        return float(np.sum(rho * s * self.dx))

    def persist_config(self):
        """JSON-able constructor fingerprint (durable checkpoints)."""
        return {"flux": self.flux_name, "order": int(self.order),
                "limiter": self.limiter.__name__, "bc": list(self.bc),
                "n": int(self.n), "eos": eos_spec(self.eos)}

    def persist_arrays(self):
        """Constructor ndarrays persisted alongside the state."""
        return {"x_nodes": self.x_nodes}

    @classmethod
    def from_persist(cls, config, arrays):
        """Rebuild a state-less instance from a snapshot manifest."""
        from repro.numerics import limiters as _limiters
        return cls(arrays["x_nodes"], eos_from_spec(config["eos"]),
                   flux=config["flux"], order=config["order"],
                   limiter=getattr(_limiters, config["limiter"]),
                   bc=tuple(config["bc"]))

    # ------------------------------------------------------------------

    def set_initial(self, rho, u, p):
        """Initialise from primitive fields (broadcast to the grid)."""
        rho = np.broadcast_to(np.asarray(rho, float), (self.n,)).copy()
        u = np.broadcast_to(np.asarray(u, float), (self.n,)).copy()
        p = np.broadcast_to(np.asarray(p, float), (self.n,)).copy()
        e = self._e_from_p_rho(p, rho)
        self.U = np.stack([rho, rho * u, rho * (e + 0.5 * u * u)], axis=-1)
        self.t = 0.0
        self.steps = 0
        return self

    def _e_from_p_rho(self, p, rho):
        if hasattr(self.eos, "e_from_p_rho"):
            return self.eos.e_from_p_rho(p, rho)
        raise InputError("EOS cannot invert p(rho, e)")

    def _ghost(self, U):
        """Two ghost cells per side according to the boundary conditions."""
        left, right = self.bc
        g = np.empty((U.shape[0] + 4, 3), dtype=np.float64)
        g[2:-2] = U
        # left boundary
        if left == "transmissive":
            g[0] = U[0]
            g[1] = U[0]
        elif left == "reflective":
            g[0] = U[1] * np.array([1.0, -1.0, 1.0])
            g[1] = U[0] * np.array([1.0, -1.0, 1.0])
        else:
            raise InputError(f"unknown bc {left!r}")
        if right == "transmissive":
            g[-1] = U[-1]
            g[-2] = U[-1]
        elif right == "reflective":
            g[-1] = U[-2] * np.array([1.0, -1.0, 1.0])
            g[-2] = U[-1] * np.array([1.0, -1.0, 1.0])
        else:
            raise InputError(f"unknown bc {right!r}")
        return g

    def _face_flux(self, U):
        g = self._ghost(U)
        fo = None
        if self.quarantined_cells is not None:
            fo = np.pad(self.quarantined_cells, 2, mode="edge")
        WL, WR = muscl_interface_states(g, order=self.order,
                                        limiter=self.limiter,
                                        first_order_mask=fo)
        # faces of interest: between cells -1|0 ... n-1|n (n+1 faces) —
        # the ghost array has n+4 cells and n+3 faces; drop the outermost
        WL = WL[1:-1]
        WR = WR[1:-1]
        if self.flux_name == "hlle":
            return hlle_flux(WL, WR, self.eos)
        fn = _FLUXES[self.flux_name]
        gamma = getattr(self.eos, "gamma", 1.4)
        return fn(WL, WR, gamma)

    def residual(self, U):
        """dU/dt = -(F_{i+1/2} - F_{i-1/2}) / dx."""
        F = self._face_flux(U)
        return -(F[1:] - F[:-1]) / self.dx[:, None]

    # ------------------------------------------------------------------

    def step(self, dt):
        self.U = ssp_rk2_step(self.U, dt, self.residual)
        self.t += dt
        self.steps += 1
        check_state(self.U, step=self.steps, label="euler1d")

    def run(self, t_final, *, cfl=0.45, max_steps=100000, **supervision):
        """Advance to ``t_final`` with CFL-limited steps, at most
        ``max_steps`` of them in this call (a later ``run()`` gets a
        fresh budget, which is what a resumed march relies on).

        ``self.converged`` records whether ``t_final`` was reached.
        ``**supervision``: the supervision keywords documented on
        :meth:`~repro.solvers.degradable.QuarantineMixin._march`.
        """
        if self.U is None:
            raise InputError("call set_initial first")
        return self._march(self._cfl_step(t_final), n_steps=max_steps,
                           cfl=cfl, stop=lambda: self.t >= t_final - 1e-15,
                           run_kwargs={"t_final": t_final, "cfl": cfl,
                                       "max_steps": max_steps},
                           label="euler1d", **supervision)

    def _cfl_step(self, t_final):
        """One CFL-limited step toward ``t_final`` as a closure over the
        current CFL number (the supervisor's backoff knob)."""
        def advance(cfl_now):
            w = primitives(self.U, self.eos)
            dt = cfl_timestep_1d(self.dx, w["vel"][0], w["a"], cfl_now)
            self.step(min(dt, t_final - self.t))
        return advance

    # ------------------------------------------------------------------

    def primitives(self):
        """Current (rho, u, p) fields."""
        w = primitives(self.U, self.eos)
        return w["rho"], w["vel"][0], w["p"]

    def total_mass(self):
        return float(np.sum(self.U[:, 0] * self.dx))

    def total_energy(self):
        return float(np.sum(self.U[:, 2] * self.dx))
