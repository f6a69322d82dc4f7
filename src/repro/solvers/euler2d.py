"""Axisymmetric time-marching Euler solver (shock capturing).

The "E" of the paper's E+BL method and the inviscid core of the NS codes:
a cell-centred finite-volume scheme on the body-fitted blunt-body grid,
MUSCL + HLLE upwinding (the bow shock is captured, per Ref. 26), explicit
local-time-step marching "in a time-like manner until a steady state is
asymptotically achieved".

Axisymmetric formulation (per radian about the x axis, y = radial
coordinate): volumes and face normals are radius weighted, and the hoop
pressure appears as the radial-momentum source ``p * A_cell``.

Works with any :class:`~repro.core.gas.GasEOS` — the ideal gas for the
classical mode, the tabulated equilibrium-air EOS for the real-gas mode
(that pairing is the Fig. 4 experiment).
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasEOS, IdealGasEOS, eos_from_spec, eos_spec
from repro.errors import InputError, StabilityError
from repro.grid.structured import StructuredGrid2D
from repro.numerics.fluxes import (hlle_flux, primitives,
                                   rotate_from_normal, rotate_to_normal)
from repro.numerics.limiters import minmod
from repro.numerics.muscl import muscl_interface_states
from repro.numerics.time_integration import component_name
from repro.numerics.upwind import steger_warming_flux, van_leer_flux
from repro.solvers.degradable import QuarantineMixin

__all__ = ["AxisymmetricEulerSolver"]


class AxisymmetricEulerSolver(QuarantineMixin):
    """Blunt-body Euler solver on a body-fitted (i: surface, j: normal)
    grid.

    Boundary conventions:

    * i = 0: symmetry axis (upstream stagnation ray),
    * i = ni: supersonic outflow (extrapolation),
    * j = 0: body surface (slip wall),
    * j = nj: freestream inflow (Dirichlet).
    """

    def __init__(self, grid: StructuredGrid2D, eos: GasEOS | None = None,
                 *, order: int = 2, limiter=minmod, flux: str = "hlle"):
        self.grid = grid
        self.eos = eos if eos is not None else IdealGasEOS(1.4)
        self.order = order
        self.limiter = limiter
        if flux == "hlle":
            self._flux = lambda UL, UR: hlle_flux(UL, UR, self.eos)
        elif flux in ("steger_warming", "van_leer"):
            # FVS schemes are ideal-gas algebra; real-gas runs use HLLE
            if not isinstance(self.eos, IdealGasEOS):
                raise InputError(f"flux {flux!r} requires an ideal-gas "
                                 f"EOS; use 'hlle' for real gas")
            fn = (steger_warming_flux if flux == "steger_warming"
                  else van_leer_flux)
            gamma = self.eos.gamma
            self._flux = lambda UL, UR: fn(UL, UR, gamma)
        else:
            raise InputError(f"unknown flux {flux!r}")
        self.flux_name = flux
        self.vol = grid.axisymmetric_volumes()
        n_i, n_j = grid.axisymmetric_face_metrics()
        # unit normals + radius-weighted areas
        self.area_i = np.linalg.norm(n_i, axis=-1)
        self.area_j = np.linalg.norm(n_j, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.nhat_i = n_i / np.maximum(self.area_i, 1e-300)[..., None]
            self.nhat_j = n_j / np.maximum(self.area_j, 1e-300)[..., None]
        # plane-geometry face normals for wall ghost mirroring
        self.wall_normal = grid.n_j[:, 0, :] / np.maximum(
            np.linalg.norm(grid.n_j[:, 0, :], axis=-1), 1e-300)[:, None]
        self.U = None
        self.U_inf = None
        self.t = 0.0
        self.steps = 0
        self.converged = False
        self.residual_history: list[float] = []
        self.quarantined_cells = None

    #: Blunt-body domains exchange mass/energy through the inflow and
    #: outflow boundaries, so global budgets are not invariants here and
    #: the watchdog skips them (species/entropy audits still apply).
    closed_domain = False

    #: Complete for durable restarts: includes the freestream vector so
    #: a solver rebuilt from a manifest needs no ``set_freestream``.
    state_attrs = ("U", "t", "steps", "U_inf", "residual_history")

    # ------------------------------------------------------------------
    # resilience protocol
    # ------------------------------------------------------------------

    def conservation_totals(self):
        """Global totals (per radian): diagnostics, audited only on
        closed domains."""
        return {"mass": float(np.sum(self.U[..., 0] * self.vol)),
                "energy": float(np.sum(self.U[..., 3] * self.vol))}

    def total_entropy(self):
        """Global entropy functional ``sum(rho s vol)`` with the
        ideal-gas ``s = ln(p) - gamma ln(rho)``; None for non-ideal
        EOS."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None:
            return None
        w = primitives(self.U, self.eos)
        s = np.log(np.maximum(w["p"], 1e-300)) \
            - gamma * np.log(np.maximum(w["rho"], 1e-300))
        return float(np.sum(w["rho"] * s * self.vol))

    def persist_config(self):
        """JSON-able constructor fingerprint (durable checkpoints)."""
        return {"flux": self.flux_name, "order": int(self.order),
                "limiter": self.limiter.__name__,
                "grid": [int(self.grid.ni), int(self.grid.nj)],
                "eos": eos_spec(self.eos)}

    def persist_arrays(self):
        """Constructor ndarrays persisted alongside the state."""
        return {"grid_x": self.grid.x, "grid_y": self.grid.y}

    @classmethod
    def from_persist(cls, config, arrays):
        """Rebuild a state-less instance from a snapshot manifest."""
        from repro.numerics import limiters as _limiters
        grid = StructuredGrid2D(arrays["grid_x"], arrays["grid_y"])
        return cls(grid, eos_from_spec(config["eos"]),
                   order=config["order"],
                   limiter=getattr(_limiters, config["limiter"]),
                   flux=config["flux"])

    # ------------------------------------------------------------------

    def set_freestream(self, rho, u_x, p):
        """Initialise the whole field to a uniform x-directed freestream."""
        e = self.eos.e_from_p_rho(p, rho)
        self.U_inf = np.array([rho, rho * u_x, 0.0,
                               rho * (e + 0.5 * u_x**2)])
        ni, nj = self.grid.ni, self.grid.nj
        self.U = np.broadcast_to(self.U_inf, (ni, nj, 4)).copy()
        self.t = 0.0
        self.steps = 0
        self.residual_history = []
        return self

    # ------------------------------------------------------------------
    # ghost construction
    # ------------------------------------------------------------------

    def _pad_i(self, U):
        """Ghosts along i: axis mirror at i=0, extrapolation at i=ni."""
        g = np.empty((U.shape[0] + 4,) + U.shape[1:], dtype=np.float64)
        g[2:-2] = U
        # axis symmetry: mirror with radial momentum flipped
        flip = np.array([1.0, 1.0, -1.0, 1.0])
        g[1] = U[0] * flip
        g[0] = U[1] * flip
        g[-2] = U[-1]
        g[-1] = U[-1]
        return g

    def _pad_j(self, U):
        """Ghosts along j: slip wall at j=0, freestream at j=nj."""
        g = np.empty((U.shape[0], U.shape[1] + 4, 4), dtype=np.float64)
        g[:, 2:-2] = U
        # wall: mirror velocity about the wall tangent plane
        for k, src in ((1, 0), (0, 1)):
            Uw = U[:, src].copy()
            n = self.wall_normal
            mn = Uw[:, 1] * n[:, 0] + Uw[:, 2] * n[:, 1]
            Uw[:, 1] -= 2.0 * mn * n[:, 0]
            Uw[:, 2] -= 2.0 * mn * n[:, 1]
            g[:, k] = Uw
        g[:, -2] = self.U_inf
        g[:, -1] = self.U_inf
        return g

    # ------------------------------------------------------------------
    # residual
    # ------------------------------------------------------------------

    def residual(self, U):
        """dU/dt per cell (axisymmetric FV with hoop-pressure source)."""
        eos = self.eos
        fo_i = fo_j = None
        if self.quarantined_cells is not None:
            fo_i = np.pad(self.quarantined_cells, ((2, 2), (0, 0)),
                          mode="edge")
            fo_j = np.pad(self.quarantined_cells, ((0, 0), (2, 2)),
                          mode="edge")
        # ---- i-direction fluxes ----
        gi = self._pad_i(U)
        UL, UR = muscl_interface_states(gi, axis=0, order=self.order,
                                        limiter=self.limiter,
                                        first_order_mask=fo_i)
        UL, UR = UL[1:-1], UR[1:-1]          # (ni+1, nj, 4) faces
        nx, ny = self.nhat_i[..., 0], self.nhat_i[..., 1]
        F_i = rotate_from_normal(
            self._flux(rotate_to_normal(UL, nx, ny),
                       rotate_to_normal(UR, nx, ny)), nx, ny)
        F_i = F_i * self.area_i[..., None]
        # ---- j-direction fluxes ----
        gj = self._pad_j(U)
        VL, VR = muscl_interface_states(gj, axis=1, order=self.order,
                                        limiter=self.limiter,
                                        first_order_mask=fo_j)
        VL, VR = VL[:, 1:-1], VR[:, 1:-1]    # (ni, nj+1, 4)
        mx, my = self.nhat_j[..., 0], self.nhat_j[..., 1]
        F_j = rotate_from_normal(
            self._flux(rotate_to_normal(VL, mx, my),
                       rotate_to_normal(VR, mx, my)), mx, my)
        F_j = F_j * self.area_j[..., None]
        # ---- divergence + axisymmetric source ----
        div = (F_i[1:] - F_i[:-1]) + (F_j[:, 1:] - F_j[:, :-1])
        R = -div / self.vol[..., None]
        w = primitives(U, eos)
        R[..., 2] += w["p"] * self.grid.area / self.vol
        return R

    # ------------------------------------------------------------------
    # time marching
    # ------------------------------------------------------------------

    def local_timestep(self, cfl):
        """Per-cell explicit timestep from the inscribed length scale."""
        w = primitives(self.U, self.eos)
        speed = np.hypot(w["vel"][0], w["vel"][1]) + w["a"]
        return cfl * self.grid.min_cell_size() / speed

    def step(self, cfl=0.4):
        """One local-time-step forward-Euler update (steady-state mode)."""
        dt = self.local_timestep(cfl)
        R = self.residual(self.U)
        self.U = self.U + dt[..., None] * R
        self._sanitise()
        self.steps += 1
        # catlint: disable=CAT002 -- mean of squares is >= 0
        rho_res = float(np.sqrt(np.mean((R[..., 0] * dt) ** 2))
                        / max(float(np.mean(self.U[..., 0])), 1e-300))
        self.residual_history.append(rho_res)
        return rho_res

    def _sanitise(self):
        """Clip transient negative density/energy during shock formation."""
        U = self.U
        if not np.all(np.isfinite(U)):
            first = tuple(int(i) for i in np.argwhere(~np.isfinite(U))[0])
            comp = component_name(first[-1], U.shape[-1])
            raise StabilityError(
                f"euler2d: non-finite state at cell {first[:-1]}, "
                f"component {comp}",
                step=self.steps, cell=first[:-1], component=comp,
                value=float(U[first]))
        rho_floor = 1e-6 * float(self.U_inf[0])
        bad = U[..., 0] < rho_floor
        if np.any(bad):
            U[bad, :] = self.U_inf
        # energy floor: keep internal energy positive
        rho = U[..., 0]
        ke = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2) / rho
        e_min = 1e-8 * float(self.U_inf[3])
        U[..., 3] = np.maximum(U[..., 3], ke + e_min)

    def run(self, *, n_steps=4000, cfl=0.4, tol=1e-8, **supervision):
        """March to steady state; stops early when the residual drops
        below ``tol`` (relative density update per step).

        ``self.converged`` records whether ``tol`` was reached.
        ``**supervision``: the supervision keywords documented on
        :meth:`~repro.solvers.degradable.QuarantineMixin._march`.
        """
        if self.U is None:
            raise InputError("call set_freestream first")
        return self._march(self.step, n_steps=n_steps, cfl=cfl, tol=tol,
                           run_kwargs={"n_steps": n_steps, "cfl": cfl,
                                       "tol": tol},
                           label=type(self).__name__, **supervision)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def fields(self):
        """Primitive fields at cell centres (dict of (ni, nj) arrays)."""
        w = primitives(self.U, self.eos)
        return {"rho": w["rho"], "u": w["vel"][0], "v": w["vel"][1],
                "p": w["p"], "e": w["e"], "a": w["a"],
                "T": self.eos.temperature(w["rho"], w["e"]),
                "x": self.grid.xc, "y": self.grid.yc}

    def shock_location(self, *, threshold=1.5):
        """Bow-shock position along each i-ray.

        Detected as the outermost cell where density exceeds
        ``threshold`` x freestream.  Returns (x_shock, y_shock) arrays
        (NaN where no shock is found on a ray).
        """
        f = self.fields()
        rho_inf = float(self.U_inf[0])
        mask = f["rho"] > threshold * rho_inf
        ni, nj = mask.shape
        # outermost exceeding cell per ray: argmax of the reversed mask
        j_shock = nj - 1 - np.argmax(mask[:, ::-1], axis=1)
        has_shock = mask.any(axis=1)
        rays = np.arange(ni)
        xs = np.where(has_shock, f["x"][rays, j_shock], np.nan)
        ys = np.where(has_shock, f["y"][rays, j_shock], np.nan)
        return xs, ys

    def stagnation_standoff(self):
        """Shock standoff distance along the stagnation ray [m]."""
        xs, _ = self.shock_location()
        if np.isnan(xs[0]):
            raise StabilityError("no shock detected on the stagnation ray")
        # body nose is at x(i=0, j=0) wall node
        x_nose = self.grid.x[0, 0]
        return float(x_nose - xs[0])

    def surface_pressure(self):
        """Wall-adjacent cell pressure along the body, with arc positions."""
        f = self.fields()
        return f["x"][:, 0], f["y"][:, 0], f["p"][:, 0]
