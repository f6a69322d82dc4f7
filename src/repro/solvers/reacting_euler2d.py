"""Axisymmetric Euler solver with finite-rate (nonequilibrium) chemistry.

"A review of the status of CAT clearly shows that one of the biggest
challenges is understanding how to couple nonequilibrium phenomena to
three-dimensional flowfield codes" — this solver is that coupling at the
Gnoffo/McCandless/Li (Refs. 27-28) level for axisymmetric blunt bodies:

* conserved state per cell: ``[rho, rho u, rho v, rho E, rho Y_1..Y_ns]``
  with the energy on the heat-of-formation basis (so chemical reactions
  conserve total energy identically and dissociation shows up as a
  temperature drop),
* upwind flux: HLLE on the bulk variables, species carried by the
  upwinded interface mass flux (consistent: species fluxes sum to the
  mass flux),
* chemistry: operator-split point-implicit sub-step per cell (the
  paper's "loosely coupled ... typically implicit numerical technique"),
* temperature from (e, Y) by batched Newton with the previous field as
  the warm start.

The classic validation (in tests/benchmarks): the nonequilibrium shock
standoff lies *between* the frozen (ideal-gas) and equilibrium limits and
moves toward equilibrium as the density (Damkohler number) rises.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InputError, StabilityError
from repro.grid.structured import StructuredGrid2D
from repro.numerics.fluxes import (hlle_flux, rotate_from_normal,
                                   rotate_to_normal)
from repro.numerics.implicit import point_implicit_species_update
from repro.numerics.limiters import minmod
from repro.numerics.muscl import muscl_interface_states
from repro.numerics.time_integration import component_name
from repro.solvers.degradable import QuarantineMixin
from repro.thermo.kinetics import ReactionMechanism, park_air_mechanism
from repro.thermo.mixture import MixtureThermo
from repro.thermo.species import SpeciesDB, species_set

__all__ = ["ReactingEulerSolver"]


class _FrozenMixtureEOS:
    """Adapter: (rho, e) -> (p, a, T) at a frozen composition snapshot.

    The HLLE flux needs an EOS; during one residual evaluation the
    composition field is frozen, so the adapter carries the current mass
    fractions and warm-start temperatures.
    """

    def __init__(self, mix: MixtureThermo):
        self.mix = mix
        self.y = None          # (..., ns) snapshot
        self.T_guess = None

    def bind(self, y, T_guess):
        self.y = y
        self.T_guess = T_guess

    def _temperature(self, e):
        # energies live on the heat-of-formation basis, so the physical
        # floor depends on composition: e >= sum(y hf0) plus a little
        # thermal content (~30 K).  MUSCL transients during impulsive
        # starts can hand the flux states below it; clamp rather than let
        # the Newton inversion chase a temperature that does not exist.
        hf = np.sum(self.y * self.mix.db.hf0_mass, axis=-1)
        e_eff = np.maximum(np.asarray(e, float), hf + 3.0e4)
        return self.mix.T_from_e(e_eff, self.y, T_guess=self.T_guess)

    def pressure(self, rho, e):
        T = self._temperature(e)
        return self.mix.pressure(rho, T, self.y)

    def sound_speed(self, rho, e):
        T = self._temperature(e)
        return self.mix.sound_speed_frozen(T, self.y)

    def temperature(self, rho, e):
        return self._temperature(e)


class ReactingEulerSolver(QuarantineMixin):
    """Finite-rate blunt-body solver (i: surface, j: normal grid).

    Parameters
    ----------
    grid:
        Body-fitted grid (see :mod:`repro.grid.algebraic`).
    db, mechanism:
        Species set and reaction mechanism (default: 5-species Park air).
    order:
        MUSCL order for the bulk variables.
    chemistry_model:
        Starting rung of the physics ladder: ``"two_temperature"``
        (Park Ta = sqrt(T Tv) dissociation control with an operator-split
        Landau-Teller-relaxed vibrational-electronic pool),
        ``"finite_rate"`` (default, single-temperature kinetics) or
        ``"frozen"`` (no chemistry).  The degradation cascade demotes
        flagged cells down the same ladder at runtime (per-cell
        ``chem_rung`` tags, recorded in a
        :class:`~repro.resilience.DegradationLedger`).
    """

    #: Physics fidelity ladder, highest first; ``chem_rung`` holds
    #: per-cell indices into this tuple once any cell is demoted.
    PHYSICS_LADDER = ("two_temperature", "finite_rate", "frozen")

    def __init__(self, grid: StructuredGrid2D, db: SpeciesDB | str = "air5",
                 mechanism: ReactionMechanism | None = None, *,
                 order: int = 2, limiter=minmod,
                 chemistry_model: str = "finite_rate"):
        self.grid = grid
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.mech = mechanism or park_air_mechanism(self.db)
        self.mix = MixtureThermo(self.db)
        self.order = order
        self.limiter = limiter
        self.ns = self.db.n
        self.nv = 4 + self.ns
        self.vol = grid.axisymmetric_volumes()
        n_i, n_j = grid.axisymmetric_face_metrics()
        self.area_i = np.linalg.norm(n_i, axis=-1)
        self.area_j = np.linalg.norm(n_j, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.nhat_i = n_i / np.maximum(self.area_i, 1e-300)[..., None]
            self.nhat_j = n_j / np.maximum(self.area_j, 1e-300)[..., None]
        self.wall_normal = grid.n_j[:, 0, :] / np.maximum(
            np.linalg.norm(grid.n_j[:, 0, :], axis=-1), 1e-300)[:, None]
        self._eos = _FrozenMixtureEOS(self.mix)
        if chemistry_model not in self.PHYSICS_LADDER:
            raise InputError(f"chemistry_model must be one of "
                             f"{self.PHYSICS_LADDER}")
        self.chemistry_model = chemistry_model
        self.ttg = None
        if chemistry_model == "two_temperature":
            from repro.thermo.two_temperature import TwoTemperatureGas
            self.ttg = TwoTemperatureGas(self.db, self.mech)
        self.U = None
        self.T = None
        #: Vibrational-electronic pool [J/kg] and its temperature
        #: (two-temperature starting rung only, else None).
        self.ev = None
        self.Tv = None
        #: Per-cell physics-ladder indices (None until any cell is
        #: demoted below ``chemistry_model``); like the quarantine mask,
        #: deliberately outside state_attrs so rollbacks keep demotions.
        self.chem_rung = None
        self.steps = 0
        self.converged = False
        self.residual_history: list[float] = []

    #: Blunt-body domain: open boundaries, so the watchdog audits
    #: species/entropy but not global budgets.
    closed_domain = False

    #: Complete for durable restarts: the temperature field is the
    #: Newton warm start, so replays stay bit-identical; ``U_inf`` makes
    #: a manifest-rebuilt solver runnable without ``set_freestream``;
    #: ``ev``/``Tv`` exist only on the two-temperature rung.
    state_attrs = ("U", "steps", "T", "U_inf", "residual_history", "ev",
                   "Tv")

    @property
    def state_layout(self):
        """Layout for repro.resilience guards: energy at index 3 (the
        trailing components are rho Y_s, labelled by species name in
        localized errors), and no internal-energy floor — the energy
        lives on the heat-of-formation basis."""
        return {"energy_index": 3, "momentum_indices": (1, 2),
                "e_min": None, "species_names": self.db.names}

    # ------------------------------------------------------------------
    # resilience protocol
    # ------------------------------------------------------------------

    def persist_config(self):
        """JSON-able constructor fingerprint (durable checkpoints).

        Only the stock (Park air) mechanism is reconstructible; a custom
        mechanism still fingerprints through its reaction count so a
        mismatched resume is refused rather than silently rebuilt wrong.
        """
        return {"order": int(self.order),
                "limiter": self.limiter.__name__,
                "db": list(self.db.names),
                "mechanism": {"class": type(self.mech).__name__,
                              "n_reactions": len(self.mech.reactions)},
                "chemistry_model": self.chemistry_model,
                "grid": [int(self.grid.ni), int(self.grid.nj)]}

    def persist_arrays(self):
        """Constructor ndarrays persisted alongside the state."""
        return {"grid_x": self.grid.x, "grid_y": self.grid.y}

    @classmethod
    def from_persist(cls, config, arrays):
        """Rebuild a state-less instance (default Park-air mechanism)."""
        from repro.numerics import limiters as _limiters
        grid = StructuredGrid2D(arrays["grid_x"], arrays["grid_y"])
        db = species_set(tuple(config["db"]))
        solver = cls(grid, db, order=config["order"],
                     limiter=getattr(_limiters, config["limiter"]),
                     chemistry_model=config.get("chemistry_model",
                                                "finite_rate"))
        rebuilt = solver.persist_config()["mechanism"]
        if rebuilt != config["mechanism"]:
            from repro.errors import CheckpointError
            raise CheckpointError(
                f"snapshot used mechanism {config['mechanism']}, the "
                f"default rebuild gives {rebuilt}; pass the original "
                f"mechanism and rebuild manually")
        return solver

    # ------------------------------------------------------------------

    def set_freestream(self, rho, u_x, T, y):
        """Uniform x-directed freestream at (rho, T, mass fractions y)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.ns,):
            raise InputError(f"y must have {self.ns} entries")
        e = float(self.mix.e_mass(np.array(T), y))
        E = e + 0.5 * u_x**2
        self.U_inf = np.concatenate([[rho, rho * u_x, 0.0, rho * E],
                                     rho * y])
        ni, nj = self.grid.ni, self.grid.nj
        self.U = np.broadcast_to(self.U_inf, (ni, nj, self.nv)).copy()
        self.T = np.full((ni, nj), float(T), dtype=np.float64)
        if self.ttg is not None:
            # two-temperature start: pool in equilibrium with T
            ev0 = float(self.ttg.e_vib_el(np.array(float(T)), y))
            self.ev = np.full((ni, nj), ev0, dtype=np.float64)
            self.Tv = np.full((ni, nj), float(T), dtype=np.float64)
        self.steps = 0
        return self

    # ------------------------------------------------------------------
    # watchdog hooks
    # ------------------------------------------------------------------

    def species_mass_fractions(self):
        """Raw (unclipped, unnormalised) mass fractions for auditing."""
        if self.U is None:
            return None
        return self.U[..., 4:] / np.maximum(self.U[..., 0:1], 1e-300)

    def conservation_totals(self):
        """Global mass, energy and element-mole totals (per radian)."""
        totals = {"mass": float(np.sum(self.U[..., 0] * self.vol)),
                  "energy": float(np.sum(self.U[..., 3] * self.vol))}
        # element moles: comp_matrix @ (species partial moles); chemistry
        # must conserve every row exactly
        c = self.U[..., 4:] / self.db.molar_mass          # mol/m^3
        per_species = np.sum(c * self.vol[..., None], axis=(0, 1))
        for name, tot in zip(self.db.constraints,
                             self.db.comp_matrix @ per_species):
            totals[f"element:{name}"] = float(tot)
        return totals

    def total_entropy(self):
        """Global entropy functional ``sum(rho s vol)`` from the cached
        temperature field (None before the first residual evaluation)."""
        if self.T is None or self.U is None:
            return None
        rho = np.maximum(self.U[..., 0], 1e-300)
        y = np.clip(self.U[..., 4:] / rho[..., None], 0.0, 1.0)
        y = y / np.maximum(np.sum(y, axis=-1, keepdims=True), 1e-300)
        p = self.mix.pressure(rho, self.T, y)
        s = self.mix.s_mass(self.T, p, y)
        return float(np.sum(rho * s * self.vol))

    # ------------------------------------------------------------------
    # physics-ladder degradation protocol
    # ------------------------------------------------------------------

    def degrade_physics(self, mask=None):
        """Demote the chemistry model one rung in the masked cells
        (``None`` = whole domain).  Returns the name of the rung demoted
        *to*, or ``None`` when every masked cell is already frozen."""
        ni, nj = self.grid.ni, self.grid.nj
        if self.chem_rung is None:
            start = self.PHYSICS_LADDER.index(self.chemistry_model)
            self.chem_rung = np.full((ni, nj), start, dtype=np.int8)
        sel = (np.ones((ni, nj), dtype=bool) if mask is None
               else np.asarray(mask, dtype=bool))
        bottom = len(self.PHYSICS_LADDER) - 1
        cur = self.chem_rung[sel]
        if not np.any(cur < bottom):
            return None
        self.chem_rung[sel] = np.minimum(cur + 1, bottom)
        return self.PHYSICS_LADDER[int(self.chem_rung[sel].max())]

    # ------------------------------------------------------------------

    def _decode(self, U):
        """Primitive decomposition with the warm-started T solve."""
        rho = np.maximum(U[..., 0], 1e-300)
        u = U[..., 1] / rho
        v = U[..., 2] / rho
        y = np.clip(U[..., 4:] / rho[..., None], 0.0, 1.0)
        y = y / np.sum(y, axis=-1, keepdims=True)
        hf = np.sum(y * self.db.hf0_mass, axis=-1)
        e = np.maximum(U[..., 3] / rho - 0.5 * (u * u + v * v),
                       hf + 3e4)
        T_guess = self.T if (self.T is not None
                             and self.T.shape == rho.shape) else None
        T = self.mix.T_from_e(e, y, T_guess=T_guess)
        p = self.mix.pressure(rho, T, y)
        a = self.mix.sound_speed_frozen(T, y)
        return {"rho": rho, "u": u, "v": v, "y": y, "e": e, "T": T,
                "p": p, "a": a}

    def _pad_i(self, U):
        g = np.empty((U.shape[0] + 4,) + U.shape[1:], dtype=np.float64)
        g[2:-2] = U
        flip = np.ones(self.nv, dtype=np.float64)
        flip[2] = -1.0
        g[1] = U[0] * flip
        g[0] = U[1] * flip
        g[-2] = U[-1]
        g[-1] = U[-1]
        return g

    def _pad_j(self, U):
        g = np.empty((U.shape[0], U.shape[1] + 4, self.nv), dtype=np.float64)
        g[:, 2:-2] = U
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

    def _face_flux(self, UL, UR, nx, ny):
        """HLLE on the bulk + upwinded species transport."""
        # rotate bulk momentum to the face frame
        WL = rotate_to_normal(UL[..., :4], nx, ny)
        WR = rotate_to_normal(UR[..., :4], nx, ny)
        # bind the face composition (Roe-ish average is unnecessary for
        # the wavespeed bounds; use the mean)
        yL = np.clip(UL[..., 4:] / np.maximum(UL[..., 0:1], 1e-300), 0, 1)
        yR = np.clip(UR[..., 4:] / np.maximum(UR[..., 0:1], 1e-300), 0, 1)
        self._eos.bind(0.5 * (yL + yR)
                       / np.maximum(np.sum(0.5 * (yL + yR), axis=-1,
                                           keepdims=True), 1e-300),
                       None)
        Fb = hlle_flux(WL, WR, self._eos)
        F = np.empty(Fb.shape[:-1] + (self.nv,), dtype=np.float64)
        F[..., :4] = rotate_from_normal(Fb, nx, ny)
        mdot = Fb[..., 0]
        y_up = np.where((mdot > 0.0)[..., None], yL, yR)
        F[..., 4:] = mdot[..., None] * y_up
        return F

    def residual(self, U):
        w = self._decode(U)
        self.T = w["T"]
        fo_i = fo_j = None
        if self.quarantined_cells is not None:
            fo_i = np.pad(self.quarantined_cells, ((2, 2), (0, 0)),
                          mode="edge")
            fo_j = np.pad(self.quarantined_cells, ((0, 0), (2, 2)),
                          mode="edge")
        gi = self._pad_i(U)
        UL, UR = muscl_interface_states(gi, axis=0, order=self.order,
                                        limiter=self.limiter,
                                        first_order_mask=fo_i)
        UL, UR = UL[1:-1], UR[1:-1]
        F_i = self._face_flux(UL, UR, self.nhat_i[..., 0],
                              self.nhat_i[..., 1])
        F_i = F_i * self.area_i[..., None]
        gj = self._pad_j(U)
        VL, VR = muscl_interface_states(gj, axis=1, order=self.order,
                                        limiter=self.limiter,
                                        first_order_mask=fo_j)
        VL, VR = VL[:, 1:-1], VR[:, 1:-1]
        F_j = self._face_flux(VL, VR, self.nhat_j[..., 0],
                              self.nhat_j[..., 1])
        F_j = F_j * self.area_j[..., None]
        div = (F_i[1:] - F_i[:-1]) + (F_j[:, 1:] - F_j[:, :-1])
        R = -div / self.vol[..., None]
        R[..., 2] += w["p"] * self.grid.area / self.vol
        return R

    # ------------------------------------------------------------------

    def local_timestep(self, cfl):
        w = self._decode(self.U)
        speed = np.hypot(w["u"], w["v"]) + w["a"]
        return cfl * self.grid.min_cell_size() / speed

    def _update_vibrational_pool(self, w, dt):
        """Operator-split relaxation of the vibrational-electronic pool.

        Landau-Teller + chemistry sources drive ``ev`` toward the
        equilibrium pool energy at T; the update is clipped to never
        overshoot equilibrium, which makes it unconditionally stable
        regardless of how stiff the local relaxation time is.  Returns
        the updated Tv field.
        """
        T, y, rho = w["T"], w["y"], w["rho"]
        Tv = self.ttg.Tv_from_ev(self.ev, y, Tv_guess=self.Tv)
        q = self.ttg.vibrational_energy_source(rho, T, Tv, y)
        ev_eq = self.ttg.e_vib_el(T, y)
        lo = np.minimum(self.ev, ev_eq)
        hi = np.maximum(self.ev, ev_eq)
        self.ev = np.clip(self.ev + dt * q / rho, lo, hi)
        self.Tv = self.ttg.Tv_from_ev(self.ev, y, Tv_guess=Tv)
        return self.Tv

    def step(self, cfl=0.35, *, chemistry=True):
        """One forward-Euler flow step + point-implicit chemistry split.

        The chemistry sub-step honours the physics ladder: cells at the
        ``two_temperature`` rung drive rates with the relaxed Tv pool,
        ``finite_rate`` cells use single-temperature kinetics, and
        ``frozen`` cells skip the composition update entirely.

        Returns the relative density-update residual (as the Euler
        solver does), so steady marches can monitor convergence.
        """
        dt = self.local_timestep(cfl)
        R = self.residual(self.U)
        self.U = self.U + dt[..., None] * R
        self._sanitise()
        rung = self.chem_rung
        frozen_idx = self.PHYSICS_LADDER.index("frozen")
        all_frozen = (self.chemistry_model == "frozen" if rung is None
                      else bool(np.all(rung == frozen_idx)))
        if chemistry and not all_frozen:
            w = self._decode(self.U)
            self.T = w["T"]
            Tv = None
            if self.ev is not None:
                Tv = self._update_vibrational_pool(w, dt)
                if rung is not None:
                    # demoted cells fall back to single-T rates
                    Tv = np.where(rung == 0, Tv, w["T"])
            y_new = point_implicit_species_update(
                self.mech, w["rho"], w["T"], w["y"], dt, Tv=Tv)
            if rung is not None:
                y_new = np.where((rung == frozen_idx)[..., None],
                                 w["y"], y_new)
            # total energy invariant on the formation basis: only the
            # species partition changes
            self.U[..., 4:] = w["rho"][..., None] * y_new
        self.steps += 1
        # catlint: disable=CAT002 -- mean of squares is >= 0
        rho_res = float(np.sqrt(np.mean((R[..., 0] * dt) ** 2))
                        / max(float(np.mean(self.U[..., 0])), 1e-300))
        self.residual_history.append(rho_res)
        return rho_res

    def _sanitise(self):
        U = self.U
        if not np.all(np.isfinite(U)):
            first = tuple(int(i) for i in np.argwhere(~np.isfinite(U))[0])
            comp = component_name(first[-1], self.nv, energy_index=3,
                                  species_names=self.db.names)
            raise StabilityError(
                f"reacting euler2d: non-finite state at cell "
                f"{first[:-1]}, component {comp}",
                step=self.steps, cell=first[:-1], component=comp,
                value=float(U[first]))
        rho_floor = 1e-6 * float(self.U_inf[0])
        bad = U[..., 0] < rho_floor
        if np.any(bad):
            U[bad, :] = self.U_inf
        rho = U[..., 0]
        ke = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2) / rho
        np.clip(U[..., 4:], 0.0, None, out=U[..., 4:])
        y = U[..., 4:] / np.maximum(
            np.sum(U[..., 4:], axis=-1, keepdims=True), 1e-300)
        hf = np.sum(y * self.db.hf0_mass, axis=-1)
        U[..., 3] = np.maximum(U[..., 3], ke + rho * (hf + 3e4))

    def run(self, *, n_steps=2000, cfl=0.35, chemistry=True, tol=None,
             **supervision):
        """March ``n_steps`` (or to ``tol`` when given).

        ``self.converged`` records whether ``tol`` was reached.
        ``**supervision``: the supervision keywords documented on
        :meth:`~repro.solvers.degradable.QuarantineMixin._march`; the
        degradation cascade here ends in per-cell chemistry demotion
        down :attr:`PHYSICS_LADDER`.
        """
        if self.U is None:
            raise InputError("call set_freestream first")
        return self._march(lambda c: self.step(c, chemistry=chemistry),
                           n_steps=n_steps, cfl=cfl, tol=tol,
                           run_kwargs={"n_steps": n_steps, "cfl": cfl,
                                       "chemistry": chemistry, "tol": tol},
                           label="reacting_euler2d", **supervision)

    # ------------------------------------------------------------------

    def fields(self):
        w = self._decode(self.U)
        w["x"] = self.grid.xc
        w["y_coord"] = self.grid.yc
        return w

    def stagnation_standoff(self, *, threshold=1.5):
        f = self.fields()
        rho_inf = float(self.U_inf[0])
        mask = f["rho"][0] > threshold * rho_inf
        idx = np.nonzero(mask)[0]
        if not idx.size:
            raise StabilityError("no shock on the stagnation ray")
        return float(self.grid.x[0, 0] - f["x"][0, idx[-1]])
