"""Where the traced run wraps the program, and what each wrapper feeds.

Every entry wraps one public layer function (or the name a caller looks
it up under) with a :class:`~tracer.Span`.  Spans whose traced children
can take time report a ``*_self_s`` metric; leaves report only their
inclusive time, which is their self time.  The metric names are the
``per_layer`` names of ``BENCHMARK.json``; ``interaction_map.json``
records which end-to-end metric each should move on which workload.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Span


def _count_states(tr, result, args, kwargs):
    # EquilibriumGas.composition_T_p(self, T, p)
    tr.count("thermo.equilibrium.states", np.broadcast(args[1], args[2]).size)


def _count_rho_e_states(tr, result, args, kwargs):
    tr.count("thermo.equilibrium.rho_e_states", np.size(args[1]))


def _count_bl_shot(tr, result, args, kwargs):
    tr.count("solvers.boundary_layer.shots")
    tr.count("solvers.boundary_layer.rhs_evals", result.nfev)


def _count_relax_ivp(tr, result, args, kwargs):
    tr.count("solvers.shock_relaxation.rhs_evals", result.nfev)
    tr.count("solvers.shock_relaxation.jac_evals", result.njev)


def _eos_cells(kind):
    def hook(tr, result, args, kwargs):
        tr.count(f"thermo.eos_table.{kind}.cells", np.size(args[1]))
    return hook


def _count_snapshot_bytes(tr, seq, args, kwargs):
    store = args[0]
    tr.count("resilience.persistence.bytes",
             sum(os.path.getsize(p) for p in store._paths(seq)
                 if os.path.exists(p)))


def _count_retries(tr, result, args, kwargs):
    tr.count("resilience.supervisor.retries", len(args[0].attempts))


def _eos_spans():
    out = []
    for kind in ("pressure", "sound_speed", "temperature"):
        out.append(Span(
            f"repro.thermo.eos_table:EquilibriumEOSTable.{kind}",
            time_metric=f"thermo.eos_table.{kind}.s",
            calls_metric=f"thermo.eos_table.{kind}.calls",
            on_result=_eos_cells(kind)))
    return out


SPANS = [
    # ---- front door
    Span("repro.service.batch:evaluate_batch",
         self_metric="service.batch.overhead_s"),
    # ---- equilibrium VSL stack (stagnation)
    Span("repro.solvers.vsl:StagnationVSL.solve",
         time_metric="solvers.vsl.solve_s",
         self_metric="solvers.vsl.solve_self_s",
         calls_metric="solvers.vsl.calls"),
    Span("repro.solvers.vsl:equilibrium_normal_shock",
         time_metric="solvers.shock.normal_shock_s",
         self_metric="solvers.shock.normal_shock_self_s",
         calls_metric="solvers.shock.calls"),
    Span("repro.solvers.boundary_layer:StagnationSimilarityBL.solve",
         time_metric="solvers.boundary_layer.solve_s"),
    Span("repro.solvers.boundary_layer:solve_ivp", timed=False,
         on_result=_count_bl_shot),
    Span("repro.thermo.equilibrium:EquilibriumGas.composition_T_p",
         time_metric="thermo.equilibrium.composition_T_p_s",
         calls_metric="thermo.equilibrium.calls",
         on_result=_count_states),
    Span("repro.thermo.equilibrium:EquilibriumGas.state_rho_e",
         time_metric="thermo.equilibrium.state_rho_e_s",
         on_result=_count_rho_e_states),
    Span("repro.transport.properties:TransportModel.viscosity",
         time_metric="transport.viscosity_s"),
    Span("repro.radiation.spectra:EmissionModel.emission_coefficient",
         time_metric="radiation.emission_s"),
    Span("repro.solvers.vsl:tangent_slab_flux",
         time_metric="radiation.tangent_slab_s"),
    # ---- supervised tabulated-EOS marches (march)
    Span("repro.resilience.supervisor:RunSupervisor.march",
         self_metric="resilience.supervisor.self_s",
         on_result=_count_retries),
    Span("repro.solvers.euler2d:AxisymmetricEulerSolver.step",
         time_metric="solvers.euler2d.step_s",
         self_metric="solvers.euler2d.step_self_s",
         calls_metric="solvers.euler2d.steps"),
    Span("repro.solvers.ns2d:AxisymmetricNSSolver._viscous_residual",
         time_metric="solvers.ns2d.viscous_s",
         self_metric="solvers.ns2d.viscous_self_s"),
    Span("repro.solvers.euler2d:hlle_flux",
         time_metric="numerics.fluxes.hlle_s",
         self_metric="numerics.fluxes.hlle_self_s"),
    Span("repro.solvers.euler2d:muscl_interface_states",
         time_metric="numerics.muscl.reconstruct_s"),
    *_eos_spans(),
    Span("repro.resilience.persistence:SnapshotStore.save",
         time_metric="resilience.persistence.save_s",
         calls_metric="resilience.persistence.snapshots",
         on_result=_count_snapshot_bytes),
    # ---- two-temperature relaxation and spectrum (relaxation)
    Span("repro.solvers.shock_relaxation:ShockRelaxationSolver.solve",
         time_metric="solvers.shock_relaxation.solve_s",
         self_metric="solvers.shock_relaxation.solve_self_s"),
    Span("repro.solvers.shock_relaxation:solve_ivp", timed=False,
         on_result=_count_relax_ivp),
    Span("repro.thermo.two_temperature:TwoTemperatureGas.Tv_from_ev",
         time_metric="thermo.two_temperature.Tv_from_ev_s",
         calls_metric="thermo.two_temperature.calls"),
    Span("repro.thermo.two_temperature:"
         "TwoTemperatureGas.vibrational_energy_source",
         time_metric="thermo.two_temperature.vib_source_s",
         self_metric="thermo.two_temperature.vib_source_self_s"),
    Span("repro.thermo.kinetics:ReactionMechanism.wdot",
         time_metric="thermo.kinetics.wdot_s",
         calls_metric="thermo.kinetics.calls"),
    Span("repro.radiation.neqair:NonequilibriumRadiator."
         "from_relaxation_profile",
         time_metric="radiation.neqair_s",
         self_metric="radiation.neqair_self_s"),
]
