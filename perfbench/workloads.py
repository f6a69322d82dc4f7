"""The benchmark's three workloads.

Each workload turns ``(seed, op index)`` into the inputs of one
operation, sets itself up (repeatably, so set-up can be timed several
times), and runs operations on the program's public entry points.  An
operation is made of *items* -- the unit that is checked and counted as
attempted or failed:

==================  =======================  ============================
workload            operation                item (throughput unit)
==================  =======================  ============================
stagnation          one batch of 4 requests  one envelope (vsl-rung ok)
march               Euler + NS march pair    the pair (cell-steps)
relaxation          two shock-tube cases     one case (solve + spectrum)
==================  =======================  ============================

Why the seed scatters what it scatters: the Falkner-Skan shooting
Newton in the boundary layer takes 10 to 22 ``solve_ivp`` shots under a
1 % change of V or h (measured: 6.0 km/s / 55 km takes 10 shots, a
point 0.4 % faster and 0.7 km higher takes 22), so seeding V and h would
make a run of four solves a lottery.  The flight conditions of the
stagnation requests therefore follow a fixed schedule per op index, and
the seed scatters the nose radius, which changes every output (heat
flux, standoff, radiating layer) but not the shock or boundary-layer
solve.  The relaxation case cost grows with u1, so u1 follows a fixed
schedule too and the seed scatters p1.  The march cost does not depend
on its seeded inputs, so there the seed perturbs the freestream itself.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time

import numpy as np

# Import order matters: importing repro.thermo.kinetics before
# repro.numerics raises a circular ImportError in this program, so every
# layer is reached through repro.solvers.* first (see README.md).
import repro.solvers.shock_relaxation  # noqa: F401  (import-order guard)
import repro.solvers.euler2d  # noqa: F401
import repro.solvers.ns2d  # noqa: F401
import repro.solvers.vsl  # noqa: F401
import repro.service.batch
from repro.atmosphere import EarthAtmosphere
from repro.constants import TORR
from repro.core.api import clear_gas_cache, make_gas
from repro.core.gas import TabulatedEOS
from repro.experiments import fig8_spectra
from repro.geometry import Hemisphere, Sphere
from repro.grid import blunt_body_grid
from repro.heating import sutton_graves_heating
from repro.resilience import PersistencePolicy, RetryPolicy
from repro.service.batch import BatchPolicy
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.solvers.ns2d import AxisymmetricNSSolver
from repro.solvers.shock_relaxation import ShockRelaxationSolver
from repro.thermo import eos_table


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng, lo, hi):
    # catlint: disable=CAT001 -- lo, hi are positive module constants
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    item_label = ""

    def __init__(self, seed: int, workdir: str, *, isolate: str = "auto"):
        self.seed = seed
        self.workdir = workdir
        self.isolate = isolate

    def setup(self) -> None:
        raise NotImplementedError

    def op_inputs(self, index: int) -> list[dict]:
        """Item inputs of operation ``index`` (JSON-able, deterministic)."""
        raise NotImplementedError

    def run_op(self, items: list[dict]) -> list[dict]:
        """Run one operation.  Returns one record per item:
        ``{"output": dict | None, "t0": float, "latency_s": float,
        "units": float, "error": str | None}``, where ``t0`` is the
        ``time.perf_counter()`` at which the item started."""
        raise NotImplementedError

    def plausible(self, item: dict, output: dict) -> list[str]:
        """Reference-free checks (finiteness, positivity, conservation)."""
        raise NotImplementedError


# ------------------------------------------------------------ stagnation

#: Flight-condition strata of one stagnation batch: together they span
#: V 6-12 km/s and h 55-80 km; each stratum has its own nose-radius
#: range (log-uniform, seeded).  Batch ``c`` shifts every stratum by
#: ``c`` small steps so that no two requests of a run share work.
STAG_STRATA = (
    {"V": 6000.0, "h": 55000.0, "rn": (0.5, 1.5)},
    {"V": 9000.0, "h": 80000.0, "rn": (0.2, 0.6)},
    {"V": 12000.0, "h": 67000.0, "rn": (1.0, 3.0)},
    {"V": 7500.0, "h": 80000.0, "rn": (0.3, 1.0)},
)
STAG_SHIFT = {"V": 40.0, "h": 300.0}

#: Per-request deadline: the slowest stratum takes about 12 s at HEAD on
#: a 2-core x86 container, so no request is killed.
STAG_REQUEST_DEADLINE_S = 120.0


class StagnationWorkload(Workload):
    name = "stagnation"
    item_label = "vsl-rung envelopes"

    def setup(self):
        clear_gas_cache()
        make_gas("equilibrium-air")
        self.atm = EarthAtmosphere()
        self.policy = BatchPolicy(request_deadline=STAG_REQUEST_DEADLINE_S,
                                  isolate=self.isolate)

    def op_inputs(self, index):
        rng = _rng(self.name, self.seed, index)
        items = []
        for k, s in enumerate(STAG_STRATA):
            items.append({
                "method": "stagnation",
                "V": s["V"] + STAG_SHIFT["V"] * index,
                "h": s["h"] + STAG_SHIFT["h"] * index,
                "nose_radius": round(_log_uniform(rng, *s["rn"]), 4),
                "id": f"b{index}-s{k}"})
        return items

    def run_op(self, items):
        t0 = time.perf_counter()
        result = repro.service.batch.evaluate_batch(items, self.policy)
        out = []
        for env in result.envelopes:
            ok = env.status == "ok" and env.rung == "vsl"
            r = env.result or {}
            out.append({
                # the batch runs its requests one after the other
                "t0": t0,
                "output": ({"q_conv": r["q_conv"], "q_rad": r["q_rad"],
                            "standoff": r["standoff"]} if ok else None),
                "latency_s": env.latency_s,
                "units": 1.0 if ok else 0.0,
                "status": env.status,
                "error": None if ok else
                f"envelope {env.status}/{env.rung}: {env.error}"})
            t0 += env.latency_s
        return out

    def plausible(self, item, output):
        q, qr, d = output["q_conv"], output["q_rad"], output["standoff"]
        if not _finite(q, qr, d):
            return ["non-finite output"]
        problems = []
        if q <= 0.0 or qr < 0.0:
            problems.append("heat flux not positive")
        if not 0.0 < d < item["nose_radius"]:
            problems.append("standoff outside (0, nose radius)")
        rho = float(self.atm.density(item["h"]))
        q_sg = float(sutton_graves_heating(rho, item["V"],
                                           item["nose_radius"]))
        if not 0.5 < q / q_sg < 2.0:
            problems.append(f"q_conv {q:.4g} not within 2x of "
                            f"Sutton-Graves {q_sg:.4g}")
        return problems


# ----------------------------------------------------------------- march

#: Tabulated-EOS grid of the benchmark-owned cold table build.  Smaller
#: than the program's default 48x72 so that set-up can be repeated.
EOS_SHAPE = (16, 24)
MARCH_STEPS = 150
#: The two marches of one operation and their nose radii [m]: the Fig 4
#: Euler sphere and the Fig 9 Navier-Stokes hemisphere.
MARCH_SOLVERS = {"euler": 1.3, "ns": 0.1}
#: Relative freestream perturbation range (density and speed).
MARCH_PERTURB = 0.01


class MarchWorkload(Workload):
    name = "march"
    item_label = "cell-steps"

    def setup(self):
        clear_gas_cache()
        eos_table._AIR_TABLE_CACHE.clear()
        cache = os.path.join(self.workdir, "eos-cache")
        shutil.rmtree(cache, ignore_errors=True)
        table = eos_table.build_air_table(n_rho=EOS_SHAPE[0],
                                          n_e=EOS_SHAPE[1],
                                          cache_dir=cache)
        self.eos = TabulatedEOS(table)
        atm = EarthAtmosphere()
        # Fig 4 condition (Orbiter-equivalent sphere, 6.7 km/s, 65.5 km)
        h4 = 65500.0
        rho4 = float(atm.density(h4))
        self.fig4 = {"rho": rho4, "V": 6700.0,
                     "p": rho4 * atm.gas_constant
                     * float(atm.temperature(h4))}
        self.grid4 = blunt_body_grid(Sphere(1.3), n_s=31, n_normal=45,
                                     density_ratio=0.07, margin=2.8)
        # Fig 9 condition (Mach 20 hemisphere at 20 km)
        h9 = 20000.0
        rho9 = float(atm.density(h9))
        self.fig9 = {"rho": rho9, "V": 20.0 * float(atm.sound_speed(h9)),
                     "p": rho9 * atm.gas_constant
                     * float(atm.temperature(h9))}
        self.grid9 = blunt_body_grid(Hemisphere(0.1), n_s=31, n_normal=41,
                                     density_ratio=0.08, margin=3.0,
                                     wall_cluster_beta=1.8)
        self._n = 0

    def op_inputs(self, index):
        rng = _rng(self.name, self.seed, index)
        item = {"n_steps": MARCH_STEPS}
        for solver in MARCH_SOLVERS:
            item[solver] = {
                "rho_scale": round(1.0 + rng.uniform(-MARCH_PERTURB,
                                                     MARCH_PERTURB), 6),
                "V_scale": round(1.0 + rng.uniform(-MARCH_PERTURB,
                                                   MARCH_PERTURB), 6)}
        return [item]

    def _march(self, solver, scales, n_steps):
        if solver == "euler":
            s = AxisymmetricEulerSolver(self.grid4, self.eos)
            cond, cfl = self.fig4, 0.35
        else:
            s = AxisymmetricNSSolver(self.grid9, self.eos, T_wall=1500.0)
            cond, cfl = self.fig9, 0.3
        s.set_freestream(cond["rho"] * scales["rho_scale"],
                         cond["V"] * scales["V_scale"], cond["p"])
        self._n += 1
        store = os.path.join(self.workdir, f"march-{self._n}")
        s.run(n_steps=n_steps, cfl=cfl, tol=0.0, resilience=RetryPolicy(),
              persist=PersistencePolicy(store))
        shutil.rmtree(store, ignore_errors=True)
        return s

    def run_op(self, items):
        (item,) = items
        output, units = {}, 0.0
        t0 = time.perf_counter()
        for solver in MARCH_SOLVERS:
            s = self._march(solver, item[solver], item["n_steps"])
            totals = s.conservation_totals()
            output.update({f"{solver}.mass": float(totals["mass"]),
                           f"{solver}.energy": float(totals["energy"]),
                           f"{solver}.standoff":
                               float(s.stagnation_standoff()),
                           f"{solver}.steps": int(s.steps)})
            units += float(s.U.shape[0] * s.U.shape[1] * s.steps)
        dt = time.perf_counter() - t0
        return [{"output": output, "t0": t0, "latency_s": dt,
                 "units": units, "error": None}]

    def plausible(self, item, output):
        if not _finite(*output.values()):
            return ["non-finite output"]
        problems = []
        for solver, nose in MARCH_SOLVERS.items():
            if output[f"{solver}.steps"] != item["n_steps"]:
                problems.append(f"{solver}: {output[f'{solver}.steps']} "
                                f"steps, expected {item['n_steps']}")
            if (output[f"{solver}.mass"] <= 0.0
                    or output[f"{solver}.energy"] <= 0.0):
                problems.append(f"{solver}: conserved totals not positive")
            if not 0.0 < output[f"{solver}.standoff"] < nose:
                problems.append(f"{solver}: standoff outside "
                                f"(0, nose radius)")
        return problems


# ------------------------------------------------------------ relaxation

#: One operation runs one case at each u1 level.  The case cost grows
#: with u1 (measured: 12 % from 9.06 to 9.78 km/s), so u1 follows a
#: fixed schedule -- the levels, shifted by RELAX_U1_SHIFT per op so no
#: two cases of a run share work -- and the seed scatters p1, which moved
#: the cost by about 3 % across its range.
RELAX_U1 = (9500.0, 10500.0)
RELAX_U1_SHIFT = 25.0
RELAX_P1_TORR = (0.09, 0.11)


class RelaxationWorkload(Workload):
    name = "relaxation"
    item_label = "cases"

    def setup(self):
        clear_gas_cache()
        self.solver = ShockRelaxationSolver("air11")

    def op_inputs(self, index):
        rng = _rng(self.name, self.seed, index)
        return [{"u1": u1 + RELAX_U1_SHIFT * index,
                 "p1_torr": round(rng.uniform(*RELAX_P1_TORR), 5),
                 "T1": 300.0} for u1 in RELAX_U1]

    def run_op(self, items):
        return [self._case(item) for item in items]

    def _case(self, item):
        t0 = time.perf_counter()
        prof = self.solver.solve(u1=item["u1"],
                                 p1=item["p1_torr"] * TORR,
                                 T1=item["T1"], x_end=0.02, n_out=120,
                                 rtol=1e-6)
        spec = fig8_spectra.run(quick=True, profile=prof)
        dt = time.perf_counter() - t0
        return {"output": {"T_frozen": float(prof.T[0]),
                           "T_equilibrium": float(prof.T[-1]),
                           "Tv_equilibrium": float(prof.Tv[-1]),
                           "log_correlation":
                               float(spec["log_correlation"]),
                           "radiance_max":
                               float(np.max(spec["radiance"]))},
                "t0": t0, "latency_s": dt, "units": 1.0, "error": None}

    def plausible(self, item, output):
        if not _finite(*output.values()):
            return ["non-finite output"]
        problems = []
        T_fr, T_eq = output["T_frozen"], output["T_equilibrium"]
        if not T_fr > T_eq > item["T1"]:
            problems.append("temperatures not T_frozen > T_eq > T1")
        if abs(output["Tv_equilibrium"] - T_eq) > 0.02 * T_eq:
            problems.append("T and Tv not equilibrated at x_end")
        if not output["radiance_max"] > 0.0:
            problems.append("empty spectrum")
        if not -1.0 <= output["log_correlation"] <= 1.0:
            problems.append("correlation outside [-1, 1]")
        return problems


WORKLOADS = {w.name: w for w in (StagnationWorkload, MarchWorkload,
                                 RelaxationWorkload)}
