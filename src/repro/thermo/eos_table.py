"""Tabulated equilibrium equation of state ("effective gamma" tables).

The PNS/NS production codes of the paper's era (e.g. the variable-effective-
gamma code of Ref. 19, and the Tannehill curve fits used by Ref. 20) did not
solve equilibrium chemistry in every cell; they interpolated precomputed
curve fits p = p(rho, e), T = T(rho, e).  This module reproduces that
pattern: a :class:`EquilibriumEOSTable` is built once from the
:class:`~repro.thermo.equilibrium.EquilibriumGas` Gibbs solver on a uniform
grid in (log rho, log e) and then evaluated with bilinear interpolation —
orders of magnitude faster inside a time-marching loop, at the cost of a
small interpolation error (quantified in the test suite and in the
bench_eos ablation benchmark).

The stored quantity is the effective gamma  ``gamma(rho, e) = 1 + p/(rho e)``
(smooth and bounded on [1, 5/3]), plus temperature.  The equilibrium sound
speed is reconstructed from the table's own gradients::

    p = (gamma - 1) rho e
    a^2 = (dp/drho)_e + (p/rho^2)(dp/de)_rho
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from repro.errors import InputError, TableRangeError
from repro.thermo.equilibrium import EquilibriumGas

__all__ = ["EquilibriumEOSTable", "air_table_fingerprint",
           "build_air_table"]

#: Default table extent: density [kg/m^3] and specific energy [J/kg].
_RHO_RANGE = (1e-7, 10.0)
_E_RANGE = (5e4, 1.5e8)

#: Version of the table-building arithmetic; bump it whenever
#: :meth:`EquilibriumEOSTable.build` or the equilibrium solver changes
#: what a table holds, so disk-cached tables from before are not reused.
_BUILDER_VERSION = 1


class EquilibriumEOSTable:
    """Bilinear (log rho, log e) lookup table for an equilibrium gas."""

    def __init__(self, log_rho: np.ndarray, log_e: np.ndarray,
                 gamma: np.ndarray, T: np.ndarray, *, clamp: bool = True):
        if gamma.shape != (log_rho.size, log_e.size):
            raise InputError("table shape mismatch")
        self.log_rho = np.asarray(log_rho, dtype=float)
        self.log_e = np.asarray(log_e, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.T = np.asarray(T, dtype=float)
        self.clamp = clamp
        self._dlr = self.log_rho[1] - self.log_rho[0]
        self._dle = self.log_e[1] - self.log_e[0]
        if (not np.allclose(np.diff(self.log_rho), self._dlr)
                or not np.allclose(np.diff(self.log_e), self._dle)):
            raise InputError("table grids must be uniform in log space")
        # precompute gamma gradients for the sound-speed reconstruction
        self._dg_dlr, self._dg_dle = np.gradient(
            self.gamma, self.log_rho, self.log_e)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, gas: EquilibriumGas, *, rho_range=_RHO_RANGE,
              e_range=_E_RANGE, n_rho=48,
              n_e=72) -> "EquilibriumEOSTable":
        """Fill the table by batched (rho, e) equilibrium solves.

        The default energy ceiling (1.5e8 J/kg ~ a 17 km/s stagnation
        enthalpy) keeps every grid state reachable by the single-ionization
        chemistry model below the solver's 1e5 K bracket.
        """
        if min(rho_range) <= 0.0 or min(e_range) <= 0.0:
            raise InputError("table ranges must be positive (log-spaced)")
        # catlint: disable=CAT001 -- ranges validated positive above
        log_rho = np.linspace(np.log(rho_range[0]), np.log(rho_range[1]),
                              n_rho)
        # catlint: disable=CAT001 -- ranges validated positive above
        log_e = np.linspace(np.log(e_range[0]), np.log(e_range[1]), n_e)
        LR, LE = np.meshgrid(log_rho, log_e, indexing="ij")
        # catlint: disable=CAT004 -- exp/log round-trip of the validated
        # finite table range; bounded by log(rho_range[1])
        rho = np.exp(LR).ravel()
        # catlint: disable=CAT004 -- same round-trip bound for e_range
        e = np.exp(LE).ravel()
        st = gas.state_rho_e(rho, e)
        gamma = (1.0 + st["p"] / (rho * e)).reshape(n_rho, n_e)
        T = st["T"].reshape(n_rho, n_e)
        return cls(log_rho, log_e, gamma, T)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the table to an .npz file (atomic replace)."""
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".npz")
        os.close(fd)
        try:
            np.savez(tmp, log_rho=self.log_rho, log_e=self.log_e,
                     gamma=self.gamma, T=self.T)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "EquilibriumEOSTable":
        with np.load(path) as z:
            return cls(z["log_rho"], z["log_e"], z["gamma"], z["T"])

    # ------------------------------------------------------------------
    # interpolation
    # ------------------------------------------------------------------

    def _locate(self, lr, le):
        if self.clamp:
            lr = np.clip(lr, self.log_rho[0], self.log_rho[-1])
            le = np.clip(le, self.log_e[0], self.log_e[-1])
        else:
            if (np.any(lr < self.log_rho[0]) or np.any(lr > self.log_rho[-1])
                    or np.any(le < self.log_e[0])
                    or np.any(le > self.log_e[-1])):
                raise TableRangeError("EOS table lookup out of range")
        fi = (lr - self.log_rho[0]) / self._dlr
        fj = (le - self.log_e[0]) / self._dle
        i = np.clip(fi.astype(int), 0, self.log_rho.size - 2)
        j = np.clip(fj.astype(int), 0, self.log_e.size - 2)
        return i, j, fi - i, fj - j

    def _bilinear(self, tab, i, j, wi, wj):
        return ((1 - wi) * (1 - wj) * tab[i, j]
                + wi * (1 - wj) * tab[i + 1, j]
                + (1 - wi) * wj * tab[i, j + 1]
                + wi * wj * tab[i + 1, j + 1])

    def lookup(self, rho, e):
        """Interpolate (gamma_eff, T) at given (rho, e); any shapes."""
        rho = np.asarray(rho, dtype=float)
        e = np.asarray(e, dtype=float)
        lr = np.log(np.maximum(rho, 1e-300))
        le = np.log(np.maximum(e, 1e-300))
        i, j, wi, wj = self._locate(lr, le)
        gamma = self._bilinear(self.gamma, i, j, wi, wj)
        T = self._bilinear(self.T, i, j, wi, wj)
        return gamma, T

    def pressure(self, rho, e):
        """p(rho, e) [Pa] from the effective-gamma form."""
        gamma, _ = self.lookup(rho, e)
        return (gamma - 1.0) * np.asarray(rho, float) * np.asarray(e, float)

    def temperature(self, rho, e):
        """T(rho, e) [K]."""
        return self.lookup(rho, e)[1]

    def sound_speed(self, rho, e):
        """Equilibrium sound speed [m/s] from table-gradient reconstruction."""
        rho = np.asarray(rho, dtype=float)
        e = np.asarray(e, dtype=float)
        lr = np.log(np.maximum(rho, 1e-300))
        le = np.log(np.maximum(e, 1e-300))
        i, j, wi, wj = self._locate(lr, le)
        gamma = self._bilinear(self.gamma, i, j, wi, wj)
        dg_dlr = self._bilinear(self._dg_dlr, i, j, wi, wj)
        dg_dle = self._bilinear(self._dg_dle, i, j, wi, wj)
        p = (gamma - 1.0) * rho * e
        # p = (gamma-1) rho e with gamma(log rho, log e):
        # (dp/drho)_e = (gamma-1) e + e dg/dlnrho
        # (dp/de)_rho = (gamma-1) rho + rho dg/dlne
        dpdr = (gamma - 1.0) * e + e * dg_dlr
        dpde = (gamma - 1.0) * rho + rho * dg_dle
        a2 = dpdr + p / rho**2 * dpde
        return np.sqrt(np.maximum(a2, 1.0))


#: module-level cache for the default air table
_AIR_TABLE_CACHE: dict[tuple, EquilibriumEOSTable] = {}


def air_table_fingerprint(db, y_ref, n_rho, n_e) -> str:
    """Content key of a disk-cached table: the species records the
    builder reads, the reference mass fractions, the builder version and
    the grid."""
    h = hashlib.sha256(repr((_BUILDER_VERSION, n_rho, n_e, _RHO_RANGE,
                             _E_RANGE, db.species)).encode())
    h.update(np.ascontiguousarray(y_ref, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def build_air_table(*, n_rho=48, n_e=72, cache_dir=None
                    ) -> EquilibriumEOSTable:
    """Build (or load from disk cache) the standard equilibrium-air table.

    The disk cache lives in ``cache_dir``, else ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro``; its file name carries
    :func:`air_table_fingerprint`, so a table built from other species
    data, another builder version or another grid is never loaded.
    """
    from repro.thermo.equilibrium import air_reference_mass_fractions
    from repro.thermo.species import species_set

    key = (n_rho, n_e)
    if key in _AIR_TABLE_CACHE:
        return _AIR_TABLE_CACHE[key]
    db = species_set("air11")
    y_ref = air_reference_mass_fractions(db)
    cache_dir = (cache_dir or os.environ.get("REPRO_CACHE_DIR")
                 or os.path.join(os.path.expanduser("~"), ".cache", "repro"))
    path = os.path.join(cache_dir, f"air_eos_{n_rho}x{n_e}-"
                        f"{air_table_fingerprint(db, y_ref, n_rho, n_e)}.npz")
    if os.path.exists(path):
        try:
            tab = EquilibriumEOSTable.load(path)
            _AIR_TABLE_CACHE[key] = tab
            return tab
        # catlint: disable=CAT012 -- deliberate: any unreadable/corrupt
        # cache file falls through to a fresh table build
        except Exception:
            pass  # rebuild on any cache corruption
    gas = EquilibriumGas(db, y_ref)
    tab = EquilibriumEOSTable.build(gas, n_rho=n_rho, n_e=n_e)
    try:
        tab.save(path)
    except OSError:
        pass  # cache is best-effort
    _AIR_TABLE_CACHE[key] = tab
    return tab
