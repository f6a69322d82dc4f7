"""Tests for the tabulated effective-gamma equilibrium EOS."""

import os

import numpy as np
import pytest

from repro.errors import InputError, TableRangeError
from repro.thermo.eos_table import EquilibriumEOSTable


@pytest.fixture(scope="module")
def small_table(air_gas_module):
    return EquilibriumEOSTable.build(air_gas_module, n_rho=20, n_e=28)


@pytest.fixture(scope="module")
def air_gas_module():
    from repro.thermo.equilibrium import (EquilibriumGas,
                                          air_reference_mass_fractions)
    from repro.thermo.species import species_set
    db = species_set("air11")
    return EquilibriumGas(db, air_reference_mass_fractions(db))


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            EquilibriumEOSTable(np.linspace(0, 1, 4), np.linspace(0, 1, 5),
                                np.zeros((5, 4)), np.zeros((5, 4)))

    def test_nonuniform_grid_rejected(self):
        lr = np.array([0.0, 1.0, 3.0])
        le = np.linspace(0, 1, 4)
        with pytest.raises(InputError):
            EquilibriumEOSTable(lr, le, np.ones((3, 4)), np.ones((3, 4)))


class TestAccuracy:
    def test_pressure_against_direct_solve(self, small_table,
                                           air_gas_module, rng):
        rho = 10.0 ** rng.uniform(-5.5, 0.5, 50)
        e = 10.0 ** rng.uniform(5.3, 7.8, 50)
        st = air_gas_module.state_rho_e(rho, e)
        p_tab = small_table.pressure(rho, e)
        # coarse (20x28) table: several-percent bilinear error is expected
        assert np.max(np.abs(p_tab / st["p"] - 1.0)) < 0.08

    def test_temperature_against_direct_solve(self, small_table,
                                              air_gas_module, rng):
        rho = 10.0 ** rng.uniform(-5.5, 0.5, 50)
        e = 10.0 ** rng.uniform(5.3, 7.8, 50)
        st = air_gas_module.state_rho_e(rho, e)
        T_tab = small_table.temperature(rho, e)
        assert np.max(np.abs(T_tab / st["T"] - 1.0)) < 0.08

    def test_gamma_bounds(self, small_table):
        assert np.all(small_table.gamma > 1.0)
        assert np.all(small_table.gamma < 1.7)

    def test_sound_speed_reasonable(self, small_table, air_gas_module):
        # cold air point
        st = air_gas_module.state_rho_T(np.array([1.2]), np.array([300.0]))
        a = small_table.sound_speed(1.2, st["e"][0])
        assert 320.0 < float(a) < 380.0

    def test_exact_at_nodes(self, small_table):
        # interpolation reproduces node values exactly
        i, j = 7, 11
        rho = np.exp(small_table.log_rho[i])
        e = np.exp(small_table.log_e[j])
        gamma, T = small_table.lookup(rho, e)
        assert float(gamma) == pytest.approx(small_table.gamma[i, j],
                                             rel=1e-12)
        assert float(T) == pytest.approx(small_table.T[i, j], rel=1e-12)


class TestRangeHandling:
    def test_clamped_lookup(self, small_table):
        # default clamps: extreme inputs return boundary values
        g_lo, _ = small_table.lookup(1e-30, 1e5)
        assert np.isfinite(g_lo)

    def test_strict_mode_raises(self, small_table):
        strict = EquilibriumEOSTable(small_table.log_rho, small_table.log_e,
                                     small_table.gamma, small_table.T,
                                     clamp=False)
        with pytest.raises(TableRangeError):
            strict.lookup(1e-30, 1e5)


class TestPersistence:
    def test_save_load_roundtrip(self, small_table, tmp_path):
        path = os.path.join(tmp_path, "eos.npz")
        small_table.save(path)
        loaded = EquilibriumEOSTable.load(path)
        assert np.array_equal(loaded.gamma, small_table.gamma)
        assert np.array_equal(loaded.T, small_table.T)
        g1, t1 = loaded.lookup(0.01, 3e6)
        g2, t2 = small_table.lookup(0.01, 3e6)
        assert float(g1) == float(g2) and float(t1) == float(t2)


class TestDiskCache:
    """``build_air_table``'s disk cache is keyed by content, not shape."""

    @pytest.fixture()
    def eos_table(self, monkeypatch):
        from repro.thermo import eos_table
        monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})
        return eos_table

    @staticmethod
    def _poison(path):
        """Overwrite a cached table with a recognisable fake gamma and
        return that gamma."""
        tab = EquilibriumEOSTable.load(path)
        fake = np.full_like(tab.gamma, 1.01)
        EquilibriumEOSTable(tab.log_rho, tab.log_e, fake, tab.T).save(path)
        return fake

    def test_same_fingerprint_is_loaded(self, eos_table, tmp_path):
        eos_table.build_air_table(n_rho=6, n_e=8, cache_dir=tmp_path)
        (path,) = tmp_path.glob("air_eos_6x8-*.npz")
        fake = self._poison(str(path))
        eos_table._AIR_TABLE_CACHE.clear()
        tab = eos_table.build_air_table(n_rho=6, n_e=8, cache_dir=tmp_path)
        assert np.array_equal(tab.gamma, fake)

    def test_other_fingerprint_is_not_loaded(self, eos_table, tmp_path,
                                             monkeypatch):
        version = eos_table._BUILDER_VERSION
        monkeypatch.setattr(eos_table, "_BUILDER_VERSION", version + 1)
        eos_table.build_air_table(n_rho=6, n_e=8, cache_dir=tmp_path)
        (stale,) = tmp_path.glob("air_eos_6x8-*.npz")
        fake = self._poison(str(stale))
        monkeypatch.setattr(eos_table, "_BUILDER_VERSION", version)
        eos_table._AIR_TABLE_CACHE.clear()
        tab = eos_table.build_air_table(n_rho=6, n_e=8, cache_dir=tmp_path)
        assert not np.array_equal(tab.gamma, fake)
        assert len(list(tmp_path.glob("air_eos_6x8-*.npz"))) == 2

    def test_fingerprint_tracks_species_data_and_grid(self):
        from repro.thermo.eos_table import air_table_fingerprint
        from repro.thermo.equilibrium import air_reference_mass_fractions
        from repro.thermo.species import species_set
        air11, air9 = species_set("air11"), species_set("air9")
        y11 = air_reference_mass_fractions(air11)
        fp = air_table_fingerprint(air11, y11, 6, 8)
        assert fp == air_table_fingerprint(air11, y11.copy(), 6, 8)
        assert fp != air_table_fingerprint(air11, y11, 6, 9)
        assert fp != air_table_fingerprint(
            air9, air_reference_mass_fractions(air9), 6, 8)
        y_other = y11.copy()
        y_other[air11.index["N2"]] -= 1e-3
        y_other[air11.index["O2"]] += 1e-3
        assert fp != air_table_fingerprint(air11, y_other, 6, 8)

    def test_cache_dir_from_environment(self, eos_table, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        eos_table.build_air_table(n_rho=6, n_e=8)
        assert len(list(tmp_path.glob("air_eos_6x8-*.npz"))) == 1
