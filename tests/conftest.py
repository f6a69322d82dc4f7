"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions,
                                      titan_reference_mass_fractions)
from repro.thermo.species import species_set


@pytest.fixture(scope="session", autouse=True)
def _repro_cache_dir(tmp_path_factory):
    """Point the EOS-table disk cache at a per-session temp dir, so no
    result depends on (or writes to) the user's home directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR",
                  str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture(scope="session")
def air11():
    return species_set("air11")


@pytest.fixture(scope="session")
def air5():
    return species_set("air5")


@pytest.fixture(scope="session")
def titan9():
    return species_set("titan9")


@pytest.fixture(scope="session")
def air_gas(air11):
    """Session-wide equilibrium air model (11 species)."""
    return EquilibriumGas(air11, air_reference_mass_fractions(air11))


@pytest.fixture(scope="session")
def air5_gas(air5):
    return EquilibriumGas(air5, air_reference_mass_fractions(air5))


@pytest.fixture(scope="session")
def titan_gas(titan9):
    return EquilibriumGas(titan9, titan_reference_mass_fractions(titan9))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260706)


@pytest.fixture()
def silent():
    """Throwaway output stream for chatty harnesses (farm, chaos)."""
    import io
    return io.StringIO()
