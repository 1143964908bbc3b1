import numpy as np
import pytest
from hypothesis import settings

from plasmon_cqed.coupling import ModeParams
from plasmon_cqed.medium import EmitterSpec, Geometry, silver

# The property tests draw the same examples on every run of a tree and keep
# no example database, so a tree passes or fails independent of the draw.
# Each test's own @settings (max_examples, deadline) still apply.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def ag():
    return silver()


@pytest.fixture
def small_geometry():
    """R = 8 nm sphere, emitter 2 nm from the surface."""
    return Geometry.from_surface_distance(8.0, 2.0)


@pytest.fixture
def strong_emitter():
    """Phenomenological strong-coupling emitter: 15 meV linewidth."""
    return EmitterSpec(omega0=2.94, d_eg=24.5, eta=1e-6, gamma0=0.015)


@pytest.fixture
def weak_emitter():
    """670 nm emitter, 50 ns lifetime, 90% quantum yield."""
    omega0 = 2 * np.pi * 197.3269804 / 670.0
    return EmitterSpec.from_lifetime(omega0, 50.0, 0.9)


def synthetic_modes(rng, n_modes, fano=False, emitter=None):
    """Random but physically consistent mode parameter draws."""
    modes = []
    fractions = rng.dirichlet(np.ones(n_modes + 1))[:n_modes] if fano else None
    for k in range(n_modes):
        gamma_rad = 0.02 + 0.05 * rng.random()
        gamma_nr = 0.005 + 0.02 * rng.random()
        g = 0.005 + 0.05 * rng.random()
        alpha = None
        if fano:
            alpha = np.sqrt(fractions[k] * emitter.gamma0_rad * gamma_rad) / g
            if rng.random() < 0.5:
                alpha = -alpha
        modes.append(ModeParams(
            n=k + 1,
            omega_n=2.3 + 0.6 * rng.random(),
            gamma_n=gamma_rad + gamma_nr,
            g=g,
            gamma_rad=gamma_rad if fano else None,
            gamma_nr=gamma_nr if fano else None,
            alpha=alpha,
        ))
    return modes
