"""Effective-Hamiltonian toolbox for a dipolar emitter coupled to the
localized surface plasmons of a spherical metal nanoparticle."""

__version__ = "0.1.0"

from .medium import EmitterSpec, Geometry, MaterialModel, silver
from .coupling import ModeParams, extract_modes, kappa_spectra
from .heff import (
    DressedSet,
    EffectiveHamiltonian,
    build_fano,
    build_standard,
    eigendecompose,
    evolve,
    polarization_spectrum,
    radiated_spectrum,
)
from .weak import adiabatic_rates, fano_adiabatic, fermi_rate, purcell_factors
from .lindblad import (
    DissipatorSpec,
    StateSpace,
    build_dissipators,
    build_liouvillian,
    build_state_space,
    build_system_hamiltonian,
    effective_hamiltonian_from_lindblad,
    evolve_master,
)

__all__ = [
    "EmitterSpec",
    "Geometry",
    "MaterialModel",
    "silver",
    "ModeParams",
    "extract_modes",
    "kappa_spectra",
    "DressedSet",
    "EffectiveHamiltonian",
    "build_fano",
    "build_standard",
    "eigendecompose",
    "evolve",
    "polarization_spectrum",
    "radiated_spectrum",
    "adiabatic_rates",
    "fano_adiabatic",
    "fermi_rate",
    "purcell_factors",
    "DissipatorSpec",
    "StateSpace",
    "build_dissipators",
    "build_liouvillian",
    "build_state_space",
    "build_system_hamiltonian",
    "effective_hamiltonian_from_lindblad",
    "evolve_master",
]
