#!/usr/bin/env python3
"""Strong-coupling walkthrough: fit 25 plasmon modes of an 8 nm silver
sphere, diagonalize the effective Hamiltonian, and print the dressed-state
ladder with its Rabi splitting."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from plasmon_cqed import EmitterSpec, Geometry, extract_modes, silver
from plasmon_cqed.tasks import _dressed_spectra


def main():
    ag = silver()
    geometry = Geometry.from_surface_distance(8.0, 2.0)
    emitter = EmitterSpec(omega0=2.94, d_eg=24.5, eta=1e-6, gamma0=0.015)
    modes = extract_modes(25, geometry, ag, emitter)
    dressed, _, _, scalars = _dressed_spectra(
        modes, emitter, np.linspace(2.4, 3.4, 2001), geometry, ag)

    print("dressed states (absolute energy, width, emitter weight):")
    for m in range(len(dressed.eigenvalues)):
        marker = " *" if m + 1 in scalars["dominant_states"] else ""
        print(f"  m={m + 1:2d}  {emitter.omega0 + dressed.frequencies[m]:.4f} eV"
              f"  gamma={dressed.widths[m] * 1e3:6.1f} meV"
              f"  |m0|^2={abs(dressed.weights[m]):.4f}{marker}")
    print(f"\nRabi splitting of the two dominant states: "
          f"{scalars['splitting_ev'] * 1e3:.1f} meV")
    print(f"polarization peak separation: "
          f"{scalars['polarization_peak_separation_ev'] * 1e3:.1f} meV")


if __name__ == "__main__":
    main()
