#!/usr/bin/env python3
"""Leaky-particle walkthrough: the two-stage Fano fit of the LSP_1 decay-rate
spectrum for a 50 nm silver sphere (lossless pre-fit, then the non-radiative
width on the absorbing data)."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from plasmon_cqed import Geometry, silver
from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.tasks import _fano_fit


def main():
    grid = np.linspace(2.2, 3.1, 301)
    for h in (30.0, 15.0):
        _, fit = _fano_fit(silver(), 2.60,
                           Geometry.from_surface_distance(50.0, h), grid)
        print(f"h = {h:.0f} nm:")
        print(f"  omega_1     = {fit['omega1_ev']:.4f} eV"
              f"  (lambda_1 = {2 * np.pi * HBAR_C_EV_NM / fit['omega1_ev']:.0f} nm)")
        print(f"  Gamma_1^rad = {fit['gamma1_rad_ev'] * 1e3:.1f} meV")
        print(f"  q_F         = {fit['q_fano']:.2f}")
        print(f"  F_rad       = {fit['f_rad']:.1f}")
        print(f"  Gamma_1^nr  = {fit['gamma1_nr_ev'] * 1e3:.1f} meV")
        print(f"  F_p         = {fit['f_p']:.1f}")


if __name__ == "__main__":
    main()
