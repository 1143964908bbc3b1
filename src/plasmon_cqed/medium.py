"""Materials, geometry and emitter data model.

Drude or tabulated complex permittivity, wavenumbers with the Im(k_m) >= 0
branch, and the free-space emitter rates in the eV/nm/Debye unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DIPOLE_SQ_OVER_EPS0, HBAR_C_EV_NM, HBAR_EV_S
from .errors import InvalidArgumentError, TableRangeError


@dataclass(frozen=True)
class MaterialModel:
    """Metal permittivity model: Drude parameters or a tabulated grid.

    Drude: eps(w) = eps_inf - omega_p^2/(w^2 + i*gamma_p*w), energies in eV.
    Tabulated: rows (hbar*omega eV, Re eps, Im eps), strictly ascending grid,
    linear interpolation and no extrapolation.
    """

    kind: str
    eps_inf: float = 1.0
    omega_p: float = 0.0
    gamma_p: float = 0.0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("drude", "tabulated"):
            raise InvalidArgumentError(f"unknown material kind {self.kind!r}")
        if self.kind == "drude":
            if not self.omega_p > 0:
                raise InvalidArgumentError("Drude omega_p must be > 0")
            if self.gamma_p < 0:
                raise InvalidArgumentError("Drude gamma_p must be >= 0")
        else:
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 2:
                raise InvalidArgumentError("table needs >= 2 rows of (eV, Re, Im)")
            if not np.all(np.isfinite(t)):
                raise InvalidArgumentError("table entries must be finite")
            if not np.all(np.diff(t[:, 0]) > 0):
                raise InvalidArgumentError("table grid must be strictly increasing")
            if np.any(t[:, 2] < 0):
                raise InvalidArgumentError("table Im(eps) must be >= 0")
            object.__setattr__(self, "table", t)

    @classmethod
    def drude(cls, eps_inf: float, omega_p: float, gamma_p: float) -> "MaterialModel":
        return cls(kind="drude", eps_inf=eps_inf, omega_p=omega_p, gamma_p=gamma_p)

    @classmethod
    def tabulated(cls, rows) -> "MaterialModel":
        return cls(kind="tabulated", table=np.asarray(rows, dtype=float))

    @classmethod
    def from_file(cls, path) -> "MaterialModel":
        """3-column numeric text (eV, Re eps, Im eps); '#' starts a comment."""
        rows = np.loadtxt(path, comments="#", ndmin=2)
        return cls.tabulated(rows)

    def lossless(self) -> "MaterialModel":
        """Copy without absorption (radiation-only studies): a Drude model
        with gamma_p = 0, or the table with its Im eps column zeroed."""
        if self.kind == "drude":
            return MaterialModel.drude(self.eps_inf, self.omega_p, 0.0)
        table = self.table.copy()
        table[:, 2] = 0.0
        return MaterialModel.tabulated(table)


def silver() -> MaterialModel:
    """Drude silver: eps_inf=6, hbar*omega_p=7.90 eV, hbar*Gamma_p=51 meV."""
    return MaterialModel.drude(6.0, 7.90, 0.051)


@dataclass(frozen=True)
class Geometry:
    """Sphere of radius R in a background eps_b with the emitter at r_d."""

    radius: float  # nm
    eps_b: float
    r_d: float  # nm, from sphere center

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidArgumentError("radius must be > 0")
        if not self.r_d > self.radius:
            raise InvalidArgumentError("emitter must sit outside the sphere (r_d > R)")
        if self.eps_b < 1:
            raise InvalidArgumentError("eps_b must be >= 1")

    @classmethod
    def from_surface_distance(cls, radius: float, h: float, eps_b: float = 1.0):
        return cls(radius=radius, eps_b=eps_b, r_d=radius + h)

    @property
    def h(self) -> float:
        """Emitter-surface distance in nm."""
        return self.r_d - self.radius

    @property
    def n_b(self) -> float:
        return math.sqrt(self.eps_b)


def radiative_rate(omega: float, d_eg: float, n_b: float = 1.0) -> float:
    """Free-space radiative rate n_b d^2 w^3/(3 pi eps0 hbar c^3) as hbar*rate in eV,
    element-wise over an array of omega.

    omega is hbar*omega in eV, d_eg in Debye.
    """
    return n_b * d_eg**2 * DIPOLE_SQ_OVER_EPS0 * omega**3 / (
        3.0 * math.pi * HBAR_C_EV_NM**3
    )


def dipole_from_radiative_rate(gamma_rad: float, omega: float, n_b: float = 1.0) -> float:
    """Invert the free-space rate for the dipole moment in Debye."""
    if gamma_rad < 0:
        raise InvalidArgumentError("gamma_rad must be >= 0")
    return math.sqrt(gamma_rad / radiative_rate(omega, 1.0, n_b))


@dataclass(frozen=True)
class EmitterSpec:
    """Two-level emitter with radial orientation.

    omega0, gamma0 are hbar-energies in eV; d_eg in Debye; eta the intrinsic
    quantum yield so gamma0_rad = eta*gamma0.  Use the factories to build a
    spec whose dipole moment and rates are mutually consistent; the direct
    constructor accepts independent (d_eg, gamma0) for phenomenological
    emitters whose stated linewidth is not the Eq.-style radiative value.
    """

    omega0: float
    d_eg: float
    eta: float
    gamma0: float

    def __post_init__(self):
        if not self.omega0 > 0:
            raise InvalidArgumentError("omega0 must be > 0")
        if self.d_eg < 0:
            raise InvalidArgumentError("d_eg must be >= 0")
        if not 0 < self.eta <= 1:
            raise InvalidArgumentError("quantum yield must be in (0, 1]")
        if self.gamma0 < 0:
            raise InvalidArgumentError("gamma0 must be >= 0")

    @classmethod
    def from_lifetime(cls, omega0: float, tau0_ns: float, eta: float,
                      n_b: float = 1.0) -> "EmitterSpec":
        """Primary-input form (tau0, eta); d_eg implied by the radiative rate."""
        if not tau0_ns > 0:
            raise InvalidArgumentError("tau0 must be > 0")
        gamma0 = HBAR_EV_S / (tau0_ns * 1e-9)
        d_eg = dipole_from_radiative_rate(eta * gamma0, omega0, n_b)
        return cls(omega0=omega0, d_eg=d_eg, eta=eta, gamma0=gamma0)

    @classmethod
    def from_dipole(cls, omega0: float, d_eg: float, gamma0_nr: float = 0.0,
                    n_b: float = 1.0) -> "EmitterSpec":
        """Dipole-first form; gamma0 = Eq.-rate(d_eg) + gamma0_nr."""
        if gamma0_nr < 0:
            raise InvalidArgumentError("gamma0_nr must be >= 0")
        g_rad = radiative_rate(omega0, d_eg, n_b)
        gamma0 = g_rad + gamma0_nr
        eta = g_rad / gamma0 if gamma0 > 0 else 1.0
        return cls(omega0=omega0, d_eg=d_eg, eta=eta, gamma0=gamma0)

    @property
    def gamma0_rad(self) -> float:
        return self.eta * self.gamma0

    @property
    def gamma0_nr(self) -> float:
        return (1.0 - self.eta) * self.gamma0

    @property
    def tau0_ns(self) -> float:
        return HBAR_EV_S / self.gamma0 / 1e-9


def permittivity(material: MaterialModel, omega):
    """Complex eps_m at hbar*omega (eV), element-wise over arrays.

    Every omega must be > 0; a tabulated model raises TableRangeError if any
    omega falls outside its grid.  A scalar omega gives a scalar.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0):
        raise InvalidArgumentError("omega must be > 0")
    if material.kind == "drude":
        eps = material.eps_inf - material.omega_p**2 / (
            w**2 + 1j * material.gamma_p * w
        )
        return eps[()]
    t = material.table
    outside = (w < t[0, 0]) | (w > t[-1, 0])
    if np.any(outside):
        raise TableRangeError(
            f"omega={np.extract(outside, w)[0]} eV outside table range "
            f"[{t[0, 0]}, {t[-1, 0]}]"
        )
    re = np.interp(w, t[:, 0], t[:, 1])
    im = np.interp(w, t[:, 0], t[:, 2])
    return (re + 1j * im)[()]


@dataclass(frozen=True)
class Wavenumbers:
    """k0, k_b (real) and k_m (complex) in 1/nm; scalars or arrays shaped
    like the frequencies they were evaluated at."""

    k0: float | np.ndarray
    kb: float | np.ndarray
    km: complex | np.ndarray


def wavenumbers(geometry: Geometry, material: MaterialModel, omega) -> Wavenumbers:
    """k0, background k_b and metal k_m (branch Im k_m >= 0), in 1/nm,
    element-wise over omega."""
    k0 = np.asarray(omega, dtype=float)[()] / HBAR_C_EV_NM
    kb = geometry.n_b * k0
    km = np.sqrt(permittivity(material, omega)) * k0
    km = np.where(km.imag < 0, -km, km)[()]
    return Wavenumbers(k0=k0, kb=kb, km=km)

