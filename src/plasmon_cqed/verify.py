"""Independent-oracle verification suite, wired to `plasmon-cqed run --verify`.

Every check recomputes its expected value through a route that does not share
code with the path being validated: direct power series, Wronskian and
recurrence identities, finite differences, quadrature, matrix inverses,
adaptive integration, and brute-force operator algebra.  The tests use the
same routes (series_jn, wronskian, channel_matrix, dense_liouvillian,
expm_master) instead of copies of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR_C_EV_NM
from .coupling import (
    ModeParams,
    fano_rate_model,
    fit_fano_rate,
    fit_lorentzians,
    lorentzian_kappa2,
)
from .errors import FitFailureError, PlasmonCqedError
from .heff import (
    build_fano,
    build_standard,
    eigendecompose,
    evolve,
    flip_coupling_gauge,
    polarization_integral,
    polarization_spectrum,
)
from .lindblad import (
    DISSIPATOR_KINDS,
    DensityMatrix,
    build_dissipators,
    build_liouvillian,
    build_state_space,
    build_system_hamiltonian,
    dissipator_action,
    effective_hamiltonian_from_lindblad,
    evolve_master,
    _heff_deviation,
    pure_state,
    single_excitation_projection,
)
from .medium import EmitterSpec, Geometry, MaterialModel, permittivity, silver
from .mie import (
    green_rr_quasistatic,
    green_rr_terms,
    mie_coefficients,
    qs_polarizability,
    qs_resonance_frequency,
    radial_mode_fractions,
)
from .specfun import (
    riccati_ladders,
    spherical_jn_ladder,
    spherical_yn_ladder,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def series_jn(n_max, z) -> list:
    """j_0(z)..j_nmax(z), each by its defining power series summed until a
    term drops below 1e-17 of the sum, in the arithmetic of z (a float, a
    complex or an mpmath number)."""
    if z == 0:
        return [1.0 + 0.0j] + [0.0j] * n_max
    values = []
    # z^n/(2n+1)!! as a running product: exp of the log form loses
    # |n log z| eps in its leading term
    lead = 1.0 + 0.0j
    step = -0.5 * z * z
    for n in range(n_max + 1):
        if n:
            lead *= z / (2 * n + 1)
        total = term = 1.0 + 0.0j
        for k in range(1, 200):
            term *= step / (k * (2 * n + 2 * k + 1))
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
        values.append(lead * total)
    return values


def check_bessel_series() -> CheckResult:
    worst = 0.0
    for n, z in [(0, 1.0 + 0.0j), (5, 2.0 + 0.5j), (3, 1e-4 + 0j),
                 (12, 7.0 - 0.4j), (2, 0.3 + 2.0j)]:
        ours = spherical_jn_ladder(n, z)[n]
        ref = series_jn(n, z)[n]
        worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-300))
    return CheckResult("bessel-series", worst < 1e-10, f"max rel err {worst:.2e}")


def wronskian(n: int, z: complex) -> complex:
    """z^2 (j_n y'_n - j'_n y_n), exactly 1 for n >= 1; the derivatives by
    the recurrence f'_n = f_(n-1) - (n+1)/z f_n."""
    j = spherical_jn_ladder(n + 1, z)
    y = spherical_yn_ladder(n + 1, z)
    jp = j[n - 1] - (n + 1) / z * j[n]
    yp = y[n - 1] - (n + 1) / z * y[n]
    return z * z * (j[n] * yp - jp * y[n])


def check_wronskian() -> CheckResult:
    # |Im z| stays moderate: the identity itself is exact but its floating
    # point conditioning degrades like e^(2 Im z).
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        re = 0.1 + 19.9 * rng.random()
        z = complex(re, 1.5 * (2 * rng.random() - 1))
        n = int(rng.integers(1, 21))
        worst = max(worst, abs(wronskian(n, z) - 1.0))
    return CheckResult("wronskian", worst < 1e-8, f"max |W-1| {worst:.2e}")


def check_riccati_derivatives() -> CheckResult:
    # central finite differences on psi, zeta with step 1e-6
    step = 1e-6
    worst = 0.0
    for n, z in [(2, 1.0 + 1.0j), (1, 0.4 + 0.1j), (6, 3.0 - 0.8j),
                 (4, 2.5 - 0.5j)]:
        psi, psi_prime, zeta, zeta_prime = riccati_ladders(
            n, np.array([z, z + step, z - step]))
        fd_psi = (psi[1, n] - psi[2, n]) / (2 * step)
        fd_zeta = (zeta[1, n] - zeta[2, n]) / (2 * step)
        worst = max(worst,
                    float(abs(psi_prime[0, n] - fd_psi) / max(abs(fd_psi), 1e-30)),
                    float(abs(zeta_prime[0, n] - fd_zeta) / max(abs(fd_zeta), 1e-30)))
    return CheckResult("riccati-derivatives", worst < 1e-8,
                       f"max rel err {worst:.2e}")


def check_drude() -> CheckResult:
    # direct complex arithmetic against the library evaluation
    w, eps_inf, wp, gp = 2.94, 6.0, 7.90, 0.051
    ref = eps_inf - wp**2 / complex(w**2, gp * w)
    ours = permittivity(silver(), w)
    err = abs(ours - ref)
    return CheckResult("drude-permittivity", err < 1e-14, f"err {err:.2e}")


def check_sum_rule() -> CheckResult:
    worst = 0.0
    for x in (0.1, 0.5, 2.0):
        total = float(np.sum(radial_mode_fractions(60, x)))
        worst = max(worst, abs(total - 1.0))
    return CheckResult("gamma0n-sum-rule", worst < 1e-6, f"max |sum-1| {worst:.2e}")


def check_qs_resonance() -> CheckResult:
    metal = MaterialModel.drude(1.0, 5.0, 0.0)
    worst = 0.0
    for n in range(1, 7):
        ref = 5.0 * math.sqrt(n / (2 * n + 1))
        ours = qs_resonance_frequency(n, metal, 1.0)
        worst = max(worst, abs(ours - ref) / ref)
    # the closed form against the permittivity it solves, lossy metals included
    residual = 0.0
    for material, eps_b in ((metal, 1.0), (silver(), 1.0), (silver(), 1.77)):
        for n in range(1, 7):
            eps_m = permittivity(material, qs_resonance_frequency(n, material, eps_b))
            scale = n * abs(eps_m.real) + (n + 1) * eps_b
            residual = max(residual, abs(n * eps_m.real + (n + 1) * eps_b) / scale)
    return CheckResult("qs-resonance", worst < 1e-6 and residual <= 1e-12,
                       f"max rel err {worst:.2e}, residual {residual:.2e}")


def check_qs_mie_agreement() -> CheckResult:
    # B_1 exact vs quasi-static closed form at R=8 nm
    geo = Geometry.from_surface_distance(8.0, 2.0)
    w = 2.9
    b_exact = mie_coefficients(1, w, geo, silver())
    alpha_qs, _ = qs_polarizability(1, w, geo, silver())
    kb = w / HBAR_C_EV_NM
    b_qs = 1j * 2.0 * kb**3 * alpha_qs / 3.0
    rel = abs(b_exact - b_qs) / abs(b_exact)
    return CheckResult("qs-mie-agreement", rel < 0.05, f"rel dev {rel:.3f}")


def check_green_quasistatic() -> CheckResult:
    geo = Geometry.from_surface_distance(8.0, 2.0)
    w = 2.80
    exact = green_rr_terms(w, geo, silver(), 1)[0]
    approx = green_rr_quasistatic(w, geo, silver(), 1)
    rel = abs(approx.imag - exact.imag) / abs(exact.imag)
    return CheckResult("green-quasistatic", rel < 0.15, f"Im rel dev {rel:.3f}")


def check_green_high_order() -> CheckResult:
    """Exact Green terms at n = 100..200, beyond the double range of the
    Hankel factors, within the leading retardation correction (k_b r_d)^2/n
    of the quasi-static term (n+1)^2 alpha_n / (4 pi k_b^2 r_d^(2n+4)),
    alpha_n = n(eps_m - eps_b)/(n eps_m + (n+1) eps_b) R^(2n+1)."""
    n, w = np.arange(100, 201), np.array([[2.0], [2.6], [3.4]])
    kb, eps_m = w / HBAR_C_EV_NM, permittivity(silver(), w)
    worst = 0.0
    for radius, h in ((8.0, 2.0), (8.0, 20.0), (50.0, 5.0)):
        geo = Geometry.from_surface_distance(radius, h)
        exact = green_rr_terms(w[:, 0], geo, silver(), 200)[:, 99:]
        qs = (n + 1) ** 2 * n * (eps_m - geo.eps_b) / (
            n * eps_m + (n + 1) * geo.eps_b) * (radius / geo.r_d) ** (2 * n + 1) \
            / (4 * math.pi * kb**2 * geo.r_d**3)
        gap = np.abs(exact - qs) / np.abs(qs) * n / (kb * geo.r_d) ** 2
        worst = max(worst, float(np.max(np.where(np.isfinite(gap), gap, np.inf))))
    return CheckResult("green-high-order", worst <= 1.0,
                       f"max gap {worst:.2f} of (k_b r_d)^2/n")


def _random_modes(seed, n_modes):
    """Seeded random Lorentzian modes between 2.3 and 2.9 eV."""
    rng = np.random.default_rng(seed)
    return [ModeParams(n=k + 1, omega_n=2.3 + 0.6 * rng.random(),
                       gamma_n=0.02 + 0.08 * rng.random(),
                       g=0.005 + 0.05 * rng.random()) for k in range(n_modes)]


def _standard_hamiltonian(seed, n_modes, gamma0):
    """build_standard on seeded random modes, emitter at 2.7 eV."""
    return build_standard(_random_modes(seed, n_modes),
                          EmitterSpec(omega0=2.7, d_eg=10.0, eta=0.5, gamma0=gamma0))


def check_lorentzian_roundtrip() -> CheckResult:
    # 20 draws of (omega_n, Gamma_n, g), fitted as one batch
    rng = np.random.default_rng(3)
    truth = np.array([(2.4 + 0.8 * rng.random(), 0.01 + 0.1 * rng.random(),
                       10 ** (-3 + 2 * rng.random())) for _ in range(20)])
    wn, gam = truth[:, :1], truth[:, 1:2]
    grids = np.linspace(wn - 5 * gam, wn + 5 * gam, 161, axis=-1)[:, 0]
    fits = fit_lorentzians([1] * len(truth), grids,
                           lorentzian_kappa2(grids, wn, gam, truth[:, 2:]))
    for fitted in fits:
        if isinstance(fitted, FitFailureError):
            raise fitted
    fitted = np.array([[f.omega_n, f.gamma_n, f.g] for f in fits])
    worst = float(np.max(np.abs(fitted - truth) / truth))
    return CheckResult("lorentzian-roundtrip", worst < 1e-6,
                       f"max rel err {worst:.2e}")


def check_fano_roundtrip() -> CheckResult:
    rng = np.random.default_rng(5)
    geo = Geometry.from_surface_distance(50.0, 30.0)
    em = EmitterSpec.from_dipole(2.6, 1.0)
    worst = 0.0
    for _ in range(10):
        wn = 2.5 + 0.2 * rng.random()
        grad = 0.15 + 0.2 * rng.random()
        g = (1 if rng.random() < 0.5 else -1) * 10 ** (-4.3 + 0.6 * rng.random())
        grid = np.linspace(wn - 3 * grad, wn + 3 * grad, 201)
        data = fano_rate_model(grid, 1, geo, em, wn, grad, g)
        fitted = fit_fano_rate(grid, data, 1, geo, em)
        sign = 1.0 if fitted.alpha >= 0 else -1.0
        worst = max(worst,
                    abs(fitted.omega_n - wn) / wn,
                    abs(fitted.gamma_rad - grad) / grad,
                    abs(sign * fitted.g - g) / abs(g))
    return CheckResult("fano-roundtrip", worst < 1e-6, f"max rel err {worst:.2e}")


def arrowhead_secular_residual(matrix: np.ndarray, lam: complex) -> float:
    """Scaled det(H - lambda) via the arrowhead structure, an eigenvalue oracle."""
    d0 = matrix[0, 0]
    diag = np.diag(matrix)[1:]
    arms = matrix[0, 1:]
    prod_all = np.prod(diag - lam)
    terms = [(d0 - lam) * prod_all]
    for k in range(arms.size):
        others = np.prod(np.delete(diag, k) - lam)
        terms.append(-arms[k] ** 2 * others)
    scale = max(sum(abs(t) for t in terms), 1e-300)
    return abs(sum(terms)) / scale


def check_secular() -> CheckResult:
    ham = _standard_hamiltonian(9, 8, 0.01)
    dressed = eigendecompose(ham)
    worst = max(arrowhead_secular_residual(ham.matrix, lam)
                for lam in dressed.eigenvalues)
    return CheckResult("arrowhead-secular", worst < 1e-8, f"max residual {worst:.2e}")


def check_biorthogonality() -> CheckResult:
    ham = _standard_hamiltonian(13, 8, 0.012)
    dressed = eigendecompose(ham)
    gram = dressed.left.conj().T @ dressed.right
    err1 = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    # independent oracle: T_L^dag must equal T_R^{-1}
    err2 = float(np.max(np.abs(dressed.left.conj().T
                               - np.linalg.inv(dressed.right))))
    worst = max(err1, err2)
    return CheckResult("biorthogonality", worst < 1e-10, f"max err {worst:.2e}")


def check_spectral_vs_rk() -> CheckResult:
    from scipy.integrate import solve_ivp

    ham = _standard_hamiltonian(17, 6, 0.02)
    psi0 = np.zeros(7, dtype=complex)
    psi0[0] = 1.0
    times = np.linspace(0.0, 10.0 / 0.02, 40)
    spectral = evolve(ham, psi0, times)
    sol = solve_ivp(lambda _t, y: -1j * (ham.matrix @ y), (0, times[-1]), psi0,
                    t_eval=times, rtol=1e-11, atol=1e-14)
    worst = 0.0
    for k, state in enumerate(spectral):
        ref = sol.y[:, k]
        ours = np.concatenate(([state.c_e], state.c_n))
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    return CheckResult("spectral-vs-rk", worst < 1e-8, f"max err {worst:.2e}")


def check_polarization_integral() -> CheckResult:
    ham = _standard_hamiltonian(19, 5, 0.02)
    closed = polarization_integral(ham)
    # dense core plus log-spaced 1/w^2 tails out to +-1000 eV
    w0 = ham.emitter.omega0
    core = np.linspace(w0 - 10.0, w0 + 10.0, 400001)
    hi = w0 + 10.0 * np.logspace(0, 2, 2000)
    lo = w0 - 10.0 * np.logspace(0, 2, 2000)[::-1]
    quad = 0.0
    for grid in (lo, core, hi):
        quad += float(np.trapezoid(polarization_spectrum(ham, grid).values, grid))
    quad /= 2 * math.pi
    rel = abs(closed - quad) / abs(closed)
    return CheckResult("polarization-integral", rel < 1e-3,
                       f"closed {closed:.6e} vs quad {quad:.6e}")


def check_gauge_invariance() -> CheckResult:
    ham = _standard_hamiltonian(23, 6, 0.02)
    flipped = flip_coupling_gauge(ham, [-1, 1, -1, 1, 1, -1])
    lam1 = np.sort_complex(eigendecompose(ham).eigenvalues)
    lam2 = np.sort_complex(eigendecompose(flipped).eigenvalues)
    grid = np.linspace(2.0, 3.4, 301)
    p1 = polarization_spectrum(ham, grid).values
    p2 = polarization_spectrum(flipped, grid).values
    worst = max(float(np.max(np.abs(lam1 - lam2))),
                float(np.max(np.abs(p1 - p2) / p1.max())))
    return CheckResult("gauge-invariance", worst < 1e-10, f"max dev {worst:.2e}")


def channel_matrix(rows: np.ndarray) -> np.ndarray:
    """The collapse operator c = |g,0><(0, v)| of a sector row v, or of each
    row of a (C, N+1) stack, as (N+2) x (N+2) matrices."""
    d = rows.shape[-1] + 1
    out = np.zeros(rows.shape[:-1] + (d, d), dtype=complex)
    out[..., 0, 1:] = rows
    return out


def dense_liouvillian(liouvillian) -> np.ndarray:
    """L with d vec(rho)/dt = L vec(rho), column-stacked vec(rho):
    L = I (x) A + conj(A) (x) I + sum_c conj(c) (x) c with A = -i H - K/2,
    H = diag(0, H_S) and K = sum_c c+c, since vec(X rho Y) = (Y^T (x) X)
    vec(rho)."""
    d = liouvillian.h_s.shape[0] + 1
    eye = np.eye(d)
    chans = channel_matrix(liouvillian.channels)
    a = -1j * np.pad(liouvillian.h_s, (1, 0)) \
        - 0.5 * np.tensordot(chans.conj(), chans, axes=([0, 1], [0, 1]))
    # [j, l, i, k] = sum_c conj(c_jl) c_ik -> kron row j*d + i, column l*d + k
    jumps = np.tensordot(chans.conj(), chans, axes=(0, 0))
    return np.kron(eye, a) + np.kron(a.conj(), eye) \
        + jumps.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def expm_master(liouvillian, rho0, times) -> np.ndarray:
    """(len(times), d, d) states vec(rho_k) = expm(L (t_k - t_(k-1)))
    vec(rho_(k-1)) from rho0 at t = 0, L = dense_liouvillian(liouvillian),
    one expm per distinct step; not validated."""
    from scipy.linalg import expm

    dense, d = dense_liouvillian(liouvillian), liouvillian.h_s.shape[0] + 1
    vec, steps, out = np.asarray(rho0, dtype=complex).flatten(order="F"), {}, []
    for dt in np.diff(np.asarray(times, dtype=float), prepend=0.0):
        if dt not in steps:
            steps[dt] = expm(dense * dt)
        vec = steps[dt] @ vec
        out.append(vec)
    return np.reshape(out, (-1, d, d)).transpose(0, 2, 1)


def check_dissipator_expansion() -> CheckResult:
    # Eq-style collective dissipator equals emitter + LSP + cross terms
    rng = np.random.default_rng(29)
    sge, a = map(channel_matrix, np.eye(2))  # sigma_ge, a_1
    seg = sge.T
    g0n, grad = 0.004, 0.06
    c = math.sqrt(g0n) * sge + math.sqrt(grad) * a
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = 0.5 * (rho + rho.conj().T)
    combined = dissipator_action(c, rho)
    d_emit = dissipator_action(math.sqrt(g0n) * sge, rho)
    d_lsp = dissipator_action(math.sqrt(grad) * a, rho)
    cross = -0.5 * math.sqrt(g0n * grad) * (
        seg @ a @ rho + rho @ seg @ a - 2 * a @ rho @ seg
        + a.conj().T @ sge @ rho + rho @ a.conj().T @ sge
        - 2 * sge @ rho @ a.conj().T
    )
    err = float(np.max(np.abs(combined - (d_emit + d_lsp + cross))))
    return CheckResult("dissipator-expansion", err < 1e-12, f"max err {err:.2e}")


def _fano_modes(rng, n_modes, em):
    """Modes whose gamma0n_rad weights share gamma0_rad, alpha signs random."""
    modes = []
    for k, frac in enumerate(rng.dirichlet(np.ones(n_modes + 1))[:n_modes]):
        grad, g = 0.02 + 0.05 * rng.random(), 0.01 + 0.05 * rng.random()
        alpha = math.sqrt(frac * em.gamma0_rad * grad) / g
        alpha = -alpha if rng.random() < 0.5 else alpha
        modes.append(ModeParams(
            n=k + 1, omega_n=2.3 + 0.5 * rng.random(), gamma_n=grad + 0.01, g=g,
            gamma_rad=grad, gamma_nr=0.01, alpha=alpha))
    return modes


def check_lindblad_equivalence() -> CheckResult:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        n_modes = int(rng.integers(1, 5))
        em = EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.6 + 0.3 * rng.random(),
                         gamma0=0.005 + 0.01 * rng.random())
        modes = _fano_modes(rng, n_modes, em)
        space = build_state_space(n_modes)
        h_s = build_system_hamiltonian(modes, em, space)
        times = np.linspace(0.0, 150.0, 16)
        psi0 = np.zeros(n_modes + 1, dtype=complex)
        psi0[0] = 1.0
        for kind in DISSIPATOR_KINDS:
            dis = build_dissipators(kind, modes, em, space)
            liou = build_liouvillian(h_s, dis, space)
            states = evolve_master(liou, pure_state(space, 1), times)
            amps = evolve(effective_hamiltonian_from_lindblad(h_s, dis),
                          psi0, times)
            blocks = np.array([single_excitation_projection(s) for s in states])
            psi = np.array([[a.c_e, *a.c_n] for a in amps])
            worst = max(worst, _heff_deviation(blocks, psi))
    return CheckResult("lindblad-equivalence", worst < 1e-6, f"max dev {worst:.2e}")


def check_lindblad_brute_force() -> CheckResult:
    # the dense L propagated by expm from a full-rank rho0 with |g,0> coherences
    rng = np.random.default_rng(41)
    em = EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.7, gamma0=0.01)
    times = np.linspace(0.0, 150.0, 7)
    worst = 0.0
    for n_modes in range(3):
        for kind in DISSIPATOR_KINDS:
            space = build_state_space(n_modes)
            modes = _fano_modes(rng, n_modes, em)
            h_s = build_system_hamiltonian(modes, em, space)
            liou = build_liouvillian(h_s, build_dissipators(kind, modes, em, space),
                                     space)
            d = space.dim
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho0 = m @ m.conj().T / np.linalg.norm(m) ** 2
            states = evolve_master(liou, DensityMatrix(rho=rho0), times)
            ref = expm_master(liou, rho0, times)
            worst = max(worst, float(np.max(np.abs(
                np.array([s.rho for s in states]) - ref))))
    return CheckResult("lindblad-brute-force", worst < 1e-12, f"max dev {worst:.2e}")


def check_fano_reduction() -> CheckResult:
    em = EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.7, gamma0=0.01)
    zeroed = [replace(m, gamma_rad=m.gamma_n, gamma_nr=0.0, alpha=0.0)
              for m in _random_modes(37, 4)]
    h_fano = build_fano(zeroed, em, variant="general")
    h_std = build_standard(zeroed, em)
    err = float(np.max(np.abs(h_fano.matrix - h_std.matrix)))
    return CheckResult("fano-alpha0-reduction", err == 0.0, f"max dev {err:.2e}")


ALL_CHECKS = (
    check_bessel_series,
    check_wronskian,
    check_riccati_derivatives,
    check_drude,
    check_sum_rule,
    check_qs_resonance,
    check_qs_mie_agreement,
    check_green_quasistatic,
    check_green_high_order,
    check_lorentzian_roundtrip,
    check_fano_roundtrip,
    check_secular,
    check_biorthogonality,
    check_spectral_vs_rk,
    check_polarization_integral,
    check_gauge_invariance,
    check_dissipator_expansion,
    check_lindblad_equivalence,
    check_lindblad_brute_force,
    check_fano_reduction,
)


def run_all() -> list[CheckResult]:
    """Run every check, printing one PASS/FAIL line each.  A check that raises
    one of the package's errors fails under its function name."""
    results = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except PlasmonCqedError as exc:
            result = CheckResult(check.__name__, False,
                                 f"{type(exc).__name__}: {exc}")
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    return results
