import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_modes
from slow_oracle import resolvent_loop
from plasmon_cqed.coupling import ModeParams
from plasmon_cqed.errors import (
    ContractViolationError,
    IncompleteModesError,
    InvalidArgumentError,
    NearDefectiveError,
    SingularityError,
)
from plasmon_cqed.heff import (
    EffectiveHamiltonian,
    _amplitudes,
    _emission_spectra,
    _propagate,
    amplitude_response,
    build_fano,
    build_standard,
    eigendecompose,
    evolve,
    flip_coupling_gauge,
    polarization_spectrum,
    radiated_spectrum,
)
from plasmon_cqed.lindblad import (
    build_dissipators,
    build_state_space,
    build_system_hamiltonian,
    effective_hamiltonian_from_lindblad,
)
from plasmon_cqed.medium import EmitterSpec, radiative_rate
from plasmon_cqed.mie import qs_polarizability


@pytest.fixture
def emitter():
    return EmitterSpec(omega0=2.7, d_eg=10.0, eta=0.5, gamma0=0.012)


def single_mode(omega_n=2.7, gamma=0.05, g=0.02, **kw):
    return ModeParams(n=1, omega_n=omega_n, gamma_n=gamma, g=g, **kw)


def every_heff(modes, emitter):
    """Each H_eff the package builds from Fano-split modes: standard, both
    Fano variants and the master equation's three dissipator kinds."""
    space = build_state_space(len(modes))
    h_s = build_system_hamiltonian(modes, emitter, space)
    return [build_standard(modes, emitter),
            build_fano(modes, emitter, "general"),
            build_fano(modes, emitter, "radiative_only")] + [
        effective_hamiltonian_from_lindblad(
            h_s, build_dissipators(kind, modes, emitter, space))
        for kind in ("standard", "fano_radiative", "fano_full")]


class TestBuildStandard:
    def test_matrix_layout(self, emitter):
        modes = [single_mode(omega_n=2.75),
                 ModeParams(n=2, omega_n=2.9, gamma_n=0.05, g=0.01)]
        ham = build_standard(modes, emitter)
        assert ham.matrix[0, 0] == pytest.approx(-0.5j * emitter.gamma0)
        assert ham.matrix[1, 1] == pytest.approx((2.75 - 2.7) - 0.025j)
        assert ham.matrix[0, 1] == ham.matrix[1, 0] == pytest.approx(0.02)

    def test_zero_coupling_eigenvalues_are_diagonal(self, emitter):
        modes = [single_mode(g=0.0)]
        dressed = eigendecompose(build_standard(modes, emitter))
        expect = sorted([-0.5j * emitter.gamma0, 0.0 - 0.025j],
                        key=lambda z: z.real)
        np.testing.assert_allclose(dressed.eigenvalues, expect, atol=1e-14)

    def test_two_level_closed_form(self):
        # Delta = 0, gamma0 = 0: lambda = -i Gamma/4 +- sqrt(g^2 - Gamma^2/16)
        em = EmitterSpec(omega0=2.7, d_eg=1.0, eta=1.0, gamma0=0.0)
        gam, g = 0.06, 0.05
        dressed = eigendecompose(build_standard(
            [single_mode(omega_n=2.7, gamma=gam, g=g)], em))
        root = cmath.sqrt(g**2 - gam**2 / 16)
        expect = sorted([-0.25j * gam + root, -0.25j * gam - root],
                        key=lambda z: z.real)
        np.testing.assert_allclose(np.sort(dressed.eigenvalues), expect,
                                   atol=1e-12)


class TestBuildFano:
    def test_alpha_zero_equals_standard(self, emitter):
        modes = [ModeParams(n=1, omega_n=2.75, gamma_n=0.05, g=0.02,
                            gamma_rad=0.03, gamma_nr=0.02, alpha=0.0)]
        h_fano = build_fano(modes, emitter, variant="general")
        h_std = build_standard(modes, emitter)
        np.testing.assert_array_equal(h_fano.matrix, h_std.matrix)

    def test_radiative_only_two_by_two(self, emitter):
        # off-diagonal g - (i/2) sqrt(gamma0_rad Gamma_rad) in the 2x2 heuristic
        g, grad = 0.02, 0.03
        g0n = emitter.gamma0_rad  # single mode carrying all radiative weight
        alpha = math.sqrt(g0n * grad) / g
        modes = [ModeParams(n=1, omega_n=2.75, gamma_n=grad, g=g,
                            gamma_rad=grad, gamma_nr=0.0, alpha=alpha)]
        ham = build_fano(modes, emitter, variant="radiative_only")
        assert ham.matrix[0, 0] == pytest.approx(-0.5j * emitter.gamma0_rad)
        assert ham.matrix[1, 1] == pytest.approx(0.05 - 0.5j * grad)
        assert ham.matrix[0, 1] == pytest.approx(
            g - 0.5j * math.sqrt(g0n * grad), rel=1e-12)

    def test_negative_alpha_phase(self, emitter):
        modes = [ModeParams(n=1, omega_n=2.75, gamma_n=0.05, g=0.02,
                            gamma_rad=0.03, gamma_nr=0.02, alpha=-0.476)]
        ham = build_fano(modes, emitter, variant="general")
        assert ham.matrix[0, 1].imag > 0  # sign of alpha flips the leak phase

    def test_missing_alpha_rejected(self, emitter):
        with pytest.raises(IncompleteModesError):
            build_fano([single_mode()], emitter)


class TestEigendecompose:
    def test_trace_equals_eigenvalue_sum(self, emitter):
        rng = np.random.default_rng(15)
        ham = build_standard(synthetic_modes(rng, 10), emitter)
        dressed = eigendecompose(ham)
        assert np.sum(dressed.eigenvalues) == pytest.approx(
            np.trace(ham.matrix), abs=1e-10)

    def test_paper_gauge_left_vectors(self, emitter):
        # hermitian-phase storage (+i g / -i g) needs the sign-flipped first
        # component: left = diag(-1, 1, ..) conj(right) up to normalization
        rng = np.random.default_rng(16)
        ham = build_standard(synthetic_modes(rng, 5), emitter)
        u = np.diag([1.0] + [1j] * 5)
        h_paper = u.conj().T @ ham.matrix @ u
        dressed = eigendecompose(ham)
        right = u.conj().T @ dressed.right
        left = u.conj().T @ dressed.left
        np.testing.assert_allclose(h_paper @ right,
                                   right * dressed.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(left.conj().T @ right, np.eye(6), atol=1e-10)
        flipped = np.diag([-1.0] + [1.0] * 5) @ right.conj()
        np.testing.assert_allclose(
            left, flipped / np.sum(flipped.conj() * right, axis=0).conj(),
            atol=1e-12)


class TestEvolve:
    def test_initial_state_reproduced(self, emitter):
        rng = np.random.default_rng(23)
        ham = build_standard(synthetic_modes(rng, 6), emitter)
        psi0 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        psi0 /= np.linalg.norm(psi0)
        state0 = evolve(ham, psi0, [0.0])[0]
        np.testing.assert_allclose(
            np.concatenate(([state0.c_e], state0.c_n)), psi0, atol=1e-12)

    def test_bare_exponential_decay(self, emitter):
        ham = build_standard([single_mode(g=0.0)], emitter)
        times = np.linspace(0, 3 / emitter.gamma0, 7)
        states = evolve(ham, [1.0, 0.0], times)
        for t, s in zip(times, states):
            assert abs(s.c_e) ** 2 == pytest.approx(
                math.exp(-emitter.gamma0 * t), rel=1e-9)

    def test_norm_monotone_decreasing(self, emitter):
        rng = np.random.default_rng(31)
        ham = build_standard(synthetic_modes(rng, 5), emitter)
        psi0 = np.zeros(6, complex)
        psi0[0] = 1
        norms = [abs(s.c_e) ** 2 + np.sum(np.abs(s.c_n) ** 2) for s in
                 evolve(ham, psi0, np.linspace(0, 400, 100))]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("route", ["eigen", "exceptional"])
    def test_states_pack_the_amplitude_stack(self, emitter, route):
        # a generic H_eff takes the eigen-expansion; g = (Gamma - gamma0)/4
        # at zero detuning is an exceptional point (expm route)
        if route == "eigen":
            modes = synthetic_modes(np.random.default_rng(37), 5)
        else:
            modes = [single_mode(gamma=0.1, g=(0.1 - 0.012) / 4)]
        ham = build_standard(modes, emitter)
        if route == "exceptional":
            with pytest.raises(NearDefectiveError):
                eigendecompose(ham)
        psi0 = np.zeros(len(modes) + 1, complex)
        psi0[0] = 1
        times = np.linspace(0.0, 400.0, 57)
        stack = _amplitudes(ham, psi0, times)
        states = evolve(ham, psi0, times)
        assert [s.t for s in states] == times.tolist()
        assert np.array([s.c_e for s in states]).tobytes() == stack[:, 0].tobytes()
        assert np.array([s.c_n for s in states]).tobytes() == stack[:, 1:].tobytes()

    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [-1.0, 0.0, 1.0],
                                       [0.0, np.nan], [[0.0, 1.0]]])
    @pytest.mark.parametrize("g", [0.02, (0.1 - 0.012) / 4])
    def test_both_routes_reject_the_same_bad_grids(self, emitter, g, times):
        # g = 0.02 is well conditioned (eigen route); g = (Gamma - gamma0)/4
        # at zero detuning is an exceptional point (expm route)
        ham = build_standard([single_mode(gamma=0.1, g=g)], emitter)
        with pytest.raises(InvalidArgumentError, match="nondecreasing"):
            evolve(ham, [1.0, 0.0], times)


PROPAGATE_GRIDS = {
    # name: (times, expm calls: one per step group)
    "uniform": (np.linspace(0.0, 400.0, 400), 2),
    "two_segments": (np.r_[np.linspace(0.0, 100.0, 150),
                           np.linspace(100.0, 400.0, 250)], 3),
    "offset": (np.linspace(37.5, 400.0, 300), 2),
    "distinct": (np.cumsum(np.random.default_rng(5).uniform(0.5, 1.5, 60)), 60),
}


class TestPropagate:
    @pytest.mark.parametrize("shape", [(5,), (5, 3)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("grid", PROPAGATE_GRIDS)
    def test_runs_match_one_expm_per_time(self, emitter, monkeypatch, grid,
                                          shape):
        # runs of equal steps are filled by doubling; each point must still
        # be expm(G t_k) v0, and expm runs once per step group
        import scipy.linalg
        from scipy.linalg import expm

        times, groups = PROPAGATE_GRIDS[grid]
        rng = np.random.default_rng(17)
        gen = -1j * build_standard(synthetic_modes(rng, 4), emitter).matrix
        v0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda m: calls.append(m) or expm(m))
        out = _propagate(gen, v0, times)
        assert len(calls) == groups
        assert out.shape == (times.size,) + shape
        np.testing.assert_allclose(
            out, [expm(gen * t) @ v0 for t in times], rtol=0, atol=1e-12)


class TestGaugeInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_sign_flips_leave_observables(self, seed):
        rng = np.random.default_rng(seed)
        em = EmitterSpec(omega0=2.7, d_eg=10.0, eta=0.5, gamma0=0.012)
        n_modes = int(rng.integers(2, 6))
        ham = build_standard(synthetic_modes(rng, n_modes), em)
        signs = rng.choice([-1.0, 1.0], size=n_modes)
        flipped = flip_coupling_gauge(ham, signs)
        lam1 = np.sort_complex(eigendecompose(ham).eigenvalues)
        lam2 = np.sort_complex(eigendecompose(flipped).eigenvalues)
        np.testing.assert_allclose(lam1, lam2, atol=1e-10)
        times = np.linspace(0, 200, 20)
        psi0 = np.zeros(n_modes + 1, complex)
        psi0[0] = 1
        for s1, s2 in zip(evolve(ham, psi0, times), evolve(flipped, psi0, times)):
            assert abs(s1.c_e) ** 2 == pytest.approx(abs(s2.c_e) ** 2, abs=1e-10)
            np.testing.assert_allclose(np.abs(s1.c_n) ** 2, np.abs(s2.c_n) ** 2,
                                       atol=1e-10)


class TestSpectra:
    def test_single_state_lorentzian(self):
        em = EmitterSpec(omega0=2.7, d_eg=1.0, eta=1.0, gamma0=0.004)
        ham = build_standard([single_mode(omega_n=3.4, gamma=0.05, g=1e-5)], em)
        grid = np.linspace(2.6, 2.8, 4001)
        pol = polarization_spectrum(ham, grid)
        i_pk = int(np.argmax(pol.values))
        assert grid[i_pk] == pytest.approx(2.7, abs=1e-3)
        half = pol.values[i_pk] / 2
        above = grid[pol.values >= half]
        assert above[-1] - above[0] == pytest.approx(em.gamma0, rel=0.05)

    def test_response_solve_matches_dressed_expansion(self, emitter):
        # the eigen route: C_e(w) = i sum_m m0^2 / (u - lambda_m)
        rng = np.random.default_rng(43)
        ham = build_standard(synthetic_modes(rng, 4), emitter)
        grid = np.linspace(2.0, 3.4, 101)
        dressed = eigendecompose(ham)
        expansion = np.sum(dressed.weights / (
            grid[:, None] - emitter.omega0 - dressed.eigenvalues), axis=1)
        amps = amplitude_response(ham, grid)
        pol = polarization_spectrum(ham, grid)
        np.testing.assert_allclose(amps[:, 0], 1j * expansion, rtol=1e-8)
        np.testing.assert_allclose(pol.values, np.abs(expansion) ** 2,
                                   rtol=1e-8)

    def test_radiated_positive_and_peaked_on_lsp1(self, ag, small_geometry,
                                                  strong_emitter):
        from plasmon_cqed.coupling import extract_modes

        modes = extract_modes(6, small_geometry, ag, strong_emitter)
        ham = build_standard(modes, strong_emitter)
        grid = np.linspace(2.5, 3.2, 501)
        rad = radiated_spectrum(ham, grid, small_geometry, ag)
        assert np.all(rad.p_rad >= 0)
        assert grid[int(np.argmax(rad.lsp1_population))] == pytest.approx(
            2.79, abs=0.03)

    def test_one_resolvent_gives_both_public_spectra(self, ag, small_geometry,
                                                     strong_emitter):
        # the dressed task's pair, bitwise each public function's spectrum;
        # the radiated one also against its formula on the resolvent
        from plasmon_cqed.coupling import extract_modes

        modes = extract_modes(6, small_geometry, ag, strong_emitter)
        ham = build_standard(modes, strong_emitter)
        grid = np.linspace(2.4, 3.4, 2001)
        pol, rad = _emission_spectra(ham, grid, small_geometry, ag)
        np.testing.assert_array_equal(pol.values,
                                      polarization_spectrum(ham, grid).values)
        public = radiated_spectrum(ham, grid, small_geometry, ag)
        amps = amplitude_response(ham, grid)
        g_rad = radiative_rate(grid, strong_emitter.d_eg,
                               small_geometry.n_b) * (1.0 + 4.0 * np.abs(
                                   qs_polarizability(grid, small_geometry,
                                                     ag)[1]) ** 2
                                   / small_geometry.r_d**6)
        for field, value in (
                ("p_rad", g_rad * np.abs(amps[:, 0]) ** 2 / (2.0 * math.pi)),
                ("lsp1_population", np.abs(amps[:, 1]) ** 2),
                ("gamma_rad", g_rad)):
            np.testing.assert_array_equal(getattr(rad, field), value)
            np.testing.assert_array_equal(getattr(public, field), value)

    def test_uncoupled_radiated_reduces_to_free_lorentzian(self, ag,
                                                           small_geometry):
        em = EmitterSpec(omega0=2.7, d_eg=5.0, eta=1.0, gamma0=0.002)
        modes = [ModeParams(n=1, omega_n=2.9, gamma_n=0.05, g=0.0)]
        ham = build_standard(modes, em)
        grid = np.linspace(2.69, 2.71, 301)
        rad = radiated_spectrum(ham, grid, small_geometry, ag)
        ref = rad.gamma_rad / (2 * math.pi) \
            / ((grid - em.omega0) ** 2 + em.gamma0**2 / 4)
        np.testing.assert_allclose(rad.p_rad, ref, rtol=1e-9)

    def test_radiated_rate_matches_per_point_evaluation(self, ag, small_geometry,
                                                        strong_emitter):
        from plasmon_cqed.medium import radiative_rate
        from plasmon_cqed.mie import qs_polarizability

        ham = build_standard([single_mode(omega_n=2.8, gamma=0.06, g=0.04)],
                             strong_emitter)
        grid = np.linspace(2.4, 3.4, 201)
        rad = radiated_spectrum(ham, grid, small_geometry, ag)
        loop = []
        for w in grid:
            _, alpha_eff = qs_polarizability(float(w), small_geometry, ag)
            loop.append(radiative_rate(float(w), strong_emitter.d_eg)
                        * (1.0 + 4.0 * abs(alpha_eff) ** 2
                           / small_geometry.r_d**6))
        np.testing.assert_allclose(rad.gamma_rad, loop, rtol=1e-13)

    def test_radiated_spectrum_rejects_a_pole_on_the_grid(self, small_geometry):
        # lossless Drude, eps_inf = 1: the dipolar pole sits at omega_p/sqrt(3)
        from plasmon_cqed.errors import SingularDenominatorError
        from plasmon_cqed.medium import MaterialModel

        metal = MaterialModel.drude(1.0, 5.0, 0.0)
        ham = build_standard([single_mode()], EmitterSpec(2.8, 1.0, 1.0, 0.01))
        grid = np.append(np.linspace(2.5, 2.8, 60), 5.0 / math.sqrt(3.0))
        with pytest.raises(SingularDenominatorError):
            radiated_spectrum(ham, grid, small_geometry, metal)

    @pytest.mark.parametrize("n_modes", [1, 4, 12, 25, 40])
    @pytest.mark.parametrize("points", [1, 300])
    def test_amplitude_response_equals_per_point_solve(self, emitter, n_modes,
                                                       points):
        rng = np.random.default_rng(53 + n_modes)
        modes = synthetic_modes(rng, n_modes, fano=True, emitter=emitter)
        grid = np.linspace(2.0, 3.4, points)
        for ham in every_heff(modes, emitter):
            amps = amplitude_response(ham, grid)
            ref = resolvent_loop(ham, grid)
            assert np.max(np.abs(amps - ref) / np.max(np.abs(ref), axis=0)) \
                <= 1e-13
            np.testing.assert_array_equal(polarization_spectrum(ham, grid).values,
                                          np.abs(amps[:, 0]) ** 2)

    def test_spectra_reject_a_non_arrowhead_matrix(self, emitter, ag,
                                                   small_geometry):
        rng = np.random.default_rng(59)
        ham = build_standard(synthetic_modes(rng, 3), emitter)
        matrix = ham.matrix.copy()
        matrix[1, 3] = matrix[3, 1] = 1e-300  # a mode-mode coupling
        coupled = EffectiveHamiltonian(matrix=matrix, emitter=emitter)
        grid = np.linspace(2.0, 3.4, 11)
        for spectrum in (amplitude_response, polarization_spectrum):
            with pytest.raises(ContractViolationError, match="arrowhead"):
                spectrum(coupled, grid)
        with pytest.raises(ContractViolationError, match="arrowhead"):
            radiated_spectrum(coupled, grid, small_geometry, ag)

    @pytest.mark.parametrize("where", [0, 200])
    def test_amplitude_response_names_a_singular_frequency(self, emitter,
                                                           where):
        # a lossless mode 0.5 eV above the emitter: u I - H is singular at
        # hbar*omega = omega0 + 0.5 exactly
        ham = EffectiveHamiltonian(
            matrix=np.diag([0.0, 0.5]).astype(complex), emitter=emitter)
        grid = np.linspace(2.0, 2.5, 300)
        grid[where] = emitter.omega0 + 0.5
        with pytest.raises(SingularityError, match=f"={grid[where]} eV"):
            amplitude_response(ham, grid)
        with pytest.raises(SingularityError, match=f"={grid[where]} eV"):
            resolvent_loop(ham, grid)

    @pytest.mark.parametrize("n_lossy", [0, 3])
    def test_amplitude_response_on_a_coupled_lossless_level(self, n_lossy):
        # a grid point exactly on a coupled lossless mode's level, where the
        # self-energy form divides by zero but the resolvent is finite
        em = EmitterSpec(omega0=2.7, d_eg=1.0, eta=1.0, gamma0=0.012)
        lossless = ModeParams(n=n_lossy + 1, omega_n=2.75, gamma_n=0.0, g=0.02,
                              gamma_rad=0.0, gamma_nr=0.0, alpha=0.0)
        rng = np.random.default_rng(61)
        modes = synthetic_modes(rng, n_lossy, fano=True, emitter=em) + [lossless]
        ham = build_fano(modes, em, "radiative_only")
        grid = np.sort(np.append(np.linspace(2.6, 2.9, 40), 2.75))
        amps = amplitude_response(ham, grid)
        ref = resolvent_loop(ham, grid)
        assert np.max(np.abs(amps - ref) / np.max(np.abs(ref), axis=0)) <= 1e-13
        on_level = amps[grid == 2.75][0]
        assert on_level[-1] == pytest.approx(-50j, rel=1e-13)
        assert not np.any(on_level[:-1])
        # a second lossless mode on the same level makes u I - H singular
        twin = ModeParams(n=n_lossy + 2, omega_n=2.75, gamma_n=0.0, g=0.03,
                          gamma_rad=0.0, gamma_nr=0.0, alpha=0.0)
        with pytest.raises(SingularityError, match="=2.75 eV"):
            amplitude_response(build_fano(modes + [twin], em, "radiative_only"),
                               grid)


class TestFanoContinuity:
    def test_eigenvalues_converge_linearly_in_alpha(self, emitter):
        rng = np.random.default_rng(47)
        base = synthetic_modes(rng, 4)
        lam0 = np.sort_complex(eigendecompose(
            build_standard(base, emitter)).eigenvalues)
        deviations = []
        for scale in (0.2, 0.1, 0.05):
            modes = [ModeParams(n=m.n, omega_n=m.omega_n, gamma_n=m.gamma_n,
                                g=m.g, gamma_rad=m.gamma_n, gamma_nr=0.0,
                                alpha=scale) for m in base]
            lam = np.sort_complex(eigendecompose(
                build_fano(modes, emitter, "general")).eigenvalues)
            deviations.append(float(np.max(np.abs(lam - lam0))))
        assert deviations[0] > deviations[1] > deviations[2]
        # halving alpha roughly halves the deviation
        assert deviations[1] / deviations[0] == pytest.approx(0.5, abs=0.2)
        assert deviations[2] / deviations[1] == pytest.approx(0.5, abs=0.2)


@pytest.mark.parametrize("call, message", [
    (lambda em: build_standard([single_mode(gamma=0.0)], em),
     "mode 1 has non-positive width"),
    (lambda em: build_fano([single_mode(gamma_rad=0.05, alpha=0.1)], em,
                           "lossy"),
     "unknown Fano variant 'lossy'"),
    (lambda em: build_standard([], em), "at least one mode required"),
    (lambda em: eigendecompose(
        build_standard([single_mode(omega_n=math.nan)], em)),
     "Hamiltonian has non-finite entries"),
    (lambda em: amplitude_response(
        build_standard([single_mode(omega_n=math.nan)], em), [2.7]),
     "Hamiltonian has non-finite entries"),
    (lambda em: flip_coupling_gauge(build_standard([single_mode()], em),
                                    [1.0, -1.0]),
     "one sign per mode required"),
], ids=["zero-width", "unknown-variant", "no-modes", "nan-eigendecompose",
        "nan-amplitude-response", "sign-count"])
def test_rejects_invalid_input(emitter, call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call(emitter)
