import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_modes
from slow_oracle import resolvent_loop, rk45_master
from plasmon_cqed.coupling import ModeParams
from plasmon_cqed.errors import (
    ContractViolationError,
    InvalidArgumentError,
    InvalidRateError,
)
from plasmon_cqed.heff import (
    EXPANSION_TOL,
    amplitude_response,
    build_fano,
    build_standard,
    evolve,
    polarization_spectrum,
)
from plasmon_cqed.lindblad import (
    DensityMatrix,
    Liouvillian,
    _master_states,
    _require_positive,
    _sector_generator,
    _sector_states,
    build_dissipators,
    build_liouvillian,
    build_state_space,
    build_system_hamiltonian,
    dissipator_action,
    effective_hamiltonian_from_lindblad,
    evolve_master,
    pure_state,
    single_excitation_projection,
)
from plasmon_cqed.medium import EmitterSpec
from plasmon_cqed.verify import channel_matrix, dense_liouvillian, expm_master


@pytest.fixture
def emitter():
    return EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.7, gamma0=0.01)


KINDS = ("standard", "fano_radiative", "fano_full")
GRIDS = {
    "uniform": np.linspace(0, 100, 11),
    "nonuniform": np.array([0.0, 0.3, 1.0, 7.5, 40.0, 41.0, 100.0]),
    "offset": np.linspace(5.0, 120.0, 17),
}


def fano_modes(rng, n_modes, emitter):
    return synthetic_modes(rng, n_modes, fano=True, emitter=emitter)


def mixed_state(rng, dim):
    """Full-rank rho: ground population and |g,0>-sector coherences nonzero."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho=rho / np.trace(rho).real)


def liouvillian_for(kind, n_modes, emitter, seed):
    rng = np.random.default_rng(seed)
    modes = fano_modes(rng, n_modes, emitter)
    space = build_state_space(n_modes)
    h_s = build_system_hamiltonian(modes, emitter, space)
    dis = build_dissipators(kind, modes, emitter, space)
    return h_s, dis, space, build_liouvillian(h_s, dis, space)


class TestStateSpace:
    def test_two_level_limit(self):
        assert build_state_space(0).dim == 2


@pytest.mark.parametrize("n_modes", range(9))
def test_system_hamiltonian_is_the_operator_sum(emitter, n_modes):
    # bitwise, signed zeros included, against the sector block of
    # sum Delta_n a+a + g_n (sigma_eg a_n + a+ sigma_ge) from
    # sigma_ge = |g,0><e,0| and a_n = |g,0><g,1_n|, whose |g,0> row and
    # column are zero; one mode sits on resonance and is uncoupled
    modes = synthetic_modes(np.random.default_rng(n_modes), n_modes)
    if modes:
        modes[0] = dataclasses.replace(modes[0], omega_n=emitter.omega0, g=0.0)
    space = build_state_space(n_modes)
    basis = np.eye(space.dim, dtype=complex)
    sigma_ge = np.outer(basis[0], basis[1])
    expect = np.zeros((space.dim, space.dim), dtype=complex)
    for mode, ket in zip(modes, basis[2:]):
        a = np.outer(basis[0], ket)
        ad = a.conj().T
        expect += mode.detuning(emitter) * (ad @ a)
        expect += mode.g * (sigma_ge.conj().T @ a + ad @ sigma_ge)
    assert not expect[0].any() and not expect[:, 0].any()
    h = build_system_hamiltonian(modes, emitter, space)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(part(h), part(expect[1:, 1:]))
        np.testing.assert_array_equal(np.signbit(part(h)),
                                      np.signbit(part(expect[1:, 1:])))


class TestDissipators:
    def test_standard_channel_count(self, emitter):
        rng = np.random.default_rng(1)
        space = build_state_space(3)
        dis = build_dissipators("standard", synthetic_modes(rng, 3), emitter,
                                space)
        assert len(dis.channels) == 4

    def test_negative_rate_rejected(self, emitter):
        space = build_state_space(1)
        bad = [ModeParams(n=1, omega_n=2.5, gamma_n=-0.01, g=0.01)]
        with pytest.raises(InvalidRateError):
            build_dissipators("standard", bad, emitter, space)

    def test_radiative_channels_collapse_to_emitter_decay(self, emitter):
        # Gamma_rad = 0: collective channels act as pure emitter decay with
        # total rate gamma0_rad (remainder channel included)
        space = build_state_space(2)
        modes = [ModeParams(n=k + 1, omega_n=2.5, gamma_n=0.05, g=0.01,
                            gamma_rad=0.0, gamma_nr=0.05, alpha=0.0)
                 for k in range(2)]
        dis = build_dissipators("fano_radiative", modes, emitter, space)
        rng = np.random.default_rng(3)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = 0.5 * (rho + rho.conj().T)
        total = sum(dissipator_action(channel_matrix(v), rho) for v in dis.channels)
        sigma_ge = channel_matrix(np.eye(space.n_modes + 1)[0])
        expect = dissipator_action(math.sqrt(emitter.gamma0_rad) * sigma_ge, rho)
        np.testing.assert_allclose(total, expect, atol=1e-12)

    def test_zero_emitter_weight_gives_lsp_decay(self, emitter):
        # gamma0n_rad = 0 for every mode: LSP dissipators at Gamma_rad plus
        # the remainder free-space emitter channel
        space = build_state_space(1)
        modes = [ModeParams(n=1, omega_n=2.5, gamma_n=0.05, g=0.01,
                            gamma_rad=0.04, gamma_nr=0.01, alpha=0.0)]
        dis = build_dissipators("fano_radiative", modes, emitter, space)
        assert "collective1" in dis.labels and "emitter_rad_rest" in dis.labels
        rng = np.random.default_rng(5)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = 0.5 * (rho + rho.conj().T)
        coll = dissipator_action(channel_matrix(dis.channels[0]), rho)
        a1 = channel_matrix(np.eye(space.n_modes + 1)[1])
        expect = dissipator_action(math.sqrt(0.04) * a1, rho)
        np.testing.assert_allclose(coll, expect, atol=1e-14)


class TestLiouvillian:
    def test_requires_hermitian_hs(self, emitter):
        rng = np.random.default_rng(11)
        space = build_state_space(2)
        modes = synthetic_modes(rng, 2)
        dis = build_dissipators("standard", modes, emitter, space)
        h_bad = np.zeros((3, 3), complex)
        h_bad[1, 2] = 1.0  # not hermitian
        with pytest.raises(ContractViolationError, match="hermitian"):
            build_liouvillian(h_bad, dis, space)
        with pytest.raises(ContractViolationError, match="hermitian"):
            effective_hamiltonian_from_lindblad(h_bad, dis)

    def test_unitary_limit_spectrum_imaginary(self, emitter):
        rng = np.random.default_rng(13)
        space = build_state_space(2)
        modes = synthetic_modes(rng, 2)
        dis = build_dissipators("standard", modes, emitter, space)
        empty = dataclasses.replace(dis, labels=(),
                                    channels=np.zeros((0, space.n_modes + 1), complex))
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = dense_liouvillian(build_liouvillian(h_s, empty, space))
        lam = np.linalg.eigvals(liou)
        assert float(np.max(np.abs(lam.real))) < 1e-12

    def test_trace_preservation_left_null_vector(self, emitter):
        rng = np.random.default_rng(17)
        space = build_state_space(3)
        modes = synthetic_modes(rng, 3)
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = dense_liouvillian(build_liouvillian(h_s, dis, space))
        vec_id = np.eye(space.dim).flatten(order="F")
        assert float(np.max(np.abs(vec_id @ liou))) < 1e-12

    @pytest.mark.parametrize("n_modes", [0, 3])
    def test_shape_is_the_vectorized_state_space(self, emitter, n_modes):
        *_, space, liou = liouvillian_for("fano_full", n_modes, emitter, 67)
        assert liou.shape == (space.dim**2, space.dim**2)
        assert dense_liouvillian(liou).shape == liou.shape

    def test_forty_modes_stay_small(self, emitter):
        # kept as its d x d factors, the d^2 x d^2 matrix (50 MB at d = 42)
        # is never formed
        h_s, dis, space, _ = liouvillian_for("fano_full", 40, emitter, 71)
        times = np.linspace(0.0, 100.0, 20)

        def run():
            return evolve_master(build_liouvillian(h_s, dis, space),
                                 pure_state(space, 1), times)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    @pytest.mark.parametrize("kind", ["standard", "fano_full"])
    def test_two_hundred_modes_build_small(self, emitter, kind):
        # each channel kept as its row: no d x d matrix per channel (dense
        # channel matrices peaked at 566 MiB standard, 1,004 MiB fano_full)
        modes = fano_modes(np.random.default_rng(73), 200, emitter)

        def build():
            space = build_state_space(200)
            h_s = build_system_hamiltonian(modes, emitter, space)
            dis = build_dissipators(kind, modes, emitter, space)
            build_liouvillian(h_s, dis, space)
            return effective_hamiltonian_from_lindblad(h_s, dis)

        build()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_modes", [0, 1, 5])
    def test_matches_dissipator_action(self, emitter, kind, n_modes):
        # L vec(rho) = vec(-i[H_S, rho] + sum D[c] rho), channel by channel
        h_s, dis, space, liou = liouvillian_for(kind, n_modes, emitter,
                                                [n_modes, KINDS.index(kind)])
        rng = np.random.default_rng(43)
        rho = rng.standard_normal((space.dim,) * 2) \
            + 1j * rng.standard_normal((space.dim,) * 2)
        rho = 0.5 * (rho + rho.conj().T)
        h = np.pad(h_s, (1, 0))  # diag(0, H_S)
        expect = -1j * (h @ rho - rho @ h) \
            + sum(dissipator_action(channel_matrix(v), rho) for v in dis.channels)
        np.testing.assert_allclose(dense_liouvillian(liou) @ rho.flatten(order="F"),
                                   expect.flatten(order="F"), rtol=0, atol=1e-14)

    def test_dark_steady_state(self, emitter):
        rng = np.random.default_rng(19)
        space = build_state_space(2)
        modes = synthetic_modes(rng, 2)
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = dense_liouvillian(build_liouvillian(h_s, dis, space))
        rho_ss = pure_state(space, 0).rho.flatten(order="F")
        assert float(np.max(np.abs(liou @ rho_ss))) < 1e-12


class TestEvolveMaster:
    def test_pure_lsp_decay(self, emitter):
        space = build_state_space(1)
        modes = [ModeParams(n=1, omega_n=2.5, gamma_n=0.04, g=0.0)]
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = np.zeros((2, 2), complex)
        liou = build_liouvillian(h_s, dis, space)
        times = np.linspace(0, 80.0, 9)
        states = evolve_master(liou, pure_state(space, 2), times)
        for t, s in zip(times, states):
            assert s.rho[2, 2].real == pytest.approx(math.exp(-0.04 * t),
                                                     rel=1e-6)

    def test_ground_population_monotone(self, emitter):
        rng = np.random.default_rng(23)
        space = build_state_space(2)
        modes = synthetic_modes(rng, 2)
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = build_liouvillian(h_s, dis, space)
        states = evolve_master(liou, pure_state(space, 1),
                               np.linspace(0, 300, 60))
        ground = [s.rho[0, 0].real for s in states]
        assert all(b >= a - 1e-9 for a, b in zip(ground, ground[1:]))

    @pytest.mark.parametrize("times", GRIDS.values(), ids=GRIDS.keys())
    def test_matches_rk45_reference(self, emitter, times):
        rng = np.random.default_rng(29)
        space = build_state_space(2)
        modes = synthetic_modes(rng, 2)
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = build_liouvillian(h_s, dis, space)
        states = evolve_master(liou, pure_state(space, 1), times)
        ref = rk45_master(liou, pure_state(space, 1).rho, times)
        assert [s.t for s in states] == list(times)
        for s, r in zip(states, ref):
            np.testing.assert_allclose(s.rho, r, atol=1e-7)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("n_modes", [0, 1, 5, 12])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_matrix_expm(self, emitter, kind, n_modes, grid):
        _, _, space, liou = liouvillian_for(kind, n_modes, emitter,
                                            [n_modes, KINDS.index(kind)])
        times = GRIDS[grid]
        rng = np.random.default_rng([n_modes, 99])
        for rho0 in (pure_state(space, 1), mixed_state(rng, space.dim)):
            states = evolve_master(liou, rho0, times)
            np.testing.assert_allclose(np.array([s.rho for s in states]),
                                       expm_master(liou, rho0.rho, times),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_states_pack_the_state_stack(self, emitter, kind):
        # a pure state, and a full-rank one with |g,0> coherences
        _, _, space, liou = liouvillian_for(kind, 3, emitter, [3, 11])
        times = GRIDS["nonuniform"]
        for rho0 in (pure_state(space, 1),
                     mixed_state(np.random.default_rng(61), space.dim)):
            stack = _master_states(liou, rho0, times)
            states = evolve_master(liou, rho0, times)
            assert [s.t for s in states] == times.tolist()
            assert np.array([s.rho for s in states]).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_partial_support_states(self, emitter, kind, grid):
        # only the columns of U that rho0 touches are propagated: none for
        # the ground state, one for the superposition, two for the mixture
        _, _, space, liou = liouvillian_for(kind, 3, emitter, [3, 7])
        times = GRIDS[grid]
        rng = np.random.default_rng(53)
        ground = pure_state(space, 0)
        superposition = np.zeros(space.dim, dtype=complex)
        superposition[[0, 3]] = [0.6, 0.8j]  # |g,0> and |g,1_2>
        a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mixture = np.zeros((space.dim, space.dim), dtype=complex)
        mixture[1:3, 1:3] = (0.7 * np.outer(a, a.conj()) / np.vdot(a, a)
                             + 0.3 * np.outer(b, b.conj()) / np.vdot(b, b))
        for rho0 in (ground.rho, np.outer(superposition, superposition.conj()),
                     mixture):
            assert np.linalg.matrix_rank(rho0) == (2 if rho0 is mixture else 1)
            states = evolve_master(liou, DensityMatrix(rho=rho0), times)
            for s in states:
                s.validate()
            np.testing.assert_allclose(np.array([s.rho for s in states]),
                                       expm_master(liou, rho0, times),
                                       rtol=0, atol=1e-12)
        for s in evolve_master(liou, ground, times):
            np.testing.assert_array_equal(s.rho, ground.rho)

    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-6])
    def test_exceptional_point(self, factor):
        # g = (Gamma - gamma0)/4 at zero detuning makes H_eff (and the
        # Liouvillian) defective; the propagation must not care
        from scipy.linalg import expm

        emitter = EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.7, gamma0=0.01)
        gamma = 0.1
        modes = [ModeParams(n=1, omega_n=2.5, gamma_n=gamma,
                            g=factor * (gamma - emitter.gamma0) / 4)]
        space = build_state_space(1)
        dis = build_dissipators("standard", modes, emitter, space)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou = build_liouvillian(h_s, dis, space)
        times = np.linspace(0.0, 200.0, 400)
        states = evolve_master(liou, pure_state(space, 1), times)
        ref = rk45_master(liou, pure_state(space, 1).rho, times)
        for s, r in zip(states, ref):
            s.validate()
            np.testing.assert_allclose(s.rho, r, atol=1e-7)
        mixed = mixed_state(np.random.default_rng(47), space.dim)
        for rho0 in (pure_state(space, 1), mixed):
            np.testing.assert_allclose(
                np.array([s.rho for s in evolve_master(liou, rho0, times)]),
                expm_master(liou, rho0.rho, times), rtol=0, atol=1e-12)
        # H_eff route: exact expm steps at the point itself, the
        # eigen-expansion (within its EXPANSION_TOL) just off it
        h_eff = effective_hamiltonian_from_lindblad(h_s, dis)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        amps = evolve(h_eff, psi0, times)
        tol = 1e-12 if factor == 1.0 else EXPANSION_TOL
        for t, a, s in zip(times, amps, states):
            psi = np.array([a.c_e, *a.c_n])
            np.testing.assert_allclose(
                psi, expm(-1j * h_eff.matrix * t) @ psi0, rtol=0, atol=tol)
            np.testing.assert_allclose(
                single_excitation_projection(s), np.outer(psi, psi.conj()),
                rtol=0, atol=1e-6)
        # the closed-form spectra need no eigenbasis
        grid = np.linspace(2.3, 2.7, 101)
        ref = resolvent_loop(h_eff, grid)
        np.testing.assert_allclose(amplitude_response(h_eff, grid), ref,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(polarization_spectrum(h_eff, grid).values,
                                   np.abs(ref[:, 0]) ** 2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("times", [
        np.array([0.0, 2.0, 1.0]), np.array([-1.0, 0.0]),
        np.array([0.0, np.nan]), np.zeros((2, 2)),
    ], ids=["decreasing", "negative", "nan", "2d"])
    def test_rejects_bad_time_grid(self, emitter, times):
        space = build_state_space(1)
        modes = [ModeParams(n=1, omega_n=2.5, gamma_n=0.04, g=0.01)]
        dis = build_dissipators("standard", modes, emitter, space)
        liou = build_liouvillian(
            build_system_hamiltonian(modes, emitter, space), dis, space)
        with pytest.raises(InvalidArgumentError):
            evolve_master(liou, pure_state(space, 1), times)

    def test_rejects_a_state_of_another_dimension(self, emitter):
        # a valid state of side N + 3 on an N-mode (side N + 2) Liouvillian
        *_, liou = liouvillian_for("standard", 2, emitter, 59)
        with pytest.raises(ContractViolationError, match="5x5 state"):
            evolve_master(liou, pure_state(build_state_space(3), 1),
                          np.linspace(0.0, 10.0, 3))

    @pytest.mark.parametrize("channel", ["pump", "dephasing"])
    def test_rejects_channels_outside_the_sector(self, emitter, channel):
        h_s, dis, space, _ = liouvillian_for("standard", 2, emitter, 53)
        if channel == "pump":
            # a pump sigma_eg = |e,0><g,0| has no row form, and a dense
            # (C, d, d) stack is not a Liouvillian's channels
            pump = channel_matrix(np.eye(space.n_modes + 1)[0]).T
            with pytest.raises(ContractViolationError, match="not rows"):
                Liouvillian(h_s=h_s, channels=np.array([0.1 * pump]))
            return
        # the ground-state dephasing |g,0><g,0| needs a |g,0> entry, which
        # only a full-space (C, N+2) row stack has: refused as rows of the
        # wrong length by both consumers of the factors
        rows = np.vstack((np.pad(dis.channels, ((0, 0), (1, 0))),
                          0.1 * np.eye(space.dim)[0]))
        extra = dataclasses.replace(dis, labels=dis.labels + (channel,),
                                    channels=rows)
        with pytest.raises(ContractViolationError, match="not rows of length 3"):
            build_liouvillian(h_s, extra, space)
        with pytest.raises(ContractViolationError, match="not rows of length 3"):
            effective_hamiltonian_from_lindblad(h_s, extra)

    def test_rejects_ground_sector_coupling(self, emitter):
        # a coherent drive between |g,0> and |e,0> is hermitian and keeps the
        # trace, but needs the full-space (N+2)-sided H_S, whose side the
        # sector rows do not have
        h_s, dis, space, _ = liouvillian_for("fano_full", 2, emitter, 59)
        driven = np.pad(h_s, (1, 0))
        driven[0, 1] = driven[1, 0] = 0.01
        with pytest.raises(ContractViolationError, match="not rows of length 4"):
            build_liouvillian(driven, dis, space)
        with pytest.raises(ContractViolationError, match="not rows of length 4"):
            effective_hamiltonian_from_lindblad(driven, dis)

    @pytest.mark.parametrize("scale, message", [
        (1j, "not hermitian"),
        (-1.0, "not positive semidefinite"),
        (3.0, "outside"),
    ])
    def test_stacked_validation_names_the_failure(self, scale, message):
        # a half-decayed state, its ground population scaled: by i it is not
        # hermitian, by -1 negative (trace 0), by 3 the trace is 2
        bad = np.diag([0.5 * scale, 0.5])
        with pytest.raises(ContractViolationError, match=message):
            DensityMatrix(rho=bad).validate()

    def test_positivity_floor_boundary(self):
        # rotated states with lowest eigenvalue just above and just below
        # POSITIVITY_FLOOR = -1e-9, inside a stack of 400 valid states
        rng = np.random.default_rng(61)
        dim = 14
        stack = np.empty((400, dim, dim), dtype=complex)
        for k in range(400):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T
            stack[k] = rho / np.trace(rho).real
        stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1))

        def with_lowest(lowest):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            evals = np.zeros(dim)
            evals[:2] = [lowest, 1.0 - lowest]
            rho = (q * evals) @ q.conj().T
            return 0.5 * (rho + rho.conj().T)

        stack[123] = with_lowest(-0.9e-9)
        _require_positive(stack)
        stack[321] = with_lowest(-1.1e-9)
        with pytest.raises(ContractViolationError,
                           match="density matrix 321 not positive"):
            _require_positive(stack)

    def test_core_check_rejects_an_amplified_trajectory(self, emitter):
        # gain on the sector generator: W is no contraction, tr rho_1(t)
        # exceeds tr rho(0) and rho_00(t) goes negative after the first step
        h_s, dis, space, _ = liouvillian_for("standard", 1, emitter, 67)
        gen = _sector_generator(h_s, dis.channels) + 0.05 * np.eye(2)
        with pytest.raises(ContractViolationError,
                           match="density matrix 1 not positive semidefinite"):
            _sector_states(gen, pure_state(space, 1).rho,
                           np.linspace(0.0, 300.0, 50))

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_real_initial_state(self, emitter):
        # a real rho(0) with |g,0> coherences: the complex rho_00(t) must
        # reach the core whole
        *_, space, liou = liouvillian_for("fano_full", 2, emitter, 41)
        psi = np.zeros(space.dim)
        psi[:2] = math.sqrt(0.5)
        rho0 = np.outer(psi, psi)
        times = GRIDS["nonuniform"]
        states = evolve_master(liou, DensityMatrix(rho=rho0), times)
        np.testing.assert_allclose(np.array([s.rho for s in states]),
                                   expm_master(liou, rho0, times),
                                   rtol=0, atol=1e-12)

    def test_validation_makes_no_stack_temporaries(self, emitter):
        # each state is checked on its 2 x 2 core, not as a (k, d, d) stack
        # (full-stack validation peaked at 222 MiB against a 63.5 MiB stack)
        *_, space, liou = liouvillian_for("standard", 100, emitter, 79)
        times = np.linspace(0.0, 300.0, 400)
        _master_states(liou, pure_state(space, 1), times)
        tracemalloc.start()
        try:
            stack = _master_states(liou, pure_state(space, 1), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stack.nbytes

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_validation_leaves_the_states_untouched(self, dtype):
        rho = np.diag([0.25, 0.5, 0.25]).astype(dtype)
        state = DensityMatrix(rho=rho.copy())
        state.validate()
        np.testing.assert_array_equal(state.rho, rho)


class TestEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           kind=st.sampled_from(["standard", "fano_radiative", "fano_full"]))
    @settings(max_examples=20, deadline=None)
    def test_single_excitation_sector_matches_heff(self, seed, kind):
        rng = np.random.default_rng(seed)
        emitter = EmitterSpec(omega0=2.5, d_eg=8.0, eta=0.5 + 0.4 * rng.random(),
                              gamma0=0.004 + 0.01 * rng.random())
        n_modes = int(rng.integers(1, 6))
        modes = fano_modes(rng, n_modes, emitter)
        space = build_state_space(n_modes)
        h_s = build_system_hamiltonian(modes, emitter, space)
        dis = build_dissipators(kind, modes, emitter, space)
        liou = build_liouvillian(h_s, dis, space)
        times = np.linspace(0.0, 120.0, 13)
        states = evolve_master(liou, pure_state(space, 1), times)
        psi0 = np.zeros(n_modes + 1, complex)
        psi0[0] = 1
        amps = evolve(effective_hamiltonian_from_lindblad(h_s, dis), psi0, times)
        for s, a in zip(states, amps):
            psi = np.concatenate(([a.c_e], a.c_n))
            np.testing.assert_allclose(single_excitation_projection(s),
                                       np.outer(psi, psi.conj()), atol=1e-6)
            assert np.trace(s.rho).real == pytest.approx(1.0, abs=1e-9)
            evals = np.linalg.eigvalsh(s.rho)
            assert float(np.min(evals)) > -1e-9
            assert float(np.max(np.abs(s.rho - s.rho.conj().T))) < 1e-12

    def test_effective_hamiltonian_standard_form(self, emitter):
        rng = np.random.default_rng(31)
        modes = synthetic_modes(rng, 3)
        space = build_state_space(3)
        h_s = build_system_hamiltonian(modes, emitter, space)
        dis = build_dissipators("standard", modes, emitter, space)
        ham = effective_hamiltonian_from_lindblad(h_s, dis)
        np.testing.assert_allclose(ham.matrix,
                                   build_standard(modes, emitter).matrix,
                                   atol=1e-15)

    def test_effective_hamiltonian_fano_2x2(self):
        # single mode carrying the full radiative weight reproduces the
        # lossless heuristic matrix including the collective off-diagonal
        em = EmitterSpec(omega0=2.6, d_eg=5.0, eta=1.0, gamma0=2e-9)
        grad, g = 0.2, 0.01
        alpha = math.sqrt(em.gamma0_rad * grad) / g
        modes = [ModeParams(n=1, omega_n=2.6, gamma_n=grad, g=g,
                            gamma_rad=grad, gamma_nr=0.0, alpha=alpha)]
        space = build_state_space(1)
        h_s = build_system_hamiltonian(modes, em, space)
        dis = build_dissipators("fano_radiative", modes, em, space)
        ham = effective_hamiltonian_from_lindblad(h_s, dis)
        assert ham.matrix[0, 1] == pytest.approx(
            g - 0.5j * math.sqrt(em.gamma0_rad * grad), rel=1e-12)
        assert ham.matrix[0, 0] == pytest.approx(-0.5j * em.gamma0_rad,
                                                 rel=1e-12)

    def test_effective_hamiltonian_fano_full_form(self, emitter):
        rng = np.random.default_rng(37)
        modes = fano_modes(rng, 3, emitter)
        space = build_state_space(3)
        h_s = build_system_hamiltonian(modes, emitter, space)
        dis = build_dissipators("fano_full", modes, emitter, space)
        ham = effective_hamiltonian_from_lindblad(h_s, dis)
        np.testing.assert_allclose(
            ham.matrix, build_fano(modes, emitter, variant="general").matrix,
            atol=1e-15)

    def test_alpha_zero_dissipators_reduce_to_standard(self, emitter):
        rng = np.random.default_rng(41)
        base = synthetic_modes(rng, 3)
        modes = [ModeParams(n=m.n, omega_n=m.omega_n, gamma_n=m.gamma_n, g=m.g,
                            gamma_rad=m.gamma_n - 0.01, gamma_nr=0.01, alpha=0.0)
                 for m in base]
        space = build_state_space(3)
        h_s = build_system_hamiltonian(modes, emitter, space)
        liou_fano = dense_liouvillian(build_liouvillian(
            h_s, build_dissipators("fano_full", modes, emitter, space), space))
        liou_std = dense_liouvillian(build_liouvillian(
            h_s, build_dissipators("standard", modes, emitter, space), space))
        np.testing.assert_allclose(liou_fano, liou_std, atol=1e-14)


class TestDensityMatrix:
    def test_validation_rejects_nonhermitian(self):
        rho = np.zeros((3, 3), complex)
        rho[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            DensityMatrix(rho=rho).validate()

    def test_dimension_audit(self):
        # Lindblad works in (N+2)^2, the effective Hamiltonian in N+1
        space = build_state_space(5)
        assert space.dim**2 == 49
        assert space.n_modes + 1 == 6


@pytest.mark.parametrize("call, error, message", [
    (lambda em: build_state_space(-1), InvalidArgumentError,
     "n_modes must be >= 0"),
    (lambda em: build_dissipators("dephasing", [], em, build_state_space(0)),
     InvalidArgumentError, "unknown dissipator kind 'dephasing'"),
    (lambda em: build_dissipators("standard", [], em, build_state_space(1)),
     InvalidArgumentError, "mode count does not match state space"),
    # gamma0n_rad = (alpha g)^2 / Gamma_rad = 0.25 eV > gamma0_rad = 7 meV
    (lambda em: build_dissipators(
        "fano_radiative",
        [ModeParams(n=1, omega_n=2.5, gamma_n=0.05, g=0.01, gamma_rad=0.04,
                    gamma_nr=0.01, alpha=10.0)],
        em, build_state_space(1)),
     InvalidRateError, "weights exceed the free-space radiative rate"),
    (lambda em: Liouvillian(h_s=np.zeros((3, 4)), channels=np.zeros((1, 4))),
     ContractViolationError, r"shape \(3, 4\) is not square"),
], ids=["negative-n-modes", "unknown-kind", "mode-count", "excess-weight",
        "non-square-hs"])
def test_rejects_invalid_input(emitter, call, error, message):
    with pytest.raises(error, match=message):
        call(emitter)
