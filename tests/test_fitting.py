"""The batched least-squares contract, and the mode fits of the figure suite
and of configs/fano_r50.json checked against MINPACK one fit at a time."""

import math
import os

import numpy as np
import pytest
from slow_oracle import leastsq_fit

from plasmon_cqed import cli, coupling, tasks
from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.errors import FitFailureError
from plasmon_cqed.fitting import MAX_ITERATIONS, least_squares
from plasmon_cqed.medium import radiative_rate
from plasmon_cqed.mie import radial_mode_fractions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_RTOL = 1e-9

T = np.linspace(0.0, 3.0, 60)
DECAY_DATA = np.exp(-1.3 * T) + 0.01 * np.sin(5.0 * T)


def _runaway_or_decay(runaway):
    """Batch model: fit i minimizes exp(-x)^2, which has no minimum, where
    runaway[i]; otherwise it fits exp(-a t) to DECAY_DATA."""
    runaway = np.asarray(runaway)

    def model(theta, rows):
        decay = np.exp(-theta * T)
        runs = runaway[rows][:, None]
        res = np.where(runs, (T == 0.0) * np.exp(-theta), decay - DECAY_DATA)
        return res, np.where(runs, -res, -T * decay)[:, None, :]

    return model


def test_evaluation_cap_raises_with_best_iterate():
    # every step lowers exp(-x)^2, so only the cap of MAX_ITERATIONS model
    # evaluations after the first stops the fit
    theta, cost, [error] = least_squares(_runaway_or_decay([True]), [[0.0]])
    assert isinstance(error, FitFailureError)
    assert f"did not converge in {MAX_ITERATIONS} iterations" in str(error)
    best = error.best_params
    assert best.shape == (1,) and best[0] > 100
    assert error.best_cost == pytest.approx(0.5 * np.exp(-2 * best[0]))
    assert theta[0, 0] == best[0] and cost[0] == error.best_cost


def test_non_finite_cost_raises():
    def nan_residual(theta, rows):
        res = np.column_stack((np.full(len(rows), np.nan), theta[:, 0]))
        return res, np.broadcast_to([[[0.0, 1.0]]], (len(rows), 1, 2))

    _, _, [error] = least_squares(nan_residual, [[0.1]])
    assert isinstance(error, FitFailureError) and "cost is nan" in str(error)
    np.testing.assert_array_equal(error.best_params, [0.1])
    assert np.isnan(error.best_cost)


def test_failing_fit_leaves_batch_mates_bitwise_unchanged():
    theta, cost, errors = least_squares(
        _runaway_or_decay([False, True, False]), [[0.5], [0.0], [2.0]])
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], FitFailureError)
    for i, start in ((0, 0.5), (2, 2.0)):
        alone, alone_cost, [error] = least_squares(
            _runaway_or_decay([False]), [[start]])
        assert error is None
        assert theta[i, 0] == alone[0, 0] and cost[i] == alone_cost[0]
    assert theta[0, 0] == pytest.approx(1.3, rel=0.02)


# -- the mode fits against MINPACK -------------------------------------------

def _half_width(grid, values, i_peak):
    """Full width at half maximum by a scalar walk out from the peak."""
    half = values[i_peak] / 2.0
    lo, hi = grid[0], grid[-1]
    for i in range(i_peak, 0, -1):
        if values[i - 1] <= half:
            lo = np.interp(half, [values[i - 1], values[i]], [grid[i - 1], grid[i]])
            break
    for i in range(i_peak, len(grid) - 1):
        if values[i + 1] <= half:
            hi = np.interp(half, [values[i + 1], values[i]], [grid[i + 1], grid[i]])
            break
    return max(hi - lo, 2.0 * (grid[1] - grid[0]))


def _cost_of(mode, values):
    """0.5*||residual / peak||^2 recovered from a fit's rms residual."""
    scale = np.max(np.abs(values))
    return 0.5 * values.size * (
        mode.fit_residual * math.sqrt(np.mean(values**2)) / scale) ** 2


def _oracle_lorentzian(grid, values):
    """(omega_n, Gamma_n, g, cost) of the full three-parameter Lorentzian
    least squares, from the peak, its half width and the implied g."""
    i_peak = int(np.argmax(values))
    scale = values[i_peak]
    gamma0 = _half_width(grid, values, i_peak)
    g0 = math.sqrt(scale * math.pi * gamma0 / 2.0)

    def residual(theta):
        wn, gamma, g = theta[0], math.exp(theta[1]), math.exp(theta[2])
        return (gamma / (2 * math.pi) * g**2
                / ((grid - wn) ** 2 + gamma**2 / 4) - values) / scale

    params, cost = leastsq_fit(
        residual, [grid[i_peak], math.log(gamma0), math.log(g0)])
    return params[0], math.exp(params[1]), math.exp(params[2]), cost


def _fano_oracle_profile(grid, g0, g0n, wn, gamma_rad, g, gamma_nr):
    # the paper's form: q = omega_n / Gamma_tot, delta = (w0 - omega_n) / omega_n
    gamma_tot = gamma_rad + gamma_nr
    q_fac = wn / gamma_tot
    delta = (grid - wn) / wn
    num = 4 * g**2 - g0n * gamma_rad \
        + 8 * g * np.sqrt(g0n * gamma_rad) * q_fac * delta
    return num / (g0 * gamma_tot * (1 + 4 * q_fac**2 * delta**2))


def _oracle_fano(grid, values, n, geometry, emitter, frozen=None):
    """(omega_n, Gamma_rad, signed g, Gamma_nr, cost) of the two-stage Fano
    fit, both sign branches of the lossless stage run separately."""
    scale = np.max(np.abs(values))
    g0_rad = radiative_rate(grid, emitter.d_eg, geometry.n_b)
    g0n = g0_rad * radial_mode_fractions(
        n, geometry.n_b * grid / HBAR_C_EV_NM * geometry.r_d)[..., n - 1]
    g0 = g0_rad / emitter.eta
    if frozen is None:
        i_peak = int(np.argmax(np.abs(values)))
        gamma = max(_half_width(grid, np.abs(values), i_peak), 0.02)
        g_guess = math.sqrt(abs(values[i_peak]) * g0[i_peak] * gamma) / 2.0

        def residual(theta):
            return (_fano_oracle_profile(grid, g0, g0n, theta[0],
                                         math.exp(theta[1]), theta[2], 0.0)
                    - values) / scale

        params, cost = min(
            (leastsq_fit(residual, [grid[i_peak], math.log(gamma), sign * g_guess])
             for sign in (-1.0, 1.0)), key=lambda fit: fit[1])
        return params[0], math.exp(params[1]), params[2], 0.0, cost
    sign = 1.0 if frozen.alpha >= 0 else -1.0

    def residual(theta):
        return (_fano_oracle_profile(grid, g0, g0n, frozen.omega_n,
                                     frozen.gamma_rad, sign * frozen.g,
                                     math.exp(theta[0])) - values) / scale

    params, cost = leastsq_fit(residual, [math.log(0.05)])
    return (frozen.omega_n, frozen.gamma_rad, sign * frozen.g,
            math.exp(params[0]), cost)


@pytest.fixture(scope="module")
def recorded_fits(tmp_path_factory):
    """Every Lorentzian batch and Fano batch of the figure suite and of
    configs/fano_r50.json, with its inputs."""
    lorentz, fano = [], []
    lorentz_batch, fano_batch = coupling.fit_lorentzians, tasks._fano_fits

    def record_lorentz(ns, grids, values):
        fits = lorentz_batch(ns, grids, values)
        lorentz.append((np.array(grids), np.array(values), fits))
        return fits

    def record_fano(grid, values, n, geometries, emitter, rates, frozen=None):
        modes = fano_batch(grid, values, n, geometries, emitter, rates, frozen)
        fano.append((grid, np.array(values), n, list(geometries), emitter,
                     frozen, modes))
        return modes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling, "fit_lorentzians", record_lorentz)
        mp.setattr(tasks, "_fano_fits", record_fano)
        for config in ("figure_suite", "fano_r50"):
            out = tmp_path_factory.mktemp(config)
            assert cli.main(["run", os.path.join(ROOT, "configs", f"{config}.json"),
                             "--out", str(out)]) == 0
    return lorentz, fano


def test_lorentzian_fits_match_minpack(recorded_fits):
    lorentz, _ = recorded_fits
    # the figure suite's three R = 8 nm sweeps share one batch
    assert sorted(len(fits) for *_, fits in lorentz) == [225]
    for grids, values, fits in lorentz:
        for grid, y, mode in zip(grids, values, fits):
            wn, gamma, g, cost = _oracle_lorentzian(grid, y)
            assert mode.omega_n == pytest.approx(wn, rel=ORACLE_RTOL, abs=0)
            assert mode.gamma_n == pytest.approx(gamma, rel=ORACLE_RTOL, abs=0)
            assert mode.g == pytest.approx(g, rel=ORACLE_RTOL, abs=0)
            assert _cost_of(mode, y) == pytest.approx(cost, rel=ORACLE_RTOL, abs=0)


def test_fano_fits_match_minpack(recorded_fits):
    _, fano = recorded_fits
    # fig9 at h = 30 and 15 nm in one batch, then fano_r50: a lossless batch
    # and its refit each
    assert [(frozen is None, len(values))
            for _, values, _, _, _, frozen, _ in fano] \
        == [(True, 2), (False, 2), (True, 1), (False, 1)]
    for grid, values, n, geometries, emitter, frozen, modes in fano:
        for i, mode in enumerate(modes):
            wn, gamma_rad, g, gamma_nr, cost = _oracle_fano(
                grid, values[i], n, geometries[i], emitter,
                frozen[i] if frozen is not None else None)
            sign = 1.0 if mode.alpha >= 0 else -1.0
            assert mode.omega_n == pytest.approx(wn, rel=ORACLE_RTOL, abs=0)
            assert mode.gamma_n == pytest.approx(gamma_rad + gamma_nr,
                                                 rel=ORACLE_RTOL, abs=0)
            assert sign * mode.g == pytest.approx(g, rel=ORACLE_RTOL, abs=0)
            assert _cost_of(mode, values[i]) == pytest.approx(
                cost, rel=ORACLE_RTOL, abs=0)
