import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmon_cqed import coupling, fitting, mie
from plasmon_cqed.constants import HBAR_C_EV_NM
from plasmon_cqed.coupling import (
    ModeParams,
    extract_mode_sweep,
    extract_modes,
    fano_rate_model,
    fit_fano_rate,
    fit_lorentzians,
    kappa_spectra,
    lorentzian_kappa2,
    mode_windows,
    rate_spectrum_lsp,
)
from plasmon_cqed.errors import FitFailureError, InvalidArgumentError
from plasmon_cqed.medium import (EmitterSpec, Geometry, MaterialModel,
                                 radiative_rate, silver)
from plasmon_cqed.mie import (green_rr_terms, qs_mode_params,
                              radial_mode_fractions)
from plasmon_cqed.weak import fano_adiabatic

FIGURE_SUITE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs", "figure_suite.json")


def fit_one(grid, values, n=1):
    """The one-spectrum batch of fit_lorentzians; a failed fit raises."""
    [fit] = fit_lorentzians([n], np.asarray(grid)[None], np.asarray(values)[None])
    if isinstance(fit, FitFailureError):
        raise fit
    return fit


class TestKappaSpectrum:
    def test_six_modes_single_peaked_and_ordered(self, ag, small_geometry,
                                                 strong_emitter):
        grid = np.linspace(2.4, 3.2, 201)
        spectra = kappa_spectra(6, grid, small_geometry, ag, strong_emitter)
        assert spectra.shape == (6, 201)
        peaks = []
        for values in spectra:
            i_pk = int(np.argmax(values))
            assert 0 < i_pk < 200
            peaks.append(grid[i_pk])
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_zero_dipole_zero_spectrum(self, ag, small_geometry):
        em = EmitterSpec(omega0=2.9, d_eg=0.0, eta=1.0, gamma0=1e-9)
        spectra = kappa_spectra(1, np.linspace(2.4, 3.2, 60), small_geometry,
                                ag, em)
        assert np.all(spectra == 0)

    def test_large_sphere_asymmetry(self, ag, strong_emitter):
        # Lorentzian fit quality degrades visibly for the leaky dipolar mode
        geo = Geometry.from_surface_distance(50.0, 5.0)
        grid = np.linspace(2.1, 3.3, 241)
        with pytest.warns(UserWarning, match="leaky"):
            [values] = kappa_spectra(1, grid, geo, ag, strong_emitter)
        fitted = fit_one(grid, values)
        assert fitted.fit_residual > 0.05

    def test_one_green_call_per_table(self, ag, small_geometry, strong_emitter,
                                      monkeypatch):
        calls = []
        terms = coupling.green_rr_terms

        def counted(*args, **kwargs):
            calls.append(args)
            return terms(*args, **kwargs)

        monkeypatch.setattr(coupling, "green_rr_terms", counted)
        kappa_spectra(6, np.linspace(2.4, 3.2, 201), small_geometry, ag,
                      strong_emitter)
        assert len(calls) == 1
        assert calls[0][3] == 6

    def test_rows_are_kappa2_of_the_green_terms(self, ag, small_geometry,
                                                strong_emitter):
        grid = np.linspace(2.4, 3.2, 201)
        spectra = kappa_spectra(6, grid, small_geometry, ag, strong_emitter)
        terms = coupling.green_rr_terms(grid, small_geometry, ag, 6)
        for n in range(1, 7):
            np.testing.assert_array_equal(
                spectra[n - 1],
                coupling._kappa2(grid, terms[..., n - 1], strong_emitter))

    def test_leaky_warning_points_at_the_caller(self, ag, strong_emitter):
        geo = Geometry.from_surface_distance(50.0, 5.0)
        with pytest.warns(UserWarning, match="LSP_1 spectrum") as seen:
            kappa_spectra(2, np.linspace(2.1, 3.3, 241), geo, ag,
                          strong_emitter)
        assert [w.filename for w in seen] == [__file__]
        with pytest.warns(UserWarning, match="LSP_1 spectrum") as seen:
            extract_mode_sweep(1, [geo], ag, strong_emitter)
        assert [w.filename for w in seen] == [__file__]
        with pytest.warns(UserWarning, match="LSP_1 spectrum") as seen:
            extract_modes(1, geo, ag, strong_emitter)
        assert [w.filename for w in seen] == [__file__]

    def test_grid_validation(self):
        # the fits take at least MIN_GRID_POINTS strictly ascending points and
        # matching values; a coupling table itself has no such floor
        grid = np.linspace(2, 3, 60)
        with pytest.raises(InvalidArgumentError, match=">= 50 points"):
            fit_lorentzians([1], grid[None, :10], np.zeros((1, 10)))
        with pytest.raises(InvalidArgumentError, match="ascending"):
            fit_lorentzians([1], grid[None, ::-1], np.zeros((1, 60)))
        with pytest.raises(InvalidArgumentError, match="mismatch"):
            fit_lorentzians([1], grid[None], np.zeros((1, 59)))
        with pytest.raises(InvalidArgumentError, match="mismatch"):
            fit_lorentzians([1, 2], grid[None], np.zeros((1, 60)))


class TestLorentzianFit:
    def test_noiseless_roundtrip(self):
        grid = np.linspace(2.55, 3.05, 161)
        vals = lorentzian_kappa2(grid, 2.8, 0.051, 0.010)
        fitted = fit_one(grid, vals)
        assert fitted.omega_n == pytest.approx(2.8, rel=1e-6)
        assert fitted.gamma_n == pytest.approx(0.051, rel=1e-6)
        assert fitted.g == pytest.approx(0.010, rel=1e-6)

    def test_small_sphere_widths_are_drude(self, ag, small_geometry,
                                           strong_emitter):
        modes = extract_modes(6, small_geometry, ag, strong_emitter)
        for mode in modes:
            assert abs(mode.gamma_n - 0.051) / 0.051 < 0.10
            assert mode.fit_residual < 0.02

    def test_coupling_decreases_with_distance(self, ag, strong_emitter):
        gs = []
        for h in (2.0, 5.0, 10.0):
            geo = Geometry.from_surface_distance(8.0, h)
            gs.append(extract_modes(1, geo, ag, strong_emitter)[0].g)
        assert gs[0] > gs[1] > gs[2]

    def test_single_mode_consistency(self, ag, small_geometry, strong_emitter):
        single = extract_modes(1, small_geometry, ag, strong_emitter)[0]
        first = extract_modes(3, small_geometry, ag, strong_emitter)[0]
        assert single.omega_n == first.omega_n
        assert single.g == first.g


class TestModeSweep:
    def test_sweep_matches_per_geometry_fits(self, ag, strong_emitter):
        # the distances of the figure suite's coupling-vs-distance sweep
        geometries = [Geometry.from_surface_distance(8.0, h) for h in
                      (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 18.0)]
        sweep = extract_mode_sweep(4, geometries, ag, strong_emitter)
        assert sweep == [extract_modes(4, geo, ag, strong_emitter)
                         for geo in geometries]
        # and the table-by-table route over kappa_spectra
        assert sweep == [[fit_one(window, kappa_spectra(
            n, window, geo, ag, strong_emitter)[n - 1], n)
            for n, window in enumerate(mode_windows(4, geo, ag), start=1)]
            for geo in geometries]

    def test_failure_names_mode_and_distance(self, ag, strong_emitter,
                                             monkeypatch):
        fit = coupling.fit_lorentzians
        seen = []

        def fail_lsp2_second_distance(ns, grids, values):
            fits = fit(ns, grids, values)
            for i, n in enumerate(ns):
                seen.append(n)
                if n == 2 and seen.count(2) == 2:
                    fits[i] = FitFailureError("forced", best_params=None)
            return fits

        monkeypatch.setattr(coupling, "fit_lorentzians",
                            fail_lsp2_second_distance)
        geometries = [Geometry.from_surface_distance(8.0, h)
                      for h in (2.0, 5.0, 10.0)]
        with pytest.raises(FitFailureError) as info:
            extract_mode_sweep(3, geometries, ag, strong_emitter)
        assert str(info.value) == "mode fits failed for LSP_2 at h=5 nm (forced)"
        assert [str(exc) for exc in info.value.best_params] == ["forced"]
        assert len(seen) == 9  # the other fits still ran

    def test_one_green_evaluation_per_sweep(self, ag, weak_emitter,
                                            monkeypatch):
        # the figure suite's weak-coupling sweep: 20 modes at 8 distances
        green_calls, bands = [], {"j": [], "y": []}
        mode_table = coupling._green_mode_table

        def counted_table(*args):
            green_calls.append(args)
            return mode_table(*args)

        def counted(kind, band):
            def wrapped(z, lo, width):
                bands[kind].append((np.asarray(z), band(z, lo, width)))
                return bands[kind][-1][1]
            return wrapped

        monkeypatch.setattr(coupling, "_green_mode_table", counted_table)
        monkeypatch.setattr(mie, "_jn_band", counted("j", mie._jn_band))
        monkeypatch.setattr(mie, "_yn_band", counted("y", mie._yn_band))
        geometries = [Geometry.from_surface_distance(8.0, h) for h in
                      (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 20.0)]
        windows = mode_windows(20, geometries[0], ag)
        extract_mode_sweep(20, geometries, ag, weak_emitter)
        assert len(green_calls) == 1
        assert green_calls[0][0].shape == windows.shape
        # the metal-interior k_m R ladder (the only complex argument) once
        # over all windows, k_b R once, and k_b r_d once per block of at most
        # mie._HANKEL_BLOCK_POINTS points, whole distances at a time
        per_call = max(1, mie._HANKEL_BLOCK_POINTS // windows.size)
        blocks = [len(geometries[i:i + per_call])
                  for i in range(0, len(geometries), per_call)]
        assert [np.iscomplexobj(z) for z, _ in bands["j"]] == \
            [False, True] + [False] * len(blocks)
        assert all(z.shape == windows.shape for z, _ in bands["j"][:2])
        assert [z.shape for z, _ in bands["j"][2:]] == \
            [(b,) + windows.shape for b in blocks]
        # real arguments give real ladders: only the k_m R band is complex
        assert [np.iscomplexobj(b) for _, (b, _) in bands["j"] + bands["y"]] \
            == [False, True] + [False] * (2 * len(blocks) + 1)

    @pytest.mark.parametrize("n_modes", [4, 20])
    def test_fewer_modes_take_the_first_windows(self, ag, small_geometry,
                                                n_modes):
        # the figure suite's R = 8 nm sweeps read the rows of one 25-window
        # Green table
        np.testing.assert_array_equal(
            mode_windows(n_modes, small_geometry, ag),
            mode_windows(25, small_geometry, ag)[:n_modes])

    @pytest.mark.parametrize("radius, gamma_p, points", [
        (8.0, 0.051, 51), (50.0, 0.051, 201), (8.0, 0.0, 201)],
        ids=["absorbing", "leaky", "lossless"])
    def test_window_points_follow_the_regime(self, radius, gamma_p, points):
        # 51 points only where every mode's quasi-static Gamma_rad <= gamma_p
        metal = MaterialModel.drude(6.0, 7.90, gamma_p)
        geo = Geometry.from_surface_distance(radius, 2.0)
        windows = mode_windows(6, geo, metal)
        assert windows.shape == (6, points)
        for n, window in enumerate(windows, start=1):
            qs = qs_mode_params(n, geo, metal)
            half = 5.0 * max(qs.gamma_n, 1e-3)
            assert window[0] == max(0.05, qs.omega_n - half)
            assert window[-1] == qs.omega_n + half
            assert np.all(np.diff(window) > 0)

    @pytest.mark.parametrize("n_modes, h_values, emitter", [
        (4, (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 18.0),
         "strong_emitter"),
        (25, (2.0,), "strong_emitter"),
        (20, (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 14.0, 20.0), "weak_emitter")],
        ids=["fig3", "fig4", "fig6"])
    def test_coarse_windows_match_201_point_fits(self, ag, request, n_modes,
                                                 h_values, emitter):
        # the figure suite's three sweeps, against fits on 201 points over
        # the same window bounds
        emitter = request.getfixturevalue(emitter)
        geometries = [Geometry.from_surface_distance(8.0, h) for h in h_values]
        windows = mode_windows(n_modes, geometries[0], ag)
        assert windows.shape == (n_modes, 51)
        fine = np.linspace(windows[:, 0], windows[:, -1], 201, axis=-1)
        modes = np.arange(1, n_modes + 1)
        terms = mie._green_mode_terms(fine, modes[:, None], geometries, ag)
        values = coupling._kappa2(fine, terms, emitter)
        slow = fit_lorentzians(np.tile(modes, len(geometries)),
                               np.tile(fine, (len(geometries), 1)),
                               values.reshape(-1, 201))
        fast = [m for modes_at_h in extract_mode_sweep(
            n_modes, geometries, ag, emitter) for m in modes_at_h]
        assert [m.n for m in fast] == [m.n for m in slow]
        for f, s in zip(fast, slow):
            assert abs(f.omega_n - s.omega_n) <= 1e-6
            assert abs(f.gamma_n - s.gamma_n) <= 5e-5 * s.gamma_n
            assert abs(f.g - s.g) <= 5e-5 * s.g

    def test_unevaluated_entries_cannot_be_read(self, ag, strong_emitter):
        # h = 1 nm holds the 4 modes its sweep reads, h = 2 nm 20, and
        # h = 3 nm, which no sweep picks, none
        geometries = [Geometry.from_surface_distance(8.0, h)
                      for h in (1.0, 2.0, 3.0)]
        windows, terms = coupling._green_table(
            geometries, ag, [(4, [0], strong_emitter),
                             (20, [1], strong_emitter)])
        assert windows.shape == (20, 51)
        assert [t.shape for t in terms] == [(4, 51), (20, 51), (0, 51)]
        with pytest.raises(IndexError):
            terms[0][4]
        with pytest.raises(IndexError):
            terms[2][0]
        with pytest.raises(InvalidArgumentError, match=(
                "^the Green table holds 4 modes at h=1 nm, not 5$")):
            coupling._fit_table(windows, terms, geometries,
                                [(5, [0], strong_emitter)])
        with pytest.raises(InvalidArgumentError, match="holds 0 modes"):
            coupling._fit_table(windows, terms, geometries,
                                [(1, [2], strong_emitter)])

    def test_figure_suite_table_is_the_dense_table(self, tmp_path,
                                                   monkeypatch):
        # every entry of the figure suite's R = 8 nm table bitwise the dense
        # per-order term at its (mode, h); each distance holds the modes of
        # the sweeps that pick it
        from plasmon_cqed import cli, tasks

        tables, green_table = [], tasks._green_table

        def captured(geometries, material, sweeps):
            tables.append((geometries, material, sweeps,
                           green_table(geometries, material, sweeps)))
            return tables[-1][-1]

        monkeypatch.setattr(tasks, "_green_table", captured)
        assert cli.main(["run", FIGURE_SUITE, "--out", str(tmp_path)]) == 0
        [(geometries, material, sweeps, (windows, terms))] = tables
        assert [g.h for g in geometries] == [1.0, 1.5, 2.0, 3.0, 4.0, 5.0,
                                             7.0, 10.0, 14.0, 18.0, 20.0]
        assert [len(t) for t in terms] == [
            max([n for n, picks, _ in sweeps if i in picks], default=0)
            for i in range(len(geometries))]
        assert [len(t) for t in terms] == [4, 4, 25, 20, 20, 20, 20, 20, 20,
                                           4, 20]
        dense = mie._green_mode_terms(
            windows, np.arange(1, len(windows) + 1)[:, None], geometries,
            material)
        for row, term in zip(dense, terms):
            np.testing.assert_array_equal(term, row[:len(term)])

    def test_rejects_empty_sweep_and_second_sphere(self, ag, strong_emitter):
        with pytest.raises(InvalidArgumentError):
            extract_mode_sweep(2, [], ag, strong_emitter)
        with pytest.raises(InvalidArgumentError):
            extract_mode_sweep(2, [Geometry.from_surface_distance(8.0, 2.0),
                                   Geometry.from_surface_distance(9.0, 2.0)],
                               ag, strong_emitter)


@given(
    omega_n=st.floats(min_value=2.3, max_value=3.1),
    gamma=st.floats(min_value=0.005, max_value=0.2),
    log_g=st.floats(min_value=-3.0, max_value=-1.0),
)
@settings(max_examples=40, deadline=None)
def test_lorentzian_roundtrip_property(omega_n, gamma, log_g):
    g = 10.0**log_g
    grid = np.linspace(omega_n - 5 * gamma, omega_n + 5 * gamma, 101)
    fitted = fit_one(grid, lorentzian_kappa2(grid, omega_n, gamma, g))
    assert fitted.omega_n == pytest.approx(omega_n, rel=1e-6)
    assert fitted.gamma_n == pytest.approx(gamma, rel=1e-6)
    assert fitted.g == pytest.approx(g, rel=1e-6)
    assert fitted.g >= 0


class TestFanoFit:
    @pytest.fixture
    def fano_geometry(self):
        return Geometry.from_surface_distance(50.0, 30.0)

    @pytest.fixture
    def fano_emitter(self):
        return EmitterSpec.from_dipole(2.60, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rates_read_one_order(self, ag, fano_geometry, fano_emitter, n):
        # both read their one order per point; pinned bitwise to the column
        # n-1 of the all-orders calls
        grid = np.linspace(2.2, 3.1, 301)
        kb = fano_geometry.n_b * grid / HBAR_C_EV_NM
        np.testing.assert_array_equal(
            rate_spectrum_lsp(n, grid, [fano_geometry], ag)[0],
            6 * math.pi / kb * green_rr_terms(grid, fano_geometry, ag,
                                              n)[..., n - 1].imag)
        g0_rad = radiative_rate(grid, fano_emitter.d_eg, fano_geometry.n_b)
        g0, g0n = coupling._free_space_rates(grid, n, fano_geometry,
                                             fano_emitter)
        np.testing.assert_array_equal(g0, g0_rad / fano_emitter.eta)
        np.testing.assert_array_equal(
            g0n, g0_rad * radial_mode_fractions(
                n, kb * fano_geometry.r_d)[..., n - 1])
        _, g0n_scalar = coupling._free_space_rates(2.6, n, fano_geometry,
                                                   fano_emitter)
        assert g0n_scalar == radiative_rate(
            2.6, fano_emitter.d_eg, fano_geometry.n_b) * radial_mode_fractions(
                n, fano_geometry.n_b * 2.6 / HBAR_C_EV_NM
                * fano_geometry.r_d)[n - 1]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_model_is_the_adiabatic_fano_rate(self, fano_geometry,
                                              fano_emitter, sign):
        # gamma_n(w0)/gamma0 of the Fano H_eff with an emitter at each w0
        # and the asymmetry there, alpha(w0) = sqrt(gamma0n(w0) Gamma_rad)/g
        grid = np.linspace(2.2, 3.0, 161)
        wn, grad, gnr = 2.6, 0.25, 0.04
        kb = fano_geometry.n_b * grid / HBAR_C_EV_NM
        g0n = radiative_rate(grid, fano_emitter.d_eg, fano_geometry.n_b) \
            * radial_mode_fractions(1, kb * fano_geometry.r_d)[:, 0]
        g = sign * 0.7 * math.sqrt(np.interp(wn, grid, g0n) * grad)
        model = fano_rate_model(grid, 1, fano_geometry, fano_emitter, wn,
                                grad, g, gnr)
        rates = []
        for w0, alpha in zip(grid, np.sqrt(g0n * grad) / g):
            emitter = EmitterSpec.from_dipole(float(w0), fano_emitter.d_eg,
                                              0.0, fano_geometry.n_b)
            mode = ModeParams(n=1, omega_n=wn, gamma_n=grad + gnr, g=abs(g),
                              gamma_rad=grad, gamma_nr=gnr, alpha=alpha)
            rates.append(fano_adiabatic([mode], emitter).gamma_n[0]
                         / emitter.gamma0)
        assert np.min(model) < 0 < np.max(model)  # the Fano dip is on the grid
        assert np.max(np.abs(model - rates)) <= 1e-12 * np.max(np.abs(model))

    def test_alpha_zero_reduces_to_lorentzian_limit(self, fano_geometry,
                                                    fano_emitter):
        # with gamma0n -> 0 the Fano profile is the plain detuning Lorentzian
        grid = np.linspace(2.2, 3.0, 161)
        wn, grad, g = 2.6, 0.25, 1e-4
        bare = fano_rate_model(grid, 1, fano_geometry, fano_emitter,
                               wn, grad, g)
        q = wn / grad
        from plasmon_cqed.medium import radiative_rate
        g0 = np.array([radiative_rate(w, 1.0) for w in grid])
        lorentz = 4 * g**2 / (g0 * grad) / (1 + 4 * q**2 * ((grid - wn) / wn) ** 2)
        # difference is exactly the alpha-dependent part; small since alpha ~ g
        assert np.max(np.abs(bare - lorentz)) / np.max(np.abs(lorentz)) < 0.25

    def test_synthetic_roundtrip(self, fano_geometry, fano_emitter):
        rng = np.random.default_rng(2)
        for _ in range(10):
            wn = 2.5 + 0.2 * rng.random()
            grad = 0.15 + 0.25 * rng.random()
            g = (1 if rng.random() < 0.5 else -1) * 10 ** (
                -4.5 + 1.0 * rng.random())
            grid = np.linspace(wn - 3 * grad, wn + 3 * grad, 161)
            data = fano_rate_model(grid, 1, fano_geometry, fano_emitter,
                                   wn, grad, g)
            [fitted] = fit_fano_rate(grid, [data], 1, [fano_geometry],
                                     fano_emitter)
            sign = 1.0 if fitted.alpha >= 0 else -1.0
            assert fitted.omega_n == pytest.approx(wn, rel=1e-6)
            assert fitted.gamma_rad == pytest.approx(grad, rel=1e-6)
            assert sign * fitted.g == pytest.approx(g, rel=1e-6)

    def test_lossy_stage_never_degrades_fit(self, ag, fano_geometry,
                                            fano_emitter):
        grid = np.linspace(2.2, 3.1, 201)
        lossless = ag.lossless()
        data_free = rate_spectrum_lsp(1, grid, [fano_geometry], lossless)
        [mode_free] = fit_fano_rate(grid, data_free, 1, [fano_geometry],
                                    fano_emitter)
        [data_lossy] = rate_spectrum_lsp(1, grid, [fano_geometry], ag)
        [mode_lossy] = fit_fano_rate(grid, [data_lossy], 1, [fano_geometry],
                                     fano_emitter, frozen=[mode_free])
        # evaluate the lossless-only model on the lossy data
        sign = 1.0 if mode_free.alpha >= 0 else -1.0
        resid_frozen = fano_rate_model(grid, 1, fano_geometry, fano_emitter,
                                       mode_free.omega_n, mode_free.gamma_rad,
                                       sign * mode_free.g) - data_lossy
        rms_frozen = math.sqrt(float(np.mean(resid_frozen**2))) \
            / math.sqrt(float(np.mean(data_lossy**2)))
        assert mode_lossy.fit_residual <= rms_frozen + 1e-12

    def test_fano_numbers_silver_r50(self, ag, fano_emitter):
        grid = np.linspace(2.2, 3.1, 201)
        geo = Geometry.from_surface_distance(50.0, 30.0)
        data = rate_spectrum_lsp(1, grid, [geo], ag.lossless())
        [mode] = fit_fano_rate(grid, data, 1, [geo], fano_emitter)
        q_fano = 2.0 / mode.alpha
        assert q_fano == pytest.approx(-4.2, rel=0.15)
        assert mode.gamma_rad == pytest.approx(0.254, rel=0.10)

    def test_gamma_nr_silver_r50(self, ag, fano_emitter):
        grid = np.linspace(2.2, 3.1, 201)
        geo = Geometry.from_surface_distance(50.0, 30.0)
        [mode_free] = fit_fano_rate(
            grid, rate_spectrum_lsp(1, grid, [geo], ag.lossless()), 1, [geo],
            fano_emitter)
        [mode_lossy] = fit_fano_rate(
            grid, rate_spectrum_lsp(1, grid, [geo], ag), 1, [geo],
            fano_emitter, frozen=[mode_free])
        assert mode_lossy.gamma_nr == pytest.approx(0.040, rel=0.25)


class TestFanoBatch:
    """The Fano fits of the figure suite (R = 50 nm, h = 30 and 15 nm, with
    its emitter) and of configs/fano_r50.json (h = 30 nm, omega0 = 2.6 eV),
    batched over distances."""

    GRID = np.linspace(2.2, 3.1, 301)

    @pytest.fixture
    def geometries(self):
        return [Geometry.from_surface_distance(50.0, h) for h in (30.0, 15.0)]

    @pytest.mark.parametrize("omega0", [2.94, 2.60],
                             ids=["figure-suite", "fano_r50"])
    def test_rows_are_bitwise_one_row_fits(self, ag, geometries, omega0):
        emitter = EmitterSpec.from_dipole(omega0, 1.0)
        lossless = rate_spectrum_lsp(1, self.GRID, geometries, ag.lossless())
        lossy = rate_spectrum_lsp(1, self.GRID, geometries, ag)
        modes_f = fit_fano_rate(self.GRID, lossless, 1, geometries, emitter)
        modes_l = fit_fano_rate(self.GRID, lossy, 1, geometries, emitter,
                                frozen=modes_f)
        for i, geo in enumerate(geometries):
            [alone_f] = rate_spectrum_lsp(1, self.GRID, [geo], ag.lossless())
            [alone_l] = rate_spectrum_lsp(1, self.GRID, [geo], ag)
            np.testing.assert_array_equal(lossless[i], alone_f)
            np.testing.assert_array_equal(lossy[i], alone_l)
            [mode_f] = fit_fano_rate(self.GRID, [alone_f], 1, [geo], emitter)
            [mode_l] = fit_fano_rate(self.GRID, [alone_l], 1, [geo], emitter,
                                     frozen=[mode_f])
            assert modes_f[i] == mode_f and modes_l[i] == mode_l

    @pytest.mark.parametrize("hs", [(30.0, 15.0), (30.0,)],
                             ids=["figure-suite", "fano_r50"])
    def test_metals_share_ladders_bitwise(self, ag, hs):
        # the two-metal rows against one-metal calls and against the
        # all-orders column of each metal
        geometries = [Geometry.from_surface_distance(50.0, h) for h in hs]
        metals = [ag.lossless(), ag]
        both = coupling._rate_spectra(1, self.GRID, geometries, metals)
        assert both.shape == (2, len(hs), self.GRID.size)
        kb = self.GRID / HBAR_C_EV_NM
        for rows, metal in zip(both, metals):
            np.testing.assert_array_equal(
                rows, rate_spectrum_lsp(1, self.GRID, geometries, metal))
            for row, geo in zip(rows, geometries):
                np.testing.assert_array_equal(
                    row, 6 * math.pi / kb * green_rr_terms(
                        self.GRID, geo, metal, 1)[..., 0].imag)

    @pytest.mark.parametrize("n", [1, 3])
    def test_free_space_rows_are_bitwise_rates(self, n):
        geometries = [Geometry.from_surface_distance(50.0, 30.0),
                      Geometry.from_surface_distance(50.0, 15.0),
                      Geometry.from_surface_distance(20.0, 4.0, 2.25)]
        emitter = EmitterSpec.from_lifetime(2.6, 20.0, 0.7)
        g0, g0n = coupling._free_space_rows(self.GRID, n, geometries, emitter)
        for i, geo in enumerate(geometries):
            one_g0, one_g0n = coupling._free_space_rates(self.GRID, n, geo,
                                                         emitter)
            np.testing.assert_array_equal(g0[i], one_g0)
            np.testing.assert_array_equal(g0n[i], one_g0n)

    def test_alphas_are_bitwise_fano_alpha(self, ag, geometries):
        # both stages of a two-distance fit (the lossy one copies the frozen
        # alpha), then random rows: other spheres and backgrounds, a higher
        # order, zero coupling
        emitter = EmitterSpec.from_dipole(2.94, 1.0)
        rates = coupling._free_space_rows(self.GRID, 1, geometries, emitter)
        modes_f = coupling._fano_fits(
            self.GRID, rate_spectrum_lsp(1, self.GRID, geometries,
                                         ag.lossless()),
            1, geometries, emitter, rates)
        modes_l = coupling._fano_fits(
            self.GRID, rate_spectrum_lsp(1, self.GRID, geometries, ag), 1,
            geometries, emitter, rates, modes_f)
        for geo, mode_f, mode_l in zip(geometries, modes_f, modes_l):
            sign = 1.0 if mode_f.alpha >= 0 else -1.0
            for mode in (mode_f, mode_l):
                assert mode.alpha == coupling._fano_alpha(
                    1, mode.omega_n, mode.gamma_rad, sign * mode.g, geo,
                    emitter)
        rng = np.random.default_rng(35)
        geos = [Geometry.from_surface_distance(*rng.uniform(
            (5.0, 0.5, 1.0), (80.0, 40.0, 3.0)).tolist()) for _ in range(40)]
        fits = [tuple(rng.uniform((1.5, 1e-3, -1e-3),
                                  (3.5, 0.3, 1e-3)).tolist()) for _ in geos]
        fits[0] = fits[0][:2] + (0.0,)
        for n in (1, 3):
            assert coupling._fano_alphas(n, fits, geos, emitter) == [
                coupling._fano_alpha(n, *fit, geo, emitter)
                for fit, geo in zip(fits, geos)]

    @pytest.fixture
    def fano_data(self, ag, geometries):
        # caller order h = 15 nm first: a failing batch names its first row
        geometries = geometries[::-1]
        emitter = EmitterSpec.from_dipole(2.94, 1.0)
        lossless = rate_spectrum_lsp(1, self.GRID, geometries, ag.lossless())
        return geometries, emitter, lossless, fit_fano_rate(
            self.GRID, lossless, 1, geometries, emitter)

    @pytest.mark.parametrize("frozen", [False, True],
                             ids=["lossless", "lossy"])
    def test_zero_spectrum_names_mode_and_distance(self, fano_data, frozen):
        geometries, emitter, lossless, modes = fano_data
        values = lossless.copy()
        values[1] = 0.0
        stage = "lossy Fano refit" if frozen else "Fano fit"
        with pytest.raises(FitFailureError, match=(
                f"^{stage} of LSP_1 at h=30 nm failed: "
                "rate spectrum is identically zero$")):
            fit_fano_rate(self.GRID, values, 1, geometries, emitter,
                          frozen=modes if frozen else None)
        values[0] = 0.0
        with pytest.raises(FitFailureError, match="LSP_1 at h=15 nm"):
            fit_fano_rate(self.GRID, values, 1, geometries, emitter,
                          frozen=modes if frozen else None)

    def test_both_branches_failing_names_mode_and_distance(
            self, fano_data, monkeypatch):
        geometries, emitter, lossless, _ = fano_data
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        with pytest.raises(FitFailureError, match=(
                r"^Fano fit of LSP_1 at h=15 nm failed from both sign "
                r"branches \(least squares did not converge in 1 iterations"
                r".*; least squares did not converge in 1 iterations.*\)$")) \
                as info:
            fit_fano_rate(self.GRID, lossless, 1, geometries, emitter)
        assert info.value.best_params is None

    def test_lossy_refit_failure_names_mode_and_distance(
            self, ag, fano_data, monkeypatch):
        geometries, emitter, _, modes = fano_data
        lossy = rate_spectrum_lsp(1, self.GRID, geometries, ag)
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        with pytest.raises(FitFailureError, match=(
                "^lossy Fano refit of LSP_1 at h=15 nm failed: least squares "
                "did not converge in 1 iterations")) as info:
            fit_fano_rate(self.GRID, lossy, 1, geometries, emitter,
                          frozen=modes)
        assert info.value.best_params.shape == (1,)


class TestFanoSplit:
    def test_small_particle_split_resolves_alpha(self, ag, small_geometry,
                                                 strong_emitter):
        from plasmon_cqed.coupling import with_fano_split
        from plasmon_cqed.heff import build_fano, build_standard, eigendecompose

        mode = extract_modes(1, small_geometry, ag, strong_emitter)[0]
        resolved = with_fano_split(replace(mode, gamma_nr=0.051),
                                   small_geometry, strong_emitter)
        assert resolved.gamma_rad == pytest.approx(mode.gamma_n - 0.051)
        assert resolved.alpha is not None and resolved.alpha > 0
        # tiny radiative leak: Fano and standard ladders nearly coincide
        lam_f = eigendecompose(build_fano([resolved], strong_emitter,
                                          "general")).eigenvalues
        lam_s = eigendecompose(build_standard([mode],
                                              strong_emitter)).eigenvalues
        assert np.max(np.abs(np.sort_complex(lam_f) - np.sort_complex(lam_s))) \
            < 5e-4


class TestSpectrumIO:
    def test_fit_failure_carries_best_iterate(self):
        grid = np.linspace(2.0, 3.0, 60)
        with pytest.raises(FitFailureError):
            fit_one(grid, np.zeros(60))


GRID = np.linspace(2.2, 3.1, 60)


@pytest.mark.parametrize("call, error, message", [
    (lambda geo, em: extract_mode_sweep(0, [geo], silver(), em),
     InvalidArgumentError, "n_modes must be >= 1"),
    (lambda geo, em: fit_fano_rate(GRID[:49], [np.ones(49)], 1, [geo], em),
     InvalidArgumentError, "matching grid of >= 50 points"),
    (lambda geo, em: fit_fano_rate(GRID, [np.ones(59)], 1, [geo], em),
     InvalidArgumentError, "matching grid of >= 50 points"),
    (lambda geo, em: fit_fano_rate(GRID, [np.zeros(60)], 1, [geo], em),
     FitFailureError, "rate spectrum is identically zero"),
    (lambda geo, em: fit_fano_rate(
        GRID, [np.ones(60)], 1, [geo], em,
        frozen=[ModeParams(n=1, omega_n=2.6, gamma_n=0.3, g=1e-4)]),
     InvalidArgumentError, "frozen mode must carry gamma_rad"),
    (lambda geo, em: fit_fano_rate(
        GRID, [np.ones(60)], 1, [geo], em,
        frozen=[ModeParams(n=1, omega_n=2.6, gamma_n=0.3, g=1e-4,
                           gamma_rad=0.3, gamma_nr=0.0)]),
     InvalidArgumentError, "frozen mode must carry gamma_rad and alpha"),
    (lambda geo, em: fit_fano_rate(GRID, np.ones((2, 60)), 1, [geo], em),
     InvalidArgumentError, "each with its geometry"),
    (lambda geo, em: fit_fano_rate(GRID, np.ones((0, 60)), 1, [], em),
     InvalidArgumentError, "one or more rate spectra"),
], ids=["no-modes", "short-grid", "mismatched-grid", "zero-spectrum",
        "frozen-without-gamma-rad", "frozen-without-alpha", "geometry-per-row",
        "empty-batch"])
def test_rejects_invalid_input(call, error, message):
    geometry = Geometry.from_surface_distance(50.0, 30.0)
    emitter = EmitterSpec.from_dipole(2.6, 1.0)
    with pytest.raises(error, match=message):
        call(geometry, emitter)


def test_figure_suite_runs_each_fit_stage_as_one_batch(tmp_path, monkeypatch):
    from plasmon_cqed import cli, tasks

    green, spectra, batches = [], [], []
    mode_table, rates, solve = (coupling._green_mode_table,
                                tasks._rate_spectra, coupling.least_squares)

    def counted_table(windows, rows, geometries, material):
        green.append(geometries[0].radius)
        return mode_table(windows, rows, geometries, material)

    def counted_rates(n, grid, geometries, materials):
        spectra.append(([m.gamma_p for m in materials], len(geometries)))
        return rates(n, grid, geometries, materials)

    def counted_solve(model, theta0):
        batches.append(np.shape(theta0))
        return solve(model, theta0)

    monkeypatch.setattr(coupling, "_green_mode_table", counted_table)
    monkeypatch.setattr(tasks, "_rate_spectra", counted_rates)
    monkeypatch.setattr(coupling, "least_squares", counted_solve)
    assert cli.main(["run", FIGURE_SUITE, "--out", str(tmp_path)]) == 0
    # the three R = 8 nm sweeps share one Green table; the R = 50 nm rate
    # spectra of both materials come from one call, both distances in it
    assert green.count(8.0) == 1
    assert spectra == [([0.0, silver().gamma_p], 2)]
    # fig3 (4 x 10), the N = 25 modes and fig6 (20 x 8) in one Lorentzian
    # batch; two sign rows per distance in the lossless Fano batch, one per
    # distance in the lossy one
    assert batches == [(225, 2), (4, 3), (2, 1)]


def test_figure_suite_evaluates_each_ladder_once_where_read(tmp_path,
                                                            monkeypatch):
    from plasmon_cqed import cli, heff, specfun, tasks

    calls, stage = [], [None]  # the task steps entered, the innermost one
    yn_calls, jn_calls, millers, resolvents = [], [], [], []

    def counted(function, record):
        def wrapped(*args):
            record(args)
            return function(*args)
        return wrapped

    def in_stage(name, function):
        def wrapped(*args):
            outer, stage[0] = stage[0], (name, len(calls))
            calls.append(name)
            try:
                return function(*args)
            finally:
                stage[0] = outer
        return wrapped

    def stages(name):
        return [(name, i) for i, entered in enumerate(calls) if entered == name]

    monkeypatch.setattr(mie, "_yn_band", counted(mie._yn_band, lambda a: (
        yn_calls.append((stage[0], np.shape(a[0]))))))
    monkeypatch.setattr(mie, "_jn_band", counted(mie._jn_band, lambda a: (
        jn_calls.append((stage[0], np.iscomplexobj(a[0]))))))
    monkeypatch.setattr(specfun, "_miller_band", counted(
        specfun._miller_band, lambda a: millers.append(stage[0])))
    monkeypatch.setattr(heff, "amplitude_response", counted(
        heff.amplitude_response, lambda a: resolvents.append(stage[0])))
    for name in ("_green_table", "_fano_fit", "_fano_fits", "_dressed_spectra"):
        monkeypatch.setattr(tasks, name, in_stage(name, getattr(tasks, name)))
    assert cli.main(["run", FIGURE_SUITE, "--out", str(tmp_path)]) == 0
    # the R = 8 nm table: one k_b R ladder over the 25 windows, then Hankel
    # ladders over the 177 (mode, h) windows of 51 points that the sweeps
    # read, not over all 25 x 11
    [table] = stages("_green_table")
    shapes = [shape for s, shape in yn_calls if s == table]
    assert (shapes[0], sum(math.prod(shape) for shape in shapes[1:])) \
        == ((25, 51), 177 * 51)
    # the Fano rate spectra: one k_b R and one k_b r_d ladder serve both
    # metals, and each metal builds its own k_m R ladder
    [fano] = stages("_fano_fit")
    assert ([shape for s, shape in yn_calls if s == fano],
            [is_complex for s, is_complex in jn_calls if s == fano].count(True)) \
        == ([(301,), (2, 301)], 2)
    # the lossless alphas of both distances take one Miller call, and the
    # lossy stage copies them
    assert [millers.count(s) for s in stages("_fano_fits")] == [1, 0]
    # one resolvent evaluation for the polarization and radiated spectra
    assert [resolvents.count(s) for s in stages("_dressed_spectra")] == [1]
