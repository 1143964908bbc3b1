"""The tracer wraps every binding of the layers' public functions and puts
every one back."""

import importlib
import pkgutil

import numpy as np
import pytest
import scipy.integrate

import plasmon_cqed
import tracing
from plasmon_cqed import coupling, medium, mie, tasks


def _bindings():
    """id of every module attribute and module-level dict value in the package."""
    snapshot = {("scipy.integrate", "solve_ivp"): id(scipy.integrate.solve_ivp)}
    modules = [plasmon_cqed] + [
        importlib.import_module(f"plasmon_cqed.{m.name}")
        for m in pkgutil.iter_modules(plasmon_cqed.__path__)]
    for module in modules:
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    snapshot[(module.__name__, name, key)] = id(item)
    return snapshot


def test_uninstall_restores_every_binding():
    before = _bindings()
    originals = (mie.green_rr_scattered, tasks.TASK_RUNNERS["fit"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the defining module, an importing module, the package namespace and
        # a dispatch dict all see the wrapper
        assert mie.green_rr_scattered is not originals[0]
        assert coupling.green_rr_scattered is mie.green_rr_scattered
        assert plasmon_cqed.extract_modes is coupling.extract_modes
        assert tasks.TASK_RUNNERS["fit"] is tasks.task_fit
        assert tasks.task_fit is not originals[1]
        assert scipy.integrate.solve_ivp.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert mie.green_rr_scattered is originals[0]


def test_bindings_restored_when_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            raise ZeroDivisionError
    assert _bindings() == before


def test_spans_give_counts_and_self_times():
    geometry = medium.Geometry.from_surface_distance(8.0, 2.0)
    emitter = medium.EmitterSpec.from_dipole(2.9, 10.0, 0.0)
    material = medium.silver()
    grid = np.linspace(2.7, 2.9, 50)
    tracer = tracing.Tracer()
    with tracer:
        tracer.current_op = 0
        traced = coupling.kappa_spectrum(3, grid, geometry, material, emitter)
    spans = tracer.arrays()
    metrics = tracing.layer_metrics(tracer, [1.0], 1.0, 1.0)
    assert metrics["coupling.spectrum_points"] == grid.size
    assert metrics["mie.green_calls"] == grid.size
    assert metrics["mie.green_unique_frac"] == 1.0
    # each Green call builds 2 Riccati ladders (each a j_n and a y_n ladder)
    # plus its own j_n and y_n ladders, all of order 3
    assert metrics["specfun.calls"] == 8 * grid.size
    assert metrics["specfun.orders"] == 8 * grid.size * 4
    # self times partition the root span
    own = tracing.self_times(spans)
    root = spans["parent"] < 0
    assert np.count_nonzero(root) == 1
    duration = float(spans["end"][root][0] - spans["start"][root][0])
    assert np.all(own >= -1e-9)
    assert abs(float(own.sum()) - duration) < 1e-6
    attributed = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(attributed - duration) < 1e-6
    # tracing does not change the result
    np.testing.assert_array_equal(
        traced.values,
        coupling.kappa_spectrum(3, grid, geometry, material, emitter).values)
