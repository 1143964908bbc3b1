import numpy as np
import pytest

from plasmon_cqed.errors import FitFailureError
from plasmon_cqed.fitting import levenberg_marquardt


def test_evaluation_cap_raises_with_best_iterate():
    # exp(-x) has no minimum: the cost falls at every step, so only MINPACK's
    # cap of 200 (n + 1) evaluations stops the fit.  A gradient test alone
    # would call x ~ 12 converged, where |grad| = exp(-2x) drops below 1e-10.
    with pytest.raises(FitFailureError, match="status 5") as info:
        levenberg_marquardt(lambda x: np.array([np.exp(-x[0]), 0.0]), [0.0])
    best = info.value.best_params
    assert best.shape == (1,) and best[0] > 100
    assert info.value.best_cost == pytest.approx(0.5 * np.exp(-2 * best[0]))


def test_non_finite_cost_raises():
    # MINPACK reports a NaN residual as status 4, a met gradient tolerance
    with pytest.raises(FitFailureError, match="cost nan") as info:
        levenberg_marquardt(lambda x: np.array([np.nan, x[0]]), [0.1])
    np.testing.assert_array_equal(info.value.best_params, [0.1])

