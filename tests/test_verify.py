import pytest

from plasmon_cqed.verify import ALL_CHECKS


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_oracle_check_passes(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
