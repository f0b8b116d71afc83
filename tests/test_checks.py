"""Each `cpl verify` check as its own pytest case.

`checks.ALL_CHECKS` is the one implementation of the invariants and this is
the one place the suite runs it; a raising check shows its own traceback.
"""

import pytest

from cpl import checks


@pytest.mark.parametrize("check", checks.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_check(check):
    res = check()
    assert res.ok, (f"{res.name}: observed {res.observed:.3e} tol {res.tolerance:.3e}"
                    + (f" ({res.note})" if res.note else ""))


def test_flipped_jacobian_canary_fails():
    # a sign-flipped d alpha / d mu2 must be caught by the finite-difference check
    res = checks.check_jacobians_fd(flip_da_dmu2=True)
    assert not res.ok and res.observed > 1.0
