"""The suite's own pytest settings, run on a small suite in a subprocess."""

pytest_plugins = ["pytester"]

PROPERTY_SUITE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_after_it():
    pass
"""


def test_failing_property_test_is_a_failure_not_an_internal_error(pytester, pytestconfig):
    """Under the suite's warning filters a falsified ``@given`` test is
    reported as one failure and the test after it still runs.  Writing the
    failure's explicit-example patch imports ``libcst``, whose import warns;
    with every warning an error that warning used to abort the session with
    INTERNALERROR."""
    filters = "\n".join(f"    {f}" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}\n")
    pytester.makepyfile(PROPERTY_SUITE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
