import faulthandler
import os

import pytest
from hypothesis import settings

from rclab.forms import delta, eisenstein_form

# One profile makes every property test derandomized and untimed; each @settings names only max_examples.
settings.register_profile("rclab", derandomize=True, deadline=None)
settings.load_profile("rclab")

# A test that runs longer than this ends the run with a traceback of every
# thread, so a defect that stops terminating fails in the named test instead
# of hanging the suite.  It stays above the 120 s that acceptance criterion 13
# allows itself inside its test.
TEST_TIME_LIMIT_S = 180

_stderr_fd = None


def pytest_configure(config):
    # the traceback goes to a copy of the real stderr, which output capture does not redirect
    global _stderr_fd
    _stderr_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr_fd)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_stderr_fd)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def catalogue():
    """Generators at a shared working precision."""
    prec = 30
    return {
        "E4": eisenstein_form(4, prec),
        "E6": eisenstein_form(6, prec),
        "Delta": delta(prec),
    }
