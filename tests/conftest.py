import pytest
from hypothesis import settings

from rclab.forms import delta, eisenstein_form

# One profile makes every property test derandomized and untimed; each @settings names only max_examples.
settings.register_profile("rclab", derandomize=True, deadline=None)
settings.load_profile("rclab")


@pytest.fixture(scope="session")
def catalogue():
    """Generators at a shared working precision."""
    prec = 30
    return {
        "E4": eisenstein_form(4, prec),
        "E6": eisenstein_form(6, prec),
        "Delta": delta(prec),
    }
