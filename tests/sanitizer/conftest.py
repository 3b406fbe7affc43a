"""Backend matrix for the sanitizer tests.

The dynamic sanitizer (race detector, typestate monitors, schedule
exploration) instruments the kernel through the tracer hooks, which the
switch backends must keep semantics-identical; running the whole
directory under each general-purpose backend (today only thread) pins
that.
"""

import pytest

from repro.sim.backends import BACKEND_ENV_VAR

_MATRIX = [pytest.param("thread", id="thread")]


@pytest.fixture(autouse=True, params=_MATRIX)
def sim_backend(request, monkeypatch):
    """Select the switch backend for every kernel the test constructs."""
    monkeypatch.setenv(BACKEND_ENV_VAR, request.param)
    return request.param
