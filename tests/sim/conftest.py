"""Backend matrix for the kernel tests.

Every test in this directory runs once per *general-purpose* switch
backend (today only thread) by pointing ``REPRO_SIM_BACKEND`` at it —
the tests construct kernels normally and inherit the selection.  The
trampoline backend is excluded from the blanket matrix (it rejects
nested-frame blocking by design) and is exercised directly in
``test_backends.py``.
"""

import pytest

from repro.sim.backends import BACKEND_ENV_VAR

_MATRIX = [pytest.param("thread", id="thread")]


@pytest.fixture(autouse=True, params=_MATRIX)
def sim_backend(request, monkeypatch):
    """Select the switch backend for every kernel the test constructs."""
    monkeypatch.setenv(BACKEND_ENV_VAR, request.param)
    return request.param
