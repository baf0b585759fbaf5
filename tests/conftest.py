"""Fixtures that choose the list-word backend for one test.

A test runs on whatever ``qwalk.rng`` loads unless it asks for one of
these; each sets the module's loaded kernel for the test's duration, so
models and ``uniform_words`` calls made inside the test use it.
"""

import pytest

from qwalk import rng


@pytest.fixture
def numpy_backend(monkeypatch):
    monkeypatch.setattr(rng, "_lib", False)


@pytest.fixture
def c_backend(monkeypatch):
    lib = rng._load()
    if lib is None:
        pytest.skip("the C kernel cannot be built here")
    monkeypatch.setattr(rng, "_lib", lib)
    return lib


@pytest.fixture(params=["c", "numpy"])
def backend(request):
    """Each backend in turn."""
    request.getfixturevalue(f"{request.param}_backend")
