"""Fixtures that choose the list-word backend for one test.

A test runs on whatever ``qwalk.rng`` loads unless it asks for one of
these; each sets the module's loaded kernel for the test's duration, so
models and ``uniform_words`` calls made inside the test use it.
``kernel_calls`` also counts the calls of each kernel entry point.
"""

import collections

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


@pytest.fixture
def kernel_calls(c_backend, monkeypatch):
    """The C backend, with the calls of each kernel entry point counted by
    name in the Counter this returns; its ``args`` maps each name to the
    arguments of its last call."""
    calls = collections.Counter()
    calls.args = {}

    class Counted:
        def __getattr__(self, name):
            entry = getattr(c_backend, name)

            def counted(*args):
                calls[name] += 1
                calls.args[name] = args
                return entry(*args)
            return counted

    monkeypatch.setattr(rng, "_lib", Counted())
    return calls
