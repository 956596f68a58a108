"""Fixtures shared by the test modules."""

import pytest

from proxdyn import dynamics, native


@pytest.fixture
def python_kernels(monkeypatch):
    """Every kernel built inside the test is its Python kernel: the compiler
    probe finds no C compiler.  The kernels built before and during the
    test are dropped, so none of them leaks into the other side."""
    monkeypatch.setattr(native, "_compiler", lambda: None)
    dynamics._kernel.cache_clear()
    yield
    dynamics._kernel.cache_clear()
