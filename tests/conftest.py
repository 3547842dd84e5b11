"""Shared pytest fixtures."""

import os

import numpy as np
import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a throwaway directory.

    CLI tests exercise ``repro run`` with its default store attached; this
    keeps them from reading or writing the developer's ``.repro-store``
    in the checkout.
    """
    store_dir = tmp_path_factory.mktemp("repro-store")
    previous = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = str(store_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_STORE_DIR", None)
    else:  # pragma: no cover - depends on the invoking environment
        os.environ["REPRO_STORE_DIR"] = previous


@pytest.fixture
def use_code_digest(monkeypatch):
    """Setter that makes every store read and write as if the source digested
    to its argument (a package edit, without editing the package)."""
    from repro.perf import store as store_module

    def use(digest: str) -> None:
        monkeypatch.setattr(store_module, "code_digest", lambda: digest)

    return use


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)
