"""Fixtures shared by the test modules: the C kernel library, built once
per session, loaders that have not run yet, and the round loop of batch
training."""

import shutil

import pytest

from leo import learning, lti_core, observer


@pytest.fixture(scope="session")
def kernel_cache(tmp_path_factory):
    """An ``XDG_CACHE_HOME`` whose ``leo`` directory holds the kernel
    library, built on first use (empty where it cannot be built)."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        lti_core._c_library()
    return cache


@pytest.fixture
def unbuilt(monkeypatch, tmp_path):
    """Loaders that have not run yet, with an empty cache under tmp_path:
    the first kernel call compiles ``_kernel.c``."""
    monkeypatch.setattr(lti_core, "_c_loop", None)
    monkeypatch.setattr(learning, "_c_pass", None)
    monkeypatch.setattr(observer, "_c_place", None)
    monkeypatch.setattr(learning, "_c_train", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "leo"


@pytest.fixture
def fresh(unbuilt, kernel_cache):
    """``unbuilt``, with the session's library already in the cache under
    the name the build gives it: the loaders load and check it, and no
    test but those of building itself pays for a compile."""
    built = kernel_cache / "leo"
    if built.is_dir():
        shutil.copytree(built, unbuilt)
    return unbuilt


@pytest.fixture
def round_loop(monkeypatch):
    """Batch training in ``learning._round_loop``, whatever loads: the C
    training pass runs every stage inside one call, so a test that patches
    a stage (``_place_poles``, ``_stacked_loss``) reaches it only there."""
    monkeypatch.setattr(learning, "_c_train", False)
