"""Fixtures shared by the test modules: the C kernel library, built once
per session, a kernel that has not loaded yet, and the round loop of batch
training."""

import shutil
from dataclasses import replace

import pytest

from leo import lti_core


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
    """A kernel that has not loaded yet (``lti_core._load_kernel`` runs
    again on the first kernel call), with an empty cache under tmp_path:
    that call compiles ``_kernel.c``."""
    monkeypatch.setattr(lti_core, "_kernel", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "leo"


@pytest.fixture
def fresh(unbuilt, kernel_cache):
    """``unbuilt``, with the session's library already in the cache under
    the name the build gives it: the loader loads and probes it, and no
    test but those of building itself pays for a compile."""
    built = kernel_cache / "leo"
    if built.is_dir():
        shutil.copytree(built, unbuilt)
    return unbuilt


@pytest.fixture
def round_loop(monkeypatch):
    """Batch training in ``learning._round_loop``, whatever loads: the
    kernel loaded, then its training pass turned off. That pass runs every
    stage inside one call, so a test that patches a stage
    (``_place_poles``, ``_stacked_loss``) reaches it only in the round
    loop; loaded first, the kernel's probes run unpatched."""
    monkeypatch.setattr(lti_core, "_kernel", replace(lti_core._load_kernel(), train=False))
