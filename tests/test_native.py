"""The loader of the compiled first-order rates loop (shoalwave._native)."""

import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import pytest

from shoalwave import _native, cli, solver

from conftest import compiled_rates

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """A loader that has not run in this process, with its cache directory
    ($XDG_CACHE_HOME) at tmp_path/cache, which does not exist yet."""
    monkeypatch.setattr(_native, "_loaded", False)
    monkeypatch.setattr(_native, "rates", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _set_compiler(monkeypatch, command):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig,
        "get_config_var",
        lambda name: command if name == "CC" else config_var(name),
    )


def _repo_files():
    skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
    found = set()
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in skip]
        found.update(os.path.join(root, name) for name in files)
    return found


def test_without_a_compiler_a_run_takes_the_numpy_kernel(cache, monkeypatch, tmp_path):
    # The bundled shelf run writes the frozen bytes, prints no warning (as
    # pytest turns a RuntimeWarning into an error anyway) and leaves no
    # file in the checkout or the cache.
    _set_compiler(monkeypatch, str(tmp_path / "no-such-cc"))
    before = _repo_files()
    cfg = cli.load_config(
        importlib.resources.files("shoalwave") / "scenarios" / "shoaling_pulse.cfg"
    )
    grid, bathy = cfg.build_grid(), cfg.build_bathymetry()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solver.run(
            cfg.build_initial(grid, bathy),
            bathy,
            grid,
            cfg.build_solver_config(),
            cfg.build_detector_config(),
        )
    assert _native._loaded and _native.rates is None
    out = tmp_path / "out"
    solver.write_outputs(result, bathy, grid, out, "shoaling_pulse")
    names = ["events.jsonl"] + [p.name for p in out.glob("snap_*.csv")]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert got == json.loads((REPO / "bench" / "shoaling_digests.json").read_text())
    assert not cache.exists()
    assert _repo_files() == before


def test_the_loop_is_compiled_once_and_then_read_from_the_cache(cache, monkeypatch):
    compiled_rates()
    files = [p for p in cache.rglob("*") if p.is_file()]
    assert len(files) == 1 and files[0].parent == cache / "shoalwave"
    assert files[0].name.startswith("rates-") and files[0].suffix == ".so"

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(_native, "_loaded", False)
    assert _native.load() is not None


def test_an_unwritable_cache_compiles_into_a_temporary_directory(
    cache, monkeypatch, tmp_path
):
    # The loaded library outlives its file, so its directory is removed.
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    cache.write_text("a file where the cache directory would be")
    compiled_rates()
    assert cache.read_text() == "a file where the cache directory would be"
    assert list(temp.iterdir()) == []


def test_a_failing_compiler_leaves_no_file_behind(cache, monkeypatch):
    _set_compiler(monkeypatch, "{} -c 'raise SystemExit(1)'".format(sys.executable))
    assert _native.load() is None
    assert [p.name for p in cache.rglob("*")] == ["shoalwave"]
