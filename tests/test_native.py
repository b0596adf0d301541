"""The loader of the compiled loops (shoalwave._native)."""

import ctypes
import hashlib
import importlib.resources
import json
import os
import shutil
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
    monkeypatch.setattr(_native, "search", None)
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
    assert _native._loaded and _native.rates is None and _native.search is None
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
    assert files[0].name.startswith("kernel-") and files[0].suffix == ".so"

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(_native, "_loaded", False)
    _native.load()
    assert _native.rates is not None and _native.search is not None


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
    _native.load()
    assert _native.rates is None and _native.search is None
    assert [p.name for p in cache.rglob("*")] == ["shoalwave"]


def _bundled_shelf():
    """The bundled shoaling_pulse scenario: (config, grid, bed, initial)."""
    cfg = cli.load_config(
        importlib.resources.files("shoalwave") / "scenarios" / "shoaling_pulse.cfg"
    )
    grid, bathy = cfg.build_grid(), cfg.build_bathymetry()
    return cfg, grid, bathy, cfg.build_initial(grid, bathy)


def test_a_library_without_the_search_binds_neither_loop(cache, monkeypatch, tmp_path):
    # A library built from the rates loop alone has no inland_search, so
    # load() binds neither loop, and a run's domain and search take the
    # numpy kernel and the numpy search.
    if shutil.which(_native.compiler()[0]) is None:
        pytest.skip("no C compiler on PATH")
    source = _native.SOURCE.read_text()
    rates_only = tmp_path / "_kernel.c"
    rates_only.write_text(source[: source.index("/* The detector search")])
    monkeypatch.setattr(_native, "SOURCE", rates_only)
    _native.load()
    assert _native.rates is None and _native.search is None
    (library,) = cache.rglob("kernel-*.so")
    assert ctypes.CDLL(str(library)).first_order_rates is not None
    cfg, grid, bathy, _ = _bundled_shelf()
    domain = solver.prepare(bathy, grid, cfg.build_solver_config())
    assert domain.compiled_rates is None
    assert solver._Search(bathy, grid, domain, None).compiled is None


def test_a_second_order_run_searches_as_the_numpy_search_does(monkeypatch):
    # Second order steps with the numpy kernel but searches with the
    # compiled search, which logs the events and snapshots of the numpy
    # search bit for bit.
    compiled_rates()
    cfg, grid, bathy, initial = _bundled_shelf()
    config = cfg.build_solver_config()
    config.second_order, config.t_end, config.snapshot_interval = True, 2.0, 0.5
    searches = []
    init = solver._Search.__init__

    def recorded(search, *args):
        init(search, *args)
        searches.append(search)

    monkeypatch.setattr(solver._Search, "__init__", recorded)
    det_cfg = cfg.build_detector_config()
    results = [solver.run(initial, bathy, grid, config, det_cfg)]
    monkeypatch.setattr(_native, "search", None)
    results.append(solver.run(initial, bathy, grid, config, det_cfg))
    assert [search.compiled is not None for search in searches] == [True, False]
    assert solver.prepare(bathy, grid, config).compiled_rates is None
    got, want = (
        (
            [json.dumps(ev.to_record(), sort_keys=True) for ev in result.events],
            [
                (snap.t, snap.gamma_surface.tobytes(), snap.velocity.tobytes())
                for snap in result.snapshots
            ],
        )
        for result in results
    )
    assert got[0] and got == want
