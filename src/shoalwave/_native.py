"""Build and load the compiled loops (_kernel.c).

load() runs once per process, at the first solver.prepare() of a run of
either order. It compiles _kernel.c with the C compiler Python was
built with (sysconfig's CC, or cc) into a shared library in the user's
cache directory ($XDG_CACHE_HOME, or ~/.cache, then shoalwave/), named by
a hash of the source, the flags and the machine, so a machine compiles it
once. The library is written under a temporary name and then moved into
place, so a process never reads a half-written one. When the cache cannot
be written, the library is compiled into a temporary directory of the
process instead. The loaded functions are kept as `rates` (the
first-order rates loop) and `search` (the detector search). With no
compiler, or on any failure, both are None, and solver._rhs and
solver._Search run their numpy code, which gives the same bits.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

# No -ffast-math: the loops must round as numpy does (see _kernel.c).
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = Path(__file__).parent / "_kernel.c"

rates = search = None
_loaded = False


def compiler() -> list[str]:
    """The command line of the C compiler that load() runs."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def load() -> None:
    """Set rates and search on the first call: both loops, or both None."""
    global rates, search, _loaded
    if not _loaded:
        _loaded = True
        try:
            rates, search = _load()
        except (
            OSError,  # no cache, compiler or library file
            subprocess.SubprocessError,  # the compiler failed or hung
            AttributeError,  # a loop missing from the library
            ValueError,  # a CC that shlex cannot split
            RuntimeError,  # no home directory
        ):
            rates = search = None


def _load():
    cc = compiler()
    if not cc or shutil.which(cc[0]) is None:
        return None, None
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    name = "kernel-{}.so".format(key)
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    path = cache / "shoalwave" / name
    try:
        if not path.is_file():
            path.parent.mkdir(parents=True, exist_ok=True)
            _compile(cc, source, path)
        return _bind(path)
    except OSError:
        # An unwritable cache. The loaded library outlives its file.
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            path = Path(tmp) / name
            _compile(cc, source, path)
            return _bind(path)


def _compile(cc, source: bytes, path: Path):
    tmp = path.with_name("{}.{}.tmp".format(path.name, os.getpid()))
    try:
        subprocess.run(
            [*cc, *FLAGS, "-x", "c", "-", "-o", str(tmp), "-lm"],
            input=source,
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _bind(path: Path):
    library = ctypes.CDLL(str(path))
    rates, search = library.first_order_rates, library.inland_search
    # w, m, bed_left, bed_right, rw, rm, size, rate_scale, perturbed,
    # perturbation (see _kernel.c)
    rates.argtypes = (ctypes.c_void_p,) * 6 + (
        ctypes.c_long,
        ctypes.c_double,
        ctypes.c_int,
        ctypes.c_double,
    )
    rates.restype = None
    # surface, velocity, lo, hi, b, gamma, p, abs_p, p_x, pairs, nodes, n,
    # inv2, write_abs
    search.argtypes = (
        (ctypes.POINTER(ctypes.c_double),) * 2
        + (ctypes.c_long,) * 2
        + (ctypes.c_void_p,) * 7
        + (ctypes.c_long, ctypes.c_double, ctypes.c_int)
    )
    search.restype = ctypes.c_long
    return rates, search
