"""Build and load the compiled loops (_kernel.c).

load() runs once per process, at the first solver.prepare() of a run of
either order. It compiles _kernel.c with the C compiler Python was
built with (sysconfig's CC, or cc) into a shared library in the user's
cache directory ($XDG_CACHE_HOME, or ~/.cache, then shoalwave/), named by
a hash of the source, the flags and the machine, so a machine compiles it
once. The library is written under a temporary name and then moved into
place, so a process never reads a half-written one. When the cache cannot
be written, the library is compiled into a temporary directory of the
process instead. The loaded functions are kept as `step` (the rest of a
first-order step once dt is known, on the rows of a Rows that a run binds
once, over the cells [lo, hi) that each call names) and `search` (the
detector search). With no compiler, or on any failure, both are None, and
solver.step and solver._Search run their numpy code, which gives the same
bits: the step's twin solver._first_order_step and the numpy search.
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
# -fno-math-errno only lets sqrt skip setting errno for a negative operand,
# so that it compiles to one instruction.
FLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = Path(__file__).parent / "_kernel.c"

step = search = None
_loaded = False


class Rows(ctypes.Structure):
    """_kernel.c's struct rows: the rows and constants of a run's
    first-order steps, bound once per run, and the first and last cell that
    its last call moved."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("w_e", "m_e", "bed_left", "bed_right")),
        *((name, ctypes.c_void_p) for name in ("rw", "rm", "still", "b")),
        ("rate_scale", ctypes.c_double),
        ("ghost_fill", ctypes.c_int),
        ("moved", ctypes.c_long * 2),
    ]


def compiler() -> list[str]:
    """The command line of the C compiler that load() runs."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def load() -> None:
    """Set step and search on the first call: both loops, or both None."""
    global step, search, _loaded
    if not _loaded:
        _loaded = True
        try:
            step, search = _load()
        except (
            OSError,  # no cache, compiler or library file
            subprocess.SubprocessError,  # the compiler failed or hung
            AttributeError,  # a loop missing from the library
            ValueError,  # a CC that shlex cannot split
            RuntimeError,  # no home directory
        ):
            step = search = None


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
    step, search = library.first_order_step, library.inland_search
    # rows, lo, hi, surface, velocity, dt, h_min, perturbed, perturbation,
    # track (see _kernel.c)
    step.argtypes = (
        ctypes.POINTER(Rows),
        *(ctypes.c_long,) * 2,
        *(ctypes.POINTER(ctypes.c_double),) * 2,
        ctypes.c_double,
        ctypes.c_double,
        ctypes.c_int,
        ctypes.c_double,
        ctypes.c_int,
    )
    step.restype = ctypes.c_int
    # surface, velocity, lo, hi, b, gamma, p, abs_p, p_x, pairs, nodes, n,
    # inv2, write_abs
    search.argtypes = (
        (ctypes.POINTER(ctypes.c_double),) * 2
        + (ctypes.c_long,) * 2
        + (ctypes.c_void_p,) * 7
        + (ctypes.c_long, ctypes.c_double, ctypes.c_int)
    )
    search.restype = ctypes.c_long
    return step, search
