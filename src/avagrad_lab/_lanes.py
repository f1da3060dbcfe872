"""Build and load _lanes.c, the compiled lane loop of runner.run_trials.

The source ships next to this module and is compiled with the system C
compiler on first use into $XDG_CACHE_HOME/avagrad_lab/ (~/.cache by default),
under a name keyed by a hash of the source, the compiler command, the
interpreter's cache tag and the machine, then loaded with ctypes. A build
writes into a temporary directory in the cache and moves the library into
place with os.replace, so processes that race to build it each load a whole
file. Without a compiler or a writable cache there is no kernel, and the
runner uses its numpy loop.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_lanes.c")
CC = "gcc"
# no FMA contraction and no fast math, so each operation rounds as numpy's does;
# no -march=native, so a cached library runs on any CPU of its architecture
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")

_P, _I64 = ctypes.c_void_p, ctypes.c_int64
_ARGTYPES = (_I64, _I64, _P, _P, _P, _P, _I64, _P, _P, _P)

_loaded: dict = {}  # (compiler, cache directory) -> library, or None if it failed


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "avagrad_lab"


def _build(cc: str, directory: Path) -> Path:
    # CRC-32 and Adler-32 of the inputs, 64 bits: plenty to tell a few versions
    # of one file apart, and zlib is loaded with numpy, while hashlib would
    # cost a synth run more to import than all the rest of the load
    key = b"\0".join([SOURCE.read_bytes(), cc.encode(), *(f.encode() for f in FLAGS),
                      sys.implementation.cache_tag.encode(), platform.machine().encode()])
    lib = directory / f"_lanes-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if not lib.is_file():
        import subprocess

        directory.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=directory, prefix=".build-")
        try:
            built = subprocess.run([cc, *FLAGS, "-o", os.path.join(tmp, "_lanes.so"),
                                    str(SOURCE), "-lm"], capture_output=True)
            if built.returncode:
                raise OSError(f"{cc} exited with status {built.returncode}")
            os.replace(os.path.join(tmp, "_lanes.so"), lib)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return lib


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, building it first if the cache lacks it;
    None when it cannot be built or loaded."""
    where = (CC, cache_dir())
    if where not in _loaded:
        try:
            lib = ctypes.CDLL(str(_build(*where)))
            lib.lanes_run.argtypes = _ARGTYPES
            lib.lanes_run.restype = _I64
        except OSError:  # no compiler, a failed build, an unwritable cache
            lib = None
        _loaded[where] = lib
    return _loaded[where]


def kernel():
    """lanes_run of _lanes.c, or None: the runner then keeps to numpy."""
    lib = library()
    return None if lib is None else lib.lanes_run
