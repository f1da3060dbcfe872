"""Build and load _lanes.c: the compiled lane loop of runner.run_trials and
the uniform, normal and choice draws of core.RngStream.

The source ships next to this module and is compiled with the system C
compiler on first use, linked statically against the libnpyrandom.a that the
numpy wheel ships (numpy/random/lib), into $XDG_CACHE_HOME/avagrad_lab/
(~/.cache by default), under a name keyed by a checksum of the source, the
archive, the compiler command, the interpreter's cache tag and the machine,
then loaded with ctypes. A build writes into a temporary directory in the
cache and moves the library into place with os.replace, so processes that race
to build it each load a whole file. Each load, of a cached library or a new
build, removes the other _lanes-*.so libraries in the cache. Without a
compiler, the archive or a writable cache there is no library: the runner
uses its numpy loop, and RngStream draws through numpy's Generator.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

import numpy

SOURCE = Path(__file__).with_name("_lanes.c")
# the distributions Generator runs, as the numpy wheel ships them for linking
ARCHIVE = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
CC = "gcc"
# no FMA contraction and no fast math, so each operation rounds as numpy's does;
# no -march=native, so a cached library runs on any CPU of its architecture
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")

_P, _I64 = ctypes.c_void_p, ctypes.c_int64
_ARGTYPES = {"lanes_run": (_I64, _I64, _P, _P, _P, _P, _I64, _P, _P, _P),
             "philox_uniform": (_I64, _P, _P), "philox_normal": (_I64, _P, _P),
             "philox_choice": (_I64, _P, _P, _I64, _I64, _P)}


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "avagrad_lab"


def _build(cc: str, directory: Path) -> Path:
    # CRC-32 and Adler-32 of the inputs, 64 bits: plenty to tell a few versions
    # of one file apart, and zlib is loaded with numpy, while hashlib would load
    # OpenSSL's libcrypto into a synth process, which loads nothing else of it
    key = b"\0".join([SOURCE.read_bytes(), ARCHIVE.read_bytes(), cc.encode(),
                      *(f.encode() for f in FLAGS),
                      sys.implementation.cache_tag.encode(), platform.machine().encode()])
    lib = directory / f"_lanes-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if not lib.is_file():
        import subprocess

        directory.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=directory, prefix=".build-")
        try:
            # the archive's symbols stay local, so they cannot clash with numpy's own
            built = subprocess.run([cc, *FLAGS, "-o", os.path.join(tmp, "_lanes.so"),
                                    str(SOURCE), str(ARCHIVE), "-lm",
                                    "-Wl,--exclude-libs,ALL"], capture_output=True)
            if built.returncode:
                raise OSError(f"{cc} exited with status {built.returncode}")
            os.replace(os.path.join(tmp, "_lanes.so"), lib)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    # built from another source, compiler or Python; on a 2-core x86-64 VM a
    # process's first scandir takes 50-80 us, its first Path.glob 280-490 us
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                if (entry.name.startswith("_lanes-") and entry.name.endswith(".so")
                        and entry.name != lib.name):
                    os.unlink(entry.path)
    except OSError:  # a cache this user cannot list or change keeps them
        pass
    return lib


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded library, building it first if the cache lacks it; None when
    it cannot be built or loaded, and RngStream then draws through numpy's
    Generator. Looked up once per process, since finding the cache costs more
    than a draw."""
    try:
        lib = ctypes.CDLL(str(_build(CC, cache_dir())))
        for name, argtypes in _ARGTYPES.items():
            getattr(lib, name).argtypes = argtypes
            getattr(lib, name).restype = _I64
    except OSError:  # no compiler or archive, a failed build, an unwritable cache
        return None
    return lib


def kernel():
    """lanes_run of _lanes.c, or None: the runner then keeps to numpy."""
    lib = library()
    return None if lib is None else lib.lanes_run
