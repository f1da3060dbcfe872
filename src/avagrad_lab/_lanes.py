"""Build and load _lanes.c: the compiled lane loop of runner.run_trials, the
uniform, normal and choice draws of core.lane_draws and core.RngStream, and
csv_g17, which prints the float tables of core.write_csv as '%.17g' does.

The source ships next to this module and is compiled with the system C
compiler on first use, linked statically against the libnpyrandom.a that the
numpy wheel ships (numpy/random/lib), into $XDG_CACHE_HOME/avagrad_lab/
(~/.cache by default), under a name keyed by a checksum of the source, the
archive, the compiler command, the interpreter's cache tag and the machine,
then loaded with ctypes. A build writes into a temporary directory in the
cache and moves the library into place with os.replace, so processes that race
to build it each load a whole file. Each load, of a cached library or a new
build, removes the other _lanes-*.so libraries in the cache. A loaded
library must then give numpy's known answers for each kind of draw, and
Python's for one row of the formatter. Without a compiler, the archive or a
writable cache, or with a library that misses an answer, there is no
library: the runner uses its numpy loop, RngStream draws through numpy's
Generator, and write_csv prints every row field by field in Python.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import struct
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
# The draws take their counts as c_void_p (intptr_t in C) and their output as
# a typed pointer, passed c_double.from_buffer(array): ctypes converts those
# quicker than c_int64 and byref, by about 0.2 us a single draw on a 2-core
# x86-64 VM, and a single draw is mostly its ctypes call.
_F, _L = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(_I64)
_ARGTYPES = {"lanes_run": (_I64, _I64, _P, _P, _P, _P, _I64, _P, _P, _P),
             "philox_uniform": (_P, _P, _P, _P, _F), "philox_normal": (_P, _P, _P, _P, _F),
             "philox_choice": (_P, _P, _P, _L, _P, _P, _L), "csv_g17": (_I64, _I64, _P, _P)}


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


# the row csv_g17 formats in _answers_hold: a half-even tie (its 18th digit a
# 5 and nothing after), 1e-14 (a double just below 10^-14, which rounds up to
# N = 10^17), 1e-05, 1e+17, -0, a negative value, and 1e+100, which it declines
CSV_ROW = (100000000000000.125, 1e-14, 1e-05, 1e+17, -0.0, -0.1, 1e+100)

# what numpy's Generator(Philox) draws in _answers_hold (tests/test_core.py
# draws them again): the floats, the picks, and the tail shuffle's CRC-32; then
# what Python's '%.17g' % prints of CSV_ROW less its last value, and -1 - 6,
# csv_g17's report that it declines cell 6 of the whole row
KNOWN_ANSWERS = ((0.8720734548204873, 0.29536538151378355, 0.6142833637530732,
                  0.2978597381915409),
                 (2, 4, 13, 20, 23, 28, 29, 8, 21, 23, 5, 9, 10, 29, 15, 19, 22, 20, 13, 6),
                 1259923410,
                 (b"100000000000000.12,1e-14,1.0000000000000001e-05,1e+17,-0,"
                  b"-0.10000000000000001\n", -7))


def _answers_hold(lib: ctypes.CDLL) -> bool:
    """Whether the library's draws give KNOWN_ANSWERS, those of numpy's
    Generator(Philox): on a stream keyed 7, random(2), standard_normal(2) and
    choice(30, 4) (Floyd's branch); two choice(30, 4) draws of streams keyed
    8, with the 32-bit half 0xDEADBEEF buffered, and 9, as one lane draw; then
    choice(10001, 201) of the first stream (the tail shuffle), by the CRC-32
    of its little-endian words. A library that links numpy's code under
    declarations, or with a bit generator, that numpy no longer matches fails
    them. Then csv_g17 formats CSV_ROW less its last value, and declines the
    whole row at that value. The buffers are bytearrays, not numpy arrays,
    whose first operations in a process cost more than the draws."""
    words = bytearray(struct.pack("39Q", *(0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 4, 0, 0),
                                  *(0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 4, 1, 0xDEADBEEF),
                                  *(0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 4, 0, 0)))
    at = ctypes.addressof(ctypes.c_char.from_buffer(words))
    refs = bytearray(struct.pack("3Q", at, at + 104, at + 208))  # the states' addresses
    first, rest = (ctypes.byref(ctypes.c_char.from_buffer(refs, i)) for i in (0, 8))
    floats, picks, tail = bytearray(32), bytearray(160), bytearray(1608)
    f, i64 = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
    table = i64(bytearray(240))
    lib.philox_uniform(1, first, 1, 2, f(floats))
    lib.philox_normal(1, first, 1, 2, f(floats, 16))
    lib.philox_choice(1, first, 1, i64(picks), 30, 4, table)
    lib.philox_choice(2, rest, 2, i64(picks, 32), 30, 4, table)
    lib.philox_choice(1, first, 1, i64(tail), 10001, 201, i64(bytearray(80008)))
    row, text = bytearray(struct.pack("7d", *CSV_ROW)), bytearray(7 * 24)
    at = [ctypes.byref(ctypes.c_char.from_buffer(b)) for b in (row, text)]
    size = lib.csv_g17(1, 6, *at)
    return (struct.unpack("4d", floats), struct.unpack("20q", picks),
            zlib.crc32(struct.pack("<201q", *struct.unpack("201q", tail))),
            (bytes(text[:max(size, 0)]), lib.csv_g17(1, 7, *at))) == KNOWN_ANSWERS


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded library, building it first if the cache lacks it; None when
    it cannot be built or loaded, or when its draws miss their known answers,
    and RngStream then draws through numpy's Generator. Looked up once per
    process, since finding the cache costs more than a draw."""
    try:
        lib = ctypes.CDLL(str(_build(CC, cache_dir())))
        for name, argtypes in _ARGTYPES.items():
            getattr(lib, name).argtypes = argtypes
            getattr(lib, name).restype = _I64
    except OSError:  # no compiler or archive, a failed build, an unwritable cache
        return None
    return lib if _answers_hold(lib) else None


def kernel():
    """lanes_run of _lanes.c, or None: the runner then keeps to numpy."""
    lib = library()
    return None if lib is None else lib.lanes_run
