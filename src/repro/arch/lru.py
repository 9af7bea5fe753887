"""The one set-associative LRU core behind every cache walk.

:func:`lru_walk` replays a key stream through caller-owned LRU state and
returns the per-access miss mask.  The state is a flat ``uint64`` array
of ``n_sets * assoc`` tags: each set's ways are kept in recency order
(way 0 is the MRU line) and an empty way holds :data:`EMPTY`.  The state
persists across calls, so a warm cache is just a second call.

Every simulator routes through it: the CPU hierarchy and DTLB
(:func:`repro.arch.replay.replay`), the ICache
(:func:`repro.arch.replay.lru_misses`), the multicore private/shared
hierarchy (:func:`repro.parallel.trace_sim.simulate_multicore`) and the
GPU L2 (:class:`repro.gpu.simt.KernelAccum`).  :class:`repro.arch.cache.
Cache` stays the independent dict-based oracle.

Two backends with the same semantics:

* **C** — ``_lru.c`` next to this module, compiled with the system C
  compiler on first use (not at import) into a per-user cache directory
  and loaded through :mod:`ctypes`.  The file name is keyed on the
  sha256 of the source, the compiler flags and the platform tag; the
  library is written atomically (``mkstemp`` + ``rename``) so concurrent
  first uses never load a torn file.
* **Python** — a list-based walk, used when no compiler is present, the
  build fails or the cache directory is unwritable.  The fallback logs
  one structured warning on the ``repro.arch.lru`` logger.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

#: Tag of an empty way (line/page/segment ids never reach it).
EMPTY = np.iinfo(np.uint64).max

#: C compiler used to build the core.
CC = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")

_SRC = Path(__file__).with_name("_lru.c")

# backend signature: (state, assoc, sets or None, keys, miss uint8 out)
_Walk = Callable[[np.ndarray, int, "np.ndarray | None", np.ndarray,
                  np.ndarray], None]
_impl: _Walk | None = None
_impl_lock = threading.Lock()

#: What a failed build or load of the C backend raises.
BUILD_ERRORS = (OSError, RuntimeError, subprocess.SubprocessError)


def new_state(n_sets: int, assoc: int) -> np.ndarray:
    """Cold LRU state: ``n_sets`` sets of ``assoc`` empty ways."""
    return np.full(n_sets * assoc, EMPTY, dtype=np.uint64)


def lru_walk(state: np.ndarray, assoc: int, sets: np.ndarray | None,
             keys: np.ndarray) -> np.ndarray:
    """Replay ``keys`` through ``state``; returns the bool miss mask.

    ``sets[i]`` is the set access ``i`` probes (``None``: one fully
    associative set).  ``state`` is updated in place.
    """
    if state.dtype != np.uint64 or not state.flags.c_contiguous \
            or not state.flags.writeable:
        raise ValueError("state must be a writable contiguous uint64 array")
    if assoc <= 0 or len(state) % assoc:
        raise ValueError(f"state of {len(state)} tags is not n_sets * "
                         f"{assoc} ways")
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    miss = np.zeros(len(keys), dtype=np.uint8)
    if sets is not None:
        sets = np.ascontiguousarray(sets, dtype=np.uint64)
        if sets.shape != keys.shape:
            raise ValueError("sets and keys must be parallel")
        if len(sets) and int(sets.max()) >= len(state) // assoc:
            raise ValueError("set index out of range")
    if len(keys):
        _backend()(state, assoc, sets, keys, miss)
    return miss.view(bool)


def cache_dir() -> Path:
    """Per-user directory holding the compiled core."""
    return Path.home() / ".cache" / "repro"


def _walk_py(state: np.ndarray, assoc: int, sets: np.ndarray | None,
             keys: np.ndarray, miss: np.ndarray) -> None:
    """Pure-Python backend: the C loop over a list copy of the state."""
    st = state.tolist()
    n = len(keys)
    bases = [0] * n if sets is None else (sets * np.uint64(assoc)).tolist()
    for i, b, k in zip(range(n), bases, keys.tolist()):
        if st[b] == k:
            continue
        last = b + assoc - 1
        try:
            j = st.index(k, b, last + 1)
        except ValueError:
            j = last
            miss[i] = 1
        st[b + 1:j + 1] = st[b:j]
        st[b] = k
    state[:] = st


def _build() -> Path:
    """Compile the core into the cache directory (once per key)."""
    src = _SRC.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(CFLAGS).encode(),
         sysconfig.get_platform().encode()])).hexdigest()[:16]
    out = cache_dir() / f"_lru-{key}.so"
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run([CC, *CFLAGS, "-o", tmp, str(_SRC)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise OSError(f"{CC} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _load_c() -> _Walk:
    fn = ctypes.CDLL(str(_build())).lru_walk
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    fn.restype = None

    def walk(state, assoc, sets, keys, miss) -> None:
        fn(state.ctypes.data, assoc,
           None if sets is None else sets.ctypes.data,
           keys.ctypes.data, len(keys), miss.ctypes.data)
    return walk


def _backend() -> _Walk:
    global _impl
    if _impl is None:
        with _impl_lock:
            if _impl is None:
                try:
                    _impl = _load_c()
                except BUILD_ERRORS as e:
                    from ..obs.logs import get_logger
                    get_logger("arch.lru").warning(
                        "compiled LRU core unavailable, using the "
                        "pure-Python backend: %s", e,
                        extra={"event": "lru_fallback", "compiler": CC,
                               "error": str(e)})
                    _impl = _walk_py
    return _impl
