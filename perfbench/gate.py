"""Output gate, input/code identity and host-noise diagnostics.

Every op of a pass (one characterization cell, one replay, one request)
yields a digest of the numbers it produced.  The digests of the two
recorded input seeds live in ``expected.json``; a run compares each op
against them, so any change to a simulated statistic, a workload output
or a served table fails the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Input seeds with recorded digests: 0 is tuned on, 1 is held out.
INPUT_SEEDS = (0, 1)


def input_seed(seed: int) -> int:
    """The recorded input set a ``--seed`` selects."""
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def _plain(value: Any) -> Any:
    """JSON-safe, order-stable view of a result: dataclasses by field,
    numpy scalars as Python numbers, arrays by content hash."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {"dtype": str(arr.dtype), "shape": list(arr.shape),
                "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def scalars(d: dict[str, Any]) -> dict[str, Any]:
    """The scalar outputs of a workload (numbers, strings, flags)."""
    return {k: _plain(v) for k, v in d.items()
            if v is None or isinstance(v, (bool, int, float, str, np.generic))}


def digest(value: Any) -> str:
    blob = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected(workload: str, seed: int) -> "list[list[str]] | None":
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text())
    return table.get(workload, {}).get(str(seed))


def record_expected(workload: str, seed: int,
                    ops: list[tuple[str, str]]) -> None:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = [list(op) for op in ops]
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check(ops: list[tuple[str, str]],
          expected: "list[list[str]] | None") -> list[str]:
    """Names of ops whose digest differs from the recorded one (all of
    them when nothing is recorded)."""
    if expected is None:
        return [name for name, _ in ops]
    want = {name: d for name, d in expected}
    bad = [name for name, d in ops if want.get(name) != d]
    if len(ops) != len(expected):
        bad.append(f"<{len(ops)} ops, {len(expected)} recorded>")
    return bad


# -- identity -----------------------------------------------------------------

def dataset_identity(spec) -> dict[str, Any]:
    edges = np.ascontiguousarray(spec.edges)
    return {"name": spec.name, "n": int(spec.n), "m": int(spec.m),
            "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def code_identity(root: Path) -> dict[str, Any]:
    import repro
    src = root / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": h.hexdigest(),
            "repro_version": repro.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


# -- host noise ---------------------------------------------------------------

def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python reference loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return (time.perf_counter() - t0) * 1e3


class SpeedProbe:
    """Host speed during a timed window, sampled uniformly in CPU time.

    Every ``INTERVAL_S`` of process CPU a SIGPROF handler times a short
    fixed pure-Python loop on the main thread.  The mean burst time is
    the window's host slowness: a host that runs the reference loop 20%
    slower runs the program's Python about 20% slower too.  The bursts'
    own CPU time is reported so it can be subtracted from the window.
    """

    LOOP = 20_000
    INTERVAL_S = 0.25

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.bursts: list[float] = []

    def _burst(self, signum, frame) -> None:
        t0 = time.thread_time()
        x = 0
        for i in range(self.LOOP):
            x += i
        self.bursts.append(time.thread_time() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.bursts = []
        if self.enabled:
            self._old = signal.signal(signal.SIGPROF, self._burst)
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S,
                             self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._old)

    def sample_ms(self, n: int) -> float:
        """Time ``n`` bursts back to back; their mean in ms."""
        self.bursts = []
        for _ in range(n):
            self._burst(None, None)
        return self.burst_ms

    @property
    def burst_ms(self) -> float:
        return (1e3 * sum(self.bursts) / len(self.bursts)
                if self.bursts else 0.0)


def cpu_ticks() -> "tuple[int, int] | None":
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice
    return steal, sum(fields[:8])


def steal_frac(start, end) -> float:
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def log(msg: str) -> None:
    print(msg, file=sys.stdout, flush=True)
