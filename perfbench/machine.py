"""Facts about the machine and the code, printed with every result.

Nothing here changes BLAS or OpenMP threading: how many threads the
library starts by default, and how they contend with the sampler's
worker processes, is program behaviour the benchmark measures.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BURN = ("import time\n"
        "t = time.perf_counter()\n"
        "x = 0\n"
        "for i in range(3_000_000):\n"
        "    x += i * i\n"
        "print(time.perf_counter() - t)\n")

THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads")


def _burn(count: int) -> list:
    """Seconds each of count concurrent CPU-bound processes took."""
    procs = []
    try:
        for _ in range(count):
            procs.append(subprocess.Popen([sys.executable, "-c", BURN],
                                          stdout=subprocess.PIPE, text=True))
        return [float(p.communicate(timeout=60)[0]) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def effective_parallelism() -> float:
    """2 x (one burn alone) / (mean of two concurrent burns).

    Close to 2 when two processes really run at once, close to 1 when
    they share one core's worth of CPU.
    """
    alone = _burn(1)[0]
    pair = _burn(2)
    return 2.0 * alone / (sum(pair) / len(pair))


def blas_facts() -> dict:
    """Name, version and default thread count of numpy's BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*blas*")):
        lib = ctypes.CDLL(str(path))
        for name in THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                threads = query()
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def git_sha(root: Path):
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which names the code measured
    also where there is no git history."""
    h = hashlib.sha256()
    package = root / "src" / "sapt"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def facts(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "effective_parallelism": round(effective_parallelism(), 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
