"""Machine speed calibration and the environment record of every result.

Wall time on a small shared machine drifts with the speed of the shared
cores by a quarter or more over minutes, while the work is unchanged. The
benchmark therefore times a fixed calibration loop between passes and
reports times scaled to a reference speed:

    normalised = measured * CAL_REF_S / median(calibration)

The loop uses only numpy and the interpreter, never hmchaos, so a change
to the program cannot move it; both raw and normalised times are printed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

CAL_REF_S = 0.02   # the loop's time at the reference speed


def calibrate() -> float:
    """Seconds taken by a fixed mix of numpy array work and interpreted Python."""
    x = np.linspace(0.0, 1.0, 4096)
    start = perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.abs(np.fft.ifft(np.exp(1j * (x + i))))))
        acc += sum(k * k for k in range(600))
    elapsed = perf_counter() - start
    if acc <= 0.0:   # keeps the work observable
        raise RuntimeError("calibration loop produced no result")
    return elapsed


def _git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    info = {"vendor": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().split("\n")
    except OSError:
        return info
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(root: Path, seed: int) -> dict:
    """Everything a reader needs to compare two results of this benchmark."""
    return {
        "seed": seed,
        "git_revision": _git_revision(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cal_ref_s": CAL_REF_S,
    }
