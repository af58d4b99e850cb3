"""Table output for the experiment runner: CSV, JSON, and run manifests.

CSV is the primary format; JSON mirrors the same columns and rows with the
manifest embedded. Floats are rendered with repr (shortest round-trip), so
a re-run with the same configuration reproduces the bytes exactly.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from pathlib import Path


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_manifest(config: dict) -> dict:
    import numpy

    from . import __version__

    config = {k: str(v) for k, v in sorted(config.items())}
    return {
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config).encode()).hexdigest(),
        "seed": config.get("seed", ""),
        "package_version": __version__,
        "numpy_version": numpy.__version__,
    }


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


_PLOT_Y_PREFERENCE = ("mean", "p_hat", "total_mass", "sigma2", "max_err")


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def check_destinations(out: str | None, fmt: str, plot: str | None) -> None:
    """Raise the OSError a write would raise for a table, sidecar or plot path
    that is a directory or lies in a missing one, before any is written."""
    paths = [] if out is None else [Path(out)]
    if paths and fmt == "csv":
        paths.append(_sidecar(paths[0]))
    if plot:
        paths.append(Path(plot))
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def write_plot(out: str, columns: list[str], rows: list[tuple]) -> None:
    """Plain two-column plot file: first column vs the main estimate column."""
    y_index = next((columns.index(name) for name in _PLOT_Y_PREFERENCE
                    if name in columns), min(1, len(columns) - 1))
    text = "".join(f"{_cell(row[0])} {_cell(row[y_index])}\n" for row in rows)
    Path(out).write_text(text)


def write_table(out: str | None, fmt: str, columns: list[str], rows: list[tuple],
                manifest: dict) -> None:
    """Write one experiment table as CSV or JSON, to `out` or to stdout. CSV
    gets a sidecar manifest when `out` is a regular file (none beside a
    device such as /dev/null); JSON embeds the manifest."""
    if fmt == "csv":
        text = ",".join(columns) + "\n"
        text += "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)
    else:
        doc = {
            "manifest": manifest,
            "columns": columns,
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    if fmt == "csv" and path.is_file():
        _sidecar(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
