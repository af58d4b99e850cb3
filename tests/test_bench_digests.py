"""The byte ledger: the output digest of every benchmark job and of the
README's stdout-only example commands, against tools/bench_digests.txt.

The digests' last bits depend on numpy's SIMD dispatch and on the OpenBLAS
core type, so the ledger holds only on the fingerprint in its first line;
on another fingerprint the test skips and names both.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_digest  # noqa: E402

LEDGER = ROOT / "tools" / "bench_digests.txt"


def test_bench_digests_match_the_ledger_on_its_fingerprint():
    recorded, *lines = LEDGER.read_text().splitlines()
    here = bench_digest.fingerprint()
    if here != recorded:
        pytest.skip(f"the ledger holds on '{recorded}', this machine is '{here}'")
    fresh = list(bench_digest.digest_lines())
    moved = [f"{old}\n  now {new.split()[0]}" for old, new in zip(lines, fresh) if old != new]
    assert len(fresh) == len(lines), (len(fresh), len(lines))
    assert not moved, "outputs moved (rewrite the ledger only on purpose):\n" + "\n".join(moved)
