"""tools/peaks.py: the traced peak and seconds of each job of a workload."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import peaks  # noqa: E402


def test_peaks_measures_a_workload_job():
    [argv] = [argv for argv in peaks.argvs("barrier-mc") if argv[0] == "blocks"]
    assert argv[:7] == ["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "8"]
    peak, seconds, code = peaks.measure(argv)
    assert code == 0 and 0.0 < peak < 1.0 and seconds > 0.0


def test_large_inputs_are_cli_argvs():
    assert all(peaks.bench_digest.hmchaos.cli.build_parser().parse_args(argv).command
               == argv[0] for argv in peaks.LARGE)


def test_the_change_of_measure_job_holds_no_copy_of_its_indicators():
    # its 10^6 right-side indicators (1 MiB) are reduced a leaf at a time and
    # gathered into one array, not a list of chunks and their concatenation
    [argv] = [argv for argv in peaks.argvs("barrier-mc") if argv[0] == "com-check"]
    peak, _, code = peaks.measure(argv)
    assert code == 0 and peak < 3.0
