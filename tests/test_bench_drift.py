"""tools/bench_drift.column_drift on fixed CSV pairs: the per-column report
that a change moving printed bits on purpose pastes into CHANGES.md; and
bench_drift's run list, bench_digest.runs at --workers 1, which holds the
README commands next to the jobs."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_drift import column_drift  # noqa: E402

TABLE = "kind,mean,ok,note\nG,1.5,1,inf\nL,-2.0,0,x\n"


def test_equal_tables_differ_in_no_cell():
    assert column_drift(TABLE, TABLE) == [
        "  kind: 0 of 2 cells differ",
        "  mean: 0 of 2 cells differ, max abs 0, max rel 0",
        "  ok: 0 of 2 cells differ, max abs 0, max rel 0",
        "  note: 0 of 2 cells differ",
    ]


def test_a_moved_float_reports_its_absolute_and_relative_difference():
    moved = TABLE.replace("-2.0", "-2.5")
    lines = column_drift(moved, TABLE)
    assert lines[1] == "  mean: 1 of 2 cells differ, max abs 0.5, max rel 0.2"
    assert all(" 0 of 2 " in line for i, line in enumerate(lines) if i != 1)


def test_a_flipped_bool_is_a_difference_of_one():
    flipped = TABLE.replace("L,-2.0,0", "L,-2.0,1")
    assert column_drift(flipped, TABLE)[2] == "  ok: 1 of 2 cells differ, max abs 1, max rel 1"


def test_text_and_inf_cells_compare_as_text():
    # "inf" parses as a float but not a finite one, so it never enters the
    # numeric maxima; a column with no finite pair reports counts only
    ours = "kind,note\nG,inf\nL,1.0\n"
    theirs = "kind,note\nH,inf\nL,inf\n"
    assert column_drift(ours, theirs) == ["  kind: 1 of 2 cells differ",
                                          "  note: 1 of 2 cells differ"]


def test_a_changed_header_gives_one_line():
    message = ["  the tables differ in their columns or row counts"]
    assert column_drift(TABLE.replace("note", "notes"), TABLE) == message
    assert column_drift(TABLE + "G,0.0,1,y\n", TABLE) == message
    assert column_drift("", TABLE) == message


def test_the_run_list_holds_every_readme_command(monkeypatch):
    from bench_digest import readme_commands, runs

    def no_run(argv):
        raise AssertionError("the run list ran a command")

    monkeypatch.setattr("hmchaos.cli.main", no_run)
    drift_runs = list(runs(workers=(1,)))
    readme = [argv for workload, _, _, argv in drift_runs if workload == "readme"]
    assert readme == list(readme_commands()) and readme
    assert all(seed == "-" for workload, seed, _, _ in drift_runs if workload == "readme")
    jobs = [run for run in drift_runs if run[0] != "readme"]
    assert {seed for _, seed, _, _ in jobs} == {1, 2}
    assert all(workers == 1 and argv[argv.index("--workers") + 1] == "1"
               for _, _, workers, argv in jobs)
