import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import hmchaos
from hmchaos.cli import build_parser, main
from hmchaos.rng import Seed, split

GOLDEN_HEADERS = {
    "moment": "N,q,samples,mean,std_error,compensated,seed",
    "mass": "N,partitions,total_mass",
    "ballot": "a,n,samples,p_hat,std_error,ratio,band_lo,band_hi,in_band",
    "event": "kind,K,r,theta,A,samples,p_hat,std_error",
    "blocks": "m,k_lo,k_hi,sigma2,rho,cov,cov_bound,in_horizon,sigma2_ok,cov_ok",
    "steinhaus": "x,power,samples,mean,std_error,target,compensated,seed",
}


def run_csv(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_mass_table_is_exact(tmp_path):
    code, text = run_csv(tmp_path, "mass", ["mass", "--N-max", "25", "--check"])
    lines = text.strip().splitlines()
    assert code == 0
    assert lines[0] == GOLDEN_HEADERS["mass"]
    assert len(lines) == 26
    assert all(line.endswith(",1") for line in lines[1:])
    assert lines[5].startswith("5,7,")  # p(5) = 7
    assert lines[25].startswith("25,1958,")  # p(25) = 1958


def test_mass_table_runs_to_its_cap(tmp_path):
    code, text = run_csv(tmp_path, "mass40", ["mass", "--N-max", "40", "--check"])
    lines = text.strip().splitlines()
    assert code == 0
    assert len(lines) == 41
    assert all(line.endswith(",1") for line in lines[1:])
    assert lines[40].startswith("40,37338,")  # p(40) = 37338


def test_moment_runs_and_reproduces(tmp_path):
    argv = ["moment", "--N", "16", "--q", "1", "--samples", "400", "--seed", "7"]
    code1, text1 = run_csv(tmp_path, "m1", argv)
    code2, text2 = run_csv(tmp_path, "m2", argv)
    assert code1 == code2 == 0
    assert text1.splitlines()[0] == GOLDEN_HEADERS["moment"]
    assert text1 == text2
    manifest = json.loads((tmp_path / "m1.csv.manifest.json").read_text())
    assert manifest["derived"]["gaussian_abs_moment_cq"] == 1.0


def test_moment_reference_run_passes_check(tmp_path):
    # the canonical second-moment run: mean within 4 se of 1
    code, text = run_csv(tmp_path, "ref", ["moment", "--N", "64", "--q", "1",
                                           "--samples", "20000", "--seed", "42",
                                           "--check"])
    assert code == 0
    mean = float(text.splitlines()[1].split(",")[3])
    assert 0.8 < mean < 1.2


def test_config_file_defaults_and_flag_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"N": 16, "samples": 300, "seed": 21}))
    out_cfg = tmp_path / "cfg.csv"
    assert main(["moment", "--config", str(config), "--out", str(out_cfg)]) == 0
    row = out_cfg.read_text().splitlines()[1].split(",")
    assert row[0] == "16" and row[2] == "300"
    # explicit flag beats the config file
    out_flag = tmp_path / "flag.csv"
    assert main(["moment", "--config", str(config), "--N", "8",
                 "--out", str(out_flag)]) == 0
    assert out_flag.read_text().splitlines()[1].split(",")[0] == "8"
    # the config file's defaults do not outlive its run
    out_plain = tmp_path / "plain.csv"
    assert main(["moment", "--N", "8", "--out", str(out_plain)]) == 0
    assert out_plain.read_text().splitlines()[1].split(",")[2] == "1000"
    manifest = json.loads((tmp_path / "plain.csv.manifest.json").read_text())
    assert manifest["seed"] == "42"


def _config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_config_values_parse_as_flag_text(tmp_path, capsys):
    # {"q": 1} printed q as 1 where --q 1 prints 1.0
    flags = ["moment", "--N", "8", "--q", "1", "--samples", "50", "--seed", "3"]
    _, by_flags = run_csv(tmp_path, "flags", flags)
    cfg = _config(tmp_path, {"N": 8, "q": 1, "samples": 50, "seed": 3})
    code, by_config = run_csv(tmp_path, "config", ["moment", "--config", cfg])
    assert code == 0
    assert by_config == by_flags
    # an explicit flag still beats the file
    _, text = run_csv(tmp_path, "explicit", ["moment", "--config", cfg, "--q", "0.5"])
    assert text.splitlines()[1].split(",")[1] == "0.5"
    # a number for the string-valued --A raised AttributeError in the grid parser
    cfg = _config(tmp_path, {"K": 20, "r": 1, "A": 2, "samples": 100})
    code, text = run_csv(tmp_path, "event", ["event", "--config", cfg])
    assert code == 0
    assert text.splitlines()[1].split(",")[4] == "2.0"
    # true sets a switch, false and null keep the default, and any other value
    # of a switch is refused ("no" turned the gate on)
    ballot = {"a_grid": "1", "n_grid": "16", "samples": 2000, "band_lo": 4.999}
    for check, expected in ((True, 4), (False, 0), (None, 0), ("no", 2)):
        cfg = _config(tmp_path, {**ballot, "check": check, "out": None})
        capsys.readouterr()
        assert main(["ballot", "--config", cfg]) == expected, check
        out = capsys.readouterr().out
        assert out.startswith(GOLDEN_HEADERS["ballot"]) == (expected != 2)


def test_module_entry_point_reads_sys_argv(tmp_path):
    # python -m hmchaos.cli calls main() with no argv, as the console script does
    cfg = _config(tmp_path, {"N": 8, "q": 1, "samples": 50, "seed": 3})
    path = os.pathsep.join(filter(None, [str(Path(hmchaos.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hmchaos.cli", "moment", "--config", cfg],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["moment", "--N", "8", "--q", "1", "--samples", "50", "--seed", "3"]) == 0
    assert proc.stdout == out.getvalue()


def test_help_exits_0_for_every_subcommand(capsys):
    assert build_parser() is build_parser()
    for argv in ([], ["sample"], ["moment"], ["decay"], ["mass"], ["ballot"], ["event"],
                 ["com-check"], ["blocks"], ["bivariate"], ["steinhaus"], ["ff"],
                 ["series-selftest"]):
        assert main(argv + ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hmchaos")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for key in ("bogus", "engine"):
        config.write_text(json.dumps({"N": 16, key: "auto"}))
        assert main(["moment", "--config", str(config)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


def test_plot_file_two_columns(tmp_path):
    plot = tmp_path / "mass.dat"
    code = main(["mass", "--N-max", "4", "--out", str(tmp_path / "mass.csv"),
                 "--plot", str(plot)])
    assert code == 0
    lines = plot.read_text().strip().splitlines()
    assert lines == ["1 1", "2 1", "3 1", "4 1"]


def test_worker_count_does_not_change_output(tmp_path):
    base = ["moment", "--N", "16", "--q", "0.5", "--samples", "600", "--seed", "3"]
    _, text1 = run_csv(tmp_path, "w1", base + ["--workers", "1"])
    _, text2 = run_csv(tmp_path, "w2", base + ["--workers", "3"])
    assert text1 == text2


def test_multi_height_runs_do_not_depend_on_the_worker_count(tmp_path):
    # several chunks per call, every height from one set of draws
    for name, argv in (("ballot", ["ballot", "--a-grid", "1,2,4", "--n-grid", "16,64",
                                   "--samples", "9000", "--seed", "6"]),
                       ("grid", ["event", "--all-angles", "--K", "60", "--r", "1",
                                 "--A", "1,2,4", "--samples", "1100", "--seed", "6"])):
        code1, text1 = run_csv(tmp_path, name + "1", argv + ["--workers", "1"])
        code2, text2 = run_csv(tmp_path, name + "2", argv + ["--workers", "2"])
        assert code1 == code2 == 0
        assert text1 == text2
        assert len(text1.splitlines()) == 1 + (6 if name == "ballot" else 3)


def test_one_angle_walks_do_not_depend_on_the_worker_count(tmp_path):
    # the step-major walks of event G and L and of both com-check sides, each
    # over three chunks of 4096 samples
    for name, argv, rows in (
            ("G", ["event", "--kind", "G", "--K", "400", "--r", "1", "--A", "1,2,4",
                   "--samples", "9000", "--seed", "6"], 3),
            ("L", ["event", "--kind", "L", "--K", "1e4", "--r", "0.99", "--A", "1,2",
                   "--samples", "9000", "--seed", "6"], 2),
            ("com", ["com-check", "--K", "400", "--r", "1", "--A", "2", "--samples-left",
                     "9000", "--samples-right", "9000", "--seed", "6"], 1)):
        code1, text1 = run_csv(tmp_path, name + "1", argv + ["--workers", "1"])
        code2, text2 = run_csv(tmp_path, name + "2", argv + ["--workers", "2"])
        assert code1 == code2 == 0
        assert text1 == text2
        assert len(text1.splitlines()) == 1 + rows


def test_one_height_runs_keep_their_bytes(tmp_path):
    # sha256 of these CSVs: a one-height run reads the seeds it read before
    # the heights shared their draws; the grid keeps the bytes it had then,
    # the ballot has those of its step-major ziggurat walks
    for name, argv, digest in (
            ("ballot", ["ballot", "--a-grid", "2", "--n-grid", "16,64", "--samples", "500",
                        "--seed", "9"],
             "9c5e627532e8dfa1518f875a3bbfc20196a392c3c21bf5039215963ebe50865e"),
            ("grid", ["event", "--all-angles", "--K", "20", "--r", "1", "--A", "2",
                      "--samples", "500", "--seed", "4"],
             "84edb7a49b50c2d991c94de36ceb6da10fde066e1a7710808f4967ab30287950")):
        code, text = run_csv(tmp_path, name, argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ballot_monotone_check_reads_heights_in_ascending_order(tmp_path):
    # the grid is typed high to low; survival still grows with the height
    code, text = run_csv(tmp_path, "ballot",
                         ["ballot", "--a-grid", "4,2,1", "--n-grid", "16",
                          "--samples", "2000", "--seed", "3", "--check"])
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [row[0] for row in rows] == ["4.0", "2.0", "1.0"]
    assert float(rows[0][3]) >= float(rows[1][3]) >= float(rows[2][3])


def test_empty_grids_exit_3(capsys):
    for argv in (["ballot", "--a-grid", "", "--samples", "100"],
                 ["ballot", "--n-grid", "", "--samples", "100"],
                 ["ballot", "--a-grid", ",", "--samples", "100"],
                 ["event", "--K", "20", "--r", "1", "--A", "", "--samples", "100"],
                 ["event", "--all-angles", "--K", "20", "--r", "1", "--A", "",
                  "--samples", "100"],
                 ["bivariate", "--rho-grid", ","], ["mass", "--N-max", "0"],
                 ["ff", "--mode", "counts", "--q", "3", "--n-max", "0"],
                 ["blocks", "--r", "0.98", "--theta", "0.5", "--K", "1"]):
        capsys.readouterr()
        assert main(argv + ["--check"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one" in captured.err


def test_manifest_sidecar_written(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["moment", "--N", "8", "--samples", "200", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["seed"] == "5"
    assert "config_sha256" in manifest and "numpy_version" in manifest


def test_no_manifest_sidecar_beside_a_device():
    # the CSV goes to the device; a sidecar would be a new regular file in /dev
    sidecar = Path(os.devnull + ".manifest.json")
    sidecar.unlink(missing_ok=True)  # left by a build that wrote one
    code = main(["mass", "--N-max", "4", "--out", os.devnull])
    appeared = sidecar.exists()
    sidecar.unlink(missing_ok=True)
    assert code == 0
    assert not appeared


def test_json_format_embeds_manifest(tmp_path):
    out = tmp_path / "run.json"
    code = main(["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "4",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "m"
    assert doc["manifest"]["config"]["r"] == "0.98"
    assert len(doc["rows"]) == 4


def test_blocks_check_passes(tmp_path, capsys):
    # from block 11 on every weight r^{2k}/(2k) underflows at r = 0.98: the
    # covariance 0 meets its bound, and no warning is printed
    for m_max in ("8", "11"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_csv(tmp_path, "blocks",
                                 ["blocks", "--r", "0.98", "--theta", "0.5",
                                  "--m-max", m_max, "--check"])
        assert code == 0
        assert text.splitlines()[0] == GOLDEN_HEADERS["blocks"]
    # at 2000 pi every cos(k theta) is 1; the bound is a theorem for the
    # reduced angle, which is next to 0
    code, _ = run_csv(tmp_path, "blocks", ["blocks", "--r", "0.98", "--theta",
                                           repr(2000.0 * math.pi), "--m-max", "4",
                                           "--check"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_bivariate_check_passes(tmp_path):
    code, _ = run_csv(tmp_path, "biv", ["bivariate", "--check"])
    assert code == 0


def test_bivariate_refuses_a_rho_past_its_grid_resolution(tmp_path, capsys):
    # the 400-point normalization grid over 16 sigmas cannot resolve a ridge
    # narrower than its spacing (|rho| > 0.99920): 0.99999999 integrated to
    # 113; such a rho exits 2 before any draw, on its own or in a grid
    for grid in ("0.99999999", "0.3,-0.9993", "0.9999999999999999"):
        assert main(["bivariate", "--rho-grid", grid, "--check"]) == 2
        assert "--rho-grid" in capsys.readouterr().err
    code, text = run_csv(tmp_path, "biv", ["bivariate", "--rho-grid", "0.999,-0.9991",
                                            "--check"])
    assert code == 0
    assert [line.split(",")[-1] for line in text.splitlines()[1:]] == ["1", "1"]


def test_bivariate_refuses_a_span_past_the_float_range(capsys):
    # at --span 1e154 the exponent's u*u - 2 rho u v + v*v overflowed, and at
    # 1e300 it was inf - inf: max_density_gap read nan and every dominated_rho
    # check failed (exit 4), though the domination holds there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for span in ("1e154", "1e300"):
            assert main(["bivariate", "--span", span, "--check"]) == 3
            assert "--span" in capsys.readouterr().err
        for argv in (["bivariate", "--check"], ["bivariate", "--span", "1e153", "--check"]):
            assert main(argv) == 0


def test_event_headers(tmp_path):
    code, text = run_csv(tmp_path, "event",
                         ["event", "--kind", "G", "--K", "20", "--r", "1.0",
                          "--A", "1.5", "--samples", "2000", "--seed", "2"])
    assert code == 0
    assert text.splitlines()[0] == GOLDEN_HEADERS["event"]


def test_event_all_angles(tmp_path):
    code, text = run_csv(tmp_path, "grid",
                         ["event", "--kind", "G", "--K", "20", "--r", "1.0",
                          "--A", "2", "--all-angles", "--samples", "500",
                          "--seed", "4"])
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[0] == "G-grid"
    assert 0.0 <= float(row[6]) <= 1.0


def test_event_all_angles_holds_one_grid_block():
    # 8 replicates on the K = 10^4 grids: the last checkpoint has
    # ceil(9 e^9) angles, and its padded block is transformed in place, so
    # the traced peak stays below two (count, grid) complex blocks
    count, grid = 8, math.ceil(9 * math.e**9)
    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["event", "--all-angles", "--K", "10000", "--r", "1",
                     "--samples", str(count), "--workers", "1"])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 0
    assert peak < 2 * count * grid * 16


def test_event_lower_kind(tmp_path):
    code, text = run_csv(tmp_path, "eventL",
                         ["event", "--kind", "L", "--K", "100", "--r",
                          "0.9753099120283326", "--A", "1.5", "--samples",
                          "2000", "--seed", "3"])
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[0] == "L" and 0.0 <= float(row[6]) <= 1.0


def test_decay_check_small_grid(tmp_path):
    code, text = run_csv(tmp_path, "decay",
                         ["decay", "--n-grid", "16,32", "--samples-per",
                          "2500,2500", "--seed", "14", "--check"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == GOLDEN_HEADERS["moment"]
    # row i is the first moment at N on split(seed, i), compensated by (log N)^{1/4}
    for i, line in enumerate(lines[1:]):
        n, _, _, mean, _, compensated, seed = line.split(",")
        assert float(compensated) == float(mean) * math.log(int(n)) ** 0.25
        assert seed == str(split(Seed(14), i))
    assert len(lines) == 3


def test_com_check_command(tmp_path):
    code, text = run_csv(tmp_path, "com",
                         ["com-check", "--K", "8", "--A", "2",
                          "--samples-left", "20000", "--samples-right", "50000",
                          "--seed", "6", "--check"])
    assert code == 0
    header = text.splitlines()[0]
    assert header == ("K,r,A,samples_left,samples_right,left_mean,left_se,"
                      "right_mean,right_se,combined_se,agree_5se")


def test_com_check_right_side_holds_one_value_per_block(tmp_path):
    # the right side holds count x n_max block sums, 4096 x 11 values for a full
    # chunk at K = 1e5; one value per k would be 4096 x 59874, over the budget
    argv = ["com-check", "--K", "1e5", "--r", "1", "--A", "2", "--samples-left", "64",
            "--samples-right", "100000", "--seed", "3"]
    texts = []
    for workers in ("1", "2"):
        code, text = run_csv(tmp_path, f"com{workers}", argv + ["--workers", workers])
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]


def test_com_check_left_side_holds_one_value_per_block(tmp_path):
    # both sides draw block sums (the left one more, for the tail up to K):
    # K = 1e6 runs at the default samples, where one left step per k was
    # over the budget, and prints the same bytes at any worker count
    texts = []
    for workers in ("1", "2"):
        code, text = run_csv(tmp_path, f"com{workers}",
                             ["com-check", "--K", "1e6", "--seed", "3", "--workers", workers])
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]


def test_com_check_holds_one_block_of_variances(tmp_path):
    # at K = 1e7 the widest hold is block 16's two rows of 5617093 values
    # (85.7 MiB); the walks are count x 17 values
    argv = ["com-check", "--K", "1e7", "--samples-left", "1000", "--samples-right", "100000",
            "--out", str(tmp_path / "com.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 94 * 2**20


def test_com_check_reports_the_left_effective_sample_size(capsys):
    # at K = 1e5 the left side's weights are so heavy-tailed that 64 samples
    # carry the information of a handful
    argv = ["com-check", "--K", "1e5", "--r", "1", "--A", "2", "--samples-left", "64",
            "--samples-right", "100000", "--seed", "3", "--format", "json"]
    assert main(argv) == 0
    ess = json.loads(capsys.readouterr().out)["manifest"]["derived"]["left_ess"]
    assert 1.0 <= ess < 8.0


def test_event_holds_one_value_per_block(tmp_path):
    # a chunk holds 4096 x 13 block sums at K = 1e6 and the drift row its 13
    # block variances are summed from; one value per k, 4096 x 442413, was
    # over the budget
    argv = ["event", "--kind", "G", "--K", "1e6", "--r", "1", "--samples", "4096",
            "--seed", "3"]
    texts = []
    for workers in ("1", "2"):
        code, text = run_csv(tmp_path, f"event{workers}", argv + ["--workers", workers])
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]


def test_single_angle_event_reads_no_theta(tmp_path):
    # Re(X(k) e^{ik theta}) has the law of Re X(k), so every angle prints the
    # bytes of theta = 0 but for the theta column, which echoes the flag
    for argv in (["event", "--kind", "G", "--K", "400", "--r", "1"],
                 ["event", "--kind", "L", "--K", "1e4", "--r", "0.99"]):
        tables = set()
        for theta in ("0", "0.7", "-2.5"):
            code, text = run_csv(tmp_path, "event", argv + ["--theta", theta, "--A", "1,2",
                                                           "--samples", "3000", "--seed", "8"])
            assert code == 0
            rows = [line.split(",") for line in text.splitlines()]
            assert {row[3] for row in rows[1:]} == {str(float(theta))}
            tables.add(tuple(tuple(row[:3] + row[4:]) for row in rows))
        assert len(tables) == 1


def test_precondition_violation_exits_3(tmp_path):
    code = main(["event", "--kind", "G", "--K", "2", "--r", "1.0", "--A", "1.5",
                 "--samples", "200"])
    assert code == 3
    assert main(["sample", "--N", "4", "--K", "0"]) == 3
    assert main(["sample", "--N", "4", "--K", "nan"]) == 3
    assert main(["moment", "--N", "-3"]) == 3
    for x in ("inf", "nan", "1e12"):
        assert main(["steinhaus", "--x", x, "--samples", "10"]) == 3
    assert main(["ff", "--mode", "moment", "--q", "7", "--N", "-1",
                 "--samples", "10"]) == 3
    for samples in ("0", "1"):
        assert main(["steinhaus", "--samples", samples]) == 3
        assert main(["ff", "--mode", "moment", "--q", "3", "--N", "2",
                     "--samples", samples]) == 3
        assert main(["event", "--K", "20", "--r", "1", "--samples", samples]) == 3
        assert main(["com-check", "--samples-left", samples]) == 3
        assert main(["com-check", "--samples-right", samples]) == 3
    assert main(["event", "--K", "inf", "--r", "1"]) == 3
    assert main(["event", "--kind", "L", "--K", "nan", "--r", "0.99"]) == 3
    assert main(["com-check", "--K", "inf"]) == 3
    blocks = ["blocks", "--r", "0.98", "--theta", "0.5"]
    for flags in (["--K", "0.5"], ["--K", "0"], ["--K", "nan"], ["--m-max", "-2"],
                  ["--m-max", "0"]):
        assert main(blocks + flags) == 3
    assert main(["blocks", "--r", "0.5", "--theta", "0.5"]) == 3  # K_r < 1
    for theta in ("inf", "nan"):
        assert main(["blocks", "--r", "0.98", "--theta", theta]) == 3
    for power in ("nan", "inf", "1e308"):  # 1e308: |S|**power overflows
        assert main(["steinhaus", "--power", power, "--samples", "10"]) == 3
    for degree in ("-1", "-2", "-3"):  # -2 and -3 reached numpy's negative dimensions
        assert main(["series-selftest", "--degree", degree]) == 3
    assert main(["moment", "--N", "0", "--q", "0.5", "--samples", "2"]) == 3
    huge_q = str(10**18 + 3)
    assert main(["ff", "--mode", "series", "--N", "0", "--q", huge_q]) == 3
    assert main(["ff", "--mode", "counts", "--q", huge_q]) == 3
    # NaN, inf and huge angles printed p_hat 0.0; 1e308 * k overflows to inf
    for theta in ("nan", "inf", "1e308"):
        assert main(["event", "--K", "1000", "--r", "1", "--theta", theta,
                     "--samples", "100"]) == 3
    # a huge angle made blocks print rho nan and fail bounds that are theorems
    assert main(["blocks", "--r", "0.98", "--theta", "1e308", "--m-max", "4",
                 "--check"]) == 3
    # the all-angle event reads no --theta, so it refuses one instead of printing it
    for theta in ("nan", "0.5"):
        assert main(["event", "--all-angles", "--K", "20", "--r", "1", "--theta", theta,
                     "--samples", "4"]) == 3
    assert main(["ballot", "--variance", "nan", "--samples", "100"]) == 3
    assert main(["decay", "--n-grid", ",", "--samples-per", ","]) == 3
    for flags in (["--grid-points", "0"], ["--grid-points", "-5"], ["--sigma1", "1e308"],
                  ["--sigma2", "-2"], ["--span", "nan"]):
        assert main(["bivariate"] + flags) == 3
    assert main(["moment", "--N", "8", "--q", "1e308", "--samples", "4"]) == 3


def test_over_budget_draws_exit_3_quickly():
    # refused before the (rows, width) block of draws is allocated; the
    # ballot's chunk is checked before its O(n) level and variance setup,
    # and a chaos degree before its N + 1 inputs are drawn; the quadratic
    # recurrence before its first step, and the exp circle before its buffer;
    # the F_q[t] tree's rows of every degree <= N before it is built; the
    # trial divisions, the partition cap, the widest block and the
    # bivariate draws before the first of them
    for argv, limit in ((["event", "--K", "1e8", "--r", "1"], 5.0),
                        (["com-check", "--K", "1e9"], 1.0),
                        (["ballot", "--n-grid", "100000000"], 5.0),
                        (["ballot", "--n-grid", "10000000"], 1.0),
                        (["moment", "--N", "100000000"], 5.0),
                        (["sample", "--N", "100000000"], 5.0),
                        (["decay", "--n-grid", "100000000", "--samples-per", "2"], 5.0),
                        (["series-selftest", "--degree", "100000000"], 5.0),
                        (["series-selftest", "--degree", "200000"], 5.0),
                        (["moment", "--N", "5000000", "--samples", "2"], 5.0),
                        (["sample", "--N", "5000000"], 5.0),
                        (["ff", "--mode", "moment", "--q", "2", "--N", "23",
                          "--samples", "3"], 1.0),
                        (["ff", "--mode", "series", "--q", "2", "--N", "23"], 1.0),
                        (["ff", "--mode", "counts", "--q", "2", "--n-max", "100000"], 1.0),
                        (["mass", "--N-max", "41"], 1.0),
                        (["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "30"], 1.0),
                        (["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "1000"], 1.0),
                        (["bivariate", "--grid-points", "100000000"], 1.0),
                        (["bivariate", "--grid-points", "1000000000"], 1.0)):
        tracemalloc.start()
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert code == 3
        assert elapsed < limit
        assert peak < 16 * 2**20


def test_many_barrier_heights_run_within_their_budget(tmp_path, capsys):
    # survival is folded one checkpoint at a time into (rows, heights) flags,
    # and the ballot tests each walk's maximum, so 300 heights hold no
    # (rows, heights, steps) block; the (samples, heights) indicators are
    # budgeted before any draw (167 heights at the default 100000 samples)
    heights = ",".join(str(1.0 + i / 10) for i in range(300))
    tracemalloc.start()
    try:
        code = main(["ballot", "--a-grid", heights, "--n-grid", "256", "--samples", "4096",
                     "--seed", "5", "--out", str(tmp_path / "ballot.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20
    capsys.readouterr()
    heights = ",".join(str(1.0 + i / 100) for i in range(3000))
    start = time.perf_counter()
    assert main(["event", "--K", "1000", "--r", "1", "--A", heights,
                 "--samples", "100000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "100000 x 3000 block exceeds the budget" in capsys.readouterr().err


def test_event_at_the_height_budget_holds_one_byte_per_indicator(capsys):
    # 167 heights at 100000 samples is inside the budget; the kernels return
    # bool flags, so the gathered (samples, heights) indicators take 16.7 MB
    # and each height's column is cast to float on its own
    heights = ",".join(str(1.0 + i / 10) for i in range(167))
    tracemalloc.start()
    try:
        code = main(["event", "--K", "20", "--r", "1", "--A", heights,
                     "--samples", "100000", "--seed", "7"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 168
    assert peak < 64 * 2**20


def test_a_worker_count_below_1_exits_2(tmp_path, capsys):
    # --workers 0 and -3 used to run, and the manifest recorded workers: -3
    for workers in ("0", "-3"):
        for argv in (["--workers", workers], ["--config", _config(tmp_path, {"workers": workers})]):
            capsys.readouterr()
            assert main(["moment", "--N", "4", "--samples", "3"] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--workers" in captured.err
    assert main(["moment", "--N", "4", "--samples", "3", "--workers", "1"]) == 0


def test_bad_configuration_exits_2(tmp_path, capsys):
    assert main(["moment"]) == 2  # --N is required
    assert main(["decay", "--n-grid", "abc", "--samples-per", "10"]) == 2
    assert main(["bivariate", "--seed", "-1"]) == 2
    for argv in (["sample", "--N", "4"], ["moment", "--N", "4"], ["decay"]):
        assert main(argv + ["--engine", "auto"]) == 2
    # config values that argparse refuses as flags, and files that hold no
    # JSON object; each raised a traceback (for "xml", in write_table)
    for values in ({"N": 8.0}, {"N": True}, {"N": "8", "samples": 2.5}, [{"a": 1}], 5,
                   [], "x", None, {"N": 8, "format": "xml"}, {"N": 8, "seed": 1e3}):
        capsys.readouterr()
        assert main(["moment", "--config", _config(tmp_path, values)]) == 2, values
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err
    (tmp_path / "cfg.json").write_text("{")
    assert main(["moment", "--config", str(tmp_path / "cfg.json")]) == 2
    assert main(["moment", "--config", str(tmp_path / "missing.json")]) == 2
    # unwritable outputs raised OSError tracebacks; a refused run writes
    # nothing, neither to stdout nor a table or sidecar before the plot
    missing = tmp_path / "missing"
    table = tmp_path / "a.csv"
    for flags in (["--out", str(tmp_path)], ["--out", str(missing / "x.csv")],
                  ["--format", "json", "--out", str(missing / "x.json")],
                  ["--plot", str(missing / "x")],
                  ["--out", str(table), "--plot", str(missing / "x")]):
        capsys.readouterr()
        assert main(["mass", "--N-max", "4"] + flags) == 2, flags
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""
    assert not table.exists()
    assert not (tmp_path / "a.csv.manifest.json").exists()


def test_failed_check_exits_4(tmp_path):
    # an intentionally unreachable band turns a healthy run into a failure
    code, text = run_csv(tmp_path, "ballot",
                         ["ballot", "--a-grid", "1", "--n-grid", "16",
                          "--samples", "2000", "--band-lo", "4.999",
                          "--band-hi", "5.0", "--check"])
    assert code == 4
    assert text.splitlines()[0] == GOLDEN_HEADERS["ballot"]


def test_steinhaus_run(tmp_path):
    code, text = run_csv(tmp_path, "st",
                         ["steinhaus", "--x", "30", "--samples", "500",
                          "--seed", "11", "--check"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == GOLDEN_HEADERS["steinhaus"]
    assert lines[1].split(",")[5] == "30.0"


def test_steinhaus_compensated_column(tmp_path):
    # informational: desk-scale x cannot resolve the decay, so the
    # compensated values E|S(x)| (log log x)^{1/4}/sqrt(x) are recorded and
    # only sanity-bounded; at x <= e the double log is not positive
    for x, samples in (("1000", "400"), ("10000", "200"), ("2", "100")):
        code, text = run_csv(tmp_path, "st" + x,
                             ["steinhaus", "--x", x, "--power", "1", "--samples",
                              samples, "--seed", "8"])
        assert code == 0
        row = text.splitlines()[1].split(",")
        mean, comp = float(row[3]), float(row[6])
        assert 0.0 < mean < float(x)
        if x == "2":
            assert math.isnan(comp)
        else:
            assert 0.05 < comp < 5.0


def test_ff_counts_check(tmp_path):
    code, text = run_csv(tmp_path, "ff",
                         ["ff", "--mode", "counts", "--q", "2", "--n-max", "6",
                          "--check"])
    assert code == 0
    assert text.splitlines()[0] == "q,n,count_mobius,count_brute,equal"


def test_ff_counts_over_budget_exits_3_quickly(tmp_path):
    start = time.perf_counter()
    code, _ = run_csv(tmp_path, "ffc",
                      ["ff", "--mode", "counts", "--q", "2", "--n-max", "30"])
    assert code == 3
    assert time.perf_counter() - start < 5.0


def test_ff_prime_power_runs(tmp_path):
    code, text = run_csv(tmp_path, "ffq4",
                         ["ff", "--mode", "moment", "--q", "4", "--N", "3",
                          "--samples", "50"])
    assert code == 0
    assert text.splitlines()[1].startswith("4,3,50,")
    code, _ = run_csv(tmp_path, "ffq4s",
                      ["ff", "--mode", "series", "--q", "4", "--N", "4", "--check"])
    assert code == 0


def test_ff_series_check(tmp_path):
    code, _ = run_csv(tmp_path, "ffs",
                      ["ff", "--mode", "series", "--q", "3", "--N", "5",
                       "--seed", "9", "--check"])
    assert code == 0


def test_series_selftest(tmp_path):
    code, text = run_csv(tmp_path, "self",
                         ["series-selftest", "--degree", "256", "--check"])
    assert code == 0
    assert "exp_engines_agree" in text


def test_sample_deterministic(tmp_path):
    argv = ["sample", "--N", "12", "--seed", "31"]
    _, a = run_csv(tmp_path, "s1", argv)
    _, b = run_csv(tmp_path, "s2", argv)
    assert a == b
    assert a.splitlines()[1] == "0,1.0,0.0"
    # K at or above N (infinity included) is the untruncated model
    _, c = run_csv(tmp_path, "s3", argv + ["--K", "inf"])
    assert c == a


def test_sample_of_degree_zero_is_one(tmp_path):
    # --K defaults to max(N, 1), so N = 0 samples the constant coefficient
    code, text = run_csv(tmp_path, "s0", ["sample", "--N", "0"])
    assert code == 0
    assert text.splitlines() == ["n,re,im", "0,1.0,0.0"]


# CLI fuzz: finite, non-finite, negative and huge flag values. Every case
# runs or exits 2/3 (4 cannot occur without --check), prints no traceback,
# and stays within a time and a traced-memory bound. In-budget sizes are
# kept small (x <= 3e4 or 1e6; q <= 9 with N <= 6 or 10, at most 1.4M tree
# rows) so the suite stays quick.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1e308",
                                    "-1e308", "1e-320", "abc"]))
SAMPLES = st.integers(-1, 8).map(str)


def _fuzz_case(argv, limit=10.0):
    # a RuntimeWarning (overflow, invalid value) marks an input that silently
    # turned into inf or NaN, so it fails the case
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--workers", "1"])
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert elapsed < limit
    assert peak < 256 * 2**20


@FUZZ
@given(x=st.one_of(st.floats(max_value=3e4).map(repr),
                   st.sampled_from(["1e6", "1000000.5", "1000001", "1e12"]), FLOATS),
       power=FLOATS, samples=SAMPLES)
def test_fuzz_steinhaus(x, power, samples):
    _fuzz_case(["steinhaus", "--x", x, "--power", power, "--samples", samples])


@FUZZ
@given(mode=st.sampled_from(["moment", "series"]),
       q=st.one_of(st.integers(-3, 9).map(str),
                   st.sampled_from([str(10**12 + 39), str(10**18 + 3), str(2**64),
                                    str(10**30), "nan", "inf", "1.5"])),
       N=st.one_of(st.integers(-3, 6).map(str),
                   st.sampled_from(["10", "23", str(10**9), str(10**30), str(-10**9),
                                    "nan", "-inf"])),
       samples=SAMPLES)
def test_fuzz_ff(mode, q, N, samples):
    _fuzz_case(["ff", "--mode", mode, "--q", q, "--N", N, "--samples", samples])



# The other subcommands, with every numeric flag passed as --flag=value so
# that negative and non-finite values reach the program rather than argparse.
# Each flag is valid three times in four (None keeps its default), so that
# runs get past the first check. Sizes that are in budget stay small
# (degree <= 1500, K <= 3e4, blocks m <= 12, 10^4 grid points, samples <= 8
# or 300 for the ballot): the budgets bound values, not the kernels'
# temporaries, which reach 362 MiB (traced) for an all-angle event at K = e^12
# with 8 samples.
SIZES = st.one_of(st.integers(-3, 12).map(str),
                  st.sampled_from([str(10**9), str(10**30), str(-10**9), "nan", "1.5"]))
SMALL_FLOATS = st.one_of(st.floats(-5.0, 3e4).map(repr), FLOATS)
FUZZ_FAST = settings(FUZZ, max_examples=30)


def _mostly(valid, bad):
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else valid)


def _grid(items):
    return st.lists(items, max_size=3).map(",".join)


def _fuzz_flags(sub, **flags):
    argv = [sub] + [f"--{name.replace('_', '-')}={value}" for name, value in flags.items()
                    if value is not None]
    _fuzz_case(argv)


@FUZZ_FAST
@given(N=_mostly(st.integers(0, 64).map(str),
                 st.one_of(SIZES, st.sampled_from(["1500", str(10**9)]))),
       K=_mostly(st.one_of(st.none(), st.floats(1.0, 100.0).map(repr)), FLOATS))
def test_fuzz_sample(N, K):
    _fuzz_flags("sample", N=N, K=K)


@FUZZ_FAST
@given(N=_mostly(st.integers(1, 64).map(str), SIZES),
       q=_mostly(st.floats(0.0, 1.0).map(repr), FLOATS),
       samples=_mostly(st.integers(2, 8).map(str), SAMPLES))
def test_fuzz_moment(N, q, samples):
    _fuzz_flags("moment", N=N, q=q, samples=samples)


@FUZZ_FAST
@given(grids=_mostly(st.sampled_from([("16", "4"), ("16,32", "3,3"), ("2,8,40", "2,2,2")]),
                     st.tuples(_grid(st.one_of(st.integers(-3, 40).map(str), SIZES)),
                               _grid(SAMPLES))),
       band_from=_mostly(st.none(), SIZES), band_max=_mostly(st.none(), FLOATS))
def test_fuzz_decay(grids, band_from, band_max):
    _fuzz_flags("decay", n_grid=grids[0], samples_per=grids[1], band_from=band_from,
                band_max=band_max)


@FUZZ_FAST
@given(degree=_mostly(st.one_of(st.integers(0, 300).map(str), st.just("1500")), SIZES))
def test_fuzz_series_selftest(degree):
    _fuzz_flags("series-selftest", degree=degree)


@FUZZ_FAST
@given(N_max=_mostly(st.integers(0, 40).map(str), SIZES))
def test_fuzz_mass(N_max):
    _fuzz_flags("mass", N_max=N_max)


@FUZZ_FAST
@given(a_grid=_mostly(st.sampled_from(["1", "1,2.5"]), _grid(FLOATS)),
       n_grid=_mostly(st.sampled_from(["16", "4,64"]),
                      _grid(st.one_of(st.integers(-3, 64).map(str), SIZES))),
       variance=_mostly(st.floats(0.05, 20.0).map(repr), FLOATS),
       band_lo=_mostly(st.none(), FLOATS), band_hi=_mostly(st.none(), FLOATS),
       samples=_mostly(st.integers(100, 300).map(str), SAMPLES))
def test_fuzz_ballot(a_grid, n_grid, variance, band_lo, band_hi, samples):
    _fuzz_flags("ballot", a_grid=a_grid, n_grid=n_grid, variance=variance, band_lo=band_lo,
                band_hi=band_hi, samples=samples)


@FUZZ
@given(event=_mostly(st.sampled_from([("G", "3", "1"), ("G", "400", "1"),
                                      ("L", "100", "0.98"), ("L", "1000", "0.99")]),
                     st.tuples(st.sampled_from(["G", "L"]),
                               st.one_of(SMALL_FLOATS, st.sampled_from(["1e7", "1e300"])),
                               st.one_of(st.sampled_from(["1", "1.0001", "0.99"]), FLOATS))),
       all_angles=st.booleans(), A=_mostly(st.sampled_from(["1", "1,2,4"]), _grid(FLOATS)),
       theta=_mostly(st.floats(-10.0, 10.0).map(repr), FLOATS),
       samples=_mostly(st.integers(2, 8).map(str), SAMPLES))
def test_fuzz_event(event, all_angles, A, theta, samples):
    kind, K, r = event
    argv = ["event"] + (["--all-angles"] if all_angles else [])
    _fuzz_case(argv + [f"--kind={kind}", f"--K={K}", f"--r={r}", f"--A={A}",
                       f"--theta={theta}", f"--samples={samples}"])


@FUZZ_FAST
@given(K=_mostly(st.sampled_from(["3", "8", "20"]),
                 st.one_of(SMALL_FLOATS, st.sampled_from(["1e9"]))),
       r=_mostly(st.just("1"), FLOATS), A=_mostly(st.floats(1.0, 4.0).map(repr), FLOATS),
       samples_left=_mostly(st.integers(2, 8).map(str), SAMPLES),
       samples_right=_mostly(st.integers(2, 8).map(str), SAMPLES))
def test_fuzz_com_check(K, r, A, samples_left, samples_right):
    _fuzz_flags("com-check", K=K, r=r, A=A, samples_left=samples_left,
                samples_right=samples_right)


@FUZZ
@given(r=_mostly(st.floats(0.5, 0.999).map(repr), FLOATS),
       theta=_mostly(st.floats(-10.0, 10.0).map(repr), FLOATS),
       K=_mostly(st.none(), FLOATS),
       m_max=_mostly(st.integers(1, 12).map(str),
                     st.one_of(st.integers(-3, 0).map(str),
                               st.sampled_from(["18", "30", "1000", str(10**9)]))))
def test_fuzz_blocks(r, theta, K, m_max):
    _fuzz_flags("blocks", r=r, theta=theta, K=K, m_max=m_max)


@FUZZ_FAST
@given(rho_grid=_mostly(st.none(), _grid(FLOATS)), mu1=_mostly(st.none(), FLOATS),
       mu2=_mostly(st.none(), FLOATS), sigma1=_mostly(st.none(), FLOATS),
       sigma2=_mostly(st.none(), FLOATS), span=_mostly(st.none(), FLOATS),
       grid_points=_mostly(st.integers(1, 10**4).map(str), SIZES))
def test_fuzz_bivariate(rho_grid, mu1, mu2, sigma1, sigma2, span, grid_points):
    _fuzz_flags("bivariate", rho_grid=rho_grid, mu1=mu1, mu2=mu2, sigma1=sigma1,
                sigma2=sigma2, span=span, grid_points=grid_points)


@FUZZ_FAST
@given(q=_mostly(st.sampled_from(["2", "3", "5", "7"]), st.one_of(st.integers(-3, 9).map(str),
                                                              SIZES)),
       n_max=_mostly(st.integers(1, 4).map(str), SIZES))
def test_fuzz_ff_counts(q, n_max):
    _fuzz_flags("ff", mode="counts", q=q, n_max=n_max)


# Config-file fuzz: keys are the subcommand's option names plus unknown ones,
# values are JSON of every type, and some files hold no JSON object at all.
# Every file runs or exits 2/3/4 with no traceback; the values parse as flag
# text, so argparse checks their types and choices. The run happens in a
# scratch directory, since a string value may name an --out or --plot file.
# Event runs take --samples=8 after the file, as a null or absent samples
# would run the default 100000 replicates; it also covers precedence.
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 64),
                         st.sampled_from([1e3, 8.0, 0.5, -1.0, 1e308, math.nan, math.inf]),
                         st.sampled_from(["", "x", "1", "1,2", "..", "-1", "nan", "csv",
                                          "json", "xml", "G", "L"]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(st.sampled_from(["a", "N"]), inner,
                                                 max_size=2)), max_leaves=4)


def _config_files(sub, base):
    dests = sorted(set(vars(build_parser().parse_args([sub]))) - {"func", "command"})
    keys = _mostly(st.sampled_from(dests),
                   st.sampled_from(["bogus", "engine", "all-angles", "n_grid"]))
    values = _mostly(st.one_of(st.none(), st.booleans(), st.integers(0, 12)), JSON_VALUES)
    objects = st.dictionaries(keys, values, max_size=3).map(lambda d: {**base, **d})
    return st.one_of(objects, st.sampled_from([[], 5, "x", None, [{"a": 1}]]))


def _fuzz_config(tmp_path_factory, sub, values, flags=()):
    scratch = tmp_path_factory.mktemp("config")
    (scratch / "cfg.json").write_text(json.dumps(values))
    cwd = os.getcwd()
    os.chdir(scratch)
    try:
        _fuzz_case([sub, "--config", "cfg.json", *flags])
    finally:
        os.chdir(cwd)


@FUZZ_FAST
@given(values=_config_files("moment", {"N": 8}))
def test_fuzz_moment_config(tmp_path_factory, values):
    _fuzz_config(tmp_path_factory, "moment", values)


@FUZZ_FAST
@given(values=_config_files("event", {"K": 20, "r": 1}))
def test_fuzz_event_config(tmp_path_factory, values):
    _fuzz_config(tmp_path_factory, "event", values, ["--samples=8"])
