import json

from hmchaos.cli import main

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


def test_manifest_sidecar_written(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["moment", "--N", "8", "--samples", "200", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["seed"] == "5"
    assert "config_sha256" in manifest and "numpy_version" in manifest


def test_json_format_embeds_manifest(tmp_path):
    out = tmp_path / "run.json"
    code = main(["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "4",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "m"
    assert doc["manifest"]["config"]["r"] == "0.98"
    assert len(doc["rows"]) == 4


def test_blocks_check_passes(tmp_path):
    code, text = run_csv(tmp_path, "blocks",
                         ["blocks", "--r", "0.98", "--theta", "0.5",
                          "--m-max", "8", "--check"])
    assert code == 0
    assert text.splitlines()[0] == GOLDEN_HEADERS["blocks"]


def test_bivariate_check_passes(tmp_path):
    code, _ = run_csv(tmp_path, "biv", ["bivariate", "--check"])
    assert code == 0


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
    assert text.splitlines()[0] == GOLDEN_HEADERS["moment"]


def test_com_check_command(tmp_path):
    code, text = run_csv(tmp_path, "com",
                         ["com-check", "--K", "8", "--A", "2",
                          "--samples-left", "20000", "--samples-right", "50000",
                          "--seed", "6", "--check"])
    assert code == 0
    header = text.splitlines()[0]
    assert header == ("K,r,A,samples_left,samples_right,left_mean,left_se,"
                      "right_mean,right_se,combined_se,agree_5se")


def test_precondition_violation_exits_3(tmp_path):
    code = main(["event", "--kind", "G", "--K", "2", "--r", "1.0", "--A", "1.5",
                 "--samples", "200"])
    assert code == 3
    assert main(["sample", "--N", "4", "--K", "0"]) == 3
    assert main(["sample", "--N", "4", "--K", "nan"]) == 3
    assert main(["moment", "--N", "-3"]) == 3


def test_bad_configuration_exits_2(tmp_path):
    assert main(["moment"]) == 2  # --N is required
    assert main(["decay", "--n-grid", "abc", "--samples-per", "10"]) == 2
    assert main(["bivariate", "--seed", "-1"]) == 2
    for argv in (["sample", "--N", "4"], ["moment", "--N", "4"], ["decay"]):
        assert main(argv + ["--engine", "auto"]) == 2


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


def test_ff_counts_check(tmp_path):
    code, text = run_csv(tmp_path, "ff",
                         ["ff", "--mode", "counts", "--q", "2", "--n-max", "6",
                          "--check"])
    assert code == 0
    assert text.splitlines()[0] == "q,n,count_mobius,count_brute,equal"


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
