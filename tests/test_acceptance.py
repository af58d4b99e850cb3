"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
from fractions import Fraction

import numpy as np

from conftest import FixedStream
from hmchaos import barrier, chaos, numbermodels, partitions
from hmchaos.cli import main
from hmchaos.rng import Seed, Stream, split
from hmchaos.series import exp_array

SEED = Seed(20260809)


def report(tag: str, ok: bool, detail: str = ""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_exact_mass_identity():
    bad = [n for n in range(1, 26) if partitions.exact_total_mass(n) != Fraction(1)]
    report("C01 exact-mass N<=25", not bad, f"violations: {bad}")


def test_c02_mc_second_moment():
    ok, details = True, []
    for n, samples in ((64, 20000), (512, 5000), (4096, 1000)):
        est = chaos.estimate_moment(n, 1.0, samples, split(SEED, n))
        z = (est.mean - 1.0) / est.std_error
        ok &= abs(est.mean - 1.0) <= 4.0 * est.std_error
        details.append(f"N={n}: {est.mean:.4f}+-{est.std_error:.4f} (z={z:+.2f})")
    report("C02 second-moment 4se", ok, "; ".join(details))


def test_c03_first_moment_decay():
    grid = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
    counts = [20000, 16000, 12000, 8000, 5000, 3500, 2200, 1400, 800, 500]
    ests = chaos.fit_decay_band(grid, counts, split(SEED, 3))
    monotone = True
    for prev, cur in zip(ests, ests[1:]):
        slack = 2.0 * math.hypot(prev.std_error, cur.std_error)
        monotone &= cur.mean <= prev.mean + slack
    # E|A| <= sqrt(E|A|^2) = 1 up to noise, at every grid point
    bounded = all(est.mean <= 1.0 + 4.0 * est.std_error for est in ests)
    comps = [est.mean * math.log(n) ** 0.25 for n, est in zip(grid, ests) if n >= 64]
    ratio = max(comps) / min(comps)
    means = ", ".join(f"{n}:{est.mean:.4f}" for n, est in zip(grid, ests))
    report("C03 decay monotone + band<=3", monotone and bounded and ratio <= 3.0,
           f"band ratio {ratio:.3f}; {means}")


def test_c04_theorem_shape_in_q():
    n, samples = 1024, 3000
    compensated = []
    for q in (0.5, 0.75, 1.0):
        est = chaos.estimate_moment(n, q, samples, split(SEED, 4))
        compensated.append(est.mean * chaos.theorem_band_factor(n, q))
    ratio = max(compensated) / min(compensated)
    report("C04 moment-shape band<=3", ratio <= 3.0,
           f"compensated {[f'{c:.3f}' for c in compensated]}, ratio {ratio:.3f}")


def test_c05_circle_mean_two_routes():
    direct = chaos.circle_mean_mc(8.0, 1.0, 100000, split(SEED, 50))
    target = chaos.circle_mean_closed_form(8.0, 1.0)
    ok1 = abs(direct.mean - target) <= 5.0 * direct.std_error
    parseval = chaos.circle_average_moment(64.0, 0.95, 10000, split(SEED, 51))
    target2 = chaos.circle_mean_closed_form(64.0, 0.95)
    ok2 = abs(parseval.mean - target2) <= 4.0 * parseval.std_error
    report("C05 circle-mean closed form", ok1 and ok2,
           f"direct {direct.mean:.2f} vs {target:.2f} (5se {5*direct.std_error:.2f}); "
           f"parseval {parseval.mean:.2f} vs {target2:.2f} "
           f"(4se {4*parseval.std_error:.2f})")


def test_c06_ballot_band():
    ok, details = True, []
    for n in (16, 64, 256):
        survival = []
        for i, a in enumerate((1.0, 2.0, 4.0)):
            est = barrier.ballot_probability_mc([a], [1.0] * n, 100000,
                                                split(SEED, 600 + 10 * n + i))[0]
            ratio = est.mean / barrier.ballot_scale(a, n)
            ok &= 0.2 <= ratio <= 5.0
            survival.append(est.mean)
            details.append(f"a={a:.0f},n={n}: {ratio:.2f}")
        ok &= survival[0] <= survival[1] <= survival[2]
    report("C06 ballot band + monotone", ok, "; ".join(details))


def test_c07_change_of_measure():
    left, right = barrier.change_of_measure_check(20.0, 1.0, 2.0, 100000,
                                                  1000000, split(SEED, 7))
    combined = math.hypot(left.std_error, right.std_error)
    gap = abs(left.mean - right.mean)
    report("C07 change-of-measure 5se", gap <= 5.0 * combined,
           f"left {left.mean:.3f} right {right.mean:.3f} gap {gap:.3f} "
           f"5se {5*combined:.3f}")


def test_c08_covariance_bounds():
    ok, worst = True, 0.0
    for r in (0.98, math.exp(-1.0 / 40.0)):
        for theta in (0.1, 0.5, math.pi / 2.0, math.pi):
            blocks = barrier.block_stats(r, theta, 1e6, m_max=8)
            for m in range(2, 9):
                gap = abs(blocks.covariance(m)) - blocks.covariance_bound(m)
                worst = max(worst, gap)
                ok &= gap <= 1e-12
                if math.e**m <= blocks.K_r:
                    lo, hi = blocks.variance_bounds(m)
                    s2 = float(blocks.sigma2[m - 1])
                    ok &= lo - 1e-12 <= s2 <= hi + 1e-12
    report("C08 block variance/covariance bounds", ok, f"worst slack {worst:.2e}")


def test_c09_bivariate_domination():
    rng = np.random.Generator(np.random.Philox(key=np.array([99, 0],
                                                            dtype=np.uint64)))
    ok, worst_gap, worst_norm = True, -np.inf, 0.0
    for rho in (0.05, -0.05, 0.3, -0.3):
        params = barrier.BivariateParams(0.0, 0.0, 1.0, 2.25, rho)
        x1 = 10.0 * (2.0 * rng.random(10000) - 1.0)
        x2 = 14.0 * (2.0 * rng.random(10000) - 1.0)
        gap = float(np.max(barrier.bivariate_density(params, x1, x2)
                           - barrier.dominating_density(params, x1, x2)))
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-12
        grid = np.linspace(-8.0, 8.0, 400)
        xx, yy = np.meshgrid(grid * 1.0, grid * 1.5)
        cell = (grid[1] - grid[0]) ** 2 * 1.5
        total = float(np.sum(barrier.bivariate_density(params, xx, yy)) * cell)
        worst_norm = max(worst_norm, abs(total - 1.0))
        ok &= abs(total - 1.0) <= 1e-6
    report("C09 bivariate domination + normalization", ok,
           f"max gap {worst_gap:.2e}, max norm err {worst_norm:.2e}")


def test_c10_steinhaus_variance():
    est = numbermodels.steinhaus_abs_moment(100.0, 2.0, 10000, split(SEED, 10))
    z = (est.mean - 100.0) / est.std_error
    report("C10 steinhaus variance 4se", abs(est.mean - 100.0) <= 4.0 * est.std_error,
           f"{est.mean:.2f}+-{est.std_error:.2f} vs 100 (z={z:+.2f})")


def test_c11_function_field():
    counts_ok = all(
        numbermodels.count_irreducibles(q, n)
        == len(numbermodels.irreducibles_by_degree(q, n)[n])
        for q in (2, 3) for n in range(1, 9))
    est = numbermodels.ff_second_moment(7, 5, 2000, split(SEED, 11))
    moment_ok = abs(est.mean - 1.0) <= 4.0 * est.std_error
    worst = 0.0
    for n_top in range(1, 7):
        model = numbermodels.FFModel(5, n_top, Stream(split(SEED, 110 + n_top)))
        direct = np.array([model.A(n) for n in range(n_top + 1)])
        worst = max(worst, float(np.max(np.abs(
            model.gaussian_exp_series(n_top) - direct))))
    identity_ok = worst <= 1e-9
    report("C11 function-field", counts_ok and moment_ok and identity_ok,
           f"counts {counts_ok}; |A|^2 {est.mean:.3f}+-{est.std_error:.3f}; "
           f"exp-identity err {worst:.2e}")


def test_c12_oracle_equivalences():
    x = Stream(split(SEED, 12)).draw(4096)
    s = np.zeros(4097, dtype=complex)
    s[1:] = x / np.sqrt(np.arange(1, 4097))
    engines_err = float(np.max(np.abs(exp_array(s, 4096, "recurrence")
                                      - exp_array(s, 4096, "auto"))))
    engines_ok = engines_err <= 1e-9

    partition_ok = True
    for n in range(1, 11):
        values = Stream(split(SEED, 120 + n)).draw(n)
        x_map = {k: values[k - 1] for k in range(1, n + 1)}
        by_parts = sum(partitions.a_of_partition(p, x_map)
                       for p in partitions.enumerate_partitions(n))
        sampled = chaos.sample_A(n, float(n), FixedStream(values))[n]
        partition_ok &= abs(by_parts - sampled) <= 1e-10

    reconstruct_ok = True
    for n in (8, 12):
        for depth in (1, 2, 3):
            values = Stream(split(SEED, 130 + n + depth)).draw(n)
            x_map = {k: values[k - 1] for k in range(1, n + 1)}
            _, _, total = partitions.reconstruct_A_by_largest_part(n, depth, x_map)
            sampled = chaos.sample_A(n, float(n), FixedStream(values))[n]
            reconstruct_ok &= abs(total - sampled) <= 1e-10

    report("C12 oracle equivalences", engines_ok and partition_ok and reconstruct_ok,
           f"engines err {engines_err:.2e}; partition route {partition_ok}; "
           f"largest-part route {reconstruct_ok}")


def test_c13_determinism(tmp_path):
    first = chaos.estimate_moment(64, 1.0, 500, split(SEED, 13), workers=1)
    second = chaos.estimate_moment(64, 1.0, 500, split(SEED, 13), workers=1)
    parallel = chaos.estimate_moment(64, 1.0, 500, split(SEED, 13), workers=4)
    in_process_ok = (first == second and first.mean == parallel.mean
                     and first.std_error == parallel.std_error)

    argv = ["moment", "--N", "32", "--q", "1", "--samples", "300", "--seed", "99"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(out2)]) == 0
    cli_ok = out1.read_text() == out2.read_text()
    report("C13 determinism across runs/workers", in_process_ok and cli_ok)
