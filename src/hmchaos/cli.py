"""Reproducible experiment runner.

One subcommand per experiment family; every run is a pure function of its
flags (seeds included), emits one CSV/JSON table plus a manifest, and can
gate on its own verdict column with --check.

Exit codes: 0 success, 2 configuration error, 3 precondition violation,
4 check failure (only with --check).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import barrier, chaos, mc, numbermodels, partitions, report, series
from .errors import BudgetError, PreconditionError
from .rng import Seed, Stream, split

MOMENT_COLUMNS = ["N", "q", "samples", "mean", "std_error", "compensated", "seed"]
DEFAULT_BAND = (0.2, 5.0)


def _parse_grid(text, cast=float):
    return [cast(part) for part in text.split(",") if part]


def _require(args, *names):
    # required values may come from flags or a config file, so they are
    # validated here rather than by argparse
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError("missing required option(s): "
                         + ", ".join(f"--{n}" for n in missing))


def cmd_sample(args):
    _require(args, "N")
    stream = Stream(Seed(args.seed))
    K = args.K if args.K is not None else float(max(args.N, 1))
    coeffs = chaos.sample_A(args.N, K, stream)
    rows = [(n, float(coeffs[n].real), float(coeffs[n].imag)) for n in range(args.N + 1)]
    return ["n", "re", "im"], rows, []


def cmd_moment(args):
    _require(args, "N")
    band = chaos.theorem_band_factor(args.N, args.q)  # refuses N < 1 before sampling
    est = chaos.estimate_moment(args.N, args.q, args.samples, Seed(args.seed),
                                workers=args.workers)
    comp = est.mean * band
    rows = [(args.N, args.q, est.samples, est.mean, est.std_error, comp, str(est.seed))]
    # reference constant for lower-bound comparisons: E|Z|^{2q} of a unit
    # complex Gaussian; lands in the manifest next to the run config
    args._derived = {"gaussian_abs_moment_cq": chaos.gaussian_abs_moment(args.q)}
    checks = []
    if args.q == 1.0:
        checks.append(("second_moment_within_4se",
                       abs(est.mean - 1.0) <= 4.0 * est.std_error))
    return MOMENT_COLUMNS, rows, checks


def cmd_decay(args):
    grid = _parse_grid(args.n_grid, int)
    counts = _parse_grid(args.samples_per, int)
    ests = list(zip(grid, chaos.fit_decay_band(grid, counts, Seed(args.seed),
                                               workers=args.workers)))
    comps = [est.mean * math.log(n) ** 0.25 for n, est in ests]
    rows = [(n, 0.5, est.samples, est.mean, est.std_error, comp, str(est.seed))
            for (n, est), comp in zip(ests, comps)]
    checks = []
    for (n0, prev), (n1, cur) in zip(ests, ests[1:]):
        slack = 2.0 * math.hypot(prev.std_error, cur.std_error)
        checks.append((f"monotone_{n0}_to_{n1}", cur.mean <= prev.mean + slack))
    banded = [comp for n, comp in zip(grid, comps) if n >= args.band_from]
    if banded:
        checks.append(("compensated_band", max(banded) / min(banded) <= args.band_max))
    return MOMENT_COLUMNS, rows, checks


def cmd_mass(args):
    if args.N_max > partitions.ENUMERATION_CAP:  # before the tables below the cap
        raise BudgetError(f"--N-max is capped at {partitions.ENUMERATION_CAP}")
    rows, checks = [], []
    for n in range(1, args.N_max + 1):
        mass = partitions.exact_total_mass(n)
        rows.append((n, partitions.partition_count(n), mass))
        checks.append((f"mass_{n}", mass == 1))
    return ["N", "partitions", "total_mass"], rows, checks


def cmd_ballot(args):
    a_grid = _parse_grid(args.a_grid)
    n_grid = _parse_grid(args.n_grid, int)
    for n in n_grid:  # each chunk's (rows, n) draw, before any O(n) setup
        chaos.check_field_budget(min(args.samples, mc.CHUNK_SAMPLES), n)
    rows, checks = [], []
    root = Seed(args.seed)
    for j, n in enumerate(n_grid):
        # one set of draws per n serves every height
        ests = barrier.ballot_probability_mc(a_grid, [args.variance] * n, args.samples,
                                             split(root, j * len(a_grid)),
                                             workers=args.workers)
        for a, est in zip(a_grid, ests):
            ratio = est.mean / barrier.ballot_scale(a, n)
            in_band = args.band_lo <= ratio <= args.band_hi
            rows.append((a, n, est.samples, est.mean, est.std_error, ratio,
                         args.band_lo, args.band_hi, in_band))
            checks.append((f"band_a{a}_n{n}", in_band))
        by_height = [p for _, p in sorted((a, est.mean) for a, est in zip(a_grid, ests))]
        monotone = all(x <= y for x, y in zip(by_height, by_height[1:]))
        checks.append((f"monotone_in_a_n{n}", monotone))
    return ["a", "n", "samples", "p_hat", "std_error", "ratio", "band_lo",
            "band_hi", "in_band"], rows, checks


def cmd_event(args):
    _require(args, "K", "r")
    heights = _parse_grid(args.A)
    if args.all_angles:
        if args.kind != "G":
            raise PreconditionError("--all-angles is defined for the upper event only")
        kind = args.kind + "-grid"
        ests = barrier.event_G_all_angles_mc(args.K, args.r, heights, args.samples,
                                             split(Seed(args.seed), 0), workers=args.workers)
    else:
        kind = args.kind
        ests = barrier.event_probability_mc(args.kind, args.K, args.r, heights,
                                            args.samples, Seed(args.seed),
                                            workers=args.workers)
    # the rows are at angle 0, whose law every angle shares
    rows = [(kind, args.K, args.r, 0.0, a, est.samples, est.mean, est.std_error)
            for a, est in zip(heights, ests)]
    return ["kind", "K", "r", "theta", "A", "samples", "p_hat", "std_error"], rows, []


def cmd_com_check(args):
    left, right = barrier.change_of_measure_check(
        args.K, args.r, args.A, args.samples_left, args.samples_right,
        Seed(args.seed), workers=args.workers)
    combined = math.hypot(left.std_error, right.std_error)
    ok = abs(left.mean - right.mean) <= 5.0 * combined
    # (sum w)^2 / sum w^2 of the left side's weights, from their mean and SE
    n, m, se = left.samples, left.mean, left.std_error
    args._derived = {"left_ess": n * m * m / (m * m + (n - 1) * se * se) if m else 0.0}
    rows = [(args.K, args.r, args.A, left.samples, right.samples, left.mean,
             left.std_error, right.mean, right.std_error, combined, ok)]
    return ["K", "r", "A", "samples_left", "samples_right", "left_mean", "left_se",
            "right_mean", "right_se", "combined_se", "agree_5se"], rows, \
        [("change_of_measure_5se", ok)]


def cmd_blocks(args):
    _require(args, "r", "theta")
    blocks = barrier.block_stats(args.r, args.theta, args.K, m_max=args.m_max)
    rows, checks = [], []
    tol = 1e-12
    for m in range(1, blocks.m_max + 1):
        sigma2 = float(blocks.sigma2[m - 1])
        rho = float(blocks.rho[m - 1])
        cov = blocks.covariance(m)
        bound = blocks.covariance_bound(m)
        lo, hi = blocks.variance_bounds(m)
        in_horizon = math.e**m <= blocks.K_r
        sigma_ok = (not in_horizon) or (lo - tol <= sigma2 <= hi + tol)
        cov_ok = abs(cov) <= bound + tol
        rows.append((m, *barrier.block_bounds(m), sigma2, rho, cov, bound, in_horizon,
                     sigma_ok, cov_ok))
        if in_horizon:
            checks.append((f"variance_range_m{m}", sigma_ok))
        checks.append((f"covariance_bound_m{m}", cov_ok))
    return ["m", "k_lo", "k_hi", "sigma2", "rho", "cov", "cov_bound", "in_horizon",
            "sigma2_ok", "cov_ok"], rows, checks


def cmd_bivariate(args):
    if not (args.sigma1 > 0 and args.sigma2 > 0):  # NaN fails too
        raise PreconditionError("bivariate needs positive --sigma1, --sigma2")
    # x * x: x**2 raises OverflowError where the product is inf
    pairs = [barrier.BivariateParams(args.mu1, args.mu2, args.sigma1 * args.sigma1,
                                     args.sigma2 * args.sigma2, rho)
             for rho in _parse_grid(args.rho_grid)]
    # rounding keeps the normalization grid's standardized offsets within 3 x 8,
    # so its exponents stay finite; its ends |mu| + 8 sigma and the sum of its
    # 400^2 density peaks 1 / (2 pi s1 s2 sqrt(1 - rho^2)) are checked here
    bounds = [abs(args.mu1) + 8.0 * args.sigma1, abs(args.mu2) + 8.0 * args.sigma2]
    for p in pairs:
        bounds.append(400.0**2 / (2.0 * math.pi) / math.sqrt(p.sigma1_sq)
                      / math.sqrt(p.sigma2_sq) / math.sqrt(1.0 - p.rho**2))
    if not all(map(math.isfinite, bounds)):  # a NaN or infinite --mu too
        raise PreconditionError(f"bivariate needs finite --mu1, --mu2 and sigmas that keep "
                                f"the densities in the float range, got --mu1 {args.mu1} "
                                f"--mu2 {args.mu2} --sigma1 {args.sigma1} --sigma2 {args.sigma2}")
    grid = np.linspace(-8.0, 8.0, 400)  # the normalization grid, in sigmas
    for p in pairs:  # a ridge sqrt(1 - rho^2) sigmas wide falls between its points
        if math.sqrt(1.0 - p.rho**2) < grid[1] - grid[0]:
            raise ValueError(f"--rho-grid {p.rho}: the density's ridge, sqrt(1 - rho^2) "
                             f"sigmas wide, is narrower than the normalization grid's "
                             f"16/399 sigmas, so its integral is not resolved; "
                             f"use |rho| <= 0.9991")
    # in sigmas, both densities are the standardized pair's over s1 s2, and
    # majorant / density = exp(Q / 2), where Q's eigenvalue is 0 on the line
    # v = sign(rho) u (everywhere at rho = 0): the majorant is tight there, so
    # the gap is taken there
    line = np.linspace(-8.0, 8.0, 4001)
    density = np.empty((grid.size, grid.size))  # the normalization grid's values
    rows, checks = [], []
    for params in pairs:
        unit = barrier.BivariateParams(0.0, 0.0, 1.0, 1.0, params.rho)
        tight = np.sign(params.rho) * line
        gap = float(np.max(barrier.bivariate_density(unit, line, tight)
                           - barrier.dominating_density(unit, line, tight)))
        xv = args.mu1 + grid * args.sigma1
        yv = args.mu2 + grid * args.sigma2
        cell = (xv[1] - xv[0]) * (yv[1] - yv[0])
        # row slices of the grid broadcast (the meshgrid's values), one sum
        step = mc.SPAN_BLOCK // grid.size
        for lo in range(0, grid.size, step):
            density[lo : lo + step] = barrier.bivariate_density(params, xv, yv[lo : lo + step, None])
        total = float(np.sum(density) * cell)
        dominated = gap <= 1e-12
        normalized = abs(total - 1.0) <= 1e-6
        rows.append((params.rho, line.size, gap, total, dominated, normalized))
        checks.append((f"dominated_rho{params.rho}", dominated))
        checks.append((f"normalized_rho{params.rho}", normalized))
    return ["rho", "grid_points", "max_density_gap", "integral", "dominated",
            "normalized"], rows, checks


def cmd_steinhaus(args):
    est = numbermodels.steinhaus_abs_moment(args.x, args.power, args.samples,
                                            Seed(args.seed), workers=args.workers)
    target = float(math.floor(args.x)) if args.power == 2.0 else float("nan")
    comp = (est.mean * math.log(math.log(args.x)) ** 0.25 / math.sqrt(args.x)
            if args.power == 1.0 and args.x > math.e else float("nan"))
    rows = [(args.x, args.power, est.samples, est.mean, est.std_error, target,
             comp, str(est.seed))]
    checks = []
    if args.power == 2.0:
        checks.append(("variance_within_4se",
                       abs(est.mean - target) <= 4.0 * est.std_error))
    return ["x", "power", "samples", "mean", "std_error", "target", "compensated",
            "seed"], rows, checks


def cmd_ff(args):
    _require(args, "q")
    rows, checks = [], []
    if args.mode == "counts":
        columns = ["q", "n", "count_mobius", "count_brute", "equal"]
        # one budgeted enumeration up to n_max serves every row
        by_degree = numbermodels.irreducibles_by_degree(args.q, args.n_max)
        for n in range(1, args.n_max + 1):
            mobius = numbermodels.count_irreducibles(args.q, n)
            brute = len(by_degree[n])
            rows.append((args.q, n, mobius, brute, mobius == brute))
            checks.append((f"counts_n{n}", mobius == brute))
    elif args.mode == "moment":
        columns = ["q", "N", "samples", "mean", "std_error", "seed"]
        est = numbermodels.ff_second_moment(args.q, args.N, args.samples,
                                            Seed(args.seed), workers=args.workers)
        rows.append((args.q, args.N, est.samples, est.mean, est.std_error,
                     str(est.seed)))
        checks.append(("second_moment_within_4se",
                       abs(est.mean - 1.0) <= 4.0 * est.std_error))
    else:  # "series"; argparse's choices refuse any other mode
        columns = ["q", "N", "max_err_euler", "max_err_exp", "tol", "ok"]
        model = numbermodels.FFModel(args.q, args.N, Stream(Seed(args.seed)))
        direct = np.array([model.A(n) for n in range(args.N + 1)])
        err_euler = float(np.max(np.abs(model.euler_product_series(args.N) - direct)))
        err_exp = float(np.max(np.abs(model.gaussian_exp_series(args.N) - direct)))
        ok = max(err_euler, err_exp) <= 1e-9
        rows.append((args.q, args.N, err_euler, err_exp, 1e-9, ok))
        checks.append(("series_identity", ok))
    return columns, rows, checks


def cmd_series_selftest(args):
    rows, checks = [], []
    series.check_recurrence_budget(args.degree)  # before the inputs are drawn
    stream = Stream(Seed(args.seed))
    s = next(chaos._input_rows([stream], args.degree, float(args.degree)))[0]
    slow = series.exp_array(s, args.degree, engine="recurrence")
    fast = series.exp_array(s, args.degree)
    err = float(np.max(np.abs(slow - fast)))
    ok = err <= 1e-9
    rows.append(("exp_engines_agree", args.degree, err, 1e-9, ok))
    checks.append(("exp_engines_agree", ok))

    poly = stream.draw(17)
    r = 0.9
    direct = series.parseval_power_sum(poly, r)
    angles = 2.0 * math.pi * np.arange(4096) / 4096
    values = np.polyval(poly[::-1], r * np.exp(1j * angles))
    quad = float(np.mean(np.abs(values) ** 2))
    err = abs(direct - quad) / quad
    ok = err <= 1e-9
    rows.append(("parseval_vs_quadrature", 4096, err, 1e-9, ok))
    checks.append(("parseval_vs_quadrature", ok))
    return ["check", "size", "max_err", "tol", "ok"], rows, checks


def _seed(text):
    return Seed(int(text)).root  # Seed refuses what is not a u64


def _worker_count(text):
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser, samples_default=None):
    parser.add_argument("--seed", type=_seed, default=42, help="root seed (u64)")
    parser.add_argument("--workers", type=_worker_count, default=1)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--config", default=None,
                        help="JSON option values, parsed as flags; explicit flags win")
    parser.add_argument("--plot", default=None,
                        help="also write a plain two-column plot file here")
    parser.add_argument("--check", action="store_true",
                        help="exit 4 unless every verdict passes")
    if samples_default is not None:
        parser.add_argument("--samples", type=int, default=samples_default)


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hmchaos",
        description="Experiments on the random power series exp(sum_k X(k) z^k/sqrt(k)) "
                    "and its number-theoretic relatives")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit one draw of the coefficients A(0..N)")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--K", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moment", help="Monte Carlo estimate of E|A(N)|^{2q}")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--q", type=float, default=1.0)
    _add_common(p, samples_default=1000)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("decay", help="first-moment decay table over a grid of N")
    p.add_argument("--n-grid", default="16,32,64,128,256,512,1024,2048,4096,8192")
    p.add_argument("--samples-per",
                   default="20000,16000,12000,8000,5000,3500,2200,1400,800,500")
    p.add_argument("--band-from", type=int, default=64)
    p.add_argument("--band-max", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("mass", help="exact second-moment mass table (rational)")
    p.add_argument("--N-max", type=int, default=25)
    _add_common(p)
    p.set_defaults(func=cmd_mass)

    p = sub.add_parser("ballot", help="barrier survival probabilities for Gaussian walks")
    p.add_argument("--a-grid", default="1,2,4")
    p.add_argument("--n-grid", default="16,64,256")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--band-lo", type=float, default=DEFAULT_BAND[0])
    p.add_argument("--band-hi", type=float, default=DEFAULT_BAND[1])
    _add_common(p, samples_default=100000)
    p.set_defaults(func=cmd_ballot)

    p = sub.add_parser("event", help="empirical barrier-event probabilities")
    p.add_argument("--kind", choices=["G", "L"], default="G")
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--A", default="1,2,4", help="comma-separated heights")
    p.add_argument("--all-angles", action="store_true",
                   help="grid event over ceil(n e^n) angles per checkpoint")
    _add_common(p, samples_default=100000)
    p.set_defaults(func=cmd_event)

    p = sub.add_parser("com-check", help="two-route check of the tilting identity")
    p.add_argument("--K", type=float, default=20.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--samples-left", type=int, default=100000)
    p.add_argument("--samples-right", type=int, default=1000000)
    _add_common(p)
    p.set_defaults(func=cmd_com_check)

    p = sub.add_parser("blocks", help="per-block variance/covariance with bounds")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--K", type=float, default=1e6)
    p.add_argument("--m-max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("bivariate", help="correlated-pair density domination checks")
    p.add_argument("--rho-grid", default="0.05,-0.05,0.3,-0.3")
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_bivariate)

    p = sub.add_parser("steinhaus", help="moments of Steinhaus partial sums")
    p.add_argument("--x", type=float, default=100.0)
    p.add_argument("--power", type=float, default=2.0,
                   help="moment power on |sum| (2 = variance check)")
    _add_common(p, samples_default=10000)
    p.set_defaults(func=cmd_steinhaus)

    p = sub.add_parser("ff", help="function-field model: counts, moments, series")
    p.add_argument("--mode", choices=["counts", "moment", "series"], default="counts")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--n-max", type=int, default=8)
    _add_common(p, samples_default=2000)
    p.set_defaults(func=cmd_ff)

    p = sub.add_parser("series-selftest", help="exp engine and Parseval cross-checks")
    p.add_argument("--degree", type=int, default=512)
    _add_common(p)
    p.set_defaults(func=cmd_series_selftest)

    return parser


def _config_flags(path, known):
    """The JSON object in `path` as flag text, one --dest-with-hyphens=value per
    key: true gives the bare switch, and false and null keep the default."""
    import json
    from pathlib import Path

    values = json.loads(Path(path).read_text())
    if not isinstance(values, dict):
        raise ValueError(f"a config file holds one JSON object, got {type(values).__name__}")
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
            for key, value in values.items() if value is not False and value is not None]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags come first, so explicit flags win
            flags = _config_flags(args.config, set(vars(args)) - {"func", "command"})
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        columns, rows, checks = args.func(args)
        if not rows:  # an empty grid: a header-only table would pass any --check
            raise PreconditionError("the table needs at least one row")
        config = {k: v for k, v in vars(args).items() if k not in ("func", "_derived")}
        manifest = report.build_manifest(config)
        manifest["checks"] = {name: bool(ok) for name, ok in checks}
        derived = getattr(args, "_derived", None)
        if derived:
            manifest["derived"] = derived
        report.check_destinations(args.out, args.format, args.plot)
        report.write_table(args.out, args.format, columns, rows, manifest)
        if args.plot:
            report.write_plot(args.plot, columns, rows)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    failed = [name for name, ok in checks if not ok]
    if args.check and failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
