"""hmchaos: simulation and exact combinatorics for holomorphic multiplicative chaos.

The central object is the random power series

    exp( sum_{k>=1} X(k) z^k / sqrt(k) ) = sum_{n>=0} A(n) z^n

with independent standard complex Gaussians X(k). The package provides
seeded replayable Gaussian streams, fast and reference power-series
exponentials, exact partition-level identities for the coefficients A(n),
Gaussian-walk barrier and change-of-measure experiments, and the Steinhaus
and F_q[t] multiplicative-function analogues, all behind a reproducible
experiment CLI.
"""

__version__ = "0.1.0"

from .chaos import (circle_average_moment, circle_mean_closed_form, circle_mean_mc,
                    estimate_moment, fit_decay_band, gaussian_abs_moment, sample_A,
                    theorem_band_factor)
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .partitions import (a_of_partition, enumerate_partitions, exact_total_mass,
                         partition_count, reconstruct_A_by_largest_part)
from .rng import GaussianStream, Seed, UnitCircleStream, split
from .series import parseval_power_sum, rankin_bound, smooth_partition_weight

__all__ = [
    "BudgetError", "GaussianStream", "MomentEstimate",
    "PreconditionError", "Seed", "UnitCircleStream", "a_of_partition",
    "circle_average_moment", "circle_mean_closed_form", "circle_mean_mc",
    "enumerate_partitions", "estimate_moment", "exact_total_mass", "fit_decay_band",
    "gaussian_abs_moment", "partition_count", "parseval_power_sum", "rankin_bound",
    "reconstruct_A_by_largest_part", "sample_A", "smooth_partition_weight", "split",
    "theorem_band_factor",
]
