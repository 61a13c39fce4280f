"""The report's verdict columns against the null laws they claim, across seeds.

Each case runs a sweep row's own pipeline (`experiment._run_dim`: sample,
summarize, compare with theory, sort, KS, critical values) at dim 3 on one
thread, over the fixed seeds `derive_seed(ROOT, s)`, s = 0, 1, ..., and
compares one column's spread over those rows with its law, scipy being the
oracle. Every bound comes from the sampling error of its own statistic, at
4 standard errors, or from a p-value floor of 1e-4; both were fixed before
any seed was run. Healthy rows fail a 4-SE band about once in 16,000.
"""

import functools
import math

import numpy as np
import pytest
import scipy.stats

from l1cube import ExperimentConfig, derive_seed
from l1cube.experiment import _run_dim
from l1cube.sampling import _sampler

ROOT = 2406_15441
DIM = 3
BAND_SE = 4.0
P_FLOOR = 1e-4
SEEDS = {100: 2000, 1000: 1000, 2000: 1000}


@functools.cache
def _rows(n: int) -> tuple:
    """Rows at N = n for the first SEEDS[n] seeds of ROOT, each with --gof."""
    with _sampler(workers=1) as sample:
        return tuple(
            _run_dim(ExperimentConfig(dims=(DIM,), num_pairs=n, seed=derive_seed(ROOT, s),
                                      emit_gof=True), DIM, sample)
            for s in range(SEEDS[n]))


@pytest.mark.parametrize("n", [100, 1000])
def test_rejection_share_at_five_percent(n):
    # The share of healthy rows with ks_exact above ks_crit_005 is a binomial
    # proportion. Its mean is Kolmogorov's exact tail at that value, which
    # the asymptotic critical value puts a little under 5% at finite N.
    rows = _rows(n)
    crit = rows[0].ks_crit_005
    p = scipy.stats.kstwo.sf(crit, n)
    assert 0.04 < p <= 0.05
    share = np.mean([row.ks_exact > crit for row in rows])
    assert abs(share - p) <= BAND_SE * math.sqrt(p * (1 - p) / len(rows)), (share, p)


def test_mean_dev_se_is_standard_normal():
    # mean_dev_se over S rows at N = 100: its sample mean has standard error
    # 1/sqrt(S) and, for a normal column, its sample sd 1/sqrt(2(S - 1)).
    values = np.array([row.mean_dev_se for row in _rows(100)])
    s = values.size
    assert abs(values.mean()) <= BAND_SE / math.sqrt(s)
    assert abs(values.std(ddof=1) - 1.0) <= BAND_SE / math.sqrt(2 * (s - 1))


def test_ks_exact_follows_kolmogorovs_law():
    # Second level: D_N is distribution-free against the true continuous
    # CDF, so the rows' ks_exact values are draws from scipy's kstwo(N).
    # At N = 2000 KS takes its bracketed path.
    values = [row.ks_exact for row in _rows(2000)]
    assert scipy.stats.kstest(values, scipy.stats.kstwo(2000).cdf).pvalue > P_FLOOR
