"""The KS statistic with the reference evaluated at every point, as an oracle.

`l1cube.ks_statistic` evaluates the reference CDF only in the blocks of
sorted points that can hold the supremum. `full_ks` is the function it
replaced: it evaluates the reference at every sorted sample point, as one
array, and takes the largest one-sided gap with the same expressions. The
program must return the same double, so tests compare the two with `==`.
"""

import numpy as np


def full_ks(sample, reference_cdf) -> float:
    xs = sample.sorted_values
    n = xs.size
    if n == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    ref = np.asarray(reference_cdf(xs), dtype=np.float64)
    if ref.shape != xs.shape:
        raise ValueError("reference_cdf must return one value per point of its array argument")
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - ref))
    d_minus = float(np.max(ref - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)
