"""The exact distance density from its closed form, as an oracle.

l1cube builds the density in n dimensions by stepping up from the triangle
2(1 - t), one exact convolution at a time (`analytic._next_density`). This
module builds the same integers the other way, from the Irwin-Hall style
inclusion-exclusion sum in the `analytic` module docstring (Hall 1927
derives it for sums of uniforms):

    f_n(x) = 2^n sum_j sum_i C(n,j) C(n-j,i) (-1)^(n-j-i) (x-j)_+^e / e!,
    e = 2n - 1 - i.

It holds at any n, so tests use it to check the step dimension by
dimension and to build densities past `EXACT_DENSITY_MAX_DIM`.
"""

import math
from itertools import accumulate
from operator import mul

from l1cube.analytic import PiecewisePolynomial


def closed_form_density(n: int) -> PiecewisePolynomial:
    """The closed-form density of the distance in n dimensions, any n >= 1.

    On segment k the terms j <= k of the closed form are live, so segment k
    is segment k-1 shifted by one unit plus the j = k terms. Coefficients
    are integers over (2n - 1)!; the row is built highest power first, so
    the power e = 2n - 1 - i sits at index i with weight 2^n (2n - 1)!/e!.
    """
    top = 2 * n - 1
    weights = list(accumulate(range(top, top - n, -1), mul, initial=1 << n))
    row = [0] * (top + 1)
    rows = []
    for k in range(n):
        if k:  # Taylor shift p(t) -> p(t + 1): prefix sums, one pass per degree
            for end in range(top + 1, 1, -1):
                row[:end] = accumulate(row[:end])
        ck = math.comb(n, k)
        for i in range(n - k + 1):
            term = ck * math.comb(n - k, i) * weights[i]
            row[i] += -term if (n - k - i) % 2 else term
        rows.append(tuple(reversed(row)))
    return PiecewisePolynomial(tuple(rows), math.factorial(top))


