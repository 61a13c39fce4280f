"""Monte Carlo distances rebuilt from fresh streams, as an oracle.

`l1cube.sample_distances` keeps one Philox per worker, re-keys it for every
chunk and draws into reused buffers, in calls of bounded size. `distances`
here does none of that: chunk c is one draw of shape (pairs in chunk, 2, dim)
from a fresh `derive_stream(seed, c)`, reduced with `span_sum`. The sampler
must return the same doubles, so tests compare the two with `==`.
"""

import numpy as np

from l1cube import CHUNK_PAIRS, derive_stream
from l1cube.metric import span_sum


def distances(spec) -> np.ndarray:
    chunks = []
    for c, lo in enumerate(range(0, spec.num_pairs, CHUNK_PAIRS)):
        k = min(CHUNK_PAIRS, spec.num_pairs - lo)
        u = derive_stream(spec.seed, c).random((k, 2, spec.dim))
        chunks.append(span_sum(np.abs(u[:, 0, :] - u[:, 1, :])))
    return np.concatenate(chunks)
