"""`draw_seeds` through a stream's CDF is `Generator.choice`.

The serving streams sample seeds by bisecting uniforms into a CDF built
once per stream, in place of one `Generator.choice(p=p)` — an O(|V|)
cumsum and validation — per request.  Every committed serving result
depends on the two being the same computation: same vertex ids, and the
generator left in the same state so every later draw agrees too.  This
test is the pin should a future NumPy change how `choice` samples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.request import SeedCDF, draw_seeds, zipf_seed_probabilities


@given(
    num_vertices=st.integers(1, 500),
    alpha=st.floats(0.01, 4.0),
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_cdf_draws_equal_generator_choice_values_and_state(
    num_vertices, alpha, sizes, seed
):
    p = zipf_seed_probabilities(num_vertices, alpha)
    cdf = SeedCDF(p)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        got = draw_seeds(num_vertices, size, rng=ours, zipf_alpha=alpha, p=cdf)
        want = numpys.choice(num_vertices, size=size, replace=True, p=p)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state
