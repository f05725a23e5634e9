import itertools
import tracemalloc

import numpy as np
import pytest

from ilmart import fisher_randomization


def enumeration_oracle(a, b):
    """Independent oracle: enumerate all 2^n sign patterns directly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a - b
    n = d.size
    observed = abs(d.sum()) / n
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        if abs(np.dot(signs, d)) / n >= observed:
            hits += 1
    return hits / 2 ** n


def test_identical_rankers_give_p_one():
    a = np.array([0.3, 0.5, 0.9, 0.1])
    out = fisher_randomization(a, a.copy())
    assert out.p_value == 1.0
    assert out.exhaustive
    assert out.mean_difference == 0.0
    assert type(out.mean_difference) is float and type(out.p_value) is float


def test_single_query_exhaustive():
    out = fisher_randomization([1.0], [0.0])
    assert out.exhaustive
    assert out.num_permutations == 2
    assert out.p_value == 1.0
    assert out.mean_difference == pytest.approx(1.0)


def test_constant_shift_ten_queries():
    # Only the identity and the full swap reach the observed mean difference.
    b = np.linspace(0.2, 0.8, 10)
    a = b + 0.1
    out = fisher_randomization(a, b)
    assert out.exhaustive
    assert out.num_permutations == 1024
    assert out.p_value == pytest.approx(2 / 1024)
    assert out.p_value == pytest.approx(enumeration_oracle(a, b))


def test_exhaustive_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.random(n)
        b = rng.random(n)
        got = fisher_randomization(a, b)
        assert got.exhaustive
        assert got.p_value == pytest.approx(enumeration_oracle(a, b), abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(3)
    a, b = rng.random(12), rng.random(12)
    ab = fisher_randomization(a, b)
    ba = fisher_randomization(b, a)
    assert ab.p_value == ba.p_value
    assert ab.mean_difference == pytest.approx(-ba.mean_difference)


def test_monte_carlo_symmetry_and_reproducibility():
    rng = np.random.default_rng(4)
    a, b = rng.random(40), rng.random(40)
    one = fisher_randomization(a, b, num_permutations=2000, seed=7)
    two = fisher_randomization(a, b, num_permutations=2000, seed=7)
    swapped = fisher_randomization(b, a, num_permutations=2000, seed=7)
    assert not one.exhaustive
    assert one.p_value == two.p_value
    assert one.p_value == swapped.p_value
    assert 0.0 < one.p_value <= 1.0


def test_monte_carlo_detects_a_large_shift():
    rng = np.random.default_rng(5)
    b = rng.random(50)
    a = b + 0.2
    out = fisher_randomization(a, b, num_permutations=4000, seed=1)
    assert out.p_value < 0.01


def test_add_one_smoothing_keeps_p_positive():
    rng = np.random.default_rng(6)
    b = rng.random(30)
    out = fisher_randomization(b + 1.0, b, num_permutations=500, seed=2)
    assert out.p_value == pytest.approx(1 / 501)


@pytest.mark.parametrize("n, permutations, seed, want", [
    (21, 10_000, 3, 0.3872612738726127),
    (300, 70_000, 0, 0.13391237268039027),
])
def test_monte_carlo_draws_in_bounded_chunks(n, permutations, seed, want):
    # The pinned p-values come from drawing up to 65,536 permutations' flips
    # per call, which took 300 MB at 300 queries and 70,000 permutations:
    # smaller chunks of whole rows must draw the same flips.
    rng = np.random.default_rng(n)
    b = rng.random(n)
    a = b + rng.normal(0.01, 0.2, n)
    tracemalloc.start()
    try:
        out = fisher_randomization(a, b, num_permutations=permutations, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.exhaustive
    assert out.p_value == want
    assert peak < 64 * 2**20


def test_input_validation():
    with pytest.raises(ValueError):
        fisher_randomization([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        fisher_randomization([], [])
    with pytest.raises(ValueError):
        fisher_randomization(np.ones(25), np.zeros(25), num_permutations=0)


def test_null_rejection_rate_is_calibrated():
    # Light version of the acceptance check: i.i.d. vectors, alpha = 0.05.
    rng = np.random.default_rng(123)
    rejections = 0
    trials = 60
    for t in range(trials):
        a = rng.random(50)
        b = rng.random(50)
        out = fisher_randomization(a, b, num_permutations=1500, seed=t)
        rejections += out.p_value < 0.05
    assert rejections / trials <= 0.12
