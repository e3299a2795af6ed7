import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwspeed import UnsupportedRegimeError, make_distribution, parse_pmf_json, parse_pmf_text


def test_basic_moments(mix23, binary, leafy):
    assert (mix23.m, mix23.m1, mix23.m2) == (2.5, 2, 3)
    assert (binary.m, binary.m1, binary.m2) == (2.0, 2, 2)
    assert (leafy.m, leafy.m1, leafy.m2) == (1.5, 0, 2)


@pytest.mark.parametrize("entries,message", [
    ([(2, 0.6), (3, 0.6)], "sum to 1.2"),
    ([(-1, 1.0)], "negative"),
    ([(2, 0.5), (2, 0.5)], "duplicate"),
    ([(2, 0.0), (3, 1.0)], "outside"),
    ([(2, 1.5)], "outside"),
    ([], "empty"),
])
def test_validation_errors(entries, message):
    with pytest.raises(ValueError, match=message):
        make_distribution(entries)


def test_non_integer_count_rejected():
    with pytest.raises(ValueError):
        make_distribution([(2.5, 1.0)])


def test_pgf_values(binary, leafy, mix23):
    assert binary.pgf(0.5) == 0.25
    assert mix23.pgf(1.0) == 1.0
    assert leafy.pgf(0.0) == 0.25
    with pytest.raises(ValueError):
        mix23.pgf(1.5)
    with pytest.raises(ValueError):
        mix23.pgf(-0.1)


def test_extinction_probability_quadratic_oracle(leafy):
    # pgf fixed points solve 0.75 q^2 - q + 0.25 = 0; smaller root by formula
    disc = math.sqrt(1.0 - 4 * 0.75 * 0.25)
    q_oracle = (1.0 - disc) / (2 * 0.75)
    q = leafy.extinction_probability()
    assert abs(q - q_oracle) < 1e-10
    assert abs(q - 1.0 / 3.0) < 1e-10


def test_extinction_zero_without_leaves(mix23, binary):
    assert mix23.extinction_probability() == 0.0
    assert binary.extinction_probability() == 0.0


def test_extinction_requires_supercritical():
    critical = make_distribution({0: 0.5, 2: 0.5})
    with pytest.raises(UnsupportedRegimeError):
        critical.extinction_probability()


def test_pgf_fixed_point_consistency(leafy):
    tol = 1e-12
    q = leafy.extinction_probability(tol)
    assert abs(leafy.pgf(q) - q) <= 10 * tol


def test_monotonicity_threshold_values(mix23, ternary):
    t2 = mix23.monotonicity_threshold()
    # oracle: t satisfies (m1/t - 1)^2 = 1 - 1/m1, and the rationalized form
    # m1^2 * (1 - sqrt(1 - 1/m1)) must agree
    assert abs((2 / t2 - 1) ** 2 - 0.5) < 1e-12
    assert t2 == pytest.approx(4 * (1 - math.sqrt(0.5)), rel=1e-14)
    assert abs(t2 - 1.1715729) < 1e-6
    t3 = ternary.monotonicity_threshold()
    assert abs((3 / t3 - 1) ** 2 - (1 - 1 / 3)) < 1e-12
    assert t3 == pytest.approx(9 * (1 - math.sqrt(2 / 3)), rel=1e-14)
    assert abs(t3 - 1.6515308) < 1e-6


def test_monotonicity_threshold_range():
    for m1 in range(2, 65):
        t = make_distribution({m1: 1.0}).monotonicity_threshold()
        assert 1.0 < t < m1


def test_monotonicity_threshold_rejects_m1_below_2():
    with pytest.raises(UnsupportedRegimeError):
        make_distribution({1: 0.5, 3: 0.5}).monotonicity_threshold()


def test_pmf_text_round_trip(mix23):
    assert parse_pmf_text("2:0.5,3:0.5").entries == mix23.entries
    assert parse_pmf_text(mix23.to_text()).entries == mix23.entries
    with pytest.raises(ValueError):
        parse_pmf_text("2:0.5,oops")


def test_pmf_json(mix23):
    dist = parse_pmf_json('{"pmf": {"2": 0.5, "3": 0.5}}')
    assert dist.entries == mix23.entries
    with pytest.raises(ValueError):
        parse_pmf_json('{"wrong": 1}')


@st.composite
def leafless_pmfs(draw):
    ks = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(ks),
                            max_size=len(ks)))
    total = sum(weights)
    return make_distribution([(k, w / total) for k, w in zip(ks, weights)])


@settings(max_examples=200, deadline=None)
@given(leafless_pmfs(), st.floats(0.0, 1.0))
def test_pgf_monotone_and_normalized(dist, s):
    assert dist.pgf(s) <= dist.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= dist.pgf(s) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(leafless_pmfs())
def test_leafless_has_zero_extinction(dist):
    if dist.m > 1.0:
        assert dist.extinction_probability() == 0.0


def test_draw_counts_support(mix23):
    import numpy as np
    rng = np.random.default_rng(0)
    counts = mix23.draw_counts(rng, 10000)
    assert set(np.unique(counts)) == {2, 3}


def test_draw_counts_beyond_int16():
    import numpy as np
    rng = np.random.default_rng(0)
    assert make_distribution({40000: 1.0}).draw_counts(rng, 5).tolist() == [40000] * 5
    counts = make_distribution({2: 0.5, 40000: 0.5}).draw_counts(rng, 1000)
    assert set(counts.tolist()) == {2, 40000}
    # counts stay int16 while the largest one fits
    for pmf in ({2: 1.0}, {2: 0.5, 3: 0.5}, {1: 0.5, 32767: 0.5}):
        assert make_distribution(pmf).draw_counts(rng, 3).dtype == np.int16


def test_one_point_law_draws_no_uniforms(mix23):
    # a one-point law's counts are its support point: the stream is not read
    import numpy as np
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert make_distribution({5: 1.0}).draw_counts(rng, 1000).tolist() == [5] * 1000
    assert rng.bit_generator.state == state
    mix23.draw_counts(rng, 1000)
    after = np.random.default_rng(5)
    after.random(1000)
    assert rng.bit_generator.state == after.bit_generator.state


class _Uniforms:
    """A generator stand-in whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("pmf, dtype", [({2: 0.5, 3: 0.5}, np.int16),
                                        ({1: 0.3, 12: 0.7}, np.int16),
                                        ({2: 0.1, 40000: 0.9}, np.int32)])
def test_two_point_counts_equal_the_where_form_at_the_boundary(pmf, dtype):
    # u exactly at the probability of the low count, its two neighbours, and
    # the ends of [0, 1): the integer arithmetic gives np.where's counts
    dist = make_distribution(pmf)
    lo, hi = dist._support
    c = dist._cum[0]
    u = np.array([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), 0.0, np.nextafter(1.0, 0.0)])
    ref = np.where(u < c, lo, hi)
    got = dist.draw_counts(_Uniforms(u), u.size)
    assert got.dtype == ref.dtype == dtype
    assert got.tolist() == ref.tolist() == [dist.m2, dist.m1, dist.m2, dist.m1, dist.m2]
    u = np.random.default_rng(3).random(100_000)
    assert np.array_equal(dist.draw_counts(_Uniforms(u), u.size), np.where(u < c, lo, hi))
