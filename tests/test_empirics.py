"""Sample-side tests: the plug-in inactivity mean and the family ranker."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrel.distributions import model_from_text
from revrel.empirics import (
    _FLOATS_MAX,
    DEFAULT_CANDIDATES,
    SampleSet,
    _pairwise_sum,
    empirical_eit,
    gap_statistics,
    identify,
    mc_expectation,
    read_samples,
    sample_inverse_cdf,
)
from revrel.characterizations import TheoremId, default_models
from revrel.errors import NoMass, ParameterError, TooFewPoints


def make_sample(*values):
    return SampleSet(values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# SampleSet

def test_sample_set_sorts_and_counts():
    s = make_sample(3.0, 1.0, 2.0)
    assert s.n == 3
    assert list(s.values) == [1.0, 2.0, 3.0]


def test_sample_set_rejects_bad_input():
    with pytest.raises(ParameterError):
        SampleSet(values=np.asarray([], dtype=float))
    with pytest.raises(ParameterError):
        make_sample(1.0, math.nan)
    with pytest.raises(ParameterError):
        make_sample(1.0, math.inf)
    with pytest.raises(ParameterError):
        SampleSet(values=np.zeros((2, 2)))


@pytest.mark.parametrize("values", [[], [1.0, math.nan], (1.0, math.inf),
                                    [[1.0, 2.0], [3.0, 4.0]]])
def test_sample_set_rejects_bad_input_as_floats(values):
    with pytest.raises(ParameterError):
        SampleSet(values=values)


def test_the_container_follows_the_input_type_and_size():
    short = SampleSet(values=[3, 1.5, 2])
    assert short.values == (1.5, 2.0, 3.0) and short.n == 3
    assert all(type(v) is float for v in short.values)
    assert isinstance(SampleSet(values=np.asarray([3.0, 1.5, 2.0])).values, np.ndarray)
    at_cut = SampleSet(values=[1.0] * _FLOATS_MAX)
    assert isinstance(at_cut.values, tuple) and at_cut.n == _FLOATS_MAX
    past_cut = SampleSet(values=[1.0] * (_FLOATS_MAX + 1))
    assert isinstance(past_cut.values, np.ndarray) and past_cut.n == _FLOATS_MAX + 1


# ---------------------------------------------------------------------------
# the plug-in inactivity mean

def test_empirical_eit_examples():
    s = make_sample(1.0, 2.0, 3.0)
    assert empirical_eit(s, 2.5) == pytest.approx(1.0, abs=1e-15)
    assert empirical_eit(s, 3.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NoMass):
        empirical_eit(s, 0.5)


def test_empirical_eit_shifts_linearly_between_points():
    # no sample mass in (t1, t2] means m-hat grows exactly with t
    s = make_sample(0.0, 1.0, 5.0)
    t1, t2 = 1.5, 4.5
    assert empirical_eit(s, t2) == pytest.approx(
        empirical_eit(s, t1) + (t2 - t1), rel=1e-14)


def test_empirical_eit_above_maximum_is_distance_to_mean():
    s = make_sample(2.0, 4.0, 9.0)
    assert empirical_eit(s, 20.0) == pytest.approx(15.0, rel=1e-14)


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=40),
       st.floats(min_value=0.001, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_empirical_eit_shift_property(values, dt):
    s = SampleSet(values=np.asarray(values))
    top = float(s.values.max())
    base = empirical_eit(s, top)
    assert empirical_eit(s, top + dt) == pytest.approx(base + dt, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# gap statistics

def test_gap_statistics_needs_fifty_points():
    with pytest.raises(TooFewPoints):
        gap_statistics(SampleSet(values=np.linspace(1.0, 2.0, 10)))


def test_gap_statistics_trim_validation():
    s = SampleSet(values=np.linspace(1.0, 2.0, 100))
    for trim in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterError):
            gap_statistics(s, trim=trim)


def test_gap_statistics_covers_three_checks():
    s = SampleSet(values=np.linspace(1.0, 2.0, 100))
    stats = gap_statistics(s)
    assert [g.theorem for g in stats] == [TheoremId.T3_1, TheoremId.T3_2,
                                          TheoremId.T3_4]
    for g in stats:
        assert g.trimmed_fraction == 0.05


def test_gap_ratio_near_one_for_matching_generator():
    type3ev = model_from_text("type3ev:gamma=1,b=0")
    s = sample_inverse_cdf(type3ev, 20000, seed=5)
    ratios = {g.theorem: g.ratio_hat for g in gap_statistics(s)}
    assert abs(ratios[TheoremId.T3_1] - 1.0) < 0.05
    assert ratios[TheoremId.T3_1] >= 1.0 - 1e-9   # plug-in products sit above 1

    power = model_from_text("power:b=1,c=2")
    s = sample_inverse_cdf(power, 20000, seed=5)
    ratios = {g.theorem: g.ratio_hat for g in gap_statistics(s)}
    assert abs(ratios[TheoremId.T3_4] - 1.0) < 0.05
    assert abs(ratios[TheoremId.T3_1] - 1.0) > 0.08  # wrong model stays away


@pytest.mark.parametrize("model", default_models(), ids=lambda m: m.spec.family)
def test_every_catalog_quantile_takes_the_draw_array(model):
    # sampling makes one quantile call on all draws, not one call per draw
    u = np.array([2.0 ** -53, 0.1, 0.5, 0.9, 1.0 - 2.0 ** -53])
    got = model.quantile(u)
    assert isinstance(got, np.ndarray) and got.shape == u.shape
    assert got.tolist() == pytest.approx([model.quantile(float(p)) for p in u],
                                         rel=1e-14, abs=1e-300)


# ---------------------------------------------------------------------------
# the plain-float path against the ndarray path, bit for bit

@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_pairwise_sum_matches_numpy_add_reduce():
    rng = random.Random(2024)
    for n in range(1, 1201):
        scale = 10.0 ** rng.uniform(-5.0, 5.0)
        xs = [rng.uniform(-1.0, 1.0) * scale * 10.0 ** rng.uniform(-3.0, 3.0)
              for _ in range(n)]
        if n % 7 == 0:
            xs[rng.randrange(n)] = rng.choice([math.inf, -math.inf, math.nan])
        assert repr(_pairwise_sum(xs)) == repr(float(np.add.reduce(np.asarray(xs)))), n
    for xs in ([math.inf, -math.inf] + [1.0] * 20, [-0.0] * 9, [-0.0] * 200, []):
        assert repr(_pairwise_sum(xs)) == repr(float(np.add.reduce(np.asarray(xs, dtype=float))))


def _both(values):
    arr = np.asarray(values, dtype=float)
    floats = SampleSet(values=arr.tolist())
    assert isinstance(floats.values, tuple)
    return SampleSet(values=arr), floats


def _same(f, arr_sample, float_sample, *args):
    assert repr(f(float_sample, *args)) == repr(f(arr_sample, *args)), args


@pytest.mark.parametrize("model", default_models(), ids=lambda m: m.spec.family)
def test_float_path_matches_the_array_path(model):
    for n in (50, 77, 129, 400, 2047):
        arr_sample, float_sample = _both(sample_inverse_cdf(model, n, seed=n).values)
        for trim in (0.0, 0.02, 0.05, 0.1):
            _same(gap_statistics, arr_sample, float_sample, trim)
            _same(identify, arr_sample, float_sample, trim)
        vals = arr_sample.values
        for t in [*vals[::97], vals[-1], (vals[0] + vals[1]) / 2, vals[-1] + 1.0]:
            _same(empirical_eit, arr_sample, float_sample, float(t))


@pytest.mark.parametrize("values", [
    [0.0] * 10 + [0.5 + i / 80 for i in range(60)],       # ties at the minimum, at zero
    [-1.0] * 10 + [-1.0 + i / 80 for i in range(1, 61)],  # negative ties: -inf terms
    [-2.0 + i / 40 for i in range(120)],                  # crosses zero
    [0.0] * 70,                                           # all zero: no x-weighted term
    [3.0] * 5 + [-1e-300] * 5 + [7.5e-310] * 50,          # subnormal products
])
@pytest.mark.filterwarnings("ignore:Mean of empty slice")
def test_float_path_matches_the_array_path_on_edge_samples(values):
    arr_sample, float_sample = _both(values)
    for trim in (0.0, 0.05, 0.1, 0.5):
        _same(gap_statistics, arr_sample, float_sample, trim)
        _same(identify, arr_sample, float_sample, trim)
    for t in values:
        _same(empirical_eit, arr_sample, float_sample, t)


def test_edge_samples_reach_signed_infinities():
    _, float_sample = _both([-1.0] * 10 + [-1.0 + i / 80 for i in range(1, 61)])
    lhs = {g.theorem: g.lhs_hat for g in gap_statistics(float_sample, 0.0)}
    assert lhs[TheoremId.T3_1] == math.inf
    assert lhs[TheoremId.T3_2] == -math.inf


def test_mc_expectation_takes_a_float_sample():
    arr_sample, float_sample = _both([2.0, 0.5, 1.0, 4.0])
    assert mc_expectation(float_sample, math.sqrt) == mc_expectation(arr_sample, math.sqrt)
    assert mc_expectation(float_sample, lambda x: x) == (1.875, pytest.approx(0.7739, abs=1e-4))


# ---------------------------------------------------------------------------
# ranking

def test_identify_picks_the_generator():
    power = model_from_text("power:b=1,c=2")
    report = identify(sample_inverse_cdf(power, 20000, seed=9))
    assert report.ranking[0].family == "power"
    assert report.ranking[0].theorem is TheoremId.T3_4
    assert report.n == 20000

    type3ev = model_from_text("type3ev:gamma=1,b=0")
    report = identify(sample_inverse_cdf(type3ev, 20000, seed=9))
    assert report.ranking[0].family == "type3ev"


def test_identify_is_deterministic():
    s = sample_inverse_cdf(model_from_text("power:b=1,c=2"), 5000, seed=3)
    assert identify(s) == identify(s)


def test_identify_scores_sorted_ascending():
    s = sample_inverse_cdf(model_from_text("power:b=1,c=2"), 5000, seed=3)
    scores = [rc.score for rc in identify(s).ranking]
    assert scores == sorted(scores)
    assert len(scores) == len(DEFAULT_CANDIDATES)


# ---------------------------------------------------------------------------
# file input

def test_read_samples_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "sample.txt"
    p.write_text("# header\n1.5\n\n  2.5\n# interlude\n3.5\n")
    s = read_samples(p)
    assert s.values == (1.5, 2.5, 3.5)


def test_read_samples_names_the_bad_line(tmp_path):
    p = tmp_path / "sample.txt"
    p.write_text("1.0\n2.0\nbanana\n")
    with pytest.raises(ParameterError, match="line 3"):
        read_samples(p)


@pytest.mark.parametrize("text", ["nan", "-inf", "1e999"])
def test_read_samples_names_the_non_finite_line(tmp_path, text):
    p = tmp_path / "sample.txt"
    p.write_text(f"1.0\n2.0\n{text}\n")
    with pytest.raises(ParameterError, match="line 3: not a finite value"):
        read_samples(p)


def test_read_samples_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing but comments\n\n")
    with pytest.raises(ParameterError):
        read_samples(p)
