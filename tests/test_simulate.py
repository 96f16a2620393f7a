"""Copula samplers, the repetition process, and experiment model layouts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from tailclust import (
    IncompatibleDimension,
    InvalidAlpha,
    InvalidParam,
    NestedModel,
    RepetitionConfig,
    TailclustError,
    block_maxima,
    build_experiment_model,
    repetition_block_maxima,
    repetition_process,
    sample_logistic_ev,
    sample_nested,
    sample_outer_power_clayton,
    sample_positive_stable,
)
from tailclust import simulate as simulate_module

from conftest import scratch_peak


# ---------------------------------------------------------------------------
# positive stable


def test_stable_alpha_one_is_degenerate_and_skips_the_generator():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert sample_positive_stable(1.0, rng) == 1.0
    arr = sample_positive_stable(1.0, rng, size=5)
    assert np.array_equal(arr, np.ones(5))
    assert rng.bit_generator.state == before


def test_stable_scalar_and_array_apis():
    rng = np.random.default_rng(4)
    s = sample_positive_stable(0.6, rng)
    assert isinstance(s, float) and s > 0
    arr = sample_positive_stable(0.6, rng, size=(3, 2))
    assert arr.shape == (3, 2) and (arr > 0).all()


def test_stable_invalid_alpha():
    rng = np.random.default_rng(0)
    for alpha in (0.0, -0.3, 1.2):
        with pytest.raises(InvalidAlpha):
            sample_positive_stable(alpha, rng)


def test_stable_reproducible():
    a = sample_positive_stable(0.4, np.random.default_rng(11), size=8)
    b = sample_positive_stable(0.4, np.random.default_rng(11), size=8)
    assert np.array_equal(a, b)


def stable_one_expression(alpha, rng, size=None):
    """Kanter's product as one expression: the reference for the in-place body."""
    scalar = size is None
    u = rng.uniform(0.0, np.pi, size=1 if scalar else size)
    e = rng.exponential(1.0, size=1 if scalar else size)
    ratio = (1.0 - alpha) / alpha
    s = (
        np.sin(alpha * u)
        * np.sin((1.0 - alpha) * u) ** ratio
        / np.sin(u) ** (1.0 / alpha)
    ) * e ** (-ratio)
    return float(s[0]) if scalar else s


_SIZES = st.one_of(
    st.none(),
    st.integers(0, 40),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    size=_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
# at alpha = 0.5 the exponents are 1, 2 and -1, which numpy's ** turns
# into a copy, a square and a reciprocal
@example(alpha=0.5, size=7, seed=1)
@example(alpha=0.5, size=None, seed=2)
@example(alpha=1e-3, size=50, seed=3)
def test_stable_sampler_is_bit_identical_to_the_one_expression_form(alpha, size, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    # tiny alpha overflows: the overflowed bits must agree too
    with np.errstate(all="ignore"):
        got = sample_positive_stable(alpha, rng_a, size=size)
        want = stable_one_expression(alpha, rng_b, size=size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_stable_laplace_transform_spot_check():
    # E[exp(-S)] = exp(-1) for every alpha; the acceptance suite runs the
    # full three-alpha sweep at one million draws
    s = sample_positive_stable(0.5, np.random.default_rng(7), size=200_000)
    assert np.exp(-s).mean() == pytest.approx(np.exp(-1.0), abs=0.005)


# ---------------------------------------------------------------------------
# copula samplers


def test_clayton_shape_range_and_reproducibility():
    u = sample_outer_power_clayton(1.0, 10 / 7, 3, 500, np.random.default_rng(5))
    again = sample_outer_power_clayton(1.0, 10 / 7, 3, 500, np.random.default_rng(5))
    assert u.shape == (500, 3)
    assert ((u > 0) & (u < 1)).all()
    assert np.array_equal(u, again)


def test_clayton_margins_are_uniform():
    u = sample_outer_power_clayton(1.0, 10 / 7, 2, 20_000, np.random.default_rng(6))
    for j in range(2):
        assert stats.kstest(u[:, j], "uniform").statistic < 0.015


def test_clayton_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParam):
        sample_outer_power_clayton(0.0, 1.5, 2, 10, rng)
    with pytest.raises(InvalidParam):
        sample_outer_power_clayton(1.0, 0.9, 2, 10, rng)
    with pytest.raises(InvalidParam):
        sample_outer_power_clayton(1.0, 1.5, 0, 10, rng)
    with pytest.raises(InvalidParam):
        sample_outer_power_clayton(1.0, 1.5, 2, 0, rng)


def test_nested_degenerates_to_outer_power_clayton():
    # with a single group at beta0 = beta_g the inner stable factor is the
    # unit constant drawn without touching the generator, so the nested
    # sampler consumes the exact same stream as the flat sampler
    model = NestedModel(theta=1.0, beta0=2.0, group_betas=(2.0,), group_sizes=(4,))
    a = sample_nested(model, 300, np.random.default_rng(9))
    b = sample_outer_power_clayton(1.0, 2.0, 4, 300, np.random.default_rng(9))
    assert np.array_equal(a, b)


def outer_power_clayton_direct(theta, beta, dim, n, rng):
    """The flat Marshall-Olkin sampler, written without the nested model."""
    gam = rng.gamma(1.0 / theta, 1.0, size=n)
    s = sample_positive_stable(1.0 / beta, rng, size=n)
    v = gam**beta * s
    e = rng.exponential(1.0, size=(n, dim))
    return (1.0 + (e / v[:, None]) ** (1.0 / beta)) ** (-1.0 / theta)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.05, 20.0),
    beta=st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
    dim=st.integers(1, 6),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_clayton_is_bit_identical_to_the_direct_sampler(theta, beta, dim, n, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    u = sample_outer_power_clayton(theta, beta, dim, n, rng)
    expect = outer_power_clayton_direct(theta, beta, dim, n, oracle_rng)
    assert u.shape == expect.shape and u.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def nested_direct(model, n, rng):
    """The nested sampler written per group, with V0^(beta_g/beta0) taken anew each time."""
    gam = rng.gamma(1.0 / model.theta, 1.0, size=n)
    v0 = gam**model.beta0 * sample_positive_stable(1.0 / model.beta0, rng, size=n)
    cols = []
    for beta_g, size in zip(model.group_betas, model.group_sizes):
        v_g = v0 ** (beta_g / model.beta0) * sample_positive_stable(model.beta0 / beta_g, rng, size=n)
        e = rng.exponential(1.0, size=(n, size))
        cols.append((1.0 + (e / v_g[:, None]) ** (1.0 / beta_g)) ** (-1.0 / model.theta))
    return np.column_stack(cols)


@settings(max_examples=100, deadline=None)
@given(
    beta0=st.floats(1.0, 3.0),
    # a few distinct betas, each reused by some groups
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    extra=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_nested_is_bit_identical_to_the_per_group_sampler(beta0, picks, extra, n, seed):
    betas = tuple(beta0 + extra[i] for i in picks)
    model = NestedModel(1.0, beta0, betas, tuple(range(1, len(betas) + 1)))
    got = sample_nested(model, n, np.random.default_rng(seed))
    want = nested_direct(model, n, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


def test_nested_shapes_and_validation():
    model = NestedModel(theta=1.0, beta0=1.0, group_betas=(10 / 7, 10 / 7), group_sizes=(2, 3))
    u = sample_nested(model, 100, np.random.default_rng(1))
    assert u.shape == (100, 5)
    assert ((u > 0) & (u < 1)).all()
    with pytest.raises(InvalidParam):
        sample_nested(model, 0, np.random.default_rng(1))


def test_nested_model_validation():
    with pytest.raises(InvalidParam):
        NestedModel(theta=0.0, beta0=1.0, group_betas=(1.5,), group_sizes=(2,))
    with pytest.raises(InvalidParam):
        NestedModel(theta=1.0, beta0=0.5, group_betas=(1.5,), group_sizes=(2,))
    with pytest.raises(InvalidParam):
        NestedModel(theta=1.0, beta0=2.0, group_betas=(1.5,), group_sizes=(2,))
    with pytest.raises(InvalidParam):
        NestedModel(theta=1.0, beta0=1.0, group_betas=(1.5, 1.5), group_sizes=(2,))
    with pytest.raises(InvalidParam):
        NestedModel(theta=1.0, beta0=1.0, group_betas=(1.5,), group_sizes=(0,))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["theta", "beta0", "group_betas"])
def test_nested_model_rejects_a_non_finite_parameter_by_name(field, bad):
    # nan fails no comparison-based check, and inf passes them all
    params = dict(theta=1.0, beta0=1.0, group_betas=(1.5, 2.0), group_sizes=(2, 3))
    params[field] = (1.5, bad) if field == "group_betas" else bad
    name = "every group beta" if field == "group_betas" else field
    with pytest.raises(InvalidParam, match=f"^{name} must be finite"):
        NestedModel(**params)


def test_nested_model_partition_is_contiguous():
    model = NestedModel(theta=1.0, beta0=1.0, group_betas=(2.0, 2.0), group_sizes=(4, 4))
    assert model.d == 8
    assert model.partition().groups == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_logistic_beta_one_is_independence():
    # beta = 1 collapses the frailty to 1, so columns are exp(-E) entrywise
    rng = np.random.default_rng(12)
    u = sample_logistic_ev(1.0, 3, 200, rng)
    twin = np.random.default_rng(12)
    assert np.array_equal(u, np.exp(-twin.exponential(1.0, size=(200, 3))))


def test_logistic_shapes_and_validation():
    u = sample_logistic_ev(10 / 7, 2, 400, np.random.default_rng(2))
    assert u.shape == (400, 2)
    assert ((u > 0) & (u < 1)).all()
    with pytest.raises(InvalidParam):
        sample_logistic_ev(0.8, 2, 10, np.random.default_rng(2))


# ---------------------------------------------------------------------------
# repetition process


def _tiny_model(d=2):
    return NestedModel(theta=1.0, beta0=1.0, group_betas=(10 / 7,), group_sizes=(d,))


def test_repetition_fraction_of_repeats():
    cfg = RepetitionConfig(p=0.5, n=20_001, model=_tiny_model())
    series = repetition_process(cfg, np.random.default_rng(21))
    repeats = (series.values[1:] == series.values[:-1]).all(axis=1).mean()
    assert repeats == pytest.approx(0.5, abs=0.02)


def test_repetition_p_one_never_repeats():
    cfg = RepetitionConfig(p=1.0, n=5_000, model=_tiny_model())
    series = repetition_process(cfg, np.random.default_rng(22))
    assert not (series.values[1:] == series.values[:-1]).all(axis=1).any()


def test_repetition_single_row_and_reproducibility():
    cfg = RepetitionConfig(p=0.3, n=1, model=_tiny_model())
    one = repetition_process(cfg, np.random.default_rng(23))
    assert one.values.shape == (1, 2)
    cfg = RepetitionConfig(p=0.7, n=50, model=_tiny_model())
    a = repetition_process(cfg, np.random.default_rng(24))
    b = repetition_process(cfg, np.random.default_rng(24))
    assert np.array_equal(a.values, b.values)


def test_repetition_frechet_margins_transform():
    model = _tiny_model()
    uni = repetition_process(RepetitionConfig(p=0.8, n=200, model=model), np.random.default_rng(25))
    fre = repetition_process(
        RepetitionConfig(p=0.8, n=200, model=model, margins="frechet"),
        np.random.default_rng(25),
    )
    assert (fre.values > 0).all()
    assert np.allclose(fre.values, -1.0 / np.log(uni.values), atol=1e-12)


def test_repetition_config_validation():
    model = _tiny_model()
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidParam):
            RepetitionConfig(p=p, n=10, model=model)
    with pytest.raises(InvalidParam):
        RepetitionConfig(p=0.5, n=0, model=model)
    with pytest.raises(InvalidParam):
        RepetitionConfig(p=0.5, n=10, model=model, margins="pareto")


# ---------------------------------------------------------------------------
# block maxima sampled without the series


_LAYOUT_D = {"E1": (2, 16, 2), "E2": (5, 20, 1), "E3": (10, 24, 1)}


@st.composite
def repetition_cases(draw):
    experiment = draw(st.sampled_from(sorted(_LAYOUT_D)))
    lo, hi, step = _LAYOUT_D[experiment]
    d = draw(st.integers(lo // step, hi // step)) * step
    n = draw(st.one_of(st.just(1), st.integers(1, 300)))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, min(n, 30)), st.integers(1, n)))
    return dict(
        experiment=experiment,
        d=d,
        beta=draw(st.one_of(st.just(1.0), st.floats(1.0, 5.0))),
        theta=draw(st.one_of(st.just(1.0), st.floats(0.05, 20.0))),
        p=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
        n=n,
        m=m,
        margins=draw(st.sampled_from(["uniform", "frechet"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=400, deadline=None)
@given(case=repetition_cases())
def test_block_maxima_sampler_is_bit_identical_to_maxima_of_the_series(case):
    # equality rests on the margin map being monotone in floating point, so
    # a pow or log that is not would show up here as a mismatch
    rng, twin = np.random.default_rng(case["seed"]), np.random.default_rng(case["seed"])
    model, _ = build_experiment_model(case["experiment"], case["d"], case["beta"], rng)
    build_experiment_model(case["experiment"], case["d"], case["beta"], twin)
    model = dataclasses.replace(model, theta=case["theta"])
    cfg = RepetitionConfig(p=case["p"], n=case["n"], model=model, margins=case["margins"])
    got = repetition_block_maxima(cfg, case["m"], rng)
    expect = block_maxima(repetition_process(cfg, twin), case["m"])
    assert np.array_equal(got.values, expect.values)
    assert (got.block_length, got.source_length) == (expect.block_length, expect.source_length)
    assert rng.bit_generator.state == twin.bit_generator.state


# _DRAW_CHUNK values, in float64 entries of the innovation buffer: every
# chunk one block, a few blocks per chunk, and every group in one chunk
_CHUNKS = {
    "one-block": lambda m, widest: 1,
    "few-blocks": lambda m, widest: 3 * m * widest,
    "whole-draw": lambda m, widest: 1 << 30,
}


@pytest.mark.parametrize("chunk", sorted(_CHUNKS))
@pytest.mark.parametrize("m", [1, 3, 7, 30])
@pytest.mark.parametrize("p", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("experiment, d", [("E1", 6), ("E2", 12), ("E3", 14)])
def test_block_maxima_in_chunks_are_the_maxima_of_the_series(experiment, d, p, m, chunk, monkeypatch):
    # E3 has five one-column groups; n leaves a tail of m - 1 steps after the
    # last whole block, whose innovations are drawn and dropped
    n = 40 * m + m - 1
    rng, twin = np.random.default_rng(m), np.random.default_rng(m)
    model, _ = build_experiment_model(experiment, d, 10 / 7, rng)
    build_experiment_model(experiment, d, 10 / 7, twin)
    monkeypatch.setattr(simulate_module, "_DRAW_CHUNK", _CHUNKS[chunk](m, max(model.group_sizes)))
    cfg = RepetitionConfig(p=p, n=n, model=model)
    got = repetition_block_maxima(cfg, m, rng)
    series = repetition_process(cfg, twin)
    assert got.values.tobytes() == block_maxima(series, m).values.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state
    if p == 0.3:
        # most blocks start on the innovation that ends the block before, so
        # most chunk starts copy the previous chunk's last row
        starts = np.arange(m, n - n % m, m)
        assert (series.values[starts] == series.values[starts - 1]).all(axis=1).mean() > 0.5


@pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
def test_nested_in_row_chunks_is_the_per_group_sampler(chunk, monkeypatch):
    monkeypatch.setattr(simulate_module, "_DRAW_CHUNK", chunk)
    model = NestedModel(1.0, 1.0, (10 / 7, 2.0, 10 / 7), (3, 1, 5))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_nested(model, 101, rng)
    assert got.tobytes() == nested_direct(model, 101, twin).tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_block_maxima_scratch_is_the_output_one_chunk_and_o_of_n_vectors():
    # an experiment_competitors replication: E3 at d = 100, k = 500
    n, m = 10_000, 20
    rng = np.random.default_rng(3)
    model, _ = build_experiment_model("E3", 100, 10 / 7, rng)
    cfg = RepetitionConfig(p=0.9, n=n, model=model)
    maxima, peak = scratch_peak(repetition_block_maxima, cfg, m, rng)
    assert maxima.values.shape == (n // m, 100)
    # the k x d output, the innovation buffer, and ten length-n vectors: the
    # steps, V0, V0^(beta_g/beta0), V_g and the stable sampler's four
    # temporaries among them. Drawing each group's n x size innovations at
    # once peaked near 6 MB.
    assert peak <= 8 * ((n // m) * 100 + simulate_module._DRAW_CHUNK + 10 * n)


@pytest.mark.parametrize("p", [0.4, 1.0])
@pytest.mark.parametrize("m", [0, -3, 11, 50])
def test_block_maxima_sampler_rejects_block_lengths_as_block_maxima_does(p, m):
    cfg = RepetitionConfig(p=p, n=10, model=_tiny_model())
    with pytest.raises(TailclustError) as got:
        repetition_block_maxima(cfg, m, np.random.default_rng(1))
    with pytest.raises(TailclustError) as expect:
        block_maxima(repetition_process(cfg, np.random.default_rng(1)), m)
    assert type(got.value) is type(expect.value)
    assert str(got.value) == str(expect.value)


# ---------------------------------------------------------------------------
# experiment layouts


def test_e1_layout():
    model, truth = build_experiment_model("E1", 8, 10 / 7, np.random.default_rng(0))
    assert model.group_sizes == (4, 4)
    assert truth.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert model.theta == 1.0 and model.beta0 == 1.0
    assert model.group_betas == (10 / 7, 10 / 7)


def test_e2_layout_is_five_nonempty_blocks():
    for seed in range(5):
        model, truth = build_experiment_model("E2", 20, 10 / 7, np.random.default_rng(seed))
        assert len(model.group_sizes) == 5
        assert sum(model.group_sizes) == 20
        assert min(model.group_sizes) >= 1
        assert truth.n_groups == 5


def test_e3_layout_appends_five_singletons():
    model, truth = build_experiment_model("E3", 20, 10 / 7, np.random.default_rng(1))
    assert len(model.group_sizes) == 10
    assert model.group_sizes[5:] == (1, 1, 1, 1, 1)
    assert sum(model.group_sizes) == 20
    assert truth.n_groups == 10


def test_layout_dimension_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(IncompatibleDimension):
        build_experiment_model("E1", 7, 10 / 7, rng)
    with pytest.raises(IncompatibleDimension):
        build_experiment_model("E2", 4, 10 / 7, rng)
    with pytest.raises(IncompatibleDimension):
        build_experiment_model("E3", 9, 10 / 7, rng)
    with pytest.raises(InvalidParam):
        build_experiment_model("E9", 8, 10 / 7, rng)
