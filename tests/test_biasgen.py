"""Bias-generator checks: exact counts, binomial concentration, purity."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaweight.biasgen import (
    BiasedDataset,
    GaussianMixtureSpec,
    NoiseSpec,
    _longtail_ratio,
    apply_flip_noise,
    apply_longtail,
    apply_uniform_noise,
    circle_means,
    gen_gaussians,
    load_dataset,
    longtail_counts,
    rng_stream,
    sample_batch,
    save_dataset,
    split_meta,
)


def toy_dataset(c=3, per_class=100, spread=0.5, seed=0):
    return gen_gaussians(GaussianMixtureSpec(c, 2, circle_means(c), spread, per_class), seed)


def binom_3sigma(n, p):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianMixtureSpec(1, 2, np.zeros((1, 2)), 1.0, 10)
    with pytest.raises(ValueError):
        GaussianMixtureSpec(3, 2, np.zeros((2, 2)), 1.0, 10)
    with pytest.raises(ValueError):
        NoiseSpec(kind="gauss", rate=0.1)
    with pytest.raises(ValueError):
        NoiseSpec(kind="uniform", rate=1.5)


def test_dataset_invariants_enforced():
    feats = np.zeros((4, 2))
    labels = np.array([0, 1, 2, 0])
    with pytest.raises(ValueError):
        BiasedDataset(feats, np.array([0, 1, 3, 0]), labels, 3)
    for bad in (np.nan, np.inf, -np.inf):
        feats[2, 1] = bad
        with pytest.raises(ValueError, match="^non-finite feature values$"):
            BiasedDataset(feats, labels, labels, 3)


def test_dataset_fields_are_read_only_views():
    feats = np.zeros((4, 2))
    labels = np.array([0, 1, 2, 0])
    ds = BiasedDataset(feats, labels, labels, 3)
    for arr in (ds.features, ds.observed_labels, ds.true_labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the flags are computed from the labels, so a write cannot reach them
    ds.corrupted[0] = True
    assert not ds.corrupted.any()
    # the caller's arrays stay writable, and the dataset sees their writes
    feats[0, 0] = 5.0
    assert ds.features[0, 0] == 5.0 and np.shares_memory(ds.features, feats)


def test_noise_injection_shares_features_and_true_labels():
    ds = toy_dataset()
    for noisy in (apply_uniform_noise(ds, 0.4, seed=5), apply_flip_noise(ds, 0.4, seed=5)):
        assert np.shares_memory(noisy.features, ds.features)
        assert np.shares_memory(noisy.true_labels, ds.true_labels)
        assert not np.shares_memory(noisy.observed_labels, ds.observed_labels)
        with pytest.raises(ValueError, match="read-only"):
            noisy.features[0, 0] = 1.0


def test_gen_gaussians_counts_and_determinism():
    ds = toy_dataset(c=3, per_class=100)
    assert ds.n == 300
    assert ds.class_counts.tolist() == [100, 100, 100]
    assert not ds.corrupted.any()
    assert np.array_equal(ds.observed_labels, ds.true_labels)

    again = toy_dataset(c=3, per_class=100)
    assert np.array_equal(again.features, ds.features)
    other = toy_dataset(c=3, per_class=100, seed=1)
    assert not np.array_equal(other.features, ds.features)
    assert other.class_counts.tolist() == [100, 100, 100]


def test_gen_gaussians_zero_spread_collapses_to_means():
    means = circle_means(3)
    ds = gen_gaussians(GaussianMixtureSpec(3, 2, means, 0.0, 5), seed=4)
    for k in range(3):
        rows = ds.features[ds.true_labels == k]
        assert np.allclose(rows, means[k])


@st.composite
def mixture_specs(draw):
    """A spec and a seed: 2-8 classes of 1-40 samples, spread 0 to 1e3, and
    means on a circle of radius 0 (with -0.0 coordinates) or 2, or random
    (1-64 dims) with zero, -0.0 and negative entries."""
    c = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["radius 0", "radius 2", "random"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        means = rng.normal(scale=draw(st.sampled_from([1.0, 1e3])), size=(c, draw(st.integers(1, 64))))
        means[rng.random(means.shape) < 0.25] = 0.0
        means[rng.random(means.shape) < 0.25] = -0.0
    else:
        means = circle_means(c, 0.0 if kind == "radius 0" else 2.0)
    spread = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    spec = GaussianMixtureSpec(c, means.shape[1], means, spread, draw(st.integers(1, 40)))
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mixture_specs())
@example((GaussianMixtureSpec(3, 2, circle_means(3, 0.0), 0.0, 40), 5))
def test_gen_gaussians_draws_the_bits_of_the_scaled_normal_expression(drawn):
    # gen_gaussians draws each class block in place; every entry, signed
    # zeros included, must equal the expression it replaced, evaluated on
    # the same stream class by class.
    spec, seed = drawn
    rng = rng_stream(seed, 0)
    expected = np.concatenate([
        spec.means[k] + spec.covariance_scale * rng.normal(size=(spec.per_class_count, spec.d))
        for k in range(spec.c)
    ])
    ds = gen_gaussians(spec, seed)
    assert ds.features.tobytes() == expected.tobytes()
    assert ds.true_labels.tolist() == np.repeat(np.arange(spec.c), spec.per_class_count).tolist()


def test_gen_gaussians_builds_the_wide_pool_without_class_sized_temporaries():
    # The benchmark's wide pool, 10 classes x 200 x 256. Besides the feature
    # matrix the build holds only its labels and the finiteness check's
    # boolean mask (1/8 of a matrix): about 1.13 matrices. Drawing each class
    # through `means[k] + scale * rng.normal(...)` peaks near 1.22. A first
    # small draw imports numpy.random, which is not the build's memory.
    gen_gaussians(GaussianMixtureSpec(2, 1, np.zeros((2, 1)), 1.0, 1), 0)
    means = np.zeros((10, 256))
    means[np.arange(10), np.arange(10)] = 16.0
    tracemalloc.start()
    try:
        pool = gen_gaussians(GaussianMixtureSpec(10, 256, means, 1.0, 200), 7)
        matrices = tracemalloc.get_traced_memory()[1] / pool.features.nbytes
    finally:
        tracemalloc.stop()
    assert matrices < 1.17, matrices


def test_longtail_counts_formula():
    # factor^(-1/(c-1)) per class step, rounded
    assert longtail_counts(2, 100, 4.0).tolist() == [100, 25]
    counts = longtail_counts(10, 5000, 100.0)
    assert counts[0] == 5000
    assert counts[-1] == 50
    mu = 100.0 ** (-1.0 / 9.0)
    assert counts.tolist() == [round(5000 * mu**i) for i in range(10)]
    with pytest.raises(ValueError, match="empties a class"):
        longtail_counts(5, 3, 100.0)
    with pytest.raises(ValueError, match="empties a class"):
        longtail_counts(3, 0, 2.0)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        longtail_counts(3, 10, 0.5)


def test_longtail_counts_never_rise_so_the_last_class_decides_emptying():
    # The counts, computed here from the formula, never rise with the
    # class index, so the constant-time check of the last count raises
    # exactly when the list would hold a zero; up to 100 classes its
    # message lists the counts. Factors are exactly 1, near 1 and huge.
    rng = np.random.default_rng(29)
    emptied = 0
    for k in range(300):
        c = int(np.exp(rng.uniform(np.log(2), np.log(10**4))))
        base = int(np.exp(rng.uniform(0, np.log(10**4)))) - 1
        factor = (
            1.0, 1.0 + float(np.exp(rng.uniform(np.log(1e-15), np.log(1e-3)))),
            float(np.exp(rng.uniform(0, np.log(1e300)))), float(np.exp(rng.uniform(0, np.log(1e6)))),
        )[k % 4]
        mu = factor ** (-1.0 / (c - 1))
        counts = [round(base * mu**i) for i in range(c)]
        assert all(a >= b for a, b in zip(counts, counts[1:])), (c, base, factor)
        if min(counts) >= 1:
            assert _longtail_ratio(c, base, factor) == mu
            assert longtail_counts(c, base, factor).tolist() == counts
            continue
        emptied += 1
        where = f"counts {counts}" if c <= 100 else f"class {c - 1} of {c} keeps none"
        for check in (_longtail_ratio, longtail_counts):
            with pytest.raises(ValueError) as raised:
                check(c, base, factor)
            assert str(raised.value) == f"imbalance factor {factor} empties a class ({where})"
    assert 30 < emptied < 270
    with pytest.raises(ValueError, match="factor must be >= 1"):
        _longtail_ratio(3, 10, 0.5)


def test_apply_longtail_end_to_end():
    ds = toy_dataset(c=10, per_class=5000, spread=1.0)
    tail = apply_longtail(ds, 100.0, seed=7)
    assert tail.class_counts.tolist() == longtail_counts(10, 5000, 100.0).tolist()
    assert not tail.corrupted.any()
    # no fabricated samples: every kept row exists in the source
    src = {tuple(row) for row in ds.features}
    assert all(tuple(row) in src for row in tail.features[:50])


def test_apply_longtail_factor_one_is_identity():
    ds = toy_dataset(c=3, per_class=50)
    same = apply_longtail(ds, 1.0, seed=3)
    assert same.class_counts.tolist() == [50, 50, 50]
    assert np.array_equal(np.sort(same.features, axis=0), np.sort(ds.features, axis=0))


def test_apply_longtail_requires_balance():
    ds = toy_dataset(c=3, per_class=60)
    tail = apply_longtail(ds, 4.0, seed=1)
    with pytest.raises(ValueError, match="needs a balanced dataset"):
        apply_longtail(tail, 2.0, seed=1)


def test_uniform_noise_rate_zero_and_determinism():
    ds = toy_dataset()
    same = apply_uniform_noise(ds, 0.0, seed=5)
    assert np.array_equal(same.observed_labels, ds.observed_labels)
    a = apply_uniform_noise(ds, 0.4, seed=5)
    b = apply_uniform_noise(ds, 0.4, seed=5)
    assert np.array_equal(a.observed_labels, b.observed_labels)
    assert not np.array_equal(a.observed_labels, apply_uniform_noise(ds, 0.4, seed=6).observed_labels)


def test_uniform_noise_corruption_concentrates():
    # resampling over all c classes: corrupted fraction -> p(c-1)/c
    c, n_per, p = 10, 1000, 1.0
    ds = toy_dataset(c=c, per_class=n_per)
    noisy = apply_uniform_noise(ds, p, seed=9)
    frac = noisy.corrupted.mean()
    expect = p * (c - 1) / c
    assert abs(frac - expect) < binom_3sigma(ds.n, expect)
    assert np.array_equal(noisy.true_labels, ds.true_labels)

    p = 0.4
    noisy = apply_uniform_noise(ds, p, seed=10)
    expect = p * (c - 1) / c
    assert abs(noisy.corrupted.mean() - expect) < binom_3sigma(ds.n, expect)


def test_flip_noise_rate_and_targets():
    ds = toy_dataset(c=5, per_class=2000, spread=1.0)
    p = 0.4
    noisy = apply_flip_noise(ds, p, seed=21)
    assert abs(noisy.corrupted.mean() - p) < binom_3sigma(ds.n, p)
    # flips land on exactly two target classes per source class, never the source
    for k in range(5):
        flipped = noisy.observed_labels[(ds.true_labels == k) & noisy.corrupted]
        targets = set(flipped.tolist())
        assert len(targets) <= 2
        assert k not in targets
    again = apply_flip_noise(ds, p, seed=21)
    assert np.array_equal(again.observed_labels, noisy.observed_labels)


def test_flip_noise_needs_three_classes():
    ds = toy_dataset(c=2, per_class=10)
    with pytest.raises(ValueError):
        apply_flip_noise(ds, 0.2, seed=0)
    same = apply_flip_noise(toy_dataset(c=3, per_class=10), 0.0, seed=0)
    assert not same.corrupted.any()


def test_split_meta_balanced_and_disjoint():
    ds = apply_uniform_noise(toy_dataset(c=3, per_class=100), 0.4, seed=2)
    meta, rest = split_meta(ds, 10, seed=3)
    assert meta.n == 30
    assert meta.class_counts.tolist() == [10, 10, 10]
    assert not meta.corrupted.any()
    assert meta.n + rest.n == ds.n
    meta_rows = {tuple(r) for r in meta.features}
    assert not any(tuple(r) in meta_rows for r in rest.features)


def test_split_meta_insufficient_clean():
    ds = toy_dataset(c=3, per_class=5)
    with pytest.raises(ValueError):
        split_meta(ds, 6, seed=0)
    meta, rest = split_meta(ds, 0, seed=0)
    assert meta.n == 0
    assert rest.n == ds.n


def test_sample_batch_uniform_marginals():
    ds = toy_dataset(c=3, per_class=20)  # N=60
    rng = rng_stream(33, 9)
    hits = np.zeros(ds.n)
    draws = 2000
    for _ in range(draws):
        idx = sample_batch(ds, 6, rng)
        assert len(set(idx.tolist())) == 6
        hits[idx] += 1
    p = 6 / ds.n
    bound = 3.0 * np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(hits / draws - p) < bound)


def test_sample_batch_full_size_is_permutation():
    ds = toy_dataset(c=2, per_class=5)
    idx = sample_batch(ds, ds.n, rng_stream(1, 2))
    assert sorted(idx.tolist()) == list(range(ds.n))
    with pytest.raises(ValueError):
        sample_batch(ds, ds.n + 1, rng_stream(1, 2))


def test_sample_batch_same_state_same_batch():
    ds = toy_dataset()
    a = sample_batch(ds, 8, rng_stream(7, 1))
    b = sample_batch(ds, 8, rng_stream(7, 1))
    assert np.array_equal(a, b)


# Finite float64 values, with signed zeros, the smallest subnormals and
# values near float64's ends among them.
FINITE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def datasets(draw):
    n, d, c = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    features = draw(st.lists(FINITE_FLOATS, min_size=n * d, max_size=n * d))
    labels = st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
    return BiasedDataset(np.array(features).reshape(n, d), draw(labels), draw(labels), c)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(datasets())
@example(apply_uniform_noise(toy_dataset(c=3, per_class=40), 0.3, seed=8))
@example(BiasedDataset(np.array([[0.0, -0.0, 5e-324], [-5e-324, 1e308, -1e308]]), [0, 1], [1, 1], 2))
def test_dataset_csv_round_trip(tmp_path_factory, ds):
    # Save then load gives every value back bit for bit, and saving what
    # was loaded writes the same bytes.
    path = tmp_path_factory.mktemp("data") / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    for name in ("features", "observed_labels", "true_labels", "corrupted"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert back.c == ds.c
    path2 = path.with_name("data2.csv")
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_dataset_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("2,2,3\n0.0,0.0,0,0,0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("1,2,3\n0.0,0.0,0,0\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    # a corrupted flag must agree with the record's labels
    for record in ("1.5,0.5,1,1,1", "1.5,0.5,1,2,0"):
        path.write_text(f"2,2,3\n0.0,0.0,0,0,0\n{record}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: record 1 has corrupted flag "):
            load_dataset(path)
    for cell in ("nan", "inf", "-Infinity"):
        path.write_text(f"2,2,3\n0.0,0.0,0,0,0\n1.5,{cell},1,1,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: record 1 has a non-finite feature$"):
            load_dataset(path)
    # a file that is not UTF-8 text is named like any other fault
    path.write_bytes(b"1,2,3\n0.0,\xff0.0,0,0,0\n")
    undecodable = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {undecodable}')}$"):
        load_dataset(path)


# Header and label faults, each as a file and the message that must follow
# "<path>: "; sample records count from 0 after the header.
LOAD_FAULTS = {
    "negative N": ("-1,2,3\n", "header needs N >= 0, d >= 1 and c >= 2, got N=-1, d=2, c=3"),
    "one class": ("2,2,1\n0.0,0.0,0,0,0\n", "header needs N >= 0, d >= 1 and c >= 2, got N=2, d=2, c=1"),
    "no features": ("2,0,3\n0,0,0\n1,1,0\n", "header needs N >= 0, d >= 1 and c >= 2, got N=2, d=0, c=3"),
    "label past c": ("2,2,3\n0.0,0.0,0,0,0\n1.0,1.0,5,5,0\n", "record 1 has label 5 outside [0, 3)"),
    "label not an integer": ("2,2,3\n0.0,0.0,x,0,1\n1.0,1.0,1,1,0\n", "record 0 has a non-integer field 'x'"),
}


@pytest.mark.parametrize("fault", sorted(LOAD_FAULTS))
def test_load_dataset_names_the_file_and_record_of_a_header_or_label_fault(tmp_path, fault):
    text, message = LOAD_FAULTS[fault]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
        load_dataset(path)
