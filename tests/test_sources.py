import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from datosc import sources
from datosc.errors import FormatError, ParameterError
from datosc.sources import (
    SourceSpec,
    _labels,
    class_means,
    gen_blocks,
    load_pgm,
    pixel_to_sample,
    source_states,
)


def test_iid_case_unit_variance():
    spec = SourceSpec(kind="gauss_markov", n=4096, rho=0.0, seed=1)
    samples, labels = gen_blocks(spec, source_states(spec.seed, 0, 1))
    assert samples.shape == (1, 4096)
    assert 0.95 <= np.var(samples) <= 1.05
    assert labels.tolist() == [-1]


def test_lag1_autocorrelation_matches_rho():
    spec = SourceSpec(kind="gauss_markov", n=8192, rho=0.9, seed=7)
    acc = []
    for x in gen_blocks(spec, source_states(spec.seed, 0, 100))[0]:
        x = x - x.mean()
        acc.append(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert 0.88 <= np.mean(acc) <= 0.92


def test_same_seed_bit_identical():
    spec = SourceSpec(kind="gauss_markov", n=256, rho=0.5, seed=99)
    a = gen_blocks(spec, source_states(spec.seed, 3, 4))[0][0]
    b = gen_blocks(spec, source_states(spec.seed, 3, 4))[0][0]
    assert np.array_equal(a, b)
    c = gen_blocks(spec, source_states(spec.seed, 4, 5))[0][0]
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "spec",
    [
        SourceSpec(kind="gauss_markov", n=48, rho=0.9, seed=31),
        SourceSpec(kind="gauss_markov", n=48, rho=0.0, seed=31),
        SourceSpec(kind="class_mixture", n=32, class_count=3, seed=31),
    ],
    ids=["ar1", "iid", "mixture"],
)
def test_any_range_equals_rows_of_a_longer_one(spec):
    """Workers draw disjoint trial ranges; each must see the rows a single
    serial draw would."""
    samples, labels = gen_blocks(spec, source_states(spec.seed, 0, 40))
    for a, b in ((0, 1), (7, 8), (5, 23), (23, 40), (0, 40)):
        part, part_labels = gen_blocks(spec, source_states(spec.seed, a, b))
        assert np.array_equal(part, samples[a:b])
        assert np.array_equal(part_labels, labels[a:b])


def test_mixture_block_is_its_class_mean_plus_unit_noise():
    spec = SourceSpec(kind="class_mixture", n=64, class_count=4, seed=11)
    means = class_means(64, 4)
    samples, labels = gen_blocks(spec, source_states(spec.seed, 10, 60))
    for i, t in enumerate(range(10, 60)):
        rng = np.random.default_rng((11, t))
        label = int(rng.integers(4))
        assert labels[i] == label
        assert np.array_equal(samples[i], means[label] + rng.standard_normal(64))


def _reference_blocks(spec, seed, t0, t1):
    """Mixture blocks t0..t1-1 drawn one generator at a time through
    Generator.integers, then Generator.standard_normal."""
    labels = []
    samples = []
    for t in range(t0, t1):
        rng = np.random.default_rng((seed, t))
        labels.append(int(rng.integers(spec.class_count)))
        samples.append(class_means(spec.n, spec.class_count)[labels[-1]] + rng.standard_normal(spec.n))
    return np.array(samples), np.array(labels)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 16])
def test_mixture_labels_and_normals_equal_generator_integers(count):
    """A label read off one raw word, or no word at all for one class, is
    Generator.integers' label, and the normals after it are its normals."""
    spec = SourceSpec(kind="class_mixture", n=16, class_count=count)
    samples, labels = gen_blocks(spec, source_states(21, 5, 205))
    ref_samples, ref_labels = _reference_blocks(spec, 21, 5, 205)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(samples, ref_samples)


def test_labels_from_one_word_equal_generator_integers():
    """_labels gives Generator.integers(count) whenever it says the word
    settles the label, and the generator's next normal is then the same as
    after Generator.integers. At count 3 * 2^30 (2^32 mod count = 2^30) and
    2^31 + 1, a quarter and a half of the low halves are sent on: labels come
    from both halves, and some words settle nothing."""
    high_half = unsettled = 0
    for count in (2, 3, 4, 1000, 1024, 3 * 2**30, 2**31 + 1, 2**32 - 1):
        words, want, after_want, after_got = [], [], [], []
        for seed in range(2000):
            ref = np.random.default_rng((seed, count))
            want.append(int(ref.integers(count)))
            after_want.append(ref.standard_normal())
            rng = np.random.default_rng((seed, count))
            words.append(rng.bit_generator.random_raw())
            after_got.append(rng.standard_normal())
        words = np.array(words, dtype=np.uint64)
        labels, settled = _labels(words, count)
        assert np.array_equal(labels[settled], np.array(want)[settled]), count
        assert np.array_equal(np.array(after_got)[settled], np.array(after_want)[settled]), count
        zone = (1 << 32) % count
        low_sent_on = ((words & np.uint64(0xFFFFFFFF)) * np.uint64(count)) & np.uint64(0xFFFFFFFF)
        high_half += int(np.count_nonzero((low_sent_on < zone) & settled))
        unsettled += int(np.count_nonzero(~settled))
    assert high_half > 0 and unsettled > 0


def test_an_unsettled_label_is_drawn_through_generator_integers(monkeypatch):
    """A row whose word settles no label is drawn again from its state by
    Generator.integers, its normals included."""
    real = sources._labels

    def unsettling(words, count):
        labels, settled = real(words, count)
        labels[::3], settled[::3] = -5, False
        return labels, settled

    monkeypatch.setattr(sources, "_labels", unsettling)
    spec = SourceSpec(kind="class_mixture", n=16, class_count=5)
    samples, labels = gen_blocks(spec, source_states(4, 0, 40))
    ref_samples, ref_labels = _reference_blocks(spec, 4, 0, 40)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(samples, ref_samples)


def test_marginal_mean_near_zero():
    spec = SourceSpec(kind="gauss_markov", n=1000, rho=0.8, seed=5)
    total = gen_blocks(spec, source_states(spec.seed, 0, 120))[0]
    assert abs(total.mean()) <= 0.02
    assert total.size >= 10**5


def test_rho_out_of_range_rejected():
    with pytest.raises(ParameterError):
        gen_blocks(SourceSpec(kind="gauss_markov", n=8, rho=1.0), source_states(0, 0, 1))
    with pytest.raises(ParameterError):
        gen_blocks(SourceSpec(kind="gauss_markov", n=8, rho=-0.1), source_states(0, 0, 1))


def test_image_kind_is_not_generated():
    with pytest.raises(ParameterError, match="image_blocks"):
        gen_blocks(SourceSpec(kind="image_blocks", n=64), source_states(0, 0, 1))


def test_class_means_are_orthogonal_with_fixed_norm():
    means = class_means(64, 4)
    gram = means @ means.T
    assert np.allclose(np.diag(gram), 64 * 0.25, atol=1e-9)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9
    # constants are independent of any stream seed
    assert np.array_equal(means, class_means(64, 4))


def test_single_class_always_label_zero():
    spec = SourceSpec(kind="class_mixture", n=16, class_count=1, seed=3)
    assert np.all(gen_blocks(spec, source_states(spec.seed, 0, 20))[1] == 0)


def test_too_many_classes_rejected():
    with pytest.raises(ParameterError):
        gen_blocks(SourceSpec(kind="class_mixture", n=4, class_count=5), source_states(0, 0, 1))


def _mixture_accuracy_oracle(n: int, k_classes: int) -> float:
    """Exact nearest-centroid accuracy for orthogonal equal-norm means under
    unit noise: P(correct) = E_t[Phi(m + t)^(K-1)], m = 0.5*sqrt(n)."""
    m = 0.5 * np.sqrt(n)
    val, _ = quad(
        lambda t: norm.pdf(t) * norm.cdf(m + t) ** (k_classes - 1), -12, 12
    )
    return val


def test_mixture_accuracy_matches_integral_oracle():
    spec = SourceSpec(kind="class_mixture", n=64, class_count=4, seed=21)
    means = class_means(64, 4)
    trials = 10_000
    samples, labels = gen_blocks(spec, source_states(spec.seed, 0, trials))
    d2 = np.sum((samples[:, None, :] - means[None, :, :]) ** 2, axis=2)
    hits = int(np.sum(np.argmin(d2, axis=1) == labels))
    expected = _mixture_accuracy_oracle(64, 4)
    assert abs(hits / trials - expected) <= 0.02


# ---------------------------------------------------------------------------
# PGM ingestion
# ---------------------------------------------------------------------------

def _write_pgm(path, width, height, pixels, maxval=255, magic=b"P5"):
    with open(path, "wb") as fh:
        fh.write(magic + b"\n# comment\n")
        fh.write(f"{width} {height}\n{maxval}\n".encode())
        fh.write(bytes(pixels))


def test_all_zero_image_gives_constant_blocks(tmp_path):
    path = tmp_path / "z.pgm"
    _write_pgm(path, 16, 16, [0] * 256)
    blocks = load_pgm(path)
    assert blocks.shape == (4, 64)
    assert np.all(blocks == -1.0)


def test_single_bright_pixel(tmp_path):
    path = tmp_path / "p.pgm"
    pixels = [0] * 64
    pixels[0] = 255
    _write_pgm(path, 8, 8, pixels)
    (block,) = load_pgm(path)
    assert block[0] == 1.0
    assert np.all(block[1:] == -1.0)


def test_partial_block_zero_padding(tmp_path):
    path = tmp_path / "w.pgm"
    _write_pgm(path, 17, 8, [255] * (17 * 8))
    blocks = load_pgm(path)
    assert blocks.shape == (3, 64)
    third = blocks[2].reshape(8, 8)
    assert np.all(third[:, 0] == 1.0)        # the one real column
    assert np.all(third[:, 1:] == 0.0)       # zero-padded sample positions


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    _write_pgm(path, 8, 8, [0] * 64, magic=b"P2")
    with pytest.raises(FormatError):
        load_pgm(path)


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    _write_pgm(path, 8, 8, [0] * 64, maxval=65535)
    with pytest.raises(FormatError):
        load_pgm(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    _write_pgm(path, 8, 8, [0] * 10)
    with pytest.raises(FormatError):
        load_pgm(path)


def test_pixel_map_round_trips_exactly(tmp_path):
    path = tmp_path / "r.pgm"
    pixels = list(range(256)) * 4  # 32x32 covers every pixel value
    _write_pgm(path, 32, 32, pixels)
    blocks = load_pgm(path)
    grid = np.zeros((32, 32))
    for i, b in enumerate(blocks):
        r, c = divmod(i, 4)
        grid[r * 8 : r * 8 + 8, c * 8 : c * 8 + 8] = b.reshape(8, 8)
    want = pixel_to_sample(np.array(pixels, dtype=np.float64)).reshape(32, 32)
    assert np.array_equal(grid, want)
    assert (grid.min(), grid.max()) == (-1.0, 1.0)
    assert np.unique(grid).size == 256  # no two pixel values share a sample
