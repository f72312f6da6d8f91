"""Batched stream seeding against np.random.default_rng.

stream_states and default_rngs must equal default_rng entropy by entropy,
and gen_blocks must equal the per-block loop it replaced, which built one
default_rng((seed, t)) per block. ChannelState.for_block must hold block t's
default_rng(seed ^ t) stream after its gain draw, and draw_trials must equal
a loop over for_block states that takes each block's h and then one noise
draw from its rng. Those loops live on here only, as oracles.
"""

import numpy as np
import pytest

import datosc.harness as H
from datosc.channel import ChannelState, channel_states, draw_blocks, transmit
from datosc.sources import SourceSpec, class_means, gen_blocks, source_states
from datosc.streams import default_rngs, stream_states

_MASK64 = (1 << 64) - 1

RANDOM_INTS = [
    int(v) for v in np.random.default_rng(0x57EA).integers(0, 2**64 - 1, 12, dtype=np.uint64)
]
VALUES = [0, 1, 2**32 - 1, 2**32, 2**33, 2**64 - 1, *RANDOM_INTS]
# heads of 0 to 5 words: None, 1 word, 2 words and the 5-word 2**130 + ...
HEADS = [None, 0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**130 + 0x1234_5678_9ABC]


def _assert_equal_streams(gen, ref, entropy):
    assert gen.bit_generator.state == ref.bit_generator.state, entropy
    assert np.array_equal(gen.standard_normal(7), ref.standard_normal(7)), entropy
    assert np.array_equal(gen.integers(0, 1000, 5), ref.integers(0, 1000, 5)), entropy
    assert np.array_equal(gen.random(3), ref.random(3)), entropy


def _entropy(head, value):
    return int(value) if head is None else (head, int(value))


def test_default_rngs_equal_default_rng():
    """Per head, one batch of values of 1 and 2 words (1 to 7 entropy words
    in all), and each value alone."""
    values = np.array(VALUES, dtype=np.uint64)
    for head in HEADS:
        gens = list(default_rngs(stream_states(head, values)))
        assert len(gens) == len(values)
        for value, gen in zip(values, gens):
            entropy = _entropy(head, value)
            _assert_equal_streams(gen, np.random.default_rng(entropy), entropy)
        for i, value in enumerate(values):
            (gen,) = default_rngs(stream_states(head, values[i : i + 1]))
            entropy = _entropy(head, value)
            _assert_equal_streams(gen, np.random.default_rng(entropy), entropy)


@pytest.mark.parametrize("seed", [5, 2**32 - 1, 2**32 + 3, 2**64 - 0x1F3, 2**70 + 9])
def test_channel_states_cross_the_word_boundary(seed):
    """seed ^ t over ranges whose values cross 2^32 (1- and 2-word entropies
    in one table), near 2^64 and from negative t, against
    default_rng((seed ^ t) & mask); a chunk's rows equal each block's own
    states, for blocks of 256 rows."""
    for t0, t1 in [(2**32 - 300, 2**32 + 300), (0, 40), (2**63 - 20, 2**63 - 1), (-5, 5)]:
        states = channel_states(seed, t0, t1)
        for t, gen in zip(range(t0, t1), default_rngs(states)):
            ref = np.random.default_rng((seed ^ t) & _MASK64)
            assert gen.bit_generator.state == ref.bit_generator.state, (seed, t)
        for a in range(0, t1 - t0, 256):
            b = min(a + 256, t1 - t0)
            assert np.array_equal(states[a:b], channel_states(seed, t0 + a, t0 + b))


@pytest.mark.parametrize("seed", [0, 12345, 2**32 - 1, 2**32, 2**63 + 11])
def test_source_states_span_blocks_of_a_chunk(seed):
    """(seed, t) for seeds of 1 and 2 words and t crossing 2^32, against
    default_rng((seed, t)); a chunk of 600 trials hashed once gives each of
    its 256-row blocks the states of that block alone."""
    for t0, t1 in [(100, 700), (2**32 - 300, 2**32 + 300)]:
        states = source_states(seed, t0, t1)
        for t, gen in zip(range(t0, t1), default_rngs(states)):
            ref = np.random.default_rng((seed, t))
            assert gen.bit_generator.state == ref.bit_generator.state, (seed, t)
        for a in range(0, t1 - t0, 256):
            b = min(a + 256, t1 - t0)
            assert np.array_equal(states[a:b], source_states(seed, t0 + a, t0 + b))


@pytest.mark.parametrize("entropy", [-1, (3, -1), (-3, 1)])
def test_negative_entropy_raises_like_default_rng(entropy):
    with pytest.raises(ValueError) as ref:
        np.random.default_rng(entropy)
    head, value = (None, entropy) if isinstance(entropy, int) else entropy
    with pytest.raises(ValueError) as got:
        stream_states(head, np.array([5, value]))
    assert str(got.value) == str(ref.value)
    if head is not None:
        with pytest.raises(ValueError) as got:
            gen_blocks(SourceSpec(seed=head), value, 2)
        assert str(got.value) == str(ref.value)


def test_empty_batch_yields_nothing_and_batches_are_lazy():
    assert list(default_rngs(stream_states(None, np.zeros(0, dtype=np.int64)))) == []
    assert stream_states(3, np.zeros(0, dtype=np.int64)).shape == (0, 4)
    rngs = default_rngs(stream_states(None, np.arange(3)))
    assert iter(rngs) is rngs


def _reference_blocks(spec, t0, t1):
    """gen_blocks as one default_rng((seed, t)) per block, AR(1) per block."""
    samples = np.empty((t1 - t0, spec.n))
    labels = np.full(t1 - t0, -1, dtype=np.int64)
    for i, t in enumerate(range(t0, t1)):
        rng = np.random.default_rng((spec.seed, t))
        if spec.kind == "class_mixture":
            labels[i] = rng.integers(spec.class_count)
            samples[i] = class_means(spec.n, spec.class_count)[labels[i]] + rng.standard_normal(spec.n)
            continue
        w = rng.standard_normal(spec.n)
        scale = np.sqrt(1.0 - spec.rho**2)
        samples[i, 0] = w[0]
        for j in range(1, spec.n):
            samples[i, j] = spec.rho * samples[i, j - 1] + scale * w[j]
    return samples, labels


@pytest.mark.parametrize(
    "spec",
    [
        SourceSpec(kind="gauss_markov", n=24, rho=0.9, seed=0xA5A5_0000_1234_5678),
        SourceSpec(kind="class_mixture", n=16, class_count=3, seed=2**63 + 11),
    ],
    ids=["ar1", "mixture"],
)
def test_gen_blocks_match_one_default_rng_per_block(spec):
    samples, labels = gen_blocks(spec, 9, 45)
    ref_samples, ref_labels = _reference_blocks(spec, 9, 45)
    assert np.array_equal(samples, ref_samples)
    assert np.array_equal(labels, ref_labels)


SEED = 2**64 - 0x1F3


@pytest.mark.parametrize("fading", ["awgn", "rayleigh"])
def test_for_blocks_match_one_default_rng_per_block(fading):
    x = np.exp(1j * np.arange(6.0))
    for t in range(3, 40):
        state = ChannelState.for_block(7.0, fading, SEED, t)
        rng = np.random.default_rng((SEED ^ t) & _MASK64)
        h = 1.0 + 0.0j
        if fading == "rayleigh":
            re, im = rng.standard_normal(2)
            h = complex(re, im) / np.sqrt(2.0)
        assert state.h == h
        assert state.noise_var == 10.0 ** (-0.7)
        assert state.rng.bit_generator.state == rng.bit_generator.state
        noise = rng.standard_normal(2 * x.size) * np.sqrt(state.noise_var / 2.0)
        assert np.array_equal(transmit(x, state), h * x + (noise[0::2] + 1j * noise[1::2]))
        assert state.rng.bit_generator.state == rng.bit_generator.state


def _bits(values):
    """The float bits of a real or complex array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


def test_gain_equals_the_chunk_formula_and_the_complex_quotient():
    """h = (re, im) / sqrt(2) part by part, as for_block and draw_blocks form
    it, has the bits of complex(re, im) / sqrt(2) on 3,000 blocks."""
    h, _ = draw_blocks(0.0, "rayleigh", SEED, 0, 3000, 0)
    gains = [ChannelState.for_block(0.0, "rayleigh", SEED, t).h for t in range(3000)]
    quotients = []
    for t in range(3000):
        re, im = np.random.default_rng((SEED ^ t) & _MASK64).standard_normal(2)
        quotients.append(complex(re, im) / np.sqrt(2.0))
    assert np.array_equal(_bits(h), _bits(np.array(gains)))
    assert np.array_equal(_bits(h), _bits(np.array(quotients)))


def _reference_draws(config, setup, snr_db, point_index, t0, t1):
    """draw_trials' channel draws as a loop over for_block states: h, then
    one standard_normal call on the state's rng for both partitions."""
    uses = setup.n_analog + setup.n_digital
    seed = H.derive_seed(config.seed, point_index, 1)
    h, noise = [], []
    for t in range(t0, t1):
        state = ChannelState.for_block(snr_db, config.channel, seed, t)
        h.append(state.h)
        raw = state.rng.standard_normal(2 * uses)
        noise.append((raw * np.sqrt(state.noise_var / 2.0)).view(np.complex128))
    return np.array(h), np.array(noise).reshape(t1 - t0, uses)


@pytest.fixture(scope="module")
def tile_image(tmp_path_factory):
    path = tmp_path_factory.mktemp("img") / "tiles.pgm"
    rng = np.random.default_rng(0x7113)
    path.write_bytes(b"P5\n24 16\n255\n" + rng.integers(0, 256, 24 * 16, dtype=np.uint8).tobytes())
    return str(path)


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
@pytest.mark.parametrize("source", ["gauss_markov", "image_blocks"])
@pytest.mark.parametrize("scheme", ["analog", "digital", "da"])
def test_draw_trials_equal_one_state_per_trial(channel, source, scheme, tile_image):
    image = tile_image if source == "image_blocks" else None
    cfg = H.ExperimentConfig(
        scheme=scheme, channel=channel, source_kind=source, image=image, seed=0xD7A5
    )
    setup = H.build_link(cfg)
    draws = H.draw_trials(cfg, setup, 5.0, 2, 13, 77)
    h, noise = _reference_draws(cfg, setup, 5.0, 2, 13, 77)
    assert np.array_equal(_bits(draws.h), _bits(h))
    assert np.array_equal(_bits(draws.w_a), _bits(noise[:, : setup.n_analog]))
    assert np.array_equal(_bits(draws.w_d), _bits(noise[:, setup.n_analog :]))
    assert draws.noise_var == 10.0 ** (-0.5)
