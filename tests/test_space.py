"""Space module: codec round-trips, validity, parameter accounting."""

import json

import numpy as np
import pytest
from scipy import stats

from fednaslab.errors import InfeasibleError, ParseError
from fednaslab.nn.layers import AvgPool, ConvBlock, GlobalAvgPool, Linear, Sequential
from fednaslab.space import (
    Genome,
    SpaceConfig,
    conv_gene,
    genome_from_string,
    genome_to_string,
    load_model_npz,
    materialize,
    param_count,
    pool_gene,
    sample_random_genome,
    save_model_npz,
    validate_genome,
)

DESK_SPACE = SpaceConfig(input_shape=(3, 8, 8), d_rep=16, num_classes=2,
                         min_len=3, max_len=4)


def _saved_model(tmp_path, edit_space=None):
    """Save a desk model; `edit_space` may rewrite its space JSON mapping."""
    genome = genome_from_string("C3x16-Pavg-C5x32")
    model = materialize(genome, DESK_SPACE, np.random.default_rng(2))
    path = tmp_path / "model.npz"
    save_model_npz(path, model, genome, DESK_SPACE)
    if edit_space is not None:
        with np.load(path) as data:
            fields = dict(data)
        space = json.loads(str(fields["space"]))
        edit_space(space)
        fields["space"] = json.dumps(space)
        np.savez(path, **fields)
    return path, model


def test_codec_round_trip():
    g = Genome((conv_gene(3, 16), conv_gene(5, 32), pool_gene("avg"), conv_gene(3, 64)))
    s = genome_to_string(g)
    assert s == "C3x16-C5x32-Pavg-C3x64"
    assert genome_from_string(s) == g


def test_codec_rejects_garbage():
    with pytest.raises(ParseError, match="token 1"):
        genome_from_string("C3x16-A7")
    with pytest.raises(ParseError, match="kernel"):
        genome_from_string("C4x16")
    with pytest.raises(ParseError):
        genome_from_string("")


def test_random_genomes_valid_and_length_uniform():
    space = SpaceConfig()
    rng = np.random.default_rng(0)
    lengths = np.zeros(space.max_len - space.min_len + 1, dtype=int)
    for _ in range(10_000):
        g = sample_random_genome(space, rng)
        assert validate_genome(g, space) == []
        lengths[len(g) - space.min_len] += 1
    # length drawn uniformly on [min_len, max_len]
    chi2 = stats.chisquare(lengths)
    assert chi2.pvalue > 0.01, f"length histogram {lengths.tolist()}"


def test_pool_cap_respected():
    space = SpaceConfig(input_shape=(3, 8, 8), min_len=1, max_len=12)
    rng = np.random.default_rng(1)
    for _ in range(500):
        g = sample_random_genome(space, rng)
        assert g.n_pools() <= 3


def test_validate_flags_problems():
    space = SpaceConfig()
    too_short = Genome((conv_gene(3, 16),))
    assert any("length" in p for p in validate_genome(too_short, space))
    bad_channels = Genome(tuple(conv_gene(3, 48) for _ in range(3)))
    assert any("channels" in p for p in validate_genome(bad_channels, space))
    too_many_pools = Genome(
        (conv_gene(3, 16), conv_gene(3, 16)) + tuple(pool_gene("avg") for _ in range(6))
    )
    assert any("pool" in p for p in validate_genome(too_many_pools, space))


def test_param_count_worked_example():
    # single conv block k=3, 3->16 channels on (3,32,32), d_rep 128, 10 classes:
    # depthwise 27, pointwise 48+16, norm 32, projection 48, adapt 2176, head 1290
    space = SpaceConfig(min_len=1)
    g = Genome((conv_gene(3, 16),))
    expected = 27 + (48 + 16) + 32 + 48 + (16 * 128 + 128) + (128 * 10 + 10)
    assert param_count(g, space) == expected


def _ref_param_count(genome, space):
    """Each layer's weight and bias count, stated apart from the layer code."""
    c = space.input_shape[0]
    total = 0
    for g in genome:
        if g.kind == "conv":
            out = g.channels
            total += c * g.kernel * g.kernel  # depthwise weights
            total += c * out + out  # pointwise weights + bias
            total += 2 * out  # norm affine
            if c != out:
                total += c * out  # bias-free projection shortcut
            c = out
    total += c * space.d_rep + space.d_rep  # adaptation linear
    total += space.d_rep * space.num_classes + space.num_classes  # head
    return total


def test_param_count_matches_materialized():
    rng = np.random.default_rng(2)
    for space in (DESK_SPACE, SpaceConfig()):
        for _ in range(25):
            g = sample_random_genome(space, rng)
            model = materialize(g, space, np.random.default_rng(3))
            assert model.n_params == _ref_param_count(g, space), g.key
            assert param_count(g, space) == model.n_params, g.key


@pytest.mark.parametrize("h,w", [(1, 1), (3, 7), (5, 8), (32, 32)])
def test_pool_cap_pools_keep_both_sides_at_least_one(h, w):
    space = SpaceConfig(input_shape=(3, h, w), d_rep=8, num_classes=2,
                        min_len=1, max_len=12)
    pools = tuple(pool_gene(("avg", "max")[i % 2]) for i in range(space.pool_cap))
    model = materialize(Genome((conv_gene(3, 16),) + pools), space,
                        np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 3, h, w)).astype(np.float32)
    assert model.forward_bottom(x).shape == (2, space.d_rep)
    with pytest.raises(InfeasibleError, match=f"exceed cap {space.pool_cap}"):
        materialize(Genome((conv_gene(3, 16),) + pools + (pool_gene("avg"),)),
                    space, np.random.default_rng(0))


def test_materialize_deterministic_and_forward_shapes():
    space = SpaceConfig(input_shape=(3, 16, 16), d_rep=32, num_classes=4, min_len=1, max_len=5)
    g = genome_from_string("C3x16-Pavg-C5x32")
    m1 = materialize(g, space, np.random.default_rng(7))
    m2 = materialize(g, space, np.random.default_rng(7))
    np.testing.assert_array_equal(m1.get_flat(), m2.get_flat())

    x = np.random.default_rng(8).normal(size=(4, 3, 16, 16)).astype(np.float32)
    z, logits = m1.forward_bottom(x), m1.logits(x)
    assert z.shape == (4, 32)
    assert logits.shape == (4, 4)


def test_materialize_rejects_invalid():
    space = SpaceConfig()
    with pytest.raises(InfeasibleError, match="invalid genome"):
        materialize(Genome((conv_gene(3, 16),)), space, np.random.default_rng(0))


def test_size_guard_under_default_bounds():
    # largest possible stack stays under 2 MB at 4 bytes per parameter
    space = SpaceConfig()
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = sample_random_genome(space, rng)
        assert 4 * param_count(g, space) < 2 * 1024 * 1024


def test_model_npz_round_trip(tmp_path):
    path, model = _saved_model(tmp_path)
    loaded, genome, space = load_model_npz(path)
    assert space == DESK_SPACE
    assert str(genome) == "C3x16-Pavg-C5x32"
    assert np.array_equal(loaded.get_flat(), model.get_flat())


def test_flat_vector_is_the_bottom_then_the_head(tmp_path):
    # the layout every saved model file holds; files written in it must
    # keep loading as the same model
    genome = genome_from_string("C3x16-Pavg-C5x32")
    model = materialize(genome, DESK_SPACE, np.random.default_rng(2))
    np.testing.assert_array_equal(
        model.get_flat(),
        np.concatenate([model.bottom.get_flat(), model.head.get_flat()]))
    nb = model.bottom.n_params
    vec = np.arange(model.n_params, dtype=np.float32) / model.n_params
    model.set_flat(vec)
    np.testing.assert_array_equal(model.bottom.get_flat(), vec[:nb])
    np.testing.assert_array_equal(model.head.get_flat(), vec[nb:])
    path = tmp_path / "layout.npz"
    np.savez(path, genome=str(genome), space=DESK_SPACE.to_json(), params=vec)
    loaded, _, _ = load_model_npz(path)
    np.testing.assert_array_equal(loaded.bottom.get_flat(), vec[:nb])
    np.testing.assert_array_equal(loaded.head.get_flat(), vec[nb:])


def test_materialize_draws_the_bottom_before_the_head():
    model = materialize(genome_from_string("C3x16-Pavg-C5x32"), DESK_SPACE,
                        np.random.default_rng(2))
    bottom = Sequential([ConvBlock(3, 16, 3), AvgPool(), ConvBlock(16, 32, 5),
                         GlobalAvgPool(), Linear(32, DESK_SPACE.d_rep)])
    head = Sequential([Linear(DESK_SPACE.d_rep, DESK_SPACE.num_classes)])
    rng = np.random.default_rng(2)
    bottom.init_params(rng)
    head.init_params(rng)
    np.testing.assert_array_equal(
        model.get_flat(), np.concatenate([bottom.get_flat(), head.get_flat()]))


@pytest.mark.parametrize("key", ["max_len", "d_rep", "pool_types"])
def test_load_model_npz_requires_every_space_key(tmp_path, key):
    # a default would rebuild a different space than the one saved
    path, _ = _saved_model(tmp_path, lambda space: space.pop(key))
    with pytest.raises(ParseError, match=rf"model\.npz.*missing.*{key}"):
        load_model_npz(path)


@pytest.mark.parametrize("key,value", [
    ("max_len", "4"), ("input_shape", [3, 8]), ("num_classes", 1),
])
def test_load_model_npz_rejects_bad_space_value(tmp_path, key, value):
    path, _ = _saved_model(tmp_path, lambda space: space.update({key: value}))
    with pytest.raises(ParseError, match="model.npz"):
        load_model_npz(path)
