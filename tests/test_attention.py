import re
import tracemalloc

import numpy as np
import pytest

from dualfilter.attention import (
    LAYERNORM_DEGENERATE_VAR,
    LAYERNORM_EPS,
    TILE,
    FeedForwardParams,
    LayerParams,
    attention_weights,
    embed_sequence,
    layer_forward,
    layer_norm,
    layer_stack,
    positional_encoding,
    predictions,
    random_layer_params,
    simplified_form,
)


def per_position_layer(params, sigmas, tail):
    """The attention map, then the block's tail if tail, as one full evaluation per position on columns 1..t."""

    def norm(y):
        mean = y.mean()
        var = np.mean((y - mean) ** 2)
        denom = np.sqrt(var + LAYERNORM_EPS) if var <= LAYERNORM_DEGENERATE_VAR else np.sqrt(var)
        return params.gamma * ((y - mean) / denom) + params.beta

    def ffn(y):
        f = params.ffn
        h = f.W1 @ y + f.b1
        h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))
        return f.W2 @ h + f.b2

    out = np.zeros_like(sigmas)
    for t in range(1, sigmas.shape[1] + 1):
        block = sigmas[:, :t]
        heads = []
        for W_Q, W_K, W_V in zip(params.W_Q, params.W_K, params.W_V):
            q = W_Q @ block[:, -1]
            logits = (W_K @ block).T @ q / np.sqrt(W_Q.shape[0])
            w = np.exp(logits - logits.max())
            heads.append(W_V @ (block @ (w / w.sum())))
        y = params.W_O @ np.concatenate(heads)
        if tail:
            y = norm(y + sigmas[:, t - 1])
            y = norm(y + ffn(y))
        out[:, t - 1] = y
    return out


def per_head_layer(params, sigmas):
    """The bare layer one head at a time, each through the same tiles and arithmetic as layer_forward."""
    d, T = sigmas.shape
    d_V = params.W_V.shape[1]
    concat = np.empty((d, T))
    for h, (W_Q, W_K, W_V) in enumerate(zip(params.W_Q, params.W_K, params.W_V)):
        Q, K, V = W_Q @ sigmas, W_K @ sigmas, W_V @ sigmas
        for a in range(0, T, TILE):
            b = min(a + TILE, T)
            scores = Q[:, a:b].T @ K[:, :b] / np.sqrt(W_Q.shape[0])
            scores[:, a:][np.triu(np.ones((b - a, b - a), dtype=bool), k=1)] = -np.inf
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            concat[h * d_V : (h + 1) * d_V, a:b] = V[:, :b] @ (w / w.sum(axis=1, keepdims=True)).T
    return params.W_O @ concat


def per_position_bilinear(params, sigmas, t, f):
    """simplified_form as a sum over the visible positions s, one term at a time."""
    block = sigmas[:, :t]
    d_V = params.W_V.shape[1]
    total = 0.0
    for h, alpha in enumerate(attention_weights(params, block)):
        L_h = params.W_O[:, h * d_V : (h + 1) * d_V] @ params.W_V[h]
        proj = L_h.T @ f
        for s in range(t):
            total += alpha[s] * float(block[:, s] @ proj)
    return total


def bare_layer(W_Q, W_K, W_V, W_O):
    """Attention parameters from stacked projections; the tail gets an identity layernorm and a zero feed-forward."""
    d = W_O.shape[0]
    ffn = FeedForwardParams(W1=np.zeros((d, d)), b1=np.zeros(d), W2=np.zeros((d, d)), b2=np.zeros(d))
    return LayerParams(W_Q=W_Q, W_K=W_K, W_V=W_V, W_O=W_O, gamma=np.ones(d), beta=np.zeros(d), ffn=ffn)


def one_head(W_Q, W_K, W_V):
    """The bare layer with a single head given by its (rows, d) projections, and W_O = I."""
    return bare_layer(W_Q[None], W_K[None], W_V[None], np.eye(W_V.shape[1]))


def head_output(params, sigmas):
    """A one-head layer's output at the last position, which is that head's output as W_O = I."""
    return layer_forward(params, sigmas)[:, -1]


class TestPositionalEncoding:
    def test_first_column_values(self):
        pe = positional_encoding(2, 3)
        assert abs(pe[0, 0] - np.sin(1e-4)) <= 1e-18
        assert abs(pe[1, 0] - np.cos(1e-4)) <= 1e-18

    def test_even_rows_are_cosines(self):
        pe = positional_encoding(4, 5)
        for i in (1, 2):
            freq = 10000.0 ** (-2.0 * i / 4)
            np.testing.assert_allclose(pe[2 * i - 1], np.cos(freq * np.arange(1, 6)))
            np.testing.assert_allclose(pe[2 * i - 2], np.sin(freq * np.arange(1, 6)))

    def test_entries_bounded(self):
        pe = positional_encoding(8, 50)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            positional_encoding(3, 4)


class TestEmbedSequence:
    def test_zero_embedding_leaves_positional(self, rng):
        pe = positional_encoding(4, 5)
        sig = embed_sequence(np.zeros((4, 3)), pe, (0, 2, 1, 0, 2))
        np.testing.assert_array_equal(sig, pe)

    def test_zero_positional_leaves_embedding(self, rng):
        emb = rng.standard_normal((4, 3))
        pe = positional_encoding(4, 4)
        sig = embed_sequence(emb, np.zeros((4, 4)), (2, 0, 1, 2))
        np.testing.assert_array_equal(sig, emb[:, [2, 0, 1, 2]])

    def test_repeated_token_differs_by_position_column(self, rng):
        emb = rng.standard_normal((4, 2))
        pe = positional_encoding(4, 3)
        sig = embed_sequence(emb, pe, (1, 0, 1))
        np.testing.assert_allclose(sig[:, 2] - sig[:, 0], pe[:, 2] - pe[:, 0])

    def test_path_longer_than_horizon(self, rng):
        pe = positional_encoding(4, 2)
        with pytest.raises(ValueError, match="horizon"):
            embed_sequence(np.zeros((4, 2)), pe, (0, 1, 0))


class TestAttentionWeights:
    def test_zero_query_projection_is_uniform(self, rng):
        head = one_head(
            W_Q=np.zeros((2, 4)), W_K=rng.standard_normal((2, 4)), W_V=rng.standard_normal((4, 4))
        )
        (w,) = attention_weights(head, rng.standard_normal((4, 5)))
        np.testing.assert_allclose(w, np.full(5, 0.2))

    def test_single_position(self, rng):
        head = one_head(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        np.testing.assert_array_equal(attention_weights(head, rng.standard_normal((4, 1))), [[1.0]])

    def test_saturates_on_dominant_logit(self):
        head = one_head(W_Q=np.eye(2), W_K=np.eye(2), W_V=np.eye(2))
        sig = np.array([[10.0, 0.0, 10.0], [0.0, 0.0, 0.0]])
        (w,) = attention_weights(head, sig)
        assert 1.0 - (w[0] + w[2]) <= 1e-20
        assert w[1] <= 1e-20

    def test_probability_vector(self, rng):
        for _ in range(50):
            head = one_head(
                W_Q=rng.standard_normal((3, 6)),
                W_K=rng.standard_normal((3, 6)),
                W_V=rng.standard_normal((6, 6)),
            )
            (w,) = attention_weights(head, rng.standard_normal((6, 4)))
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_block_names_its_position(self, rng, bad):
        params = random_layer_params(rng, 4, 2)
        sig = rng.standard_normal((4, 3))
        sig[2, 1] = bad
        with pytest.raises(ValueError, match="input signal is not finite at position 2$"):
            attention_weights(params, sig)

    @pytest.mark.parametrize("n_head", [1, 2, 4])
    def test_one_row_per_head(self, rng, n_head):
        params = random_layer_params(rng, 8, n_head)
        sig = rng.standard_normal((8, 5))
        w = attention_weights(params, sig)
        assert w.shape == (n_head, 5)
        for h in range(n_head):
            logits = (params.W_K[h] @ sig).T @ (params.W_Q[h] @ sig[:, -1]) / np.sqrt(8 // n_head)
            expect = np.exp(logits - logits.max())
            np.testing.assert_allclose(w[h], expect / expect.sum(), rtol=0, atol=1e-15)


class TestHeadOutput:
    def test_constant_inputs_pass_through_value_matrix(self, rng):
        head = one_head(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        col = rng.standard_normal(4)
        sig = np.tile(col[:, None], (1, 6))
        np.testing.assert_allclose(head_output(head, sig), head.W_V[0] @ col, atol=1e-12)

    def test_single_position_is_value_projection(self, rng):
        head = one_head(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        col = rng.standard_normal((4, 1))
        np.testing.assert_allclose(head_output(head, col), head.W_V[0] @ col[:, 0])

    def test_prefix_permutation_invariance(self, rng):
        head = one_head(
            W_Q=rng.standard_normal((3, 6)),
            W_K=rng.standard_normal((3, 6)),
            W_V=rng.standard_normal((6, 6)),
        )
        sig = rng.standard_normal((6, 5))
        base = head_output(head, sig)
        for _ in range(10):
            perm = rng.permutation(4)
            shuffled = sig.copy()
            shuffled[:, :4] = shuffled[:, perm]
            assert np.max(np.abs(head_output(head, shuffled) - base)) <= 1e-12


class TestLayerForward:
    def test_uniform_attention_is_causal_running_mean(self, rng):
        d = 3
        params = one_head(W_Q=np.zeros((d, d)), W_K=np.eye(d), W_V=np.eye(d))
        sig = rng.standard_normal((d, 5))
        out = layer_forward(params, sig)
        for t in range(1, 6):
            np.testing.assert_allclose(out[:, t - 1], sig[:, :t].mean(axis=1), atol=1e-12)

    def test_causality_bit_exact(self, rng):
        params = random_layer_params(rng, 8, 2)
        sig = rng.standard_normal((8, 6))
        out_a = layer_stack(params, sig, 1)[1]
        bumped = sig.copy()
        bumped[:, 4:] = rng.standard_normal((8, 2))
        out_b = layer_stack(params, bumped, 1)[1]
        assert np.array_equal(out_a[:, :4], out_b[:, :4])

    @pytest.mark.parametrize("tail", [False, True], ids=["---", "RLF"])
    def test_matches_per_position_evaluation(self, rng, tail):
        for n_head in (1, 2, 4):
            params = random_layer_params(rng, 8, n_head)
            for T in (1, 7, TILE - 1, TILE, TILE + 1, 64, 2 * TILE + 1):
                sig = rng.standard_normal((8, T))
                out = layer_stack(params, sig, 1)[1] if tail else layer_forward(params, sig)
                assert np.max(np.abs(out - per_position_layer(params, sig, tail))) <= 1e-13

    @pytest.mark.parametrize("n_head", [1, 2, 4, 8])
    def test_stacked_heads_match_one_head_at_a_time_to_the_bit(self, rng, n_head):
        params = random_layer_params(rng, 8, n_head)
        for T in (1, 7, TILE + 1, 3 * TILE - 5):
            sig = rng.standard_normal((8, T))
            assert np.array_equal(layer_forward(params, sig), per_head_layer(params, sig))

    @pytest.mark.parametrize("start", [6 * TILE + 8, 6 * TILE], ids=["mid-tile", "tile-edge"])
    def test_causality_bit_exact_long_sequence(self, rng, start):
        params = random_layer_params(rng, 8, 2)
        sig = rng.standard_normal((8, 300))
        bumped = sig.copy()
        bumped[:, start:] = rng.standard_normal((8, 300 - start))
        block_a, block_b = (layer_stack(params, s, 1)[1] for s in (sig, bumped))
        assert np.array_equal(block_a[:, :start], block_b[:, :start])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_names_its_position(self, rng, bad):
        # one tile holds positions 1..TILE: a NaN or inf at position 5 would reach positions 1..4
        params = random_layer_params(rng, 8, 2)
        sig = rng.standard_normal((8, TILE))
        sig[3, 4] = bad
        sig[0, 9] = bad
        with pytest.raises(ValueError, match="input signal is not finite at position 5$"):
            layer_forward(params, sig)

    def test_overflowing_value_projection_names_its_position(self):
        params = one_head(W_Q=np.eye(2), W_K=np.eye(2), W_V=10.0 * np.eye(2))
        sig = np.ones((2, 6))
        sig[1, 3] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="value projection is not finite at position 4$"):
            layer_forward(params, sig)

    def test_overflowing_future_score_gets_zero_weight(self, rng):
        # position 4's key overflows every score it enters to inf; its value stays finite, and
        # positions 4..6, which see that key, come out NaN
        params = one_head(W_Q=np.eye(2), W_K=np.eye(2), W_V=1e-10 * np.eye(2))
        sig = 1e10 * rng.random((2, 6))
        bumped = sig.copy()
        bumped[:, 3] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            out = layer_forward(params, bumped)
        assert np.array_equal(out[:, :3], layer_forward(params, sig)[:, :3])
        assert np.isnan(out[:, 3:]).all()

    def test_memory_is_linear_in_length(self, rng):
        # one (T, T) float64 array at T = 1000 would take 7.6 MiB
        params = random_layer_params(rng, 8, 2)
        sig = rng.standard_normal((8, 1000))
        tracemalloc.start()
        try:
            layer_forward(params, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_head_count_must_divide_dimension(self, rng):
        with pytest.raises(ValueError, match="divide"):
            random_layer_params(rng, 8, 3)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "shapes, match",
        [(((1, 2, 4), (1, 3, 4), (1, 4, 4)), "stack"), (((1, 4, 4), (1, 4, 4), (1, 4, 3)), "stack"),
         (((2, 2, 4), (2, 2, 4), (1, 4, 4)), "stack"), (((2, 4), (2, 4), (4, 4)), "stack")],
        ids=["query-key", "value-input", "head-count", "unstacked"],
    )
    def test_head_shapes_must_agree(self, shapes, match):
        W_Q, W_K, W_V = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match=match):
            bare_layer(W_Q, W_K, W_V, np.zeros((4, 4)))

    @pytest.mark.parametrize(
        "n_head, d_V, d_in, W_O_shape, match",
        [(0, 2, 4, (4, 4), "at least one"), (2, 2, 4, (4, 2), "square"), (1, 2, 4, (4, 4), "must equal d"),
         (2, 2, 3, (4, 4), "inputs of dimension d = 4")],
        ids=["no-heads", "nonsquare-W_O", "short-concat", "input-dimension"],
    )
    def test_layer_shapes_must_agree(self, n_head, d_V, d_in, W_O_shape, match):
        with pytest.raises(ValueError, match=match):
            bare_layer(np.zeros((n_head, 2, d_in)), np.zeros((n_head, 2, d_in)), np.zeros((n_head, d_V, d_in)),
                       np.zeros(W_O_shape))

    def test_dimensions_read_from_parameters(self, rng):
        params = random_layer_params(rng, 8, 4)
        assert (params.d, params.n_head) == (8, 4)
        assert params.W_Q.shape == params.W_K.shape == params.W_V.shape == (4, 2, 8)

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (5, 3)], ids=["vector", "no-columns", "wrong-dimension"])
    def test_attention_weights_need_a_block(self, rng, shape):
        params = random_layer_params(rng, 4, 1)
        with pytest.raises(ValueError, match="block"):
            attention_weights(params, np.zeros(shape))

    def test_layer_input_dimension_must_match(self, rng):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match=r"need a \(4, t\) block with t >= 1, got shape \(6, 3\)$"):
            layer_forward(params, rng.standard_normal((6, 3)))

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (4, 3, 1)], ids=["vector", "no-columns", "three-axes"])
    def test_layer_and_bilinear_form_need_the_same_block(self, rng, shape):
        params = random_layer_params(rng, 4, 2)
        text = rf"need a \(4, t\) block with t >= 1, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=text):
            layer_forward(params, np.zeros(shape))
        with pytest.raises(ValueError, match=text):
            simplified_form(params, np.zeros(shape), 1, np.zeros(4))

    @pytest.mark.parametrize("t", [0, 4])
    def test_simplified_form_position_in_range(self, rng, t):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match="outside"):
            simplified_form(params, rng.standard_normal((4, 3)), t, np.zeros(4))

    @pytest.mark.parametrize("t", [2.5, True, "2", None], ids=["fraction", "bool", "str", "none"])
    def test_simplified_form_position_must_be_an_integer(self, rng, t):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match=rf"^position t = {re.escape(repr(t))} is not an integer$"):
            simplified_form(params, rng.standard_normal((4, 3)), t, np.zeros(4))

    @pytest.mark.parametrize("t", [np.int64(2), 2.0], ids=["numpy-int", "whole-float"])
    def test_simplified_form_takes_an_integer_valued_position(self, rng, t):
        params = random_layer_params(rng, 4, 2)
        sig, f = rng.standard_normal((4, 3)), rng.standard_normal(4)
        assert simplified_form(params, sig, t, f) == simplified_form(params, sig, 2, f)


class TestSizeArguments:
    """Every size argument is read by check_integer and range-checked: a ValueError, never a numpy or Python error."""

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda rng: random_layer_params(rng, 8, 0), "need d >= 1 and n_head >= 1, got d = 8, n_head = 0"),
            (lambda rng: random_layer_params(rng, 0, 1), "need d >= 1 and n_head >= 1, got d = 0, n_head = 1"),
            (lambda rng: random_layer_params(rng, 8, 3), "n_head = 3 must divide d = 8"),
            (lambda rng: random_layer_params(rng, 8, 2.5), "n_head = 2.5 is not an integer"),
            (lambda rng: random_layer_params(rng, True, 1), "d = True is not an integer"),
            (lambda rng: layer_stack(random_layer_params(rng, 4, 2), np.zeros((4, 2)), 2.5),
             "n_layers = 2.5 is not an integer"),
            (lambda rng: layer_stack(random_layer_params(rng, 4, 2), np.zeros((4, 2)), "2"),
             "n_layers = '2' is not an integer"),
            (lambda rng: positional_encoding(4.5, 2), "d = 4.5 is not an integer"),
            (lambda rng: positional_encoding(4, 2.5), "T = 2.5 is not an integer"),
            (lambda rng: positional_encoding(4, -1), "need T >= 0 positions, got -1"),
        ],
        ids=["zero-heads", "zero-d", "heads-not-dividing", "fraction-heads", "bool-d", "fraction-layers",
             "str-layers", "fraction-encoding-d", "fraction-encoding-T", "negative-encoding-T"],
    )
    def test_bad_size_raises_a_value_error(self, rng, call, text):
        with pytest.raises(ValueError) as err:
            call(rng)
        assert str(err.value) == text

    def test_whole_real_sizes_are_the_ints_they_equal(self):
        want, got = (random_layer_params(np.random.default_rng(3), 8, n) for n in (2, 2.0))
        for name in ("W_Q", "W_K", "W_V", "W_O", "gamma", "beta"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.ffn.W1.tobytes() == want.ffn.W1.tobytes() and got.ffn.W2.tobytes() == want.ffn.W2.tobytes()
        assert positional_encoding(4.0, np.int64(2)).tobytes() == positional_encoding(4, 2).tobytes()
        sig = np.random.default_rng(4).standard_normal((8, 3))
        for a, b in zip(layer_stack(want, sig, 2.0), layer_stack(want, sig, 2)):
            assert a.tobytes() == b.tobytes()


class TestLayerNorm:
    def test_normalizes_to_zero_mean_unit_std(self, rng):
        for _ in range(20):
            y = rng.standard_normal(16) * rng.choice([0.01, 1.0, 50.0])
            out = layer_norm(y, np.ones(16), np.zeros(16))
            assert abs(out.mean()) <= 1e-9
            assert abs(out.std() - 1.0) <= 1e-9

    def test_degenerate_input_maps_to_zero(self):
        out = layer_norm(np.full(8, 3.0), np.ones(8), np.zeros(8))
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_matrix_normalizes_each_column(self, rng):
        y = rng.standard_normal((8, 5)) * np.array([0.01, 1.0, 50.0, 1.0, 1.0])
        y[:, 3] = 2.0  # a degenerate column
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        out = layer_norm(y, gamma, beta)
        for t in range(5):
            np.testing.assert_allclose(out[:, t], layer_norm(y[:, t], gamma, beta), rtol=0, atol=1e-14)

    def test_gain_and_offset_applied(self, rng):
        y = rng.standard_normal(8)
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        base = layer_norm(y, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(layer_norm(y, gamma, beta), gamma * base + beta, atol=1e-14)


class TestSimplifiedForm:
    def test_zero_functional(self, rng):
        params = random_layer_params(rng, 4, 2)
        assert simplified_form(params, rng.standard_normal((4, 3)), 2, np.zeros(4)) == 0.0

    def test_single_head_identity(self, rng):
        params = random_layer_params(rng, 4, 1)
        sig = rng.standard_normal((4, 3))
        out = layer_forward(params, sig)
        f = rng.standard_normal(4)
        for t in (1, 2, 3):
            assert abs(float(f @ out[:, t - 1]) - simplified_form(params, sig, t, f)) <= 1e-12

    @pytest.mark.parametrize("n_head", [1, 2, 4])
    def test_matches_direct_path(self, rng, n_head):
        for _ in range(10):
            params = random_layer_params(rng, 8, n_head)
            sig = rng.standard_normal((8, 5))
            out = layer_forward(params, sig)
            f = rng.standard_normal(8)
            for t in range(1, 6):
                assert abs(float(f @ out[:, t - 1]) - simplified_form(params, sig, t, f)) <= 1e-12

    @pytest.mark.parametrize("n_head", [1, 2, 4])
    def test_matches_per_position_sum(self, rng, n_head):
        for _ in range(5):
            params = random_layer_params(rng, 8, n_head)
            sig = rng.standard_normal((8, 64))
            for t in (1, 2, 31, 64):
                f = rng.standard_normal(8)
                expect = per_position_bilinear(params, sig, t, f)
                assert abs(simplified_form(params, sig, t, f) - expect) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_visible_block_names_its_position(self, rng, bad):
        params = random_layer_params(rng, 4, 2)
        sig = rng.standard_normal((4, 5))
        sig[1, 2] = bad
        with pytest.raises(ValueError, match="input signal is not finite at position 3$"):
            simplified_form(params, sig, 4, rng.standard_normal(4))

    def test_block_dimension_must_match(self, rng):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match=r"need a \(4, t\) block"):
            simplified_form(params, rng.standard_normal((6, 3)), 2, np.ones(4))

    def test_positions_after_t_are_not_read(self, rng):
        params = random_layer_params(rng, 4, 2)
        sig = rng.standard_normal((4, 5))
        f = rng.standard_normal(4)
        expect = simplified_form(params, sig, 3, f)
        sig[:, 3:] = np.nan
        assert simplified_form(params, sig, 3, f) == expect

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), (5,), ()], ids=["column", "row", "long", "scalar"])
    def test_functional_must_be_a_d_vector(self, rng, shape):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match=r"functional f must have shape \(4,\)"):
            simplified_form(params, rng.standard_normal((4, 3)), 2, np.ones(shape))


class TestPredictions:
    def test_zero_signal_is_uniform(self, rng):
        emb = rng.standard_normal((4, 3))
        np.testing.assert_allclose(predictions(emb, np.zeros((4, 2))), np.full((3, 2), 1 / 3))

    def test_logit_shift_invariance(self, rng):
        # adding a constant direction to every embedding column shifts each position's logits equally
        emb = rng.standard_normal((4, 3))
        sigmas = rng.standard_normal((4, 5))
        shift = rng.standard_normal(4)
        shifted = emb + np.tile(shift[:, None], (1, 3))
        np.testing.assert_allclose(predictions(emb, sigmas), predictions(shifted, sigmas), atol=1e-12)

    def test_recovers_filtered_mixture_on_constructed_instance(self):
        # two states, binary tokens: embedding columns are the elementwise logs of
        # the emission rows, and the signal solves the resulting log-linear system
        C = np.array([[0.3, 0.7], [0.6, 0.4]])
        pi = np.array([0.4, 0.6])
        p = pi @ C
        emb = np.log(C)  # (d, m+1) with emb[x, z] = ln C(x, z)
        sigma1 = (np.log(p[1]) - np.log(p[0])) / (np.log(C[0, 1]) - np.log(C[0, 0]))
        sigma = np.array([[sigma1], [0.0]])  # one position
        np.testing.assert_allclose(predictions(emb, sigma), p[:, None], atol=1e-12)

    def test_each_position_gives_its_own_distribution(self, rng):
        emb = rng.standard_normal((4, 3))
        sigmas = 5.0 * rng.standard_normal((4, 6))
        table = predictions(emb, sigmas)
        for t in range(6):
            np.testing.assert_allclose(table[:, t], predictions(emb, sigmas[:, [t]])[:, 0], rtol=0, atol=1e-15)

    def test_predictions_table_shape_and_columns(self, rng):
        emb = rng.standard_normal((4, 3))
        sig = rng.standard_normal((4, 5))
        table = predictions(emb, sig)
        assert table.shape == (3, 5)
        np.testing.assert_allclose(table.sum(axis=0), 1.0, atol=1e-12)


class TestFeedForward:
    def test_activations_run(self, rng):
        ffn = FeedForwardParams(
            W1=rng.standard_normal((8, 4)),
            b1=rng.standard_normal(8),
            W2=rng.standard_normal((4, 8)),
            b2=rng.standard_normal(4),
        )
        out = ffn(rng.standard_normal(4))
        assert out.shape == (4,) and np.all(np.isfinite(out))

    def test_matrix_input_acts_column_wise(self, rng):
        ffn = FeedForwardParams(
            W1=rng.standard_normal((8, 4)),
            b1=rng.standard_normal(8),
            W2=rng.standard_normal((4, 8)),
            b2=rng.standard_normal(4),
        )
        y = rng.standard_normal((4, 6))
        out = ffn(y)
        for t in range(6):
            np.testing.assert_allclose(out[:, t], ffn(y[:, t]), rtol=0, atol=1e-13)


class TestLayerStack:
    def test_returns_input_and_each_layer(self, rng):
        params = random_layer_params(rng, 4, 2)
        sig = rng.standard_normal((4, 3))
        outs = layer_stack(params, sig, 3)
        assert len(outs) == 4
        np.testing.assert_array_equal(outs[0], sig)

    def test_rejects_empty_stack(self, rng):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match="n_layers"):
            layer_stack(params, rng.standard_normal((4, 2)), 0)
