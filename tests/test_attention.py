import tracemalloc

import numpy as np
import pytest

from dualfilter.attention import (
    LAYERNORM_DEGENERATE_VAR,
    LAYERNORM_EPS,
    AttentionHeadParams,
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
    unembed,
)


def per_position_layer(params, sigmas):
    """layer_forward written as one full layer evaluation per position on columns 1..t."""

    def norm(y):
        mean = y.mean()
        var = np.mean((y - mean) ** 2)
        denom = np.sqrt(var + LAYERNORM_EPS) if var <= LAYERNORM_DEGENERATE_VAR else np.sqrt(var)
        return params.gamma * ((y - mean) / denom) + params.beta

    def ffn(y):
        f = params.ffn
        h = f.W1 @ y + f.b1
        if f.activation == "gelu":
            h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))
        elif f.activation == "tanh":
            h = np.tanh(h)
        else:
            h = np.maximum(h, 0.0)
        return f.W2 @ h + f.b2

    out = np.zeros_like(sigmas)
    for t in range(1, sigmas.shape[1] + 1):
        block = sigmas[:, :t]
        heads = []
        for head in params.heads:
            q = head.W_Q @ block[:, -1]
            logits = (head.W_K @ block).T @ q / np.sqrt(head.d_K)
            w = np.exp(logits - logits.max())
            heads.append(head.W_V @ (block @ (w / w.sum())))
        y = params.W_O @ np.concatenate(heads)
        if params.misc:
            y = norm(y + sigmas[:, t - 1])
            y = norm(y + ffn(y))
        out[:, t - 1] = y
    return out


def per_position_bilinear(params, sigmas, t, f):
    """simplified_form as a sum over the visible positions s, one term at a time."""
    block = sigmas[:, :t]
    d_V = params.heads[0].d_V
    total = 0.0
    for h, head in enumerate(params.heads):
        L_h = params.W_O[:, h * d_V : (h + 1) * d_V] @ head.W_V
        alpha = attention_weights(head, block)
        proj = L_h.T @ f
        for s in range(t):
            total += alpha[s] * float(block[:, s] @ proj)
    return total


def head_output(head, sigmas):
    """One head's output at the last position: the bare layer with W_O = I and that head alone."""
    d = sigmas.shape[0]
    params = LayerParams(heads=(head,), W_O=np.eye(d), gamma=np.ones(d), beta=np.zeros(d))
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
        head = AttentionHeadParams(
            W_Q=np.zeros((2, 4)), W_K=rng.standard_normal((2, 4)), W_V=rng.standard_normal((4, 4))
        )
        w = attention_weights(head, rng.standard_normal((4, 5)))
        np.testing.assert_allclose(w, np.full(5, 0.2))

    def test_single_position(self, rng):
        head = AttentionHeadParams(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        np.testing.assert_array_equal(attention_weights(head, rng.standard_normal((4, 1))), [1.0])

    def test_saturates_on_dominant_logit(self):
        head = AttentionHeadParams(W_Q=np.eye(2), W_K=np.eye(2), W_V=np.eye(2))
        sig = np.array([[10.0, 0.0, 10.0], [0.0, 0.0, 0.0]])
        w = attention_weights(head, sig)
        assert 1.0 - (w[0] + w[2]) <= 1e-20
        assert w[1] <= 1e-20

    def test_probability_vector(self, rng):
        for _ in range(50):
            head = AttentionHeadParams(
                W_Q=rng.standard_normal((3, 6)),
                W_K=rng.standard_normal((3, 6)),
                W_V=rng.standard_normal((6, 6)),
            )
            w = attention_weights(head, rng.standard_normal((6, 4)))
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12


class TestHeadOutput:
    def test_constant_inputs_pass_through_value_matrix(self, rng):
        head = AttentionHeadParams(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        col = rng.standard_normal(4)
        sig = np.tile(col[:, None], (1, 6))
        np.testing.assert_allclose(head_output(head, sig), head.W_V @ col, atol=1e-12)

    def test_single_position_is_value_projection(self, rng):
        head = AttentionHeadParams(
            W_Q=rng.standard_normal((2, 4)),
            W_K=rng.standard_normal((2, 4)),
            W_V=rng.standard_normal((4, 4)),
        )
        col = rng.standard_normal((4, 1))
        np.testing.assert_allclose(head_output(head, col), head.W_V @ col[:, 0])

    def test_prefix_permutation_invariance(self, rng):
        head = AttentionHeadParams(
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
        head = AttentionHeadParams(W_Q=np.zeros((d, d)), W_K=np.eye(d), W_V=np.eye(d))
        params = LayerParams(heads=(head,), W_O=np.eye(d), gamma=np.ones(d), beta=np.zeros(d))
        sig = rng.standard_normal((d, 5))
        out = layer_forward(params, sig)
        for t in range(1, 6):
            np.testing.assert_allclose(out[:, t - 1], sig[:, :t].mean(axis=1), atol=1e-12)

    def test_causality_bit_exact(self, rng):
        params = random_layer_params(rng, 8, 2, misc=True)
        sig = rng.standard_normal((8, 6))
        out_a = layer_forward(params, sig)
        bumped = sig.copy()
        bumped[:, 4:] = rng.standard_normal((8, 2))
        out_b = layer_forward(params, bumped)
        assert np.array_equal(out_a[:, :4], out_b[:, :4])

    @pytest.mark.parametrize("misc", [False, True], ids=["---", "RLF"])
    @pytest.mark.parametrize("activation", ["gelu", "tanh", "relu"])
    def test_matches_per_position_evaluation(self, rng, misc, activation):
        for n_head in (1, 2, 4):
            params = random_layer_params(rng, 8, n_head, activation=activation, misc=misc)
            for T in (1, 7, 64):
                sig = rng.standard_normal((8, T))
                diff = layer_forward(params, sig) - per_position_layer(params, sig)
                assert np.max(np.abs(diff)) <= 1e-13

    def test_causality_bit_exact_long_sequence(self, rng):
        params = random_layer_params(rng, 8, 2, misc=True)
        sig = rng.standard_normal((8, 300))
        bumped = sig.copy()
        bumped[:, 200:] = rng.standard_normal((8, 100))
        assert np.array_equal(layer_forward(params, sig)[:, :200], layer_forward(params, bumped)[:, :200])

    def test_memory_is_linear_in_length(self, rng):
        # one (T, T) float64 array at T = 1000 would take 7.6 MiB
        params = random_layer_params(rng, 8, 2, misc=True)
        sig = rng.standard_normal((8, 1000))
        tracemalloc.start()
        try:
            layer_forward(params, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_ffn_toggle_requires_parameters(self, rng):
        head = AttentionHeadParams(W_Q=np.eye(2), W_K=np.eye(2), W_V=np.eye(2))
        params = LayerParams(
            heads=(head,), W_O=np.eye(2), gamma=np.ones(2), beta=np.zeros(2),
            ffn=None, misc=True,
        )
        with pytest.raises(ValueError, match="feed-forward"):
            layer_forward(params, rng.standard_normal((2, 3)))

    def test_head_count_must_divide_dimension(self, rng):
        with pytest.raises(ValueError, match="divide"):
            random_layer_params(rng, 8, 3)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "shapes, match",
        [(((2, 4), (3, 4), (2, 4)), "must agree"), (((2, 4), (2, 4), (2, 3)), "input dimension")],
        ids=["query-key", "value-input"],
    )
    def test_head_shapes_must_agree(self, shapes, match):
        W_Q, W_K, W_V = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match=match):
            AttentionHeadParams(W_Q=W_Q, W_K=W_K, W_V=W_V)

    @pytest.mark.parametrize(
        "d_Vs, W_O_shape, match",
        [((), (4, 4), "at least one"), ((2, 2), (4, 2), "square"), ((2, 1), (4, 4), "share d_V"),
         ((2,), (4, 4), "must equal d")],
        ids=["no-heads", "nonsquare-W_O", "mixed-d_V", "short-concat"],
    )
    def test_layer_shapes_must_agree(self, d_Vs, W_O_shape, match):
        heads = tuple(AttentionHeadParams(W_Q=np.zeros((2, 4)), W_K=np.zeros((2, 4)), W_V=np.zeros((d_V, 4)))
                      for d_V in d_Vs)
        with pytest.raises(ValueError, match=match):
            LayerParams(heads=heads, W_O=np.zeros(W_O_shape), gamma=np.ones(4), beta=np.zeros(4))

    def test_dimensions_read_from_parameters(self, rng):
        params = random_layer_params(rng, 8, 4)
        assert (params.d, params.n_head) == (8, 4)
        assert all((head.d_K, head.d_V) == (2, 2) for head in params.heads)

    @pytest.mark.parametrize("shape", [(4,), (4, 0)], ids=["vector", "no-columns"])
    def test_attention_weights_need_a_block(self, rng, shape):
        head = random_layer_params(rng, 4, 1).heads[0]
        with pytest.raises(ValueError, match="block"):
            attention_weights(head, np.zeros(shape))

    def test_layer_input_dimension_must_match(self, rng):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match="does not match"):
            layer_forward(params, rng.standard_normal((6, 3)))

    @pytest.mark.parametrize("t", [0, 4])
    def test_simplified_form_position_in_range(self, rng, t):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match="outside"):
            simplified_form(params, rng.standard_normal((4, 3)), t, np.zeros(4))


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

    def test_requires_misc_disabled(self, rng):
        params = random_layer_params(rng, 4, 2, misc=True)
        with pytest.raises(ValueError, match="disable"):
            simplified_form(params, rng.standard_normal((4, 3)), 1, np.zeros(4))


class TestUnembed:
    def test_zero_signal_is_uniform(self, rng):
        emb = rng.standard_normal((4, 3))
        np.testing.assert_allclose(unembed(emb, np.zeros(4)), np.full(3, 1 / 3))

    def test_logit_shift_invariance(self, rng):
        # adding a constant direction to every embedding column shifts all logits equally
        emb = rng.standard_normal((4, 3))
        sigma = rng.standard_normal(4)
        shift = rng.standard_normal(4)
        shifted = emb + np.tile(shift[:, None], (1, 3))
        np.testing.assert_allclose(unembed(emb, sigma), unembed(shifted, sigma), atol=1e-12)

    def test_recovers_filtered_mixture_on_constructed_instance(self):
        # two states, binary tokens: embedding columns are the elementwise logs of
        # the emission rows, and the signal solves the resulting log-linear system
        C = np.array([[0.3, 0.7], [0.6, 0.4]])
        pi = np.array([0.4, 0.6])
        p = pi @ C
        emb = np.log(C)  # (d, m+1) with emb[x, z] = ln C(x, z)
        sigma1 = (np.log(p[1]) - np.log(p[0])) / (np.log(C[0, 1]) - np.log(C[0, 0]))
        sigma = np.array([sigma1, 0.0])
        np.testing.assert_allclose(unembed(emb, sigma), p, atol=1e-12)

    def test_stacked_signals_give_one_distribution_each(self, rng):
        emb = rng.standard_normal((4, 3))
        sigmas = 5.0 * rng.standard_normal((6, 4))
        table = unembed(emb, sigmas)
        for row, sigma in zip(table, sigmas):
            np.testing.assert_allclose(row, unembed(emb, sigma), rtol=0, atol=1e-15)

    def test_predictions_table_shape_and_columns(self, rng):
        emb = rng.standard_normal((4, 3))
        sig = rng.standard_normal((4, 5))
        table = predictions(emb, sig)
        assert table.shape == (3, 5)
        np.testing.assert_allclose(table.sum(axis=0), 1.0, atol=1e-12)


class TestFeedForward:
    @pytest.mark.parametrize("activation", ["gelu", "tanh", "relu"])
    def test_activations_run(self, rng, activation):
        ffn = FeedForwardParams(
            W1=rng.standard_normal((8, 4)),
            b1=rng.standard_normal(8),
            W2=rng.standard_normal((4, 8)),
            b2=rng.standard_normal(4),
            activation=activation,
        )
        out = ffn(rng.standard_normal(4))
        assert out.shape == (4,) and np.all(np.isfinite(out))

    @pytest.mark.parametrize("activation", ["gelu", "tanh", "relu"])
    def test_matrix_input_acts_column_wise(self, rng, activation):
        ffn = FeedForwardParams(
            W1=rng.standard_normal((8, 4)),
            b1=rng.standard_normal(8),
            W2=rng.standard_normal((4, 8)),
            b2=rng.standard_normal(4),
            activation=activation,
        )
        y = rng.standard_normal((4, 6))
        out = ffn(y)
        for t in range(6):
            np.testing.assert_allclose(out[:, t], ffn(y[:, t]), rtol=0, atol=1e-13)

    def test_unknown_activation(self, rng):
        ffn = FeedForwardParams(
            W1=np.eye(4), b1=np.zeros(4), W2=np.eye(4), b2=np.zeros(4), activation="swish"
        )
        with pytest.raises(ValueError, match="activation"):
            ffn(np.zeros(4))


class TestLayerStack:
    def test_returns_input_and_each_layer(self, rng):
        params = random_layer_params(rng, 4, 2, misc=True)
        sig = rng.standard_normal((4, 3))
        outs = layer_stack(params, sig, 3)
        assert len(outs) == 4
        np.testing.assert_array_equal(outs[0], sig)

    def test_rejects_empty_stack(self, rng):
        params = random_layer_params(rng, 4, 2)
        with pytest.raises(ValueError, match="n_layers"):
            layer_stack(params, rng.standard_normal((4, 2)), 0)
