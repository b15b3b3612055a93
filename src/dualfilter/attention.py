"""Desk-scale decoder-only attention layer over signed-measure signals.

Sequences live as (d, T) matrices whose column t-1 is the signal at
position t, and a layer's heads are stacked on the leading axis of its
projections. Causality is structural. The projections and the tail a block
adds after attention (residual, layernorm, feed-forward) act on each column
alone, so each is one product on the whole (d, T) matrix, for all heads at
once; the only step that mixes positions is the causal softmax. It runs on
tiles of TILE query positions: one score product per tile for all heads,
with the keys after each query masked to weight exactly zero, so position
t still reads columns 1..t only. Memory is
O(n_head TILE T + d T): no (T, T) score matrix is formed. No training, no
dropout, no caching; this module exercises the layer map itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hmm import validate_tokens

# Variance at or below this triggers the epsilon-regularized layernorm branch.
LAYERNORM_DEGENERATE_VAR = 1e-12
LAYERNORM_EPS = 1e-5

# Query positions per tile of the causal softmax, and the keys each tile row
# must not see: entry (i, j) of the tile's diagonal block is True for j > i.
TILE = 32
_FUTURE = np.triu(np.ones((TILE, TILE), dtype=bool), k=1)


def positional_encoding(d: int, T: int) -> np.ndarray:
    """(d, T) sinusoidal position signals; column t-1 encodes position t.

    Rows 2i-1 / 2i (1-based) are sin / cos at frequency 10000^(-2i/d).

    d must be even; the frequencies sweep a wide range of scales as i runs
    over 1..d/2. All entries lie in [-1, 1].
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"sinusoidal encoding needs even d >= 2, got {d}")
    W = np.zeros((d, T))
    ts = np.arange(1, T + 1, dtype=float)
    for i in range(1, d // 2 + 1):
        freq = 10000.0 ** (-2.0 * i / d)
        W[2 * i - 2] = np.sin(freq * ts)
        W[2 * i - 1] = np.cos(freq * ts)
    return W


def embed_sequence(emb: np.ndarray, pe: np.ndarray, z) -> np.ndarray:
    """Column t-1 of the output is emb[:, z_t] + pe[:, t-1], for a (d, T) positional encoding pe."""
    emb = np.asarray(emb, dtype=float)
    z = validate_tokens(z, emb.shape[1] - 1)
    if len(z) > pe.shape[1]:
        raise ValueError(f"path length {len(z)} exceeds encoded horizon {pe.shape[1]}")
    return emb[:, list(z)] + pe[:, : len(z)]


def _down_columns(v, y) -> np.ndarray:
    """A (d,) vector shaped to broadcast down the columns of y, (d,) or (d, T)."""
    return np.reshape(np.asarray(v, dtype=float), (-1,) + (1,) * (np.ndim(y) - 1))


@dataclass(frozen=True)
class FeedForwardParams:
    """Affine, gelu, affine."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Apply to one (d,) signal or column-wise to a (d, T) matrix."""
        h = np.asarray(self.W1) @ y + _down_columns(self.b1, y)
        # tanh form of the smooth gate
        h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))
        return np.asarray(self.W2) @ h + _down_columns(self.b2, y)


@dataclass(frozen=True)
class LayerParams:
    """One block's parameters: the attention map's projections, then the tail's gamma, beta and ffn.

    The heads are stacked: W_Q and W_K are (n_head, d_K, d), W_V is
    (n_head, d_V, d) and head h feeds W_O's columns h*d_V .. (h+1)*d_V - 1.
    """

    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    W_O: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    ffn: FeedForwardParams

    def __post_init__(self):
        W_O = np.asarray(self.W_O, dtype=float)
        d = W_O.shape[0]
        if W_O.shape != (d, d):
            raise ValueError(f"W_O must be square, got {W_O.shape}")
        W_Q, W_K, W_V = (np.asarray(w, dtype=float) for w in (self.W_Q, self.W_K, self.W_V))
        if not (W_Q.ndim == W_V.ndim == 3 and W_Q.shape == W_K.shape and W_Q.shape[::2] == W_V.shape[::2]):
            shapes = f"W_Q {W_Q.shape}, W_K {W_K.shape}, W_V {W_V.shape}"
            raise ValueError(f"{shapes}: the projections must stack n_head (rows, d) blocks alike")
        n_head, d_V, d_in = W_V.shape
        if n_head < 1 or d_in != d:
            raise ValueError(f"need at least one head on inputs of dimension d = {d}, got W_V {W_V.shape}")
        if n_head * d_V != d:
            raise ValueError(f"n_head * d_V = {n_head * d_V} must equal d = {d}")
        arrays = dict(W_Q=W_Q, W_K=W_K, W_V=W_V, W_O=W_O, gamma=self.gamma, beta=self.beta)
        for name, arr in arrays.items():
            object.__setattr__(self, name, np.asarray(arr, dtype=float))

    @property
    def d(self) -> int:
        return self.W_O.shape[0]

    @property
    def n_head(self) -> int:
        return self.W_Q.shape[0]


def attention_weights(params: LayerParams, sigmas: np.ndarray) -> np.ndarray:
    """(n_head, t) softmax weights over s = 1..t of q_t . k_s / sqrt(d_K); the query is the last column.

    Row h is head h's probability vector; a NaN or inf in the block is a ValueError naming its position.
    """
    sigmas = _block(params, sigmas)
    _check_finite(sigmas, "input signal")
    q = params.W_Q @ sigmas[:, -1]
    logits = ((params.W_K @ sigmas).transpose(0, 2, 1) @ q[:, :, None])[:, :, 0]
    return _softmax(logits / np.sqrt(params.W_Q.shape[1]))


def _block(params: LayerParams, sigmas) -> np.ndarray:
    """sigmas as a float (d, t) block with t >= 1, the one input shape of the layer; else a ValueError."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[0] != params.d or sigmas.shape[1] < 1:
        raise ValueError(f"need a ({params.d}, t) block with t >= 1, got shape {sigmas.shape}")
    return sigmas


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, max-subtracted for stability: one distribution per row.

    Works in place: logits is overwritten with the result and returned, so
    a tile of scores needs no second array. Every caller passes an array it
    has just computed.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _check_finite(a: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first position (1-based column) at which a holds a NaN or inf."""
    bad = ~np.isfinite(a).all(axis=0)
    if bad.any():
        raise ValueError(f"{what} is not finite at position {int(np.argmax(bad)) + 1}")


def layer_norm(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma * (y - mean) / std + beta, with population std over the d entries.

    y is one (d,) signal or a (d, T) matrix normalized column by column.
    A near-zero variance falls back to sqrt(var + eps) so constant inputs
    normalize to zero rather than dividing by zero; elsewhere the plain
    root keeps the normalized output at exactly unit standard deviation.
    """
    y = np.asarray(y, dtype=float)
    mean = y.mean(axis=0, keepdims=True)
    var = np.mean((y - mean) ** 2, axis=0, keepdims=True)
    denom = np.sqrt(np.where(var <= LAYERNORM_DEGENERATE_VAR, var + LAYERNORM_EPS, var))
    return _down_columns(gamma, y) * ((y - mean) / denom) + _down_columns(beta, y)


def layer_forward(params: LayerParams, sigmas: np.ndarray) -> np.ndarray:
    """The causal multi-head attention map: W_O times the stacked head outputs.

    Every output column depends only on input columns at or before it, to
    the bit. Each projection is one product for all heads and columns;
    then each tile of TILE query positions a..b-1 takes one
    (n_head, b-a, b) score product with the keys of positions up to b, sets
    the scores of the keys after each query to -inf so they get weight
    exactly 0, and takes one softmax and one weighted sum of the value
    columns up to b. A NaN or inf in a later column of the tile would still
    reach an earlier output as 0 * inf, so a non-finite input column, or a
    value projection that overflows, is a ValueError naming its position.
    """
    sigmas = _block(params, sigmas)
    d, T = sigmas.shape
    _check_finite(sigmas, "input signal")
    Q, K, V = params.W_Q @ sigmas, params.W_K @ sigmas, params.W_V @ sigmas
    _check_finite(V.reshape(d, T), "a head's value projection")
    scale = np.sqrt(Q.shape[1])
    heads = np.empty_like(V)
    for a in range(0, T, TILE):
        b = min(a + TILE, T)
        scores = Q[:, :, a:b].transpose(0, 2, 1) @ K[:, :, :b]
        scores /= scale
        np.copyto(scores[:, :, a:], -np.inf, where=_FUTURE[: b - a, : b - a])
        heads[:, :, a:b] = V[:, :, :b] @ _softmax(scores).transpose(0, 2, 1)
    return params.W_O @ heads.reshape(d, T)


def simplified_form(params: LayerParams, sigmas: np.ndarray, t: int, f: np.ndarray) -> float:
    """Bilinear form sum_{s<=t} sigma_s . y_s(t) of the attention map.

    y_s(t) = sum_h alpha(s; t, h) (L_h)^T f with L_h the W_O block column
    times W_V of head h, and f a (d,) vector. Equals f . (layer_forward's
    output at position t).
    """
    sigmas = _block(params, sigmas)
    f = np.asarray(f, dtype=float)
    if f.shape != (params.d,):
        raise ValueError(f"functional f must have shape ({params.d},), got {f.shape}")
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"position t must be an integer, got {t!r}")
    if not 1 <= t <= sigmas.shape[1]:
        raise ValueError(f"position t = {t} outside 1..{sigmas.shape[1]}")
    block = sigmas[:, :t]
    L = params.W_O.reshape(params.d, *params.W_V.shape[:2]).transpose(1, 0, 2) @ params.W_V
    total = 0.0
    for L_h, alpha in zip(L, attention_weights(params, block)):
        total += float(alpha @ (block.T @ (L_h.T @ f)))
    return total


def predictions(emb: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(m+1, T) table of next-token distributions: column t-1 is the softmax over z of sigma_t . emb(:, z)."""
    return _softmax(np.asarray(sigmas, dtype=float).T @ np.asarray(emb, dtype=float)).T


def layer_stack(params: LayerParams, sigmas: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """Apply one block n_layers times; returns [input, after block 1, ...].

    A block is layer_forward's attention map, then the tail: residual add,
    layernorm, feed-forward with residual, layernorm.
    """
    if n_layers < 1:
        raise ValueError(f"need n_layers >= 1, got {n_layers}")
    outs = [np.asarray(sigmas, dtype=float)]
    for _ in range(n_layers):
        y = layer_norm(layer_forward(params, outs[-1]) + outs[-1], params.gamma, params.beta)
        outs.append(layer_norm(y + params.ffn(y), params.gamma, params.beta))
    return outs


def random_layer_params(rng: np.random.Generator, d: int, n_head: int) -> LayerParams:
    """Seeded Gaussian parameters scaled by 1/sqrt(d) for reproducible demos."""
    if d % n_head != 0:
        raise ValueError(f"n_head = {n_head} must divide d = {d}")
    d_V = d // n_head
    scale = 1.0 / np.sqrt(d)
    # drawn head by head, query then key then value: seeded demos depend on this order
    W_Q, W_K, W_V = (scale * rng.standard_normal((n_head, 3, d_V, d))).transpose(1, 0, 2, 3)
    hidden = 4 * d
    ffn = FeedForwardParams(
        W1=scale * rng.standard_normal((hidden, d)),
        b1=np.zeros(hidden),
        W2=scale * rng.standard_normal((d, hidden)),
        b2=np.zeros(d),
    )
    W_O = scale * rng.standard_normal((d, d))
    return LayerParams(W_Q, W_K, W_V, W_O, gamma=np.ones(d), beta=np.zeros(d), ffn=ffn)
