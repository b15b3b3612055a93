"""Desk-scale decoder-only attention layer over signed-measure signals.

Sequences live as (d, T) matrices whose column t-1 is the signal at
position t. Causality is structural. The query, key and value projections,
the output projection and the misc ops act on each column alone, so they
run once on the whole (d, T) matrix; the only step that mixes positions is
the softmax at position t, and it reads columns 1..t only. Memory is
O(d T): no (T, T) score matrix is formed. No training, no dropout, no
caching; this module exercises the layer map itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hmm import validate_tokens

DEFAULT_ELL_MAX = 10000.0

# Variance at or below this triggers the epsilon-regularized layernorm branch.
LAYERNORM_DEGENERATE_VAR = 1e-12
LAYERNORM_EPS = 1e-5


def positional_encoding(d: int, T: int, ell_max: float = DEFAULT_ELL_MAX) -> np.ndarray:
    """(d, T) sinusoidal position signals; column t-1 encodes position t.

    Rows 2i-1 / 2i (1-based) are sin / cos at frequency ell_max^(-2i/d).

    d must be even; the frequencies sweep a wide range of scales as i runs
    over 1..d/2. All entries lie in [-1, 1].
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"sinusoidal encoding needs even d >= 2, got {d}")
    W = np.zeros((d, T))
    ts = np.arange(1, T + 1, dtype=float)
    for i in range(1, d // 2 + 1):
        freq = ell_max ** (-2.0 * i / d)
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


@dataclass(frozen=True)
class AttentionHeadParams:
    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray

    def __post_init__(self):
        W_Q = np.asarray(self.W_Q, dtype=float)
        W_K = np.asarray(self.W_K, dtype=float)
        W_V = np.asarray(self.W_V, dtype=float)
        if W_Q.shape != W_K.shape:
            raise ValueError(f"W_Q {W_Q.shape} and W_K {W_K.shape} must agree")
        if W_V.shape[1] != W_Q.shape[1]:
            raise ValueError("W_V and W_Q must share the input dimension")
        for name, arr in (("W_Q", W_Q), ("W_K", W_K), ("W_V", W_V)):
            object.__setattr__(self, name, arr)

    @property
    def d_K(self) -> int:
        return self.W_Q.shape[0]

    @property
    def d_V(self) -> int:
        return self.W_V.shape[0]


def _down_columns(v, y) -> np.ndarray:
    """A (d,) vector shaped to broadcast down the columns of y, (d,) or (d, T)."""
    return np.reshape(np.asarray(v, dtype=float), (-1,) + (1,) * (np.ndim(y) - 1))


@dataclass(frozen=True)
class FeedForwardParams:
    """Affine, nonlinearity, affine; the nonlinearity is a config knob."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    activation: str = "gelu"

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Apply to one (d,) signal or column-wise to a (d, T) matrix."""
        h = np.asarray(self.W1) @ y + _down_columns(self.b1, y)
        if self.activation == "gelu":
            # tanh form of the smooth gate
            h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))
        elif self.activation == "tanh":
            h = np.tanh(h)
        elif self.activation == "relu":
            h = np.maximum(h, 0.0)
        else:
            raise ValueError(f"unknown activation {self.activation!r}")
        return np.asarray(self.W2) @ h + _down_columns(self.b2, y)


@dataclass(frozen=True)
class LayerParams:
    """One layer's parameters; ``misc`` switches on the stabilization tail after attention."""

    heads: tuple[AttentionHeadParams, ...]
    W_O: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    ffn: FeedForwardParams | None = None
    misc: bool = False

    def __post_init__(self):
        heads = tuple(self.heads)
        if not heads:
            raise ValueError("at least one attention head is required")
        W_O = np.asarray(self.W_O, dtype=float)
        d = W_O.shape[0]
        if W_O.shape != (d, d):
            raise ValueError(f"W_O must be square, got {W_O.shape}")
        d_V = heads[0].d_V
        if any(h.d_V != d_V for h in heads):
            raise ValueError("all heads must share d_V")
        if d_V * len(heads) != d:
            raise ValueError(f"n_head * d_V = {len(heads) * d_V} must equal d = {d}")
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "W_O", W_O)
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))

    @property
    def d(self) -> int:
        return self.W_O.shape[0]

    @property
    def n_head(self) -> int:
        return len(self.heads)


def attention_weights(head: AttentionHeadParams, sigmas: np.ndarray) -> np.ndarray:
    """Softmax over s = 1..t of q_t . k_s / sqrt(d_K); query is the last column.

    Max-subtracted for stability; the output is a probability vector over
    the visible positions.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] < 1:
        raise ValueError(f"need a (d, t) block with t >= 1, got shape {sigmas.shape}")
    return _softmax_weights(head.W_K @ sigmas, head.W_Q @ sigmas[:, -1], head.d_K)


def _softmax_weights(keys: np.ndarray, q: np.ndarray, d_K: int) -> np.ndarray:
    """Max-subtracted softmax over the columns k_s of keys of q . k_s / sqrt(d_K)."""
    logits = keys.T @ q / np.sqrt(d_K)
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


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
    """One layer: causal multi-head attention, then the misc ops if ``params.misc``.

    Misc order: residual add, layernorm, feed-forward with residual,
    layernorm. Every output column depends only on input columns at or
    before it: each head projects all columns at once, and position t's
    softmax and weighted value sum read the first t columns of those
    projections. Everything after the heads acts column by column.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    d, T = sigmas.shape
    if d != params.d:
        raise ValueError(f"input dimension {d} does not match parameters ({params.d})")
    d_V = params.heads[0].d_V
    concat = np.empty((d, T))
    for h, head in enumerate(params.heads):
        Q, K, V = head.W_Q @ sigmas, head.W_K @ sigmas, head.W_V @ sigmas
        rows = concat[h * d_V : (h + 1) * d_V]
        for t in range(1, T + 1):
            rows[:, t - 1] = V[:, :t] @ _softmax_weights(K[:, :t], Q[:, t - 1], head.d_K)
    y = params.W_O @ concat
    if params.misc:
        if params.ffn is None:
            raise ValueError("misc ops are on but no feed-forward parameters were given")
        y = layer_norm(y + sigmas, params.gamma, params.beta)
        y = layer_norm(y + params.ffn(y), params.gamma, params.beta)
    return y


def simplified_form(params: LayerParams, sigmas: np.ndarray, t: int, f: np.ndarray) -> float:
    """Bilinear form sum_{s<=t} sigma_s . y_s(t) of the attention-only layer.

    y_s(t) = sum_h alpha(s; t, h) (L_h)^T f with L_h the W_O block column
    times W_V of head h. Equals f . (layer output at position t) when the
    misc ops are disabled, which is required here.
    """
    if params.misc:
        raise ValueError("the bilinear form describes the attention map alone; disable misc ops")
    sigmas = np.asarray(sigmas, dtype=float)
    f = np.asarray(f, dtype=float)
    if not 1 <= t <= sigmas.shape[1]:
        raise ValueError(f"position {t} outside 1..{sigmas.shape[1]}")
    block = sigmas[:, :t]
    d_V = params.heads[0].d_V
    total = 0.0
    for h, head in enumerate(params.heads):
        L_h = params.W_O[:, h * d_V : (h + 1) * d_V] @ head.W_V
        alpha = attention_weights(head, block)
        total += float(alpha @ (block.T @ (L_h.T @ f)))
    return total


def unembed(emb: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Softmax over tokens of the logits sigma . emb(:, z).

    sigma is one (d,) signal or a stack (..., d) of them; the softmax runs
    along the last axis, one distribution per signal.
    """
    logits = np.asarray(sigma, dtype=float) @ np.asarray(emb, dtype=float)
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


def predictions(emb: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(m+1, T) table of per-position next-token distributions."""
    return unembed(emb, np.asarray(sigmas, dtype=float).T).T


def layer_stack(params: LayerParams, sigmas: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """Repeat one layer n_layers times; returns [input, after layer 1, ...]."""
    if n_layers < 1:
        raise ValueError(f"need n_layers >= 1, got {n_layers}")
    outs = [np.asarray(sigmas, dtype=float)]
    for _ in range(n_layers):
        outs.append(layer_forward(params, outs[-1]))
    return outs


def random_layer_params(
    rng: np.random.Generator,
    d: int,
    n_head: int,
    d_K: int | None = None,
    activation: str = "gelu",
    misc: bool = False,
) -> LayerParams:
    """Seeded Gaussian parameters scaled by 1/sqrt(d) for reproducible demos."""
    if d % n_head != 0:
        raise ValueError(f"n_head = {n_head} must divide d = {d}")
    d_V = d // n_head
    d_K = d_V if d_K is None else d_K
    scale = 1.0 / np.sqrt(d)
    heads = tuple(
        AttentionHeadParams(
            W_Q=scale * rng.standard_normal((d_K, d)),
            W_K=scale * rng.standard_normal((d_K, d)),
            W_V=scale * rng.standard_normal((d_V, d)),
        )
        for _ in range(n_head)
    )
    hidden = 4 * d
    ffn = FeedForwardParams(
        W1=scale * rng.standard_normal((hidden, d)),
        b1=np.zeros(hidden),
        W2=scale * rng.standard_normal((d, hidden)),
        b2=np.zeros(d),
        activation=activation,
    )
    return LayerParams(
        heads=heads,
        W_O=scale * rng.standard_normal((d, d)),
        gamma=np.ones(d),
        beta=np.zeros(d),
        ffn=ffn,
        misc=misc,
    )
