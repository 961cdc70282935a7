"""Step-distribution scorers for the decoder: a trainable toy
listener/attender/speller and a deterministic table-backed stand-in.

Both implement one incremental protocol, so the beam never needs to know
which scorer it holds:

- ``scorer.token_limit(utt)``: the longest token string (``<eos>`` not
  counted) the scorer can grade for this utterance;
- ``scorer.start(utt) -> state``: per-utterance work, done once (the model
  encodes the features here);
- ``scorer.step(state, token) -> (dist, state)``: consume ``token``
  (``None`` on the first step, which the model reads as ``<sos>``) and
  return the next-symbol distribution with the state after it;
- ``scorer.covered(state, threshold) -> int``: how many encoder frames the
  hypothesis at ``state`` will have covered once it is closed with
  ``<eos>``; never more than the larger of the steps taken and the
  utterance's frame count, which the beam's threshold pruning relies on.

The decoder reaches the last two through :func:`step_distributions` and
:func:`coverage_count`.  States are never mutated, so a beam keeps one per
live hypothesis and every survivor of pruning steps once from its parent's
state: no prefix is replayed and no utterance is encoded twice.

Distributions are dense float64 arrays of probabilities (at most 1, so no
step lowers a hypothesis's cost) indexed by symbol id; epsilon and
``<sos>`` positions are structurally zero since a decode step can never
produce them.  Everything runs in float64 so the analytic gradients can be
checked against central finite differences at tight tolerance.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fst import SymbolTable

SOS = "<sos>"
EOS = "<eos>"

_CKPT_MAGIC = b"FDSC"
_CKPT_VERSION = 1


class ScorerError(ValueError):
    """Shape mismatch, invalid symbol, bad table row, or training failure."""


@dataclass(frozen=True)
class Utterance:
    """Synthetic input features paired with the reference symbol ids.

    ``reference`` ends with the ``<eos>`` id; ``features`` is a (T, d) array
    with T >= 1.
    """

    uid: str
    features: np.ndarray
    reference: tuple[int, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ScorerError(f"features must be a (T, d) array with T >= 1, got shape {feats.shape}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "reference", tuple(int(y) for y in self.reference))
        if len(self.reference) == 0:
            raise ScorerError("reference is empty (it must at least contain <eos>)")


def _emit_mask(alphabet: SymbolTable) -> np.ndarray:
    mask = np.ones(len(alphabet), dtype=bool)
    mask[0] = False
    sos = alphabet.find(SOS)
    if sos is not None:
        mask[sos] = False
    return mask


def _masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(logits)
    live = logits[mask]
    live = np.exp(live - live.max())
    out[mask] = live / live.sum()
    return out


class TableScorer:
    """Explicit per-step rows, keyed by utterance id.

    The k-th row is the distribution after a prefix of length k, regardless
    of what the prefix contains.  Rows must hold probabilities (in [0, 1],
    so no step lowers a hypothesis's cost), sum to 1 within 1e-9, and put no
    mass on epsilon or ``<sos>``.  A state is the triple
    (uid, rows, steps taken); the table has no attention, so each step
    stands for one covered frame.
    """

    def __init__(self, alphabet: SymbolTable, rows: Mapping[str, np.ndarray | Sequence[Sequence[float]]]):
        if alphabet.find(EOS) is None:
            raise ScorerError(f"scorer alphabet must contain {EOS}")
        self.alphabet = alphabet
        self.emit_mask = _emit_mask(alphabet)
        table: dict[str, np.ndarray] = {}
        for uid, r in rows.items():
            arr = np.asarray(r, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != len(alphabet):
                raise ScorerError(
                    f"{uid}: rows must be (steps, {len(alphabet)}), got shape {arr.shape}"
                )
            if np.any(arr < 0):
                raise ScorerError(f"{uid}: negative probability in step rows")
            if np.any(arr > 1):
                raise ScorerError(f"{uid}: probability above 1 in step rows")
            sums = arr.sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
            if bad.size:
                raise ScorerError(f"{uid}: row {bad[0]} sums to {sums[bad[0]]!r}, not 1")
            if np.any(arr[:, ~self.emit_mask] != 0.0):
                raise ScorerError(f"{uid}: rows assign mass to epsilon or {SOS}")
            arr.setflags(write=False)
            table[uid] = arr
        self.rows = table

    def _rows_for(self, utt: Utterance) -> np.ndarray:
        try:
            return self.rows[utt.uid]
        except KeyError:
            raise ScorerError(f"no step rows stored for utterance {utt.uid!r}") from None

    def token_limit(self, utt: Utterance) -> int:
        return len(self._rows_for(utt)) - 1

    def start(self, utt: Utterance) -> tuple[str, np.ndarray, int]:
        return utt.uid, self._rows_for(utt), 0

    def step(self, state: tuple[str, np.ndarray, int], token: int | None):
        uid, rows, k = state
        if k >= len(rows):
            raise ScorerError(f"prefix of length {k} exceeds the {len(rows)} stored steps for {uid!r}")
        return rows[k], (uid, rows, k + 1)

    def covered(self, state: tuple[str, np.ndarray, int], threshold: float) -> int:
        return state[2]


@dataclass(frozen=True)
class DecoderStepState:
    """Carried between decode steps: the recurrent vector, the symbol just
    consumed, the per-head contexts used for it, how much attention mass
    each encoder frame has accumulated so far (non-decreasing), and how many
    steps have been taken.  The attention of the step leaving the state is
    filled in on first use, so siblings and ``covered()`` share it."""

    h_enc: np.ndarray
    s: np.ndarray
    y_prev: int
    contexts: np.ndarray
    cum_attention: np.ndarray
    steps: int = 0
    _attention: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _param_shapes(vocab, feat_dim, enc_hidden, dec_hidden, att_dim, embed_dim, n_heads, n_enc_layers):
    """Every ``ToyLasModel`` parameter's shape, from the model dimensions."""
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(n_enc_layers):
        d_in = feat_dim if layer == 0 else enc_hidden
        h = enc_hidden
        shapes.update({
            f"enc{layer}_Wz": (d_in, h), f"enc{layer}_Uz": (h, h), f"enc{layer}_bz": (h,),
            f"enc{layer}_Wh": (d_in, h), f"enc{layer}_Uh": (h, h), f"enc{layer}_bh": (h,),
        })
    for head in range(n_heads):
        shapes.update({
            f"att{head}_Wq": (dec_hidden, att_dim),
            f"att{head}_Wk": (enc_hidden, att_dim),
            f"att{head}_v": (att_dim,),
        })
    d_dec = embed_dim + n_heads * enc_hidden
    h = dec_hidden
    shapes.update({
        "emb": (vocab, embed_dim),
        "dec_Wz": (d_dec, h), "dec_Uz": (h, h), "dec_bz": (h,),
        "dec_Wh": (d_dec, h), "dec_Uh": (h, h), "dec_bh": (h,),
        "out_W": (h, vocab), "out_b": (vocab,),
    })
    return shapes


def _cell_forward(x, h_prev, Wz, Uz, bz, Wh, Uh, bh):
    z = 1.0 / (1.0 + np.exp(-(x @ Wz + h_prev @ Uz + bz)))
    g = np.tanh(x @ Wh + h_prev @ Uh + bh)
    h = (1.0 - z) * h_prev + z * g
    return h, (x, h_prev, z, g)


def _cell_backward(dh, cache, Wz, Uz, Wh, Uh, grads, prefix):
    x, h_prev, z, g = cache
    dz = dh * (g - h_prev)
    dg = dh * z
    dh_prev = dh * (1.0 - z)
    da_h = dg * (1.0 - g * g)
    da_z = dz * z * (1.0 - z)
    grads[prefix + "Wh"] += np.outer(x, da_h)
    grads[prefix + "Uh"] += np.outer(h_prev, da_h)
    grads[prefix + "bh"] += da_h
    grads[prefix + "Wz"] += np.outer(x, da_z)
    grads[prefix + "Uz"] += np.outer(h_prev, da_z)
    grads[prefix + "bz"] += da_z
    dx = da_h @ Wh.T + da_z @ Wz.T
    dh_prev = dh_prev + da_h @ Uh.T + da_z @ Uz.T
    return dx, dh_prev


class ToyLasModel:
    """Recurrent encoder, additive multi-head attention, recurrent decoder.

    The recurrent cell is a single-gate blend ``h' = (1-z)*h + z*tanh(...)``
    so the whole backward pass stays hand-derivable.  Attention queries use
    the decoder state from before the step; the resulting contexts are
    concatenated with the embedded previous symbol and fed to the decoder
    cell, whose new state produces the output logits.
    """

    def __init__(
        self,
        alphabet: SymbolTable,
        feat_dim: int,
        params: dict[str, np.ndarray],
        *,
        enc_hidden: int,
        dec_hidden: int,
        att_dim: int,
        embed_dim: int,
        n_heads: int,
        n_enc_layers: int,
        max_prefix: int = 256,
    ):
        for name, value in (("feat_dim", feat_dim), ("enc_hidden", enc_hidden),
                            ("dec_hidden", dec_hidden), ("att_dim", att_dim),
                            ("embed_dim", embed_dim), ("n_heads", n_heads)):
            if value < 1:
                raise ScorerError(f"{name} must be >= 1, got {value}")
        if n_enc_layers not in (1, 2):
            raise ScorerError(f"n_enc_layers must be 1 or 2, got {n_enc_layers}")
        for required in (SOS, EOS):
            if alphabet.find(required) is None:
                raise ScorerError(f"model alphabet must contain {required}")
        self.alphabet = alphabet
        self.feat_dim = feat_dim
        self.enc_hidden = enc_hidden
        self.dec_hidden = dec_hidden
        self.att_dim = att_dim
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.n_enc_layers = n_enc_layers
        self.max_prefix = max_prefix
        self.sos_id = alphabet.id(SOS)
        self.eos_id = alphabet.id(EOS)
        self.emit_mask = _emit_mask(alphabet)
        expected = _param_shapes(len(alphabet), feat_dim, enc_hidden, dec_hidden, att_dim,
                                 embed_dim, n_heads, n_enc_layers)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ScorerError(f"parameter keys wrong: missing {missing}, unexpected {extra}")
        for k, shape in expected.items():
            if params[k].shape != shape:
                raise ScorerError(f"parameter {k} has shape {params[k].shape}, expected {shape}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    @classmethod
    def init(
        cls,
        alphabet: SymbolTable,
        feat_dim: int,
        *,
        enc_hidden: int = 16,
        dec_hidden: int = 16,
        att_dim: int = 8,
        embed_dim: int = 8,
        n_heads: int = 1,
        n_enc_layers: int = 1,
        max_prefix: int = 256,
        seed: int = 0,
    ) -> "ToyLasModel":
        """Fresh model with uniform [-0.1, 0.1] parameters from the seed."""
        dims = dict(enc_hidden=enc_hidden, dec_hidden=dec_hidden, att_dim=att_dim,
                    embed_dim=embed_dim, n_heads=n_heads, n_enc_layers=n_enc_layers)
        rng = np.random.default_rng(seed)
        shapes = _param_shapes(len(alphabet), feat_dim, **dims)
        params = {k: rng.uniform(-0.1, 0.1, size=shape) for k, shape in shapes.items()}
        return cls(alphabet, feat_dim, params, **dims, max_prefix=max_prefix)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Run the recurrent encoder; returns one hidden vector per frame."""
        h_seq, _ = self._encode_cached(x)
        return h_seq

    def _encode_cached(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feat_dim:
            raise ScorerError(f"expected features shaped (T, {self.feat_dim}), got {x.shape}")
        if x.shape[0] < 1:
            raise ScorerError("encoder needs at least one frame")
        caches = []
        seq = x
        for layer in range(self.n_enc_layers):
            p = self.params
            Wz, Uz, bz = p[f"enc{layer}_Wz"], p[f"enc{layer}_Uz"], p[f"enc{layer}_bz"]
            Wh, Uh, bh = p[f"enc{layer}_Wh"], p[f"enc{layer}_Uh"], p[f"enc{layer}_bh"]
            h = np.zeros(self.enc_hidden)
            outs = np.empty((seq.shape[0], self.enc_hidden))
            layer_cache = []
            for t in range(seq.shape[0]):
                h, cache = _cell_forward(seq[t], h, Wz, Uz, bz, Wh, Uh, bh)
                outs[t] = h
                layer_cache.append(cache)
            caches.append(layer_cache)
            seq = outs
        return seq, caches

    def attend(self, h_enc: np.ndarray, s_prev: np.ndarray):
        """Additive attention for every head.

        Returns (contexts, weights): contexts is (H, enc_hidden), weights is
        (H, T) with each row summing to 1.
        """
        contexts, weights, _ = self._attend_cached(h_enc, s_prev)
        return contexts, weights

    def _attend_cached(self, h_enc: np.ndarray, s_prev: np.ndarray):
        T = h_enc.shape[0]
        contexts = np.empty((self.n_heads, self.enc_hidden))
        weights = np.empty((self.n_heads, T))
        caches = []
        for j in range(self.n_heads):
            Wq = self.params[f"att{j}_Wq"]
            Wk = self.params[f"att{j}_Wk"]
            v = self.params[f"att{j}_v"]
            u = np.tanh(s_prev @ Wq + h_enc @ Wk)
            e = u @ v
            e = np.exp(e - e.max())
            alpha = e / e.sum()
            contexts[j] = alpha @ h_enc
            weights[j] = alpha
            caches.append((u, alpha))
        return contexts, weights, caches

    def token_limit(self, utt: Utterance) -> int:
        return self.max_prefix

    def start(self, utt: Utterance) -> DecoderStepState:
        return self.init_state(self.encode(utt.features))

    def step(self, state: DecoderStepState, token: int | None):
        """``decode_step`` on ``token``, or on <sos> when it is None; the
        prefix may grow to ``max_prefix`` symbols."""
        if state.steps > self.max_prefix:
            raise ScorerError(f"prefix of length {state.steps} exceeds max_prefix={self.max_prefix}")
        return self.decode_step(state, self.sos_id if token is None else token)

    def covered(self, state: DecoderStepState, threshold: float) -> int:
        """Frames above ``threshold`` after one more step, whose attention
        depends only on ``state`` and not on the symbol it consumes."""
        _, weights, _ = self._state_attention(state)
        return int(np.count_nonzero(state.cum_attention + weights.mean(axis=0) > threshold))

    def init_state(self, h_enc: np.ndarray) -> DecoderStepState:
        return DecoderStepState(
            h_enc=h_enc,
            s=np.zeros(self.dec_hidden),
            y_prev=self.sos_id,
            contexts=np.zeros((self.n_heads, self.enc_hidden)),
            cum_attention=np.zeros(h_enc.shape[0]),
        )

    def decode_step(self, state: DecoderStepState, y_prev: int):
        """One decoder step; returns (distribution, next state)."""
        if not 0 <= y_prev < len(self.alphabet):
            raise ScorerError(f"symbol id {y_prev} out of range for this alphabet")
        dist, new_state, _ = self._decode_step_cached(state, y_prev)
        return dist, new_state

    def _state_attention(self, state: DecoderStepState):
        """``_attend_cached`` for the step leaving ``state``, once per state."""
        if state._attention is None:
            object.__setattr__(state, "_attention", self._attend_cached(state.h_enc, state.s))
        return state._attention

    def _decode_step_cached(self, state: DecoderStepState, y_prev: int):
        contexts, weights, att_caches = self._state_attention(state)
        x = np.concatenate([self.params["emb"][y_prev], contexts.ravel()])
        p = self.params
        s_new, cell_cache = _cell_forward(
            x, state.s, p["dec_Wz"], p["dec_Uz"], p["dec_bz"],
            p["dec_Wh"], p["dec_Uh"], p["dec_bh"],
        )
        logits = s_new @ p["out_W"] + p["out_b"]
        dist = _masked_softmax(logits, self.emit_mask)
        new_state = DecoderStepState(
            h_enc=state.h_enc,
            s=s_new,
            y_prev=y_prev,
            contexts=contexts,
            cum_attention=state.cum_attention + weights.mean(axis=0),
            steps=state.steps + 1,
        )
        return dist, new_state, (att_caches, cell_cache, dist, contexts, weights)


def step_distributions(scorer, state, token: int | None):
    """One protocol step: the distribution after ``token`` and the state
    that follows it (``token`` None on a hypothesis's first step)."""
    return scorer.step(state, token)


def coverage_count(scorer, state, threshold: float) -> int:
    """Frames the hypothesis at ``state`` covers once closed with <eos>."""
    return scorer.covered(state, threshold)


def _validate_reference(model: ToyLasModel, utt: Utterance) -> None:
    v = len(model.alphabet)
    for y in utt.reference:
        if not 0 <= y < v:
            raise ScorerError(f"{utt.uid}: reference id {y} out of range")
        if not model.emit_mask[y]:
            raise ScorerError(f"{utt.uid}: reference contains a non-emittable symbol id {y}")
    if utt.reference[-1] != model.eos_id:
        raise ScorerError(f"{utt.uid}: reference does not end with {EOS}")
    if model.eos_id in utt.reference[:-1]:
        raise ScorerError(f"{utt.uid}: reference contains {EOS} before its end")


def loss_and_gradients(model: ToyLasModel, corpus: Sequence[Utterance]):
    """Mean per-token teacher-forced cross-entropy and its exact gradients.

    The backward pass is hand-derived backpropagation through the decoder
    steps, the attention heads, and the encoder recurrence, in that order.
    Returns (loss, grads) with grads keyed like ``model.params``.
    """
    if not corpus:
        raise ScorerError("corpus is empty")
    p = model.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    total_nll = 0.0
    total_tokens = 0

    for utt in corpus:
        _validate_reference(model, utt)
        h_enc, enc_caches = model._encode_cached(utt.features)
        T = h_enc.shape[0]
        inputs = (model.sos_id, *utt.reference[:-1])
        targets = utt.reference
        total_tokens += len(targets)

        state = model.init_state(h_enc)
        step_caches = []
        for y_in, y_out in zip(inputs, targets):
            dist, state, cache = model._decode_step_cached(state, y_in)
            att_caches, cell_cache, _, contexts, weights = cache
            if dist[y_out] <= 0.0:
                raise ScorerError(f"{utt.uid}: target symbol has zero probability")
            total_nll += -math.log(dist[y_out])
            step_caches.append((y_in, y_out, att_caches, cell_cache, dist))

        d_h_enc = np.zeros_like(h_enc)
        ds_carry = np.zeros(model.dec_hidden)
        for y_in, y_out, att_caches, cell_cache, dist in reversed(step_caches):
            dlogits = dist.copy()
            dlogits[y_out] -= 1.0
            x, s_prev, z, g = cell_cache
            s_new = (1.0 - z) * s_prev + z * g
            grads["out_W"] += np.outer(s_new, dlogits)
            grads["out_b"] += dlogits
            ds = ds_carry + dlogits @ p["out_W"].T
            dx, ds_prev = _cell_backward(
                ds, cell_cache, p["dec_Wz"], p["dec_Uz"], p["dec_Wh"], p["dec_Uh"],
                grads, "dec_",
            )
            grads["emb"][y_in] += dx[: model.embed_dim]
            dq_total = np.zeros(model.dec_hidden)
            for j in range(model.n_heads):
                lo = model.embed_dim + j * model.enc_hidden
                dc = dx[lo : lo + model.enc_hidden]
                u, alpha = att_caches[j]
                dalpha = h_enc @ dc
                d_h_enc += np.outer(alpha, dc)
                de = alpha * (dalpha - np.dot(alpha, dalpha))
                grads[f"att{j}_v"] += u.T @ de
                dA = np.outer(de, p[f"att{j}_v"]) * (1.0 - u * u)
                dA_sum = dA.sum(axis=0)
                grads[f"att{j}_Wq"] += np.outer(s_prev, dA_sum)
                grads[f"att{j}_Wk"] += h_enc.T @ dA
                dq_total += dA_sum @ p[f"att{j}_Wq"].T
                d_h_enc += dA @ p[f"att{j}_Wk"].T
            ds_carry = ds_prev + dq_total

        d_seq = d_h_enc
        for layer in reversed(range(model.n_enc_layers)):
            layer_cache = enc_caches[layer]
            d_in_dim = model.feat_dim if layer == 0 else model.enc_hidden
            d_below = np.zeros((T, d_in_dim))
            dh_carry = np.zeros(model.enc_hidden)
            for t in reversed(range(T)):
                dh = d_seq[t] + dh_carry
                dx_t, dh_carry = _cell_backward(
                    dh, layer_cache[t],
                    p[f"enc{layer}_Wz"], p[f"enc{layer}_Uz"],
                    p[f"enc{layer}_Wh"], p[f"enc{layer}_Uh"],
                    grads, f"enc{layer}_",
                )
                d_below[t] = dx_t
            d_seq = d_below

    loss = total_nll / total_tokens
    for k in grads:
        grads[k] /= total_tokens
    return loss, grads


def train_model(
    model: ToyLasModel,
    corpus: Sequence[Utterance],
    epochs: int,
    lr: float = 0.1,
    optimizer: str = "sgd",
) -> list[float]:
    """Full-batch training; mutates the model and returns the loss trace.

    The trace records the loss evaluated at the start of each epoch, so a
    zero learning rate yields a constant trace.  The learning rate must be
    finite and non-negative.  A non-finite loss aborts with the epoch number
    in the error, and so do non-finite parameters after the last update.
    """
    if epochs < 1:
        raise ScorerError(f"epochs must be >= 1, got {epochs}")
    if not math.isfinite(lr) or lr < 0:
        raise ScorerError(f"lr must be finite and non-negative, got {lr}")
    if optimizer not in ("sgd", "adam"):
        raise ScorerError(f"optimizer must be 'sgd' or 'adam', got {optimizer!r}")
    trace: list[float] = []
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    for epoch in range(epochs):
        loss, grads = loss_and_gradients(model, corpus)
        if not math.isfinite(loss):
            raise ScorerError(f"training diverged at epoch {epoch}: loss={loss}")
        trace.append(loss)
        if optimizer == "sgd":
            for k, g in grads.items():
                model.params[k] -= lr * g
        else:
            t = epoch + 1
            for k, g in grads.items():
                adam_m[k] = b1 * adam_m[k] + (1 - b1) * g
                adam_v[k] = b2 * adam_v[k] + (1 - b2) * g * g
                m_hat = adam_m[k] / (1 - b1**t)
                v_hat = adam_v[k] / (1 - b2**t)
                model.params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    if not all(np.isfinite(v).all() for v in model.params.values()):
        raise ScorerError(f"training diverged at epoch {epochs - 1}: non-finite parameters")
    return trace


def teacher_forced_accuracy(model: ToyLasModel, corpus: Sequence[Utterance]) -> float:
    """Fraction of teacher-forced steps whose argmax equals the target."""
    hits = 0
    total = 0
    for utt in corpus:
        _validate_reference(model, utt)
        state = model.init_state(model.encode(utt.features))
        for y_in, y_out in zip((model.sos_id, *utt.reference[:-1]), utt.reference):
            dist, state = model.decode_step(state, y_in)
            hits += int(np.argmax(dist) == y_out)
            total += 1
    return hits / total


def write_loss_trace(path: str | Path, losses: Sequence[float]) -> None:
    lines = ["epoch,loss"]
    lines += [f"{i},{loss:.17g}" for i, loss in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_checkpoint(model: ToyLasModel, path: str | Path) -> None:
    """Single-file checkpoint: magic, version, JSON header, then the raw
    float64 little-endian parameter arrays in header order."""
    header = {
        "feat_dim": model.feat_dim,
        "enc_hidden": model.enc_hidden,
        "dec_hidden": model.dec_hidden,
        "att_dim": model.att_dim,
        "embed_dim": model.embed_dim,
        "n_heads": model.n_heads,
        "n_enc_layers": model.n_enc_layers,
        "max_prefix": model.max_prefix,
        "alphabet": list(model.alphabet),
        "arrays": [
            {"name": k, "shape": list(model.params[k].shape)}
            for k in sorted(model.params)
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _CKPT_MAGIC
    blob += struct.pack("<II", _CKPT_VERSION, len(header_bytes))
    blob += header_bytes
    for entry in header["arrays"]:
        blob += np.ascontiguousarray(model.params[entry["name"]], dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> ToyLasModel:
    raw = Path(path).read_bytes()
    if raw[:4] != _CKPT_MAGIC:
        raise ScorerError(f"{path}: not a model checkpoint (bad magic)")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != _CKPT_VERSION:
        raise ScorerError(f"{path}: unsupported checkpoint version {version}")
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    offset = 12 + header_len
    params = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        params[entry["name"]] = arr.astype(np.float64)
        offset += count * 8
    if offset != len(raw):
        raise ScorerError(f"{path}: trailing bytes after parameter arrays")
    return ToyLasModel(
        SymbolTable(header["alphabet"]),
        header["feat_dim"],
        params,
        enc_hidden=header["enc_hidden"],
        dec_hidden=header["dec_hidden"],
        att_dim=header["att_dim"],
        embed_dim=header["embed_dim"],
        n_heads=header["n_heads"],
        n_enc_layers=header["n_enc_layers"],
        max_prefix=header["max_prefix"],
    )
