"""Step-distribution scorers for the decoder: a trainable toy
listener/attender/speller and a deterministic table-backed stand-in.

Both implement one incremental protocol, batched over the live hypotheses
of one utterance's beam at one depth, so the beam never needs to know
which scorer it holds:

- ``scorer.token_limit(utt)``: the longest token string (``<eos>`` not
  counted) the scorer can grade for this utterance;
- ``scorer.start(utt) -> state``: per-utterance work, done once (the model
  encodes the features and computes its attention keys here);
- ``scorer.step(states, tokens) -> (rows, states)``: state ``i`` consumes
  ``tokens[i]`` (``None`` on the first step, which the model reads as
  ``<sos>``); row ``i`` of ``rows`` holds the next symbol's
  log-probabilities, and ``states[i]`` the state after it.  A row is a
  sequence over the alphabet of ``math.log(p)``, with ``None`` where ``p``
  is 0, so the beam reads it as it is.  Both scorers raise
  ``ScorerError`` for a step with no state or with a token count other
  than the state count;
- ``scorer.covered(states, threshold) -> counts``: for each state, how
  many encoder frames the hypothesis at it will have covered once it is
  closed with ``<eos>``; never more than the larger of the steps taken and
  the utterance's frame count, which the beam's threshold pruning relies
  on.

The decoder reaches the last two through :func:`step_distributions` and
:func:`coverage_count`, once per depth each.  States are never mutated, so
a beam keeps one per live hypothesis and every survivor of pruning steps
once from its parent's state: no prefix is replayed and no utterance is
encoded twice.

Distributions are dense float64 arrays of probabilities (at most 1, so no
step lowers a hypothesis's cost) indexed by symbol id; epsilon and
``<sos>`` positions are structurally zero since a decode step can never
produce them.  A step hands the beam their logs, each taken with
``math.log`` (``np.log`` differs from it in the last bit on some values):
the table scorer takes one per distinct probability, the first time an
utterance holding it is started, and the model one per entry of the rows
it steps.  Everything runs in float64 so the analytic gradients can be
checked against central finite differences at tight tolerance.  Training
and decoding run one ``ToyLasModel`` forward pass, batched over utterances
in training and over a beam's hypotheses in decoding.  A model is its
alphabet and its arrays, whose shapes give its sizes; its checkpoint is one
JSON document of the two (:func:`save_checkpoint`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fst import EPSILON, SymbolTable

SOS = "<sos>"
EOS = "<eos>"
OPTIMIZERS = ("sgd", "adam")

_CKPT_VERSION = 3
# The longest prefix a ToyLasModel decode grows, <eos> not counted.
MAX_PREFIX = 256


class ScorerError(ValueError):
    """Shape mismatch, invalid symbol, bad table row, or training failure."""


@dataclass(frozen=True)
class Utterance:
    """Synthetic input features paired with the reference symbol ids.

    ``reference`` ends with the ``<eos>`` id; ``features`` is a (T, d) array
    of finite frames with T >= 1 (see :func:`as_features`).
    """

    uid: str
    features: np.ndarray
    reference: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", as_features(self.features))
        object.__setattr__(self, "reference", tuple(int(y) for y in self.reference))
        if len(self.reference) == 0:
            raise ScorerError("reference is empty (it must at least contain <eos>)")


def as_features(x) -> np.ndarray:
    """``x`` as a float64 (T, d) array of finite frames, T >= 1."""
    feats = np.asarray(x, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ScorerError(f"features must be a (T, d) array with T >= 1, got shape {feats.shape}")
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ScorerError(f"features hold a non-finite value in frame {bad[0]}")
    return feats


def _emit_mask(alphabet: SymbolTable) -> np.ndarray:
    mask = np.ones(len(alphabet), dtype=bool)
    mask[0] = False
    sos = alphabet.find(SOS)
    if sos is not None:
        mask[sos] = False
    return mask


def _masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, among the positions ``mask`` keeps; the
    others are exactly 0.

    Each row is summed left to right, as a cumulative sum: ``sum`` would
    pick its order from the array's shape and memory layout (pairwise along
    one contiguous row, left to right across a batch), and a beam's row
    must come out the same whatever is stepped beside it.  Left to right is
    the order training's batches always had."""
    out = np.zeros(logits.shape)
    live = logits[..., mask]
    live = np.exp(live - live.max(axis=-1, keepdims=True))
    out[..., mask] = live / live.cumsum(axis=-1)[..., -1:]
    return out


def _check_batch(states: Sequence, tokens: Sequence) -> None:
    """Refuse a step that is not one token for each of at least one state."""
    if not states or len(states) != len(tokens):
        raise ScorerError(
            f"a step takes one token per state and at least one state, "
            f"got {len(states)} state(s) and {len(tokens)} token(s)"
        )


class _LogMemo(dict):
    """``math.log`` of each probability asked for, None for 0, taken once."""

    def __missing__(self, p: float) -> float | None:
        log = self[p] = math.log(p) if p > 0.0 else None
        return log


class TableScorer:
    """Explicit per-step rows, keyed by utterance id.

    The k-th row is the distribution after a prefix of length k, regardless
    of what the prefix contains.  An utterance has at least one row, and
    rows must hold probabilities (in [0, 1], so no step lowers a
    hypothesis's cost), sum to 1 within 1e-9, and put no mass on epsilon or
    ``<sos>``.  ``rows`` keeps them as read-only arrays.  A step returns one
    per state, as :meth:`log_rows` holds them: tuples of log-probabilities,
    None where a probability is 0, taken when an utterance is first started.
    The scorer takes one log per distinct probability, and every entry
    holding it shares that one float.  A state is the triple (uid, log rows,
    steps taken); the table has no attention, so each step stands for one
    covered frame.
    """

    def __init__(self, alphabet: SymbolTable, rows: Mapping[str, np.ndarray | Sequence[Sequence[float]]]):
        if alphabet.find(EOS) is None:
            raise ScorerError(f"scorer alphabet must contain {EOS}")
        self.alphabet = alphabet
        self.emit_mask = _emit_mask(alphabet)
        table: dict[str, np.ndarray] = {}
        for uid, r in rows.items():
            arr = np.asarray(r, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != len(alphabet):
                raise ScorerError(
                    f"{uid}: rows must be (steps, {len(alphabet)}), got shape {arr.shape}"
                )
            if np.any(np.isnan(arr)):
                raise ScorerError(f"{uid}: NaN in step rows")
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
        self._logs = _LogMemo()
        self._log_rows: dict[str, tuple[tuple[float | None, ...], ...]] = {}

    def _rows_for(self, uid: str) -> np.ndarray:
        try:
            return self.rows[uid]
        except KeyError:
            raise ScorerError(f"no step rows stored for utterance {uid!r}") from None

    def log_rows(self, uid: str) -> tuple[tuple[float | None, ...], ...]:
        """The rows of ``uid`` as its steps return them, built on the first
        call and kept."""
        logs = self._log_rows.get(uid)
        if logs is None:
            memo = self._logs.__getitem__
            logs = self._log_rows[uid] = tuple(tuple(map(memo, row)) for row in self._rows_for(uid).tolist())
        return logs

    def token_limit(self, utt: Utterance) -> int:
        return len(self._rows_for(utt.uid)) - 1

    def start(self, utt: Utterance) -> tuple[str, tuple, int]:
        return utt.uid, self.log_rows(utt.uid), 0

    def step(self, states: Sequence[tuple[str, tuple, int]], tokens: Sequence[int | None]):
        """Log row k of the table once per state, for states that all
        hold one utterance's prefixes of length k, as a beam's live entries
        at one depth do: the one row object each time, so no row is copied,
        and the one state that follows them all."""
        _check_batch(states, tokens)
        first = states[0]
        uid, rows, k = first
        # the live entries of one depth all hold the one state the last step returned
        for st in states:
            if st is not first and (st[2] != k or st[0] != uid):
                raise ScorerError("a table step takes the states of one utterance at one depth")
        if k >= len(rows):
            raise ScorerError(f"prefix of length {k} exceeds the {len(rows)} stored steps for {uid!r}")
        return (rows[k],) * len(states), [(uid, rows, k + 1)] * len(states)

    def covered(self, states: Sequence[tuple[str, tuple, int]], threshold: float) -> list[int]:
        return [st[2] for st in states]


@dataclass(frozen=True, eq=False)
class DecoderStepState:
    """Carried between decode steps.  Fixed per utterance by
    ``ToyLasModel.init_state``: the encoder output ``h_enc`` (T, E) and
    every head's keys ``h_enc @ att_Wk`` (1, T, H, A); the attention
    weights themselves stay in the model's ``params``.  Per step: the
    recurrent vector ``s``, how much attention mass each encoder frame has
    accumulated so far (non-decreasing), and how many steps have been
    taken.  The attention of the step leaving the state depends on ``s``
    alone, so it is computed when the state is made: ``coverage`` (T,), the
    mass that step adds to each frame (the heads' mean weight), and
    ``context`` (H * E,), the heads' concatenated contexts.

    Two states are equal when all their fields are.  States hold arrays,
    so they are not hashable."""

    h_enc: np.ndarray
    keys: np.ndarray
    s: np.ndarray
    cum_attention: np.ndarray
    coverage: np.ndarray
    context: np.ndarray
    steps: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecoderStepState):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


def _cell_shapes(prefix: str, d_in: int, h: int) -> dict[str, tuple[int, ...]]:
    """The shapes of recurrent cell ``prefix``'s weights, in ``_cell``'s order."""
    return {f"{prefix}{w}{gate}": shape for gate in "zh" for w, shape in (("W", (d_in, h)), ("U", (h, h)), ("b", (h,)))}


def _param_shapes(vocab, feat_dim, enc_hidden, dec_hidden, att_dim, embed_dim, n_heads, n_enc_layers):
    """Every ``ToyLasModel`` parameter's shape, from the model dimensions.
    Attention holds every head at once: head j owns columns j*A:(j+1)*A of
    ``att_Wq`` and ``att_Wk`` and row j of ``att_v``."""
    shapes = {}
    for layer in range(n_enc_layers):
        shapes.update(_cell_shapes(f"enc{layer}_", feat_dim if layer == 0 else enc_hidden, enc_hidden))
    shapes.update(att_Wq=(dec_hidden, n_heads * att_dim), att_Wk=(enc_hidden, n_heads * att_dim),
                  att_v=(n_heads, att_dim), emb=(vocab, embed_dim))
    shapes.update(_cell_shapes("dec_", embed_dim + n_heads * enc_hidden, dec_hidden))
    shapes.update(out_W=(dec_hidden, vocab), out_b=(vocab,))
    return shapes


def _cell_forward(x, h_prev, Wz, Uz, bz, Wh, Uh, bh):
    z = 1.0 / (1.0 + np.exp(-(x @ Wz + h_prev @ Uz + bz)))
    g = np.tanh(x @ Wh + h_prev @ Uh + bh)
    h = (1.0 - z) * h_prev + z * g
    return h, (x, h_prev, z, g)


def _cell_backward(dh, cache, Wz, Uz, Wh, Uh):
    """Backward through one batched cell step: (dx, dh_prev, da_h, da_z),
    the last two being the pre-activation gradients the weights need.  With
    ``Wz`` and ``Wh`` None the input gradient is not wanted, and dx is None."""
    x, h_prev, z, g = cache
    da_h = dh * z * (1.0 - g * g)
    da_z = dh * (g - h_prev) * z * (1.0 - z)
    dx = None if Wh is None else da_h @ Wh.T + da_z @ Wz.T
    dh_prev = dh * (1.0 - z) + da_h @ Uh.T + da_z @ Uz.T
    return dx, dh_prev, da_h, da_z


def _cell_weight_grads(grads, prefix, caches, das) -> None:
    """Add one cell's weight gradients over every step at once: ``caches``
    are its forward caches and ``das`` the (da_h, da_z) of the same steps."""
    x = np.concatenate([c[0] for c in caches])
    h_prev = np.concatenate([c[1] for c in caches])
    for gate, i in (("h", 0), ("z", 1)):
        da = np.concatenate([d[i] for d in das])
        grads[f"{prefix}W{gate}"] += x.T @ da
        grads[f"{prefix}U{gate}"] += h_prev.T @ da
        grads[f"{prefix}b{gate}"] += da.sum(axis=0)


class ToyLasModel:
    """Recurrent encoder, additive multi-head attention, recurrent decoder.

    The recurrent cell is a single-gate blend ``h' = (1-z)*h + z*tanh(...)``
    so the whole backward pass stays hand-derivable.  Attention queries use
    the decoder state from before the step; the resulting contexts are
    concatenated with the embedded previous symbol and fed to the decoder
    cell, whose new state produces the output logits.

    The forward pass is written once, over a batch: ``_encode``,
    ``_attend``, ``_cell_forward`` and ``_masked_softmax``.  Training runs
    it over the whole padded corpus (:meth:`_forward`); decoding encodes
    one utterance, computes its attention keys once in :meth:`init_state`,
    and steps a beam's live hypotheses together (:meth:`decode_steps`).
    """

    def __init__(self, alphabet: SymbolTable, params: dict[str, np.ndarray]):
        """A model over ``alphabet`` with the weights ``params``, its sizes
        read off the arrays: ``enc0_Wz`` is (feat_dim, enc_hidden), ``att_v``
        (n_heads, att_dim), ``emb`` (vocab, embed_dim), ``dec_Uz`` (dec_hidden,
        dec_hidden), and any ``enc1_*`` array makes a second encoder layer.
        Each size must be at least 1 and every array shaped as the sizes say."""
        for required in (SOS, EOS):
            if alphabet.find(required) is None:
                raise ScorerError(f"model alphabet must contain {required}")
        shapes = {k: np.shape(v) for k, v in params.items()}
        # a missing array reads as (1, 1), so that the key check below names it
        dims = [shapes.get(k, (1, 1)) for k in ("enc0_Wz", "att_v", "emb", "dec_Uz")]
        if any(len(shape) != 2 or 0 in shape for shape in dims):
            raise ScorerError(f"enc0_Wz, att_v, emb and dec_Uz must be matrices of sizes >= 1, got {dims}")
        (self.feat_dim, self.enc_hidden), (self.n_heads, self.att_dim), (_, self.embed_dim), (self.dec_hidden, _) = dims
        self.n_enc_layers = 2 if any(k.startswith("enc1_") for k in params) else 1
        self.alphabet = alphabet
        self.sos_id = alphabet.id(SOS)
        self.eos_id = alphabet.id(EOS)
        self.emit_mask = _emit_mask(alphabet)
        expected = _param_shapes(len(alphabet), self.feat_dim, self.enc_hidden, self.dec_hidden,
                                 self.att_dim, self.embed_dim, self.n_heads, self.n_enc_layers)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ScorerError(f"parameter keys wrong: missing {missing}, unexpected {extra}")
        for k, shape in expected.items():
            if shapes[k] != shape:
                raise ScorerError(f"parameter {k} has shape {shapes[k]}, expected {shape}")
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
        seed: int = 0,
    ) -> "ToyLasModel":
        """Fresh model with uniform [-0.1, 0.1] parameters from the seed.

        The attention weights are drawn one head at a time (its query
        weights, key weights and scores, in that order) and then joined, so
        a seed gives each head the numbers it had when every head was
        stored apart."""
        sizes = dict(feat_dim=feat_dim, enc_hidden=enc_hidden, dec_hidden=dec_hidden, att_dim=att_dim,
                     embed_dim=embed_dim, n_heads=n_heads, n_enc_layers=n_enc_layers)
        for name, value in sizes.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ScorerError(f"{name} must be an integer >= 1, got {value!r}")
        if n_enc_layers not in (1, 2):
            raise ScorerError(f"n_enc_layers must be 1 or 2, got {n_enc_layers}")
        rng = np.random.default_rng(seed)
        params = {}
        for k, shape in _param_shapes(len(alphabet), **sizes).items():
            if k == "att_Wq":
                head = ((dec_hidden, att_dim), (enc_hidden, att_dim), (att_dim,))
                Wq, Wk, v = zip(*([rng.uniform(-0.1, 0.1, size=s) for s in head] for _ in range(n_heads)))
                params.update(att_Wq=np.hstack(Wq), att_Wk=np.hstack(Wk), att_v=np.stack(v))
            elif k not in params:
                params[k] = rng.uniform(-0.1, 0.1, size=shape)
        return cls(alphabet, params)

    def _cell(self, prefix: str) -> tuple[np.ndarray, ...]:
        """The weights of the recurrent cell ``prefix``, in ``_cell_forward``'s order."""
        p = self.params
        return (p[prefix + "Wz"], p[prefix + "Uz"], p[prefix + "bz"],
                p[prefix + "Wh"], p[prefix + "Uh"], p[prefix + "bh"])

    def _encode(self, x: np.ndarray):
        """The encoder over an (N, T, d) batch: the top layer's (N, T,
        enc_hidden) outputs, and each layer's cell cache per time step."""
        caches = []
        seq = x
        for layer in range(self.n_enc_layers):
            cell = self._cell(f"enc{layer}_")
            h = np.zeros((x.shape[0], self.enc_hidden))
            outs = np.empty((*x.shape[:2], self.enc_hidden))
            layer_cache = []
            for t in range(x.shape[1]):
                h, cache = _cell_forward(seq[:, t], h, *cell)
                outs[:, t] = h
                layer_cache.append(cache)
            caches.append(layer_cache)
            seq = outs
        return seq, caches

    def _attend(self, keys, s, h_enc, pad=None):
        """Additive attention, every head and utterance of a batch at once.

        ``s`` holds the N decoder states before the step, as (N, dec_hidden)
        or as N (1, dec_hidden) rows; ``keys`` (N, T, H, A) is ``h_enc @
        att_Wk``, or (1, T, H, A) for one utterance's keys shared by every
        row; and ``pad`` (N, 1, T), if given, is True on padded frames,
        whose weight is then exactly 0.  Returns the tanh scores u (N, T, H,
        A), the weights alpha (N, H, T), and the contexts (N, H * E), head
        j's in columns j*E:(j+1)*E.
        """
        N, (H, A) = s.shape[0], keys.shape[2:]
        u = np.tanh(keys + (s @ self.params["att_Wq"]).reshape(N, 1, H, A))
        e = np.einsum("ntha,ha->nht", u, self.params["att_v"])
        if pad is not None:
            e = np.where(pad, -np.inf, e)
        e = np.exp(e - e.max(axis=2, keepdims=True))
        alpha = e / e.sum(axis=2, keepdims=True)
        return u, alpha, (alpha @ h_enc).reshape(N, -1)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Run the recurrent encoder over finite (T, feat_dim) frames, T >=
        1; returns one hidden vector per frame."""
        x = as_features(x)
        if x.shape[1] != self.feat_dim:
            raise ScorerError(f"expected features shaped (T, {self.feat_dim}), got {x.shape}")
        h_enc, _ = self._encode(x[None])
        return h_enc[0]

    def token_limit(self, utt: Utterance) -> int:
        return MAX_PREFIX

    def start(self, utt: Utterance) -> DecoderStepState:
        return self.init_state(self.encode(utt.features))

    def step(self, states: Sequence[DecoderStepState], tokens: Sequence[int | None]):
        """:meth:`decode_steps` on ``tokens``, reading None as <sos>, with
        each row's logs taken entry by entry; a prefix may grow to
        ``MAX_PREFIX`` symbols."""
        for state in states:
            if state.steps > MAX_PREFIX:
                raise ScorerError(f"prefix of length {state.steps} exceeds the model's limit of {MAX_PREFIX}")
        dists, states = self.decode_steps(states, [self.sos_id if t is None else t for t in tokens])
        return [[math.log(p) if p > 0.0 else None for p in row] for row in dists.tolist()], states

    def covered(self, states: Sequence[DecoderStepState], threshold: float) -> list[int]:
        """For each state, the frames above ``threshold`` after one more
        step, whose attention depends only on the state and not on the
        symbol it consumes."""
        cum = np.array([state.cum_attention + state.coverage for state in states])
        return np.count_nonzero(cum > threshold, axis=1).tolist()

    def init_state(self, h_enc: np.ndarray) -> DecoderStepState:
        """The state before <sos>, for the encoder output ``h_enc``."""
        T = h_enc.shape[0]
        keys = (h_enc @ self.params["att_Wk"]).reshape(1, T, self.n_heads, self.att_dim)
        s = np.zeros(self.dec_hidden)
        (coverage,), (context,) = self._step_attention(keys, s[None, None], h_enc)
        return DecoderStepState(h_enc, keys, s, np.zeros(T), coverage, context)

    def decode_step(self, state: DecoderStepState, y_prev: int):
        """One decoder step; returns (distribution, next state)."""
        dists, (nxt,) = self.decode_steps([state], [y_prev])
        return dists[0], nxt

    def decode_steps(self, states: Sequence[DecoderStepState], ys: Sequence[int]):
        """One decoder step for each of B states of one utterance (all
        descended from one :meth:`init_state`), state ``i`` consuming
        ``ys[i]``: the (B, V) distributions and the B next states.  States
        may repeat and may differ in depth.

        The B rows run through one ``_cell_forward``, one
        ``_masked_softmax`` and one ``_attend`` for the B states made, each
        row a (1, d) matrix: every product is then one vector-matrix
        product per row, so a row comes out bit for bit the same whatever
        else is stepped beside it."""
        _check_batch(states, ys)
        ys = np.asarray(ys, dtype=np.intp)
        bad = ys[(ys < 0) | (ys >= len(self.alphabet))]
        if bad.size:
            raise ScorerError(f"symbol id {bad[0]} out of range for this alphabet")
        first = states[0]
        if any(state.keys is not first.keys for state in states):
            raise ScorerError("a decode step takes the states of one utterance at a time")
        p = self.params
        contexts = np.array([state.context for state in states])
        x = np.concatenate([p["emb"][ys], contexts], axis=1)[:, None]
        s_prev = np.array([state.s for state in states])[:, None]
        s, _ = _cell_forward(x, s_prev, *self._cell("dec_"))
        dists = _masked_softmax(s @ p["out_W"] + p["out_b"], self.emit_mask)[:, 0]
        coverage, contexts = self._step_attention(first.keys, s, first.h_enc)
        return dists, [
            DecoderStepState(st.h_enc, st.keys, s[i, 0], st.cum_attention + st.coverage,
                             coverage[i], contexts[i], st.steps + 1)
            for i, st in enumerate(states)
        ]

    def _step_attention(self, keys, s, h_enc):
        """The attention of the step leaving each of N states of one
        utterance, from their (N, 1, dec_hidden) vectors ``s``: the mass it
        adds to each frame (the heads' mean weight), (N, T), and the
        concatenated contexts, (N, H * E)."""
        _, alpha, contexts = self._attend(keys, s, h_enc)
        # the sum over heads / H is np.mean's arithmetic, without its wrapper
        return alpha.sum(axis=1) / self.n_heads, contexts

    def _forward(self, corpus: Sequence[Utterance]):
        """The teacher-forced forward pass over a corpus, as one padded
        batch (see :func:`loss_and_gradients` for the padding).  Returns
        the (N, L_max, V) distributions, the (N, L_max) token mask, inputs
        and targets, and what the backward pass reads: the encoder output
        and caches, the (N, L_max, dec_hidden) decoder states and each
        step's ``_attend`` and ``_cell_forward`` caches."""
        if not corpus:
            raise ScorerError("corpus is empty")
        for utt in corpus:
            _validate(self, utt)
        p = self.params
        N, H, A = len(corpus), self.n_heads, self.att_dim
        frames = np.array([utt.features.shape[0] for utt in corpus])
        tokens = np.array([len(utt.reference) for utt in corpus])
        T, L = int(frames.max()), int(tokens.max())
        frame_mask = np.arange(T) < frames[:, None]
        token_mask = np.arange(L) < tokens[:, None]
        x = np.zeros((N, T, self.feat_dim))
        y_in = np.full((N, L), self.sos_id)
        y_out = np.full((N, L), self.eos_id)
        for n, utt in enumerate(corpus):
            x[n, : frames[n]] = utt.features
            y_in[n, 1 : tokens[n]] = utt.reference[:-1]
            y_out[n, : tokens[n]] = utt.reference

        h_enc, enc_caches = self._encode(x)
        keys = (h_enc @ p["att_Wk"]).reshape(N, T, H, A)
        pad = ~frame_mask[:, None, :]
        dec = self._cell("dec_")
        s = np.zeros((N, self.dec_hidden))
        states, step_caches = [], []
        for l in range(L):
            u, alpha, contexts = self._attend(keys, s, h_enc, pad)
            s, cell_cache = _cell_forward(
                np.concatenate([p["emb"][y_in[:, l]], contexts], axis=1), s, *dec
            )
            states.append(s)
            step_caches.append((u, alpha, cell_cache))
        states = np.stack(states, axis=1)
        dist = _masked_softmax(states @ p["out_W"] + p["out_b"], self.emit_mask)
        return dist, token_mask, y_in, y_out, h_enc, enc_caches, states, step_caches


def step_distributions(scorer, states, tokens):
    """One protocol step of a beam's live hypotheses: the log-probability
    rows after ``tokens`` (None on a hypothesis's first step), one per
    state, and the states that follow them.  It returns logs, not
    distributions; the name stays because bench/tracing.py wraps it by
    name."""
    return scorer.step(states, tokens)


def coverage_count(scorer, states, threshold: float) -> list[int]:
    """Frames each hypothesis at ``states`` covers once closed with <eos>."""
    return scorer.covered(states, threshold)


def _validate(model: ToyLasModel, utt: Utterance) -> None:
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
    if utt.features.shape[1] != model.feat_dim:
        raise ScorerError(
            f"{utt.uid}: expected features shaped (T, {model.feat_dim}), got {utt.features.shape}"
        )


def loss_and_gradients(model: ToyLasModel, corpus: Sequence[Utterance]):
    """Mean per-token teacher-forced cross-entropy and its exact gradients.

    The whole corpus runs as one batch of N utterances.  Features are
    zero-padded to (N, T_max, d) and the teacher-forced inputs and targets
    to (N, L_max); a frame mask marks the real frames and a token mask the
    real decoder steps.  Padding always follows the real positions, so the
    recurrences never read it; attention gives padded frames a -inf logit
    (weight exactly 0), and padded steps get a zero dlogits row.  Padded
    positions therefore add exactly 0 to the loss and to every gradient.
    The forward pass is :meth:`ToyLasModel._forward`, built from the same
    ``_encode``, ``_attend``, ``_cell_forward`` and ``_masked_softmax`` a
    decode step runs.

    The backward pass is hand-derived backpropagation through the decoder
    steps, the attention heads, and the encoder recurrence, in that order,
    one time step at a time over the batch.  Projections that carry no
    recurrence (output logits, attention keys, weight gradients) run over
    all steps at once.  Returns (loss, grads) with grads keyed like
    ``model.params``.
    """
    dist, token_mask, y_in, y_out, h_enc, enc_caches, states, step_caches = model._forward(corpus)
    p = model.params
    N, T, E = h_enc.shape
    L, H, A = token_mask.shape[1], model.n_heads, model.att_dim
    rows, steps = np.nonzero(token_mask)
    targets = dist[rows, steps, y_out[rows, steps]]
    if np.any(targets <= 0.0):
        first = rows[np.argmax(targets <= 0.0)]
        raise ScorerError(f"{corpus[first].uid}: target symbol has zero probability")
    total_tokens = len(targets)
    loss = float(-np.log(targets).sum()) / total_tokens

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dlogits = dist
    dlogits[rows, steps, y_out[rows, steps]] -= 1.0
    dlogits[~token_mask] = 0.0
    grads["out_W"] += states.reshape(-1, model.dec_hidden).T @ dlogits.reshape(-1, dlogits.shape[2])
    grads["out_b"] += dlogits.sum(axis=(0, 1))
    ds_out = dlogits @ p["out_W"].T
    d_h_enc = np.zeros_like(h_enc)
    d_scores = np.zeros((N, T, H, A))
    d_emb = np.empty((L, N, model.embed_dim))
    ds_carry = np.zeros((N, model.dec_hidden))
    dec_das = []
    for l in reversed(range(L)):
        u, alpha, cell_cache = step_caches[l]
        dx, ds_prev, da_h, da_z = _cell_backward(
            ds_carry + ds_out[:, l], cell_cache, p["dec_Wz"], p["dec_Uz"], p["dec_Wh"], p["dec_Uh"]
        )
        dec_das.append((da_h, da_z))
        d_emb[l] = dx[:, : model.embed_dim]
        dc = dx[:, model.embed_dim :].reshape(N, H, E)
        d_h_enc += alpha.transpose(0, 2, 1) @ dc
        dalpha = dc @ h_enc.transpose(0, 2, 1)
        de = alpha * (dalpha - (alpha * dalpha).sum(axis=2, keepdims=True))
        grads["att_v"] += np.einsum("nht,ntha->ha", de, u)
        dA = de.transpose(0, 2, 1)[..., None] * p["att_v"] * (1.0 - u * u)
        dq = dA.sum(axis=1).reshape(N, H * A)
        d_scores += dA
        grads["att_Wq"] += cell_cache[1].T @ dq
        ds_carry = ds_prev + dq @ p["att_Wq"].T
    _cell_weight_grads(grads, "dec_", [c[2] for c in reversed(step_caches)], dec_das)
    np.add.at(grads["emb"], y_in.T.ravel(), d_emb.reshape(-1, model.embed_dim))
    # the keys are the same at every step, so their gradient sums first
    d_scores = d_scores.reshape(N * T, H * A)
    grads["att_Wk"] += h_enc.reshape(N * T, E).T @ d_scores
    d_seq = d_h_enc + (d_scores @ p["att_Wk"].T).reshape(N, T, E)

    for layer in reversed(range(model.n_enc_layers)):
        layer_cache = enc_caches[layer]
        Wz, Uz, Wh, Uh = (p[f"enc{layer}_{k}"] for k in ("Wz", "Uz", "Wh", "Uh"))
        if layer == 0:  # nothing reads the gradient of the features
            Wz = Wh = None
        d_below = np.empty((N, T, E)) if layer else None
        dh_carry = np.zeros((N, E))
        enc_das = []
        for t in reversed(range(T)):
            dx, dh_carry, da_h, da_z = _cell_backward(d_seq[:, t] + dh_carry, layer_cache[t], Wz, Uz, Wh, Uh)
            enc_das.append((da_h, da_z))
            if layer:
                d_below[:, t] = dx
        _cell_weight_grads(grads, f"enc{layer}_", layer_cache[::-1], enc_das)
        d_seq = d_below

    for k in grads:
        grads[k] /= total_tokens
    return loss, grads


def check_epochs(epochs: int) -> None:
    """Refuse a training run of no epochs."""
    if epochs < 1:
        raise ScorerError(f"epochs must be >= 1, got {epochs}")


def check_lr(lr: float) -> None:
    """Refuse a learning rate that is not finite and non-negative."""
    if not math.isfinite(lr) or lr < 0:
        raise ScorerError(f"lr must be finite and non-negative, got {lr}")


@np.errstate(over="ignore", invalid="ignore")
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
    in the error, and so do non-finite parameters after the last update,
    with none of numpy's overflow warnings on the way.
    """
    check_epochs(epochs)
    check_lr(lr)
    if optimizer not in OPTIMIZERS:
        raise ScorerError(f"optimizer must be one of {OPTIMIZERS}, got {optimizer!r}")
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
    """Fraction of teacher-forced steps whose argmax equals the target,
    read off one batched forward pass over the corpus."""
    dist, token_mask, _, y_out, *_ = model._forward(corpus)
    hits = dist.argmax(axis=2) == y_out
    return int(hits[token_mask].sum()) / int(token_mask.sum())


def write_loss_trace(path: str | Path, losses: Sequence[float]) -> None:
    lines = ["epoch,loss"]
    lines += [f"{i},{loss:.17g}" for i, loss in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_checkpoint(model: ToyLasModel, path: str | Path) -> None:
    """One sorted-key JSON object: the format version, the alphabet, and every
    array as nested lists.  A float's ``repr`` reads back as the same float,
    so :func:`load_checkpoint` gives back every array bit for bit.  A
    parameter that is not finite raises ``ScorerError`` naming the array, and
    no file is written: JSON has no such number, and the loader would refuse
    it."""
    for name, arr in sorted(model.params.items()):
        if not np.isfinite(arr).all():
            raise ScorerError(f"{path}: not written: array {name} holds a value that is not a finite number")
    params = {k: v.tolist() for k, v in model.params.items()}
    doc = {"version": _CKPT_VERSION, "alphabet": list(model.alphabet), "params": params}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> ToyLasModel:
    """Read a :func:`save_checkpoint` file; anything malformed in it raises
    one ``ScorerError`` naming the file."""
    try:
        return _parse_checkpoint(Path(path).read_bytes())
    except (ValueError, OverflowError) as e:  # OverflowError: an integer too large for a float
        raise ScorerError(f"{path}: {e}") from None


def _parse_checkpoint(raw: bytes) -> ToyLasModel:
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ScorerError(f"not a JSON checkpoint ({e})") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != _CKPT_VERSION:
        raise ScorerError(f"unsupported checkpoint version {version!r} (this build reads version {_CKPT_VERSION})")
    if set(doc) != {"alphabet", "params", "version"}:
        raise ScorerError(f"checkpoint keys are {sorted(doc)}, expected alphabet, params and version")
    alphabet, params = doc["alphabet"], doc["params"]
    if not (isinstance(alphabet, list) and all(isinstance(s, str) for s in alphabet) and isinstance(params, dict)):
        raise ScorerError("expected a list of strings under 'alphabet' and an object under 'params'")
    if alphabet[:1] != [EPSILON] or len(set(alphabet)) != len(alphabet):
        raise ScorerError(f"alphabet must list {EPSILON} first and every symbol once")
    table = SymbolTable(alphabet)
    arrays = {name: np.array(values, dtype=object) for name, values in params.items()}
    for name, arr in arrays.items():
        if not all(type(x) in (int, float) and math.isfinite(x) for x in arr.flat):
            raise ScorerError(f"array {name} is ragged or holds a value that is not a finite number")
    return ToyLasModel(table, arrays)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ScorerError(f"key {key!r} is listed twice")
        doc[key] = value
    return doc
