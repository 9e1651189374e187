"""Toy bidirectional masked-diffusion transformer with a row-partitioned forward.

The forward pass splits sequence positions into *computed* rows and
*skipped* rows. Computed rows get the full pre-LN residual stack
(x + Attn(LN(x)), then + FFN(LN(.))) and write their key/value rows into the
run's ``KVStore`` in place; skipped rows take part only through the K/V rows
the store already holds for them. Attention is fully bidirectional,
positions come from an additive learned table, and the feed-forward is gated
(up / gate / down with SiLU), so per-step GEMM cost is exactly proportional
to the number of computed rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidInputError, InvalidStateError, require_int
from .flops import GemmCounter
from .prng import normals

# the largest model a config may ask for: 128 MiB of float64 weights, drawn
# in about 1.4 s, 22 times the benchmark's 0.76M-parameter model
MAX_PARAMS = 2**24


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the toy transformer.

    ``vocab_size`` includes the reserved mask token (``mask_id``, by default
    the last id). ``n_kv_heads`` may divide ``n_heads`` for grouped key/value
    sharing; head width is ``d_model // n_heads``.
    """

    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq: int
    n_kv_heads: int | None = None
    mask_id: int | None = None

    def __post_init__(self):
        # the defaults derive from vocab_size and n_heads, so those are checked first
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq"):
            require_int(name, getattr(self, name))
        if self.n_kv_heads is None:
            object.__setattr__(self, "n_kv_heads", self.n_heads)
        if self.mask_id is None:
            object.__setattr__(self, "mask_id", self.vocab_size - 1)
        for name in ("n_kv_heads", "mask_id"):
            require_int(name, getattr(self, name))
        if self.vocab_size < 3:
            raise ConfigError("vocab_size must be at least 3 (two tokens plus mask)")
        if min(self.d_model, self.n_layers, self.n_heads, self.n_kv_heads, self.d_ff, self.max_seq) < 1:
            raise ConfigError("all model dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(f"n_kv_heads={self.n_kv_heads} must divide n_heads={self.n_heads}")
        if not 0 <= self.mask_id < self.vocab_size:
            raise ConfigError(f"mask_id={self.mask_id} outside vocabulary")
        if self.n_params > MAX_PARAMS:  # before any tensor is shaped or allocated
            raise ConfigError(f"model has {self.n_params} parameters, above the cap of {MAX_PARAMS}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads

    @property
    def n_params(self) -> int:
        """Parameter count without listing every layer: embedding, head and
        positional table, plus ``n_layers`` times one layer's tensors."""
        per_layer = sum(math.prod(shape) for shape in _layer_shapes(self).values())
        return (2 * self.vocab_size + self.max_seq) * self.d_model + self.n_layers * per_layer

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class LayerWeights:
    wq: np.ndarray  # (d, d)
    wk: np.ndarray  # (d, kv_dim)
    wv: np.ndarray  # (d, kv_dim)
    wo: np.ndarray  # (d, d)
    ln1_gain: np.ndarray  # (d,)
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    w_up: np.ndarray  # (d, d_ff)
    w_gate: np.ndarray  # (d, d_ff)
    w_down: np.ndarray  # (d_ff, d)


@dataclass
class Weights:
    config: ModelConfig
    embedding: np.ndarray  # (V, d)
    positional: np.ndarray  # (max_seq, d)
    layers: list[LayerWeights]
    head: np.ndarray  # (d, V)
    seed: int | None = None

    @classmethod
    def from_tensors(cls, cfg: ModelConfig, tensors: dict[str, np.ndarray], seed: int | None) -> "Weights":
        """Weights from arrays named as in ``_tensor_shapes``; a missing name
        raises ``KeyError``."""
        layers = [
            LayerWeights(**{fld: tensors[f"layers.{i}.{fld}"] for fld in _layer_shapes(cfg)})
            for i in range(cfg.n_layers)
        ]
        return cls(config=cfg, embedding=tensors["embedding"], positional=tensors["positional"],
                   layers=layers, head=tensors["head"], seed=seed)

    def scaled(self, factor: float) -> "Weights":
        """A copy with every parameter multiplied by ``factor``."""
        return Weights.from_tensors(self.config, {name: arr * factor for name, arr in self._named_tensors()},
                                    self.seed)

    def validate_shapes(self) -> None:
        cfg = self.config
        expect = _tensor_shapes(cfg)
        for name, arr in self._named_tensors():
            if arr.shape != expect[name]:
                raise ConfigError(f"tensor {name} has shape {arr.shape}, expected {expect[name]}")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"tensor {name} contains non-finite values")

    def _named_tensors(self):
        yield "embedding", self.embedding
        yield "positional", self.positional
        for i, layer in enumerate(self.layers):
            for name in _layer_shapes(self.config):
                yield f"layers.{i}.{name}", getattr(layer, name)
        yield "head", self.head


def _layer_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """One layer's tensor shapes by ``LayerWeights`` field name, in stream order."""
    d, kv, dff = cfg.d_model, cfg.kv_dim, cfg.d_ff
    return {
        "wq": (d, d),
        "wk": (d, kv),
        "wv": (d, kv),
        "wo": (d, d),
        "ln1_gain": (d,),
        "ln1_bias": (d,),
        "ln2_gain": (d,),
        "ln2_bias": (d,),
        "w_up": (d, dff),
        "w_gate": (d, dff),
        "w_down": (dff, d),
    }


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Every tensor's shape by name, in stream order: embedding, positional
    table, each layer's fields, then the output head."""
    shapes = {"embedding": (cfg.vocab_size, cfg.d_model), "positional": (cfg.max_seq, cfg.d_model)}
    for i in range(cfg.n_layers):
        shapes.update({f"layers.{i}.{name}": shape for name, shape in _layer_shapes(cfg).items()})
    shapes["head"] = (cfg.d_model, cfg.vocab_size)
    return shapes


INIT_STD = 0.02


def init_weights(cfg: ModelConfig, seed: int) -> Weights:
    """Draw all parameters N(0, 0.02^2) from one splitmix64/Box-Muller stream.

    Tensors are filled row-major from a single normal stream in the order
    of ``_tensor_shapes``, so equal seeds give bit-identical parameters.
    Each tensor draws only its own stretch of the stream, so no
    stream-sized temporary is held.
    """
    tensors: dict[str, np.ndarray] = {}
    cursor = 0
    for name, shape in _tensor_shapes(cfg).items():
        size = math.prod(shape)
        # draw only this tensor's stretch of the stream: from the pair that
        # holds value ``cursor``, dropping that pair's first value when odd
        skip = cursor % 2
        tensors[name] = (normals(seed, size + skip, offset_pairs=cursor // 2)[skip:] * INIT_STD).reshape(shape)
        cursor += size
    return Weights.from_tensors(cfg, tensors, seed)


# ---------------------------------------------------------------------------
# the per-run key/value store and the row-partitioned forward


@dataclass
class KVStore:
    """Each position's most recently computed key/value rows, per layer.

    ``forward_partial`` writes the computed rows in place, and attention
    reads every row from here; ``valid`` marks the rows written at least
    once, so a forward refuses to read a row no forward has written (the
    sampler's step 1 writes every row). A locked row is never computed, so
    its entry stays at its lock-time K/V until the row is computed again
    after an unlock. A forward whose K/V must not persist (the unlock
    probe) runs on ``copy()``.

    Rows are kept per K/V group in the layouts attention's products read
    directly, keys as (head_dim, N) and values as (N, head_dim), so a forward
    writes its C rows and copies none of the N. ``keys(l)`` and
    ``values(l)`` view layer ``l`` as (N, n_kv_heads, head_dim) rows; writes
    through them land in the store.
    """

    k_t: np.ndarray  # (L, n_kv_heads, head_dim, N)
    v: np.ndarray  # (L, n_kv_heads, N, head_dim)
    valid: np.ndarray  # (N,) bool

    @classmethod
    def empty(cls, cfg: ModelConfig, n: int) -> "KVStore":
        groups = (cfg.n_layers, cfg.n_kv_heads)
        return cls(
            k_t=np.zeros((*groups, cfg.head_dim, n)),
            v=np.zeros((*groups, n, cfg.head_dim)),
            valid=np.zeros(n, dtype=bool),
        )

    def keys(self, layer: int) -> np.ndarray:
        return self.k_t[layer].transpose(2, 0, 1)

    def values(self, layer: int) -> np.ndarray:
        return self.v[layer].transpose(1, 0, 2)

    def copy(self) -> "KVStore":
        return KVStore(k_t=self.k_t.copy(), v=self.v.copy(), valid=self.valid.copy())


def forward_partial(
    w: Weights,
    tokens: np.ndarray,
    mask_flags: np.ndarray,
    active: np.ndarray,
    kv: KVStore,
    counter=None,
) -> np.ndarray:
    """Forward pass over the computed rows only; returns their (C, V)
    logits in ``active`` order.

    ``active`` lists the positions to compute (sorted, unique). Their K/V
    rows are written into ``kv`` in place, layer by layer, and marked valid.
    Every other position must already hold a valid row; it supplies K/V to
    attention and is otherwise untouched, so changing a skipped position's
    token id cannot change any output. ``counter`` (a fresh ``GemmCounter``
    when none is given) receives one gemm(m, n, k) call per matrix multiply
    and one gemm_head call for the output head.

    The residual stream is one (C, d) array that each layer adds into in
    place, and a layer's temporaries are freed before the next layer starts,
    so the forward holds at most one attention score tile (see
    ``kernels.attention_rows``) or the FFN's three (C, d_ff) arrays, next to
    a few (C, d) ones, whatever the depth. The values are those of the
    textbook chain of new arrays, bit for bit (the tests pin this).
    """
    cfg = w.config
    n = len(tokens)
    if n > cfg.max_seq:
        raise InvalidInputError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")
    active = np.asarray(active, dtype=np.intp)
    if active.size == 0:
        raise InvalidStateError("forward requested with no computed rows")
    if active.size != np.unique(active).size or active.min() < 0 or active.max() >= n:
        raise InvalidInputError("computed row indices must be unique and in range")
    if np.any(tokens[mask_flags] != cfg.mask_id):
        raise InvalidInputError("masked positions must carry the mask token id")
    if kv.v.shape != (cfg.n_layers, cfg.n_kv_heads, n, cfg.head_dim):
        raise InvalidStateError(f"K/V store of shape {kv.v.shape} does not fit {n} rows of this model")
    skipped = np.ones(n, dtype=bool)
    skipped[active] = False
    if not np.all(kv.valid[skipped]):
        bad = np.flatnonzero(skipped & ~kv.valid)
        raise InvalidStateError(f"no stored K/V for skipped rows {bad.tolist()}")

    counter = GemmCounter() if counter is None else counter

    x = w.embedding[tokens[active]] + w.positional[active]  # (C, d); skipped rows live only in kv

    for li, layer in enumerate(w.layers):
        _layer_partial(layer, x, kv.keys(li), kv.values(li), active, cfg, n, counter)
    kv.valid[active] = True

    logits = x @ w.head
    counter.gemm_head(active.size, cfg.vocab_size, cfg.d_model)
    return logits


def _layer_partial(layer: LayerWeights, x: np.ndarray, k3: np.ndarray, v3: np.ndarray,
                   active: np.ndarray, cfg: ModelConfig, n: int, counter) -> None:
    """One layer over the computed rows: adds both residuals into ``x`` in
    place and writes the rows' K/V through the store views ``k3``/``v3``.

    Every temporary is dropped before the next large one is made, and all of
    them die on return, so no layer's temporaries live into the next
    layer's attention.
    """
    c = x.shape[0]
    d, dh, kv_dim = cfg.d_model, cfg.head_dim, cfg.kv_dim
    hid = kernels.layernorm_rows(x, layer.ln1_gain, layer.ln1_bias)
    q = hid @ layer.wq
    counter.gemm(c, d, d)
    k = hid @ layer.wk
    v = hid @ layer.wv
    counter.gemm(c, kv_dim, d)
    counter.gemm(c, kv_dim, d)
    del hid
    k3[active] = k.reshape(c, cfg.n_kv_heads, dh)
    v3[active] = v.reshape(c, cfg.n_kv_heads, dh)
    del k, v

    attn = kernels.attention_rows(q.reshape(c, cfg.n_heads, dh), k3, v3, 1.0 / np.sqrt(dh), cfg.group_size)
    del q
    # per head: scores (C x N from dh) and weighted values (C x dh from N)
    for _ in range(cfg.n_heads):
        counter.gemm(c, n, dh)
        counter.gemm(c, dh, n)
    out = attn.reshape(c, d) @ layer.wo
    counter.gemm(c, d, d)
    del attn
    x += out
    del out

    hid = kernels.layernorm_rows(x, layer.ln2_gain, layer.ln2_bias)
    up = hid @ layer.w_up
    gate = hid @ layer.w_gate
    counter.gemm(c, cfg.d_ff, d)
    counter.gemm(c, cfg.d_ff, d)
    del hid
    # SiLU(gate) * up in place, as gate / (1 + exp(-gate)) * up: an exp that
    # overflows gives gate / inf = -0.0, the exact limit
    denom = np.negative(gate)
    with np.errstate(over="ignore"):
        np.exp(denom, out=denom)
    denom += 1.0
    gate /= denom
    del denom
    gate *= up
    del up
    down = gate @ layer.w_down
    counter.gemm(c, d, cfg.d_ff)
    x += down


# ---------------------------------------------------------------------------
# weight file I/O: one JSON document {config, seed?, tensors}


def save_weights(w: Weights, path: str | Path) -> None:
    doc = {
        "config": w.config.to_dict(),
        "tensors": {name: arr.tolist() for name, arr in w._named_tensors()},
    }
    if w.seed is not None:
        doc["seed"] = w.seed
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_weights(path: str | Path) -> Weights:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read weight file {path}: {exc}") from exc
    try:
        cfg = ModelConfig.from_dict(doc["config"])
        tensors = {name: np.asarray(arr, dtype=np.float64) for name, arr in doc["tensors"].items()}
        w = Weights.from_tensors(cfg, tensors, doc.get("seed"))
    except KeyError as exc:
        raise ConfigError(f"weight file {path} is missing tensor {exc}") from exc
    w.validate_shapes()
    return w
