"""Trainable scoring head and desk-scale trainer.

A detector is a stack of blocks whose only trainable parameters are the
temporal adapters. Frames come in at the model width ``d`` and enter the
first block as they are. Frames are scored by the cosine similarity
between the stack output and the query embedding, pushed through a
temperature-scaled sigmoid. Training minimizes a positive-weighted binary
cross-entropy over dense window labels with hand-derived reverse-mode
gradients; inference keeps one score per arriving frame at constant cost.
A checkpoint file holds every array of a model under the names
``named_arrays`` gives it.
"""

from __future__ import annotations

import io
import json
import logging
import math
import struct
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, NumericError
from .kernels import AdapterConfig, AdapterParams, BlockParams, sigmoid
from .metrics import ScoreSeries

logger = logging.getLogger(__name__)

DEFAULT_TAU_SIM = 0.07
DEFAULT_POS_CAP = 20.0
DIVERGENCE_LIMIT = 1e3
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Model shape. ``d_in`` must equal ``d``: frames enter the first block as they are."""

    d_in: int
    d: int
    n_blocks: int
    adapter: AdapterConfig
    tau_sim: float = DEFAULT_TAU_SIM
    seed: int = 0

    def __post_init__(self) -> None:
        kernels.check_integers(self, ("d_in", "d", "n_blocks", "seed"))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.adapter.d != self.d:
            raise ConfigError(f"adapter width {self.adapter.d} must equal model width {self.d}")
        if self.d_in != self.d:
            raise ConfigError(f"input width {self.d_in} must equal model width {self.d}")
        if self.n_blocks < 1:
            raise ConfigError(f"need at least one block, got {self.n_blocks}")
        if not (math.isfinite(self.tau_sim) and self.tau_sim > 0):
            raise ConfigError(f"tau_sim must be finite and positive, got {self.tau_sim}")


@dataclass(frozen=True)
class DetectorModel:
    """Block stack; adapters are the only trainable parts."""

    config: ModelConfig
    blocks: list[tuple[AdapterParams, BlockParams]]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    steps: int = 0
    batch_size: int = 8
    pos_weight_cap: float = DEFAULT_POS_CAP
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("learning_rate", "pos_weight_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and nonnegative, got {self.weight_decay}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    pos_term: float
    neg_term: float
    pos_weight: float


def build_model(config: ModelConfig) -> DetectorModel:
    """Seeded construction of the blocks, each with a ``2 * d``-wide frozen MLP."""
    rng = np.random.default_rng(config.seed)
    blocks = []
    for _ in range(config.n_blocks):
        adapter_seed = int(rng.integers(0, 2**31 - 1))
        block_seed = int(rng.integers(0, 2**31 - 1))
        blocks.append(
            (
                kernels.init_params(config.adapter, adapter_seed),
                kernels.make_block_params(config.d, 2 * config.d, block_seed),
            )
        )
    return DetectorModel(config=config, blocks=blocks)


# -- forward ------------------------------------------------------------------


def _stack(model: DetectorModel, frames: np.ndarray, states: list, tapes: list | None = None) -> np.ndarray:
    """Stack output ``[..., n, d]`` of frames ``[..., n, d]``, which the first block reads and
    no block writes; the first adapter rejects another width. ``states`` (one per block, None
    for a fresh start) advance in place; ``tapes`` (one dict per block) record a fresh start."""
    x = frames
    for i, (adapter, block) in enumerate(model.blocks):
        x, states[i] = kernels.block_forward(x, adapter, block, states[i], None if tapes is None else tapes[i])
    return x


def _cosine_scores(out: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cosine of each frame output ``[..., T, d]`` with its query ``[..., d]``."""
    # a dot product, as np.linalg.norm takes for one vector: batched and
    # single-query norms agree bitwise
    qnorm = np.sqrt(query[..., None, :] @ query[..., :, None])[..., 0]
    if not ((qnorm > 0) & (qnorm < np.inf)).all():  # a NaN, an inf or an overflowing square fails
        raise ConfigError("query embedding must have a finite, positive norm")
    qn = query / qnorm
    unorm = np.linalg.norm(out, axis=-1)
    zero = unorm < _NORM_EPS
    if zero.any():
        logger.warning("%d zero-norm frame output(s); scoring them as sigmoid(0)", int(zero.sum()))
    safe = np.where(zero, 1.0, unorm)
    s = np.where(zero, 0.0, (out @ qn[..., None])[..., 0] / safe)
    return s, {"out": out, "qn": qn, "unorm": safe, "s": s, "zero": zero}


def score_streams(model: DetectorModel, embeddings: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Scores ``[S, T]`` of S streams ``[S, T, d]`` of one length, each against its query ``[S, d]``:
    p_i = sigmoid(cos(stack(e)_i, query) / tau_sim). All S streams go through the model together, in
    chunks of ``kernels.CHUNK`` frames with their states stacked over S, in memory that does not grow
    with T. Streams are independent, so row s equals the scores of stream s alone."""
    embeddings, queries = np.asarray(embeddings, dtype=float), np.asarray(queries, dtype=float)
    if embeddings.ndim != 3 or queries.shape != (len(embeddings), model.config.d):
        raise ConfigError(f"need streams [S, T, d] and queries [S, d={model.config.d}], "
                          f"got shapes {embeddings.shape} and {queries.shape}")
    n_streams, n = embeddings.shape[:2]
    states = [kernels.fresh_state(adapter.config, (n_streams,)) for adapter, _ in model.blocks]
    s = np.empty((n_streams, n))
    for t in range(0, n, kernels.CHUNK):
        chunk = embeddings[:, t : t + kernels.CHUNK]
        s[:, t : t + kernels.CHUNK] = _cosine_scores(_stack(model, chunk, states), queries)[0]
    return sigmoid(s / model.config.tau_sim)


def score_frames(
    model: DetectorModel,
    embeddings: np.ndarray,
    query: np.ndarray,
    video_uid: str = "",
    query_id: str = "",
    fps: float = 1.0,
) -> ScoreSeries:
    """Scores of one stream ``[T, d]`` against its query ``[d]``: ``score_streams`` of it alone."""
    p = score_streams(model, np.asarray(embeddings, dtype=float)[None], np.asarray(query, dtype=float)[None])[0]
    return ScoreSeries(video_uid=video_uid, query_id=query_id, fps=fps, scores=p)


# -- loss -----------------------------------------------------------------------


def _pos_weight(y: np.ndarray, cap: float) -> float:
    n_pos = float(y.sum())
    n_neg = float(y.size - y.sum())
    return float(min(cap, max(1.0, n_neg / max(1.0, n_pos))))


def _softplus(x: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, x)


def _bce_from_logits(z: np.ndarray, y: np.ndarray, cap: float) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown and dL/dz computed stably from logits."""
    n = y.size
    w_pos = _pos_weight(y, cap)
    p = sigmoid(z)
    sp = _softplus(-z)
    pos_term = float((y * sp).sum() / n)
    neg_term = float(((1.0 - y) * (z + sp)).sum() / n)
    dz = (w_pos * y * (p - 1.0) + (1.0 - y) * p) / n
    lb = LossBreakdown(
        total=w_pos * pos_term + neg_term,
        pos_term=pos_term,
        neg_term=neg_term,
        pos_weight=w_pos,
    )
    return lb, dz


# -- backward ---------------------------------------------------------------------


def _score_head_backward(dz: np.ndarray, cache: dict, tau: float) -> np.ndarray:
    out, qn = cache["out"], cache["qn"]
    unorm, s, zero = cache["unorm"], cache["s"], cache["zero"]
    # ds (qn - s uhat) / unorm with ds = dz / tau, uhat = out / unorm, in place on one array
    d_out = out / unorm[..., None]
    d_out *= s[..., None]
    np.subtract(qn[..., None, :], d_out, out=d_out)
    d_out *= (dz / tau)[..., None]
    d_out /= unorm[..., None]
    d_out[zero] = 0.0
    return d_out


def _windows(model: DetectorModel, embeddings, labels, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows ``[B, T, d]``, labels ``[B, T]`` and queries ``[B, d]`` as float arrays, B >= 1;
    shapes that do not fit each other or the model raise ConfigError."""
    embeddings, labels, queries = (np.asarray(a, dtype=float) for a in (embeddings, labels, queries))
    cfg = model.config
    if (embeddings.ndim != 3 or not len(embeddings) or embeddings.shape[2] != cfg.d
            or labels.shape != embeddings.shape[:2] or queries.shape != (len(embeddings), cfg.d)):
        raise ConfigError(f"need windows [B >= 1, T, d={cfg.d}], labels [B, T] and queries [B, d={cfg.d}], "
                          f"got shapes {embeddings.shape}, {labels.shape} and {queries.shape}")
    return embeddings, labels, queries


def backward(
    model: DetectorModel, embeddings: np.ndarray, labels: np.ndarray, queries: np.ndarray,
    cap: float = DEFAULT_POS_CAP,
) -> tuple[dict[str, np.ndarray], LossBreakdown]:
    """Loss over a batch and gradients for every trainable parameter.

    The batch is B windows ``embeddings [B, T, d]`` with dense labels
    ``[B, T]`` and each window's query ``[B, d]``, run forward and backward
    as one ``[B, T, d]`` tensor; shapes that do not fit raise ConfigError.
    Frozen parameters (the block sublayers) receive no gradient
    entries. The positive weight is computed over all frames of the batch.
    Raises NumericError naming the parameter if any gradient is non-finite.
    """
    embeddings, labels, queries = _windows(model, embeddings, labels, queries)
    tapes = [{} for _ in model.blocks]
    out = _stack(model, embeddings, [None] * len(model.blocks), tapes)
    s, cache = _cosine_scores(out, queries)
    lb, dz = _bce_from_logits((s / model.config.tau_sim).ravel(), labels.ravel(), cap)

    d_x = _score_head_backward(dz.reshape(s.shape), cache, model.config.tau_sim)
    block_grads: list = [None] * len(model.blocks)
    for i in range(len(model.blocks) - 1, -1, -1):
        adapter, block = model.blocks[i]
        d_x, block_grads[i] = kernels.block_vjp(d_x, adapter, block, tapes[i])
    grads = {f"blocks.{i}.{name}": g for i, bg in enumerate(block_grads) for name, g in bg.items()}

    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name}")
    return grads, lb


# -- training ---------------------------------------------------------------------


def train(
    model: DetectorModel, embeddings: np.ndarray, labels: np.ndarray, queries: np.ndarray, config: TrainConfig
) -> tuple[DetectorModel, list[LossBreakdown]]:
    """Optimize adapter parameters; returns the trained model and loss curve.

    The training set is N windows, shaped as ``backward`` takes a batch; each
    step draws ``batch_size`` of them with replacement. Deterministic given
    the seed. Adam with decoupled weight decay. Raises NumericError with the
    partial history attached if the loss exceeds the divergence limit.
    """
    embeddings, labels, queries = _windows(model, embeddings, labels, queries)
    if config.steps == 0:
        return model, []

    rng = np.random.default_rng(config.seed)
    work = {name: arr.astype(float) for name, arr in named_arrays(model, frozen=False).items()}
    m1 = {name: np.zeros_like(arr) for name, arr in work.items()}
    m2 = {name: np.zeros_like(arr) for name, arr in work.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    history: list[LossBreakdown] = []
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(embeddings), size=config.batch_size)
        current = with_arrays(model, work)
        try:
            grads, lb = backward(current, embeddings[idx], labels[idx], queries[idx], config.pos_weight_cap)
            history.append(lb)
            if not math.isfinite(lb.total) or lb.total > DIVERGENCE_LIMIT:
                raise NumericError(f"training diverged at step {step} with loss {lb.total}")
        except NumericError as err:
            err.history = history
            raise
        for name, g in grads.items():
            m1[name] = beta1 * m1[name] + (1.0 - beta1) * g
            m2[name] = beta2 * m2[name] + (1.0 - beta2) * g * g
            mhat = m1[name] / (1.0 - beta1**step)
            vhat = m2[name] / (1.0 - beta2**step)
            work[name] = work[name] - config.learning_rate * mhat / (np.sqrt(vhat) + eps)
            if config.weight_decay:
                work[name] = work[name] - config.learning_rate * config.weight_decay * work[name]
    return with_arrays(model, work), history


def loss_curve_csv(history: list[LossBreakdown]) -> str:
    lines = ["step,total,pos_term,neg_term,w_pos"]
    for i, lb in enumerate(history, start=1):
        lines.append(f"{i},{lb.total!r},{lb.pos_term!r},{lb.neg_term!r},{lb.pos_weight!r}")
    return "\n".join(lines) + "\n"


# -- streaming inference ------------------------------------------------------------


class StreamingScorer:
    """Scores one stream frame by frame with carried per-block state, for a query of finite, positive norm."""

    def __init__(self, model: DetectorModel, query: np.ndarray):
        self.model = model
        qnorm = float(np.linalg.norm(query))
        if not 0 < qnorm < math.inf:
            raise ConfigError("query embedding must have a finite, positive norm")
        self._qn = np.asarray(query, dtype=float) / qnorm
        self.states = [kernels.fresh_state(adapter.config) for adapter, _ in model.blocks]

    def push(self, frame: np.ndarray) -> float:
        """Consume one frame, return its score before the next frame arrives. A logit that is not
        finite (a non-finite frame) raises NumericError; the carried states then hold it too."""
        u = _stack(self.model, np.asarray(frame, dtype=float)[None, :], self.states)[0]
        # a scalar head: the norm is np.linalg.norm's dot product, and the
        # sigmoid takes the stable branch for the sign of its argument
        unorm = math.sqrt(float(kernels.matmul(u, u)))
        if unorm < _NORM_EPS:
            logger.warning("zero-norm frame output; scoring as sigmoid(0)")
            s = 0.0
        else:
            s = float(kernels.matmul(u, self._qn)) / unorm
        z = s / self.model.config.tau_sim
        if not math.isfinite(z):
            raise NumericError("a streamed frame's logit is not finite (a non-finite frame upstream)")
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)


def infer_streaming(
    model: DetectorModel,
    frames,
    query: np.ndarray,
    video_uid: str = "",
    query_id: str = "",
    fps: float = 1.0,
) -> ScoreSeries:
    """One score per arriving frame; equals batch scoring of the full stream."""
    scorer = StreamingScorer(model, query)
    scores = [scorer.push(frame) for frame in frames]
    return ScoreSeries(video_uid=video_uid, query_id=query_id, fps=fps, scores=np.array(scores))


# -- checkpoints --------------------------------------------------------------------


def named_arrays(model: DetectorModel, frozen: bool = True) -> dict[str, np.ndarray]:
    """Every array of the model by name, in checkpoint order: ``blocks.{i}.{name}``, each
    block's adapter before its frozen sublayers. With ``frozen=False``, only the trainable
    adapter arrays, named as ``backward`` names their gradients."""
    named = {}
    for i, (adapter, block) in enumerate(model.blocks):
        for params in (adapter, block) if frozen else (adapter,):
            named.update((f"blocks.{i}.{name}", arr) for name, arr in params.arrays().items())
    return named


def with_arrays(model: DetectorModel, named: dict[str, np.ndarray]) -> DetectorModel:
    """The model with the named arrays (as ``named_arrays`` names them) swapped in; a params
    object none of whose arrays is named is kept as the same object."""

    def swap(params, prefix: str):
        updates = {name: named[prefix + name] for name in params.arrays() if prefix + name in named}
        return replace(params, **updates) if updates else params

    blocks = [(swap(adapter, f"blocks.{i}."), swap(block, f"blocks.{i}."))
              for i, (adapter, block) in enumerate(model.blocks)]
    return replace(model, blocks=blocks)


# Single binary file: magic "SDQK", u32 version, u32 config-JSON length,
# config JSON (UTF-8), u32 array count, then per array a u32 rank, u32 dims,
# and the little-endian float32 payload. Layout details in docs/formats.md.

MAGIC = b"SDQK"
CHECKPOINT_VERSION = 4


def write_checkpoint(path, config: dict, arrays: list[np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    buf.write(struct.pack("<I", len(arrays)))
    for arr in arrays:
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        buf.write(struct.pack("<I", arr32.ndim))
        buf.write(struct.pack(f"<{arr32.ndim}I", *arr32.shape))
        buf.write(arr32.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path, read: Callable[[Path], bytes] = Path.read_bytes) -> tuple[dict, list[np.ndarray]]:
    """Config and arrays of a checkpoint, whose file ``read`` reads; another version, a config
    that is not UTF-8 JSON, a truncated file or bytes after the last array raise ConfigError."""
    raw = read(Path(path))
    if raw[:4] != MAGIC:
        raise ConfigError(f"{path} is not a parameter checkpoint (bad magic {raw[:4]!r})")
    off = 4

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(raw):
            raise ConfigError(f"{path} is truncated: {len(raw)} bytes, needs at least {off + size}")
        chunk = raw[off : off + size]
        off += size
        return chunk

    def u32s(count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count))

    (version,) = u32s(1)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path} is checkpoint version {version}; "
                          f"this build reads version {CHECKPOINT_VERSION}")
    (blob_len,) = u32s(1)
    blob = take(blob_len)
    try:
        config = json.loads(blob.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"{path}: the checkpoint config is not UTF-8 JSON ({err})") from None
    (n_arrays,) = u32s(1)
    arrays = []
    for _ in range(n_arrays):
        (rank,) = u32s(1)
        shape = u32s(rank)
        try:
            arr = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        except ValueError as err:  # a rank above numpy's limit, or a zero dim beside dims too large
            raise ConfigError(f"{path}: array {len(arrays)} of rank {rank} cannot be shaped: {err}") from None
        arrays.append(arr.astype(float))
    if off != len(raw):
        raise ConfigError(f"{path} has {len(raw) - off} trailing bytes after its last array")
    return config, arrays


def save_model(path: str | Path, model: DetectorModel) -> None:
    """Write the model's checkpoint, making its directory. An array whose float32 cast is not
    finite raises NumericError, naming the first such array, before anything is written."""
    named = named_arrays(model)
    with np.errstate(over="ignore"):  # an overflowing cast is reported below, not warned about
        stored = {name: np.ascontiguousarray(arr, dtype="<f4") for name, arr in named.items()}
    for name, arr in stored.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"array {name} is not finite as the float32 a checkpoint stores")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(path, {**asdict(model.config), "array_order": list(named)}, list(stored.values()))


def load_model(path: str | Path, read: Callable[[Path], bytes] = Path.read_bytes) -> DetectorModel:
    """Model of a checkpoint, whose file ``read`` reads; a config that does not hold exactly the
    keys ``save_model`` writes, an array count, order or shape that does not fit its config, or
    a non-finite value raises ConfigError."""
    raw_config, arrays = read_checkpoint(path, read)
    try:
        # exactly the keys save_model writes: no default fills in a missing field, and the
        # constructors reject an unknown key with a TypeError
        raw_adapter = raw_config["adapter"]
        for keys, names in ((raw_config, [f.name for f in fields(ModelConfig)] + ["array_order"]),
                            (raw_adapter, [f.name for f in fields(AdapterConfig)])):
            missing = [name for name in names if name not in keys]
            if missing:
                raise KeyError(missing[0])
        model_keys = {name: value for name, value in raw_config.items() if name != "array_order"}
        config = ModelConfig(**{**model_keys, "adapter": AdapterConfig(**raw_adapter)})
    except KeyError as err:
        raise ConfigError(f"{path}: the checkpoint config has no {err.args[0]!r} key") from None
    except TypeError as err:
        raise ConfigError(f"{path}: the checkpoint config does not fit: {err}") from None
    template = build_model(config)
    expected = named_arrays(template)
    if raw_config["array_order"] != list(expected):
        raise ConfigError(f"{path}: the checkpoint config's array_order does not list "
                          f"its config's {len(expected)} arrays in order")
    if len(arrays) != len(expected):
        raise ConfigError(f"{path} holds {len(arrays)} arrays, its config needs {len(expected)}")
    for (name, want), got in zip(expected.items(), arrays):
        if got.shape != want.shape:
            raise ConfigError(f"{path}: array {name} has shape {got.shape}, its config needs {want.shape}")
        if not np.isfinite(got).all():
            raise ConfigError(f"{path}: array {name} holds a non-finite value")
    return with_arrays(template, dict(zip(expected, arrays)))
