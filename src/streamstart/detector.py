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

import logging
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import framing, kernels
from .errors import ConfigError, NumericError, check_count, check_real
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
        for name, minimum in (("d_in", 1), ("d", 1), ("n_blocks", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        if self.adapter.d != self.d:
            raise ConfigError(f"adapter width {self.adapter.d} must equal model width {self.d}")
        if self.d_in != self.d:
            raise ConfigError(f"input width {self.d_in} must equal model width {self.d}")
        check_real("tau_sim", self.tau_sim, "positive")


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
            check_real(name, getattr(self, name), "positive")
        check_real("weight_decay", self.weight_decay, "nonnegative")
        for name, minimum in (("steps", 0), ("batch_size", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)


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


def _unit_query(query: np.ndarray) -> np.ndarray:
    """Each query ``[..., d]`` over its norm; a norm that is not finite and positive raises ConfigError."""
    # a dot product, as np.linalg.norm takes for one vector: batched and single-query norms agree bitwise
    qnorm = np.sqrt(query[..., None, :] @ query[..., :, None])[..., 0]
    if not ((qnorm > 0) & (qnorm < np.inf)).all():  # a NaN, an inf or an overflowing square fails
        raise ConfigError("query embedding must have a finite, positive norm")
    return query / qnorm


def _cosine_scores(out: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cosine of each frame output ``[..., T, d]`` with its query ``[..., d]``."""
    qn = _unit_query(query)
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
    with T. Streams are independent, so row s equals the scores of stream s alone. A frame holding a
    NaN or an inf raises NumericError, naming the first such frame, before the model runs."""
    embeddings, queries = np.asarray(embeddings, dtype=float), np.asarray(queries, dtype=float)
    if embeddings.ndim != 3 or queries.shape != (len(embeddings), model.config.d):
        raise ConfigError(f"need streams [S, T, d] and queries [S, d={model.config.d}], "
                          f"got shapes {embeddings.shape} and {queries.shape}")
    finite = np.isfinite(embeddings).all(axis=-1)
    if not finite.all():  # checked first: retention's chunk would carry the value to the frames before it
        stream, frame = np.argwhere(~finite)[0]
        raise NumericError(f"frame {frame} of stream {stream} is not finite")
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
    """Scores one stream frame by frame with carried per-block state, for a query ``[d]`` of finite,
    positive norm; another query raises ConfigError."""

    def __init__(self, model: DetectorModel, query: np.ndarray):
        self.model = model
        query = np.asarray(query, dtype=float)
        if query.shape != (model.config.d,):
            raise ConfigError(f"need a query [d={model.config.d}], got shape {query.shape}")
        self._qn = _unit_query(query)
        self.states = [kernels.fresh_state(adapter.config) for adapter, _ in model.blocks]

    def push(self, frame: np.ndarray) -> float:
        """Consume one frame ``[d]``, return its score before the next frame arrives. A frame of
        another shape raises ConfigError before any state advances. A logit that is not finite
        (a non-finite frame) raises NumericError; the carried states then hold it too."""
        frame = np.asarray(frame, dtype=float)
        if frame.shape != self._qn.shape:
            raise ConfigError(f"need a frame [d={self.model.config.d}], got shape {frame.shape}")
        u = _stack(self.model, frame[None, :], self.states)[0]
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


# A checkpoint is one file framed by framing.py: magic "SDQK", the config as its header, then
# every array's little-endian float32 values end to end in array_order (docs/formats.md).

MAGIC = b"SDQK"
CHECKPOINT_VERSION = 5


def write_checkpoint(path, config: dict, arrays: list[np.ndarray]) -> None:
    framing.write(path, MAGIC, CHECKPOINT_VERSION, config, [np.ascontiguousarray(arr, dtype="<f4") for arr in arrays])


def read_checkpoint(path, read: Callable[[Path], bytes] = Path.read_bytes) -> tuple[dict, np.ndarray]:
    """Config and float32 values (in float64, one flat array) of a checkpoint, whose file ``read``
    reads; a bad magic, another version, a file cut before its config ends, a config that is not
    a UTF-8 JSON object or a payload that ends inside a float32 raises ConfigError."""
    raw = read(Path(path))
    config, end = framing.unframe(path, raw, MAGIC, CHECKPOINT_VERSION, "checkpoint", ConfigError,
                                  f"{path} is not a parameter checkpoint (bad magic {raw[:4]!r})")
    if (len(raw) - end) % 4:
        raise ConfigError(f"{path}: its payload of {len(raw) - end} bytes ends inside a float32")
    return config, np.frombuffer(raw, dtype="<f4", offset=end).astype(float)


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
    keys ``save_model`` writes, a value count or array order that does not fit its config, or a
    non-finite value raises ConfigError. The config names and shapes every array, so no array
    is drawn, and the value count is checked before any array is built."""
    raw_config, values = read_checkpoint(path, read)
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
    shapes = (kernels.param_shapes(config.adapter), kernels.block_shapes(config.d, 2 * config.d))
    need = config.n_blocks * sum(math.prod(shape) for part in shapes for shape in part.values())
    if values.size != need:
        raise ConfigError(f"{path} holds {values.size} values, its config's arrays need {need}")
    adapter, block = ({name: np.empty(shape) for name, shape in part.items()} for part in shapes)
    blocks = [(AdapterParams(config.adapter, **adapter), BlockParams(**block)) for _ in range(config.n_blocks)]
    template = DetectorModel(config=config, blocks=blocks)  # every block holds the same empty arrays
    expected = named_arrays(template)
    if raw_config["array_order"] != list(expected):
        raise ConfigError(f"{path}: the checkpoint config's array_order does not list "
                          f"its config's {len(expected)} arrays in order")
    sizes = [arr.size for arr in expected.values()]
    named = {}
    for (name, want), got in zip(expected.items(), np.split(values, np.cumsum(sizes)[:-1])):
        if not np.isfinite(got).all():
            raise ConfigError(f"{path}: array {name} holds a non-finite value")
        named[name] = got.reshape(want.shape)
    return with_arrays(template, named)
