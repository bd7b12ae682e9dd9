"""Streaming temporal-aggregation kernels with carried recurrent state.

Four adapter kinds share a down-project / core / up-project / residual
layout over sequences shaped ``[..., n_t, d]`` (time on axis -2; leading
axes batch independent sequences, and callers fold any patch dimensions
into them):

* ``vanilla``   - pointwise GELU, no temporal mixing
* ``st_conv``   - masked (causal) temporal convolution
* ``qrnn``      - one causal convolution over stacked gate banks feeding
  gated fo-pooling
* ``retention`` - decayed linear attention in chunkwise form: the parallel
  form inside a chunk, a decayed key-value summary carried across chunks

Every temporal kernel is causal: an output never reads a later frame.

One forward serves every caller: a call continues streams from a small
fixed-size ``StreamState``, stacked over ``x``'s leading axes (one stream
per leading index), and returns the state that continues them. So chunks
of any size produce the outputs of a single pass, in memory that does not
grow with the stream. Batch mode is a call without a state: it starts from
``fresh_state``, whose zeros add exact zeros, and only it may record a tape
of its intermediates. Every forward product goes through ``matmul``, which
counts it. Up-projections are zero-initialized, so a freshly initialized
adapter is exactly the identity.

Each taped op has its vector-Jacobian product (``*_vjp``) beside it: from
the output's gradient and what the forward saw or taped, it returns the
input's gradient and ``{array_name: gradient}``. No other module reads a tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError, check_count, check_real

KINDS = ("vanilla", "st_conv", "qrnn", "retention")

DEFAULT_GAMMA = 0.96875
DEFAULT_FORGET_BIAS = -5.0
CHUNK = 64  # frames per streamed chunk: score_streams streams this many, and untaped retention splits longer ones


# -- op counting --------------------------------------------------------------


class OpCounter:
    """Counts multiply-accumulates performed by kernel primitives."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_OP_COUNTER: OpCounter | None = None


def set_op_counter(counter: OpCounter | None) -> None:
    global _OP_COUNTER
    _OP_COUNTER = counter


def _count(n: int) -> None:
    if _OP_COUNTER is not None:
        _OP_COUNTER.add(n)


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class AdapterConfig:
    d: int
    d_prime: int
    kind: str
    k: int = 2
    gamma: float = DEFAULT_GAMMA
    theta: float | None = None
    forget_bias_init: float = DEFAULT_FORGET_BIAS
    depthwise: bool = False

    def __post_init__(self) -> None:
        check_count("d", self.d, 1)
        check_count("d_prime", self.d_prime, 1, self.d)
        check_count("k", self.k, 1)
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.theta is None:
            object.__setattr__(self, "theta", 2.0 * math.pi / self.d_prime)
        for name in ("gamma", "theta", "forget_bias_init"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not isinstance(self.depthwise, bool):
            raise ConfigError(f"depthwise must be a bool, got {self.depthwise!r}")


# -- parameters ---------------------------------------------------------------


class _Arrays:
    def arrays(self) -> dict[str, np.ndarray]:
        """Array fields in declaration order; unused banks (None) are left out."""
        named = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "config")
        return {name: value for name, value in named if value is not None}


@dataclass(frozen=True)
class AdapterParams(_Arrays):
    config: AdapterConfig
    w_down: np.ndarray
    b_down: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    w_s: np.ndarray | None = None    # st_conv bank [k, d', d'] (depthwise [k, d'])
    w_sf: np.ndarray | None = None   # qrnn s and f banks stacked [k, d', 2d'] (depthwise [k, 2d'])
    b_sf: np.ndarray | None = None   # [2d']
    w_qkv: np.ndarray | None = None  # retention q, k and v projections stacked [d', 3d']


def param_shapes(config: AdapterConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of each array ``init_params(config, seed)`` holds, in its order, drawing none."""
    d, dp, k = config.d, config.d_prime, config.k
    conv = (k,) if config.depthwise else (k, dp)
    shapes = {"w_down": (d, dp), "b_down": (dp,), "w_up": (dp, d), "b_up": (d,)}
    if config.kind == "st_conv":
        shapes["w_s"] = (*conv, dp)
    elif config.kind == "qrnn":
        shapes.update(w_sf=(*conv, 2 * dp), b_sf=(2 * dp,))
    elif config.kind == "retention":
        shapes["w_qkv"] = (dp, 3 * dp)
    return shapes


def init_params(config: AdapterConfig, seed: int) -> AdapterParams:
    """Identity-approximating initialization at ``param_shapes(config)``.

    The up-projection is exactly zero so the residual path carries the
    input unchanged. The qrnn forget bank starts at zero with its bias at a
    fixed negative value, keeping the forget gate nearly closed. Banks are
    drawn one at a time (s; q, k, v) and stacked.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)
    d, dp, k = config.d, config.d_prime, config.k

    def small(shape, fan_in):
        return rng.normal(size=shape) / math.sqrt(fan_in)

    def bank(name, banks):  # one of the ``banks`` stacked along the last axis of array ``name``
        *lead, last = shapes[name]
        return (*lead, last // banks)

    conv_fan = k if config.depthwise else k * dp
    kw: dict = {
        "w_down": small(shapes["w_down"], d),
        "b_down": np.zeros(shapes["b_down"]),
        "w_up": np.zeros(shapes["w_up"]),
        "b_up": np.zeros(shapes["b_up"]),
    }
    if config.kind == "st_conv":
        kw["w_s"] = small(shapes["w_s"], conv_fan)
    elif config.kind == "qrnn":
        kw["w_sf"] = np.concatenate([small(bank("w_sf", 2), conv_fan), np.zeros(bank("w_sf", 2))], axis=-1)
        kw["b_sf"] = np.zeros(shapes["b_sf"])
        kw["b_sf"][dp:] = config.forget_bias_init
    elif config.kind == "retention":
        kw["w_qkv"] = np.concatenate([small(bank("w_qkv", 3), dp) for _ in range(3)], axis=1)
    return AdapterParams(config=config, **kw)


# -- stream state -------------------------------------------------------------


@dataclass(frozen=True)
class VanillaState:
    pass


@dataclass(frozen=True)
class ConvState:
    buffer: np.ndarray  # [..., k-1, d'] last (k-1) reduced-dim inputs, oldest first


@dataclass(frozen=True)
class QrnnState:
    buffer: np.ndarray
    h: np.ndarray  # [..., d']


@dataclass(frozen=True)
class RetentionState:
    s: np.ndarray  # [..., d', d'] decayed key-value summary
    n: int         # absolute position of the next frame, shared by the stacked streams

StreamState = VanillaState | ConvState | QrnnState | RetentionState

_STATE_KIND = {
    "vanilla": VanillaState,
    "st_conv": ConvState,
    "qrnn": QrnnState,
    "retention": RetentionState,
}


def fresh_state(config: AdapterConfig, lead: tuple[int, ...] = ()) -> StreamState:
    """All-zeros state for the start of streams ``[*lead, n, d]``: one stacked over the ``lead`` axes."""
    dp, k = config.d_prime, config.k
    if config.kind == "vanilla":
        return VanillaState()
    if config.kind == "st_conv":
        return ConvState(buffer=np.zeros((*lead, k - 1, dp)))
    if config.kind == "qrnn":
        return QrnnState(buffer=np.zeros((*lead, k - 1, dp)), h=np.zeros((*lead, dp)))
    return RetentionState(s=np.zeros((*lead, dp, dp)), n=0)


def _check_state(config: AdapterConfig, state: StreamState) -> None:
    """A state of another kind than ``config``'s raises ConfigError."""
    expected = _STATE_KIND[config.kind]
    if not isinstance(state, expected):
        raise ConfigError(
            f"state kind mismatch: adapter kind {config.kind!r} expects "
            f"{expected.__name__}, got {type(state).__name__}"
        )


# -- primitives ---------------------------------------------------------------


def gelu(x: np.ndarray, tape: dict | None = None, key: str = "") -> np.ndarray:
    """Exact GELU; a ``tape`` receives ``erf(x / sqrt(2))`` under ``key``.

    ``erf`` runs on ``|x| / sqrt(2)`` and its result takes x's sign from
    ``np.copysign``. scipy's (cephes) ``erf`` returns ``-erf(-x)`` for
    x < 0, and on inputs of mixed sign that branch mispredicts: on fresh
    N(0, 1) inputs of 4096 values the sign-free form took 66 us against
    82 us (2-vCPU Xeon VM). ``|x| / sqrt(2)`` equals ``|x / sqrt(2)|``
    exactly and ``erf`` is odd bit for bit, so the output and the tape are
    those of ``erf(x / sqrt(2))``, at +-0, +-inf and subnormals too.
    """
    e = np.abs(x)
    e /= math.sqrt(2.0)
    erf(e, out=e)
    np.copysign(e, x, out=e)
    if tape is not None:
        tape[key] = e
    y = 1.0 + e
    y *= 0.5 * x
    return y


def gelu_grad(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """GELU derivative at ``x``, given the forward's ``e = erf(x / sqrt(2))``."""
    return 0.5 * (1.0 + e) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic: 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|)."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))
    return np.where(x < 0, ex, 1.0) / (1.0 + ex)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, byte for byte, and the one place a product's MACs are counted.

    Under a counter it adds ``a.size`` times ``b.shape[-1]`` (times 1 for a
    vector ``b``): exact whenever ``b``'s leading axes do not outnumber
    ``a``'s, as in every product here. It runs ``np.dot`` when neither
    operand is above 2-D (under numpy 2.4.6, ``@`` took 0.3-1.5 us more
    dispatch for the same BLAS call, 2-vCPU Xeon VM) and ``@`` on stacks,
    where ``np.dot`` is another product.
    """
    if _OP_COUNTER is not None:
        _OP_COUNTER.add(a.size * (b.shape[-1] if b.ndim > 1 else 1))
    return np.dot(a, b) if a.ndim <= 2 and b.ndim <= 2 else a @ b


def _affine(x: np.ndarray, w: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """``x @ w + terms[0] + ...``, each add in place on the fresh product; a 1-D bias is added
    as ``[1, n]``, since numpy takes a faster path when both operands have one rank."""
    y = matmul(x, w)
    for term in terms:
        y += term[None] if term.ndim == 1 else term
    return y


def causal_conv(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    context: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked temporal convolution: y_t = sum_j x_{t - (k - 1) + j} @ w[j].

    ``x`` is ``[..., n_t, d_in]``: time on axis -2, any leading axes batch
    independent sequences. ``context`` ``[..., k - 1, d_in]`` holds the rows
    just before ``x[0]``, a stream's carried buffer; None is a fresh
    state's zeros, and another number of rows raises ConfigError. The taps
    read the context, but it gets no output row, so the output at t never
    reads frames after t. The result comes with the context that continues
    the sequence: a copy of the last k - 1 rows of ``[context; x]``. A dense
    bank ``[k, d_in, d_out]`` is one product of the overlapping k-row
    windows ``[..., n_t, k * d_in]``; a 2-D bank ``[k, d]`` applies
    depth-wise (per-channel) taps, and a depthwise ``[k, m * d_in]`` stacks
    m banks on the same input.
    """
    k = w.shape[0]
    *lead, n, d_in = x.shape
    if context is None:
        context = np.zeros((*lead, k - 1, d_in))
    elif context.shape[-2] != k - 1:
        raise ConfigError(f"context must hold k - 1 = {k - 1} rows, got {context.shape[-2]}")
    xp = np.concatenate([context, x], axis=-2)
    if w.ndim == 2:  # depthwise: per-channel products, tap by tap
        banks = w.reshape(k, -1, d_in)
        y = xp[..., 0:n, None, :] * banks[0]
        for j in range(1, k):
            y += xp[..., j : j + n, None, :] * banks[j]
        y = y.reshape(*lead, n, w.shape[1])
        _count(k * y.size)
    else:  # row t of the windows is xp[t : t + k] flattened; xp's strides give exactly that view
        windows = np.ndarray((*lead, n, k * d_in), xp.dtype, xp, 0, xp.strides)
        y = matmul(windows, w.reshape(k * d_in, w.shape[2]))
    if bias is not None:
        y += bias[None]
    return y, xp[..., n:, :].copy()


def _rows(a: np.ndarray) -> np.ndarray:
    """``[..., T, d]`` as ``[B*T, d]``: one row per frame of every sequence."""
    return a.reshape(-1, a.shape[-1])


def causal_conv_vjp(
    d_y: np.ndarray, x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """VJP of batch-mode ``causal_conv(x, w, bias)``: ``(d_x, {"w": ..., "bias": ...})``.

    ``"bias"`` is there only when a bias is given. Tap j reads s = k - 1 - j
    rows back, so it pairs ``d_y[s:]`` with ``x[:n - s]``, one tap at a time.
    A depthwise bank may stack m banks, as in ``causal_conv``.
    """
    k, n, d_in = w.shape[0], x.shape[-2], x.shape[-1]
    d_x = np.zeros_like(x)
    g_w = np.zeros_like(w)
    for j in range(k):
        s = k - 1 - j
        if s < n:
            x_j, d_y_j = x[..., : n - s, :], d_y[..., s:, :]
            if w.ndim == 2:  # depthwise, m stacked banks: d_y_j as [..., n - s, m, d_in]
                d_y_j = d_y_j.reshape(*d_y_j.shape[:-1], -1, d_in)
                d_x[..., : n - s, :] += (d_y_j * w[j].reshape(-1, d_in)).sum(axis=-2)
                g_w[j] = (x_j[..., None, :] * d_y_j).reshape(-1, w.shape[1]).sum(axis=0)
            else:
                d_x[..., : n - s, :] += d_y_j @ w[j].T
                g_w[j] = _rows(x_j).T @ _rows(d_y_j)
    return d_x, {"w": g_w} if bias is None else {"w": g_w, "bias": _rows(d_y).sum(axis=0)}


def _time_major(a: np.ndarray) -> np.ndarray:
    """``[..., n, d]`` as an ``[n, ..., d]`` view, the leading axes in their order."""
    return a.transpose(a.ndim - 2, *range(a.ndim - 2), a.ndim - 1)


def fo_pool(s: np.ndarray, f: np.ndarray, h_init: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gated recurrent pooling h_t = f_t * h_{t-1} + (1 - f_t) * s_t.

    ``s`` and ``f`` are ``[..., n_t, d]``: time on axis -2, any leading axes
    batch independent sequences, and ``h_init`` broadcasts against one time
    step. Returns the full output sequence and the final hidden state.
    Gates must lie strictly inside (0, 1); a non-finite input is reported
    as such.

    The step loop reads C-contiguous time-major copies of ``f`` and the
    drive ``(1 - f) s``, the leading axes in their order: in ``[B, T, d]``
    order a step's ``[B, d]`` slice lies T rows apart in memory. A pushed
    frame ``[1, d]`` is already time major and is not copied. Each step
    computes a new state, so the one returned shares no memory with the
    output.
    """
    if s.shape != f.shape:
        raise ConfigError(f"s and f must share a shape, got {s.shape} vs {f.shape}")
    if f.size and not (f.min() > 0.0 and f.max() < 1.0):  # a NaN fails both
        if not (np.isfinite(f).all() and np.isfinite(s).all()):
            raise NumericError("fo_pool inputs are not finite (a non-finite frame or parameter upstream)")
        raise NumericError("fo_pool gates must lie strictly in (0, 1)")
    h = np.empty_like(s, dtype=float)
    drive = 1.0 - f
    drive *= s
    f_t, drive_t = (np.ascontiguousarray(_time_major(a)) for a in (f, drive))
    h_t = _time_major(h)
    prev = np.asarray(h_init, dtype=float)
    for t in range(len(f_t)):
        prev = f_t[t] * prev + drive_t[t]
        h_t[t] = prev
    _count(2 * s.size)
    return h, prev


def fo_pool_vjp(
    d_h: np.ndarray, s: np.ndarray, f: np.ndarray, h: np.ndarray, h_init: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """VJP of ``h = fo_pool(s, f, h_init)[0]``: the gradients ``(d_s, d_f)``.

    fo_pool has no arrays of its own; both of its inputs get a gradient.
    Only the carried gradient g_t = d_h_t + f_{t+1} g_{t+1} runs over time;
    d/ds = g (1 - f) and d/df = g (h_{t-1} - s) follow for all steps at once.
    As in ``fo_pool``, ``h_init`` broadcasts against one time step and the
    loop reads C-contiguous time-major copies.
    """
    g = np.empty_like(d_h)
    g_t = _time_major(g)
    d_h_t, f_t = (np.ascontiguousarray(_time_major(a)) for a in (d_h, f))
    carry = 0.0
    for t in range(len(f_t) - 1, -1, -1):
        carry = d_h_t[t] + carry
        g_t[t] = carry
        carry = carry * f_t[t]
    first = np.broadcast_to(h_init, (*h.shape[:-2], h.shape[-1]))[..., None, :]
    h_prev = np.concatenate([first, h[..., :-1, :]], axis=-2)
    return g * (1.0 - f), g * (h_prev - s)


def qrnn_forward(
    x: np.ndarray, params: AdapterParams, state: QrnnState, tape: dict | None = None
) -> tuple[np.ndarray, QrnnState]:
    """Reduced-dim QRNN core: gated pooling of tanh'd causal convolutions.

    ``s = tanh(W_s * x)`` and ``f = sigmoid(W_f * x)``, both halves of one
    convolution over the stacked bank ``w_sf``. The ``QrnnState``, stacked
    over ``x``'s leading axes, continues each sequence ``[..., n_t, d']``:
    its buffer is the left context of both convolutions and its hidden
    state seeds the pooling recurrence. A ``tape`` receives the pooling
    inputs ``s`` and ``f``.
    """
    cfg = params.config
    _check_state(cfg, state)
    sf, buffer = causal_conv(x, params.w_sf, params.b_sf, state.buffer)
    s = np.tanh(sf[..., : cfg.d_prime])
    f = sigmoid(sf[..., cfg.d_prime :])
    # sigmoid output saturating to float 0/1 is a rounding artifact; keep the
    # gates inside the open interval fo_pool requires
    f.clip(1e-15, 1.0 - 1e-15, out=f)
    h, h_last = fo_pool(s, f, state.h)
    if tape is not None:
        tape.update(s=s, f=f)
    return h, QrnnState(buffer=buffer, h=h_last)


def _rotate(x: np.ndarray, positions: np.ndarray, theta: float) -> np.ndarray:
    """Rotate consecutive channel pairs of each row by position * theta.

    Real-valued realization of the complex positional factor e^{i n theta};
    an odd final channel is left unrotated. ``positions`` is an integer
    array that broadcasts against ``x.shape[:-1]``: one position per row.
    """
    out = x.astype(float, order="C")
    pairs = x.shape[-1] // 2
    ang = positions * theta
    c, s = np.cos(ang)[..., None], np.sin(ang)[..., None]
    a, b = x[..., 0 : 2 * pairs : 2], x[..., 1 : 2 * pairs : 2]
    out[..., 0 : 2 * pairs : 2] = c * a - s * b
    out[..., 1 : 2 * pairs : 2] = s * a + c * b
    return out


def _decay(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """gamma^0 .. gamma^n, and the ``[n, n]`` decay D[i, j] = gamma^(i-j) for
    i >= j, else exact 0: views of one buffer u = [0 (n times), gamma^0 ..
    gamma^n], with D[i, j] = u[n + i - j]."""
    u = np.zeros(2 * n + 1)
    u[n:] = gamma ** np.arange(n + 1.0)
    return u[n:], np.ndarray((n, n), u.dtype, u, u.itemsize * n, (u.itemsize, -u.itemsize))


def retention_forward(
    x: np.ndarray, params: AdapterParams, state: RetentionState, tape: dict | None = None
) -> tuple[np.ndarray, RetentionState]:
    """Chunkwise retention of one chunk of n frames: ((Q K^T) . D) V, Q and K
    rotated by absolute position, D the ``[n, n]`` decay.

    The ``RetentionState``, stacked over ``x``'s leading axes, continues
    each sequence ``[..., n, d']``: frame i also reads its summary S times
    gamma^(i+1), and S <- gamma^n S + sum_j gamma^(n-1-j) K_j^T V_j. Every
    power of gamma lies in [0, n]; a one-frame chunk is the recurrent step.
    An untaped call longer than ``CHUNK`` frames runs as ``CHUNK``-frame
    chunks, so its matrices stay ``[CHUNK, CHUNK]``. A taped call is one
    chunk of any length from a fresh state, or raises ConfigError, so it
    skips the summary's read-out and decay; its ``tape`` receives ``q``,
    ``k``, ``v``, ``decay``, ``scores`` and ``pos``.
    """
    cfg = params.config
    _check_state(cfg, state)
    if tape is not None and state.n:
        raise ConfigError(f"a taped call starts from a fresh state, got one {state.n} frames on")
    dp, n = cfg.d_prime, x.shape[-2]
    if tape is None and n > CHUNK:
        out = np.empty((*x.shape[:-1], dp))
        for i in range(0, n, CHUNK):
            out[..., i : i + CHUNK, :], state = retention_forward(x[..., i : i + CHUNK, :], params, state)
        return out, state
    pos = np.arange(state.n, state.n + n)
    qkv = matmul(x, params.w_qkv)  # q and k rotate as one [..., 2, n, d'] array: each a C-ordered [n, d'] matrix
    qk = _rotate(qkv[..., : 2 * dp].reshape(*x.shape[:-1], 2, dp).swapaxes(-3, -2), pos, cfg.theta)
    q, k, v = qk[..., 0, :, :], qk[..., 1, :, :], qkv[..., 2 * dp :]
    powers, decay = _decay(n, cfg.gamma)
    scores = matmul(q, k.swapaxes(-1, -2)) * decay
    out = matmul(scores, v)
    s = matmul((k * powers[n - 1 :: -1, None]).swapaxes(-1, -2), v)  # sum_j K~_j^T V_j
    if tape is None:
        out += matmul(q * powers[1:, None], state.s)
        s += powers[n] * state.s
    else:  # a fresh state: its summary's two terms would add exact zeros
        tape.update(q=q, k=k, v=v, decay=decay, scores=scores, pos=pos)
    return out, RetentionState(s=s, n=state.n + n)


def retention_parallel_vjp(
    d_out: np.ndarray, x: np.ndarray, params: AdapterParams, tape: dict
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """VJP of a taped ``retention_forward`` call from a fresh state: ``(d_x, {"w_qkv": ...})``."""
    q, k, v = tape["q"], tape["k"], tape["v"]
    decay, pos, scores = tape["decay"], tape["pos"], tape["scores"]
    theta = params.config.theta
    d_v = scores.swapaxes(-1, -2) @ d_out
    d_raw = (d_out @ v.swapaxes(-1, -2)) * decay
    d_q = _rotate(d_raw @ k, pos, -theta)
    d_k = _rotate(d_raw.swapaxes(-1, -2) @ q, pos, -theta)
    d_qkv = np.concatenate([d_q, d_k, d_v], axis=-1)
    return d_qkv @ params.w_qkv.T, {"w_qkv": _rows(x).T @ _rows(d_qkv)}


def retention_recurrent(
    x_n: np.ndarray, params: AdapterParams, state: RetentionState | None = None
) -> tuple[np.ndarray, RetentionState]:
    """One frame ``[d']`` as a one-frame chunk of ``retention_forward``, from a fresh state if None."""
    if state is None:
        state = fresh_state(params.config)
    out, state = retention_forward(x_n[None], params, state)
    return out[0], state


# -- adapter ------------------------------------------------------------------


def adapter_forward(
    x: np.ndarray,
    params: AdapterParams,
    state: StreamState | None = None,
    tape: dict | None = None,
) -> tuple[np.ndarray, StreamState]:
    """Residual adapter: y = x + Up(core(Down(x))).

    ``x`` is ``[..., n, d]``, and ``state`` is stacked over its leading
    axes; the returned state continues every sequence, so any partition
    into chunks reproduces one pass. Without a state, every sequence starts
    from ``fresh_state`` (batch mode). A ``tape``, allowed only then,
    receives ``x``, ``down`` and ``core`` plus the core's own intermediates
    (``down_erf`` for vanilla's GELU), which is what ``adapter_vjp`` reads.
    A freshly initialized adapter returns ``x`` unchanged.
    """
    cfg = params.config
    if state is None:
        state = fresh_state(cfg, x.shape[:-2])
    elif tape is not None:
        raise ConfigError("a tape records only a call from a fresh start, with no state passed")
    if x.ndim < 2 or x.shape[-1] != cfg.d:
        raise ConfigError(f"input must be [..., n, d] with d={cfg.d}, got shape {x.shape}")
    _check_state(cfg, state)

    down = _affine(x, params.w_down, params.b_down)

    new_state = state
    if cfg.kind == "vanilla":
        core = gelu(down, tape, "down_erf")
        _count(down.size)  # the formula sheet's pointwise layer
    elif cfg.kind == "st_conv":
        core, buffer = causal_conv(down, params.w_s, context=state.buffer)
        new_state = ConvState(buffer=buffer)
    elif cfg.kind == "qrnn":
        core, new_state = qrnn_forward(down, params, state, tape)
    else:
        core, new_state = retention_forward(down, params, state, tape)

    y = _affine(core, params.w_up, x, params.b_up)
    if tape is not None:
        tape.update(x=x, down=down, core=core)
    return y, new_state


def adapter_vjp(
    d_y: np.ndarray, params: AdapterParams, tape: dict, d_skip: np.ndarray | None = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """VJP of batch-mode ``adapter_forward`` from its tape: ``(d_x, grads)``.

    ``grads`` maps each of ``params.arrays()`` to its gradient, in that
    order. ``d_skip`` is a gradient that reaches ``x`` around the adapter
    (a block's residual); the residual path's ``d_y`` is added to it first.
    """
    cfg = params.config
    down, core = tape["down"], tape["core"]
    d_x = d_y.copy() if d_skip is None else d_skip + d_y
    d_core = d_y @ params.w_up.T
    core_grads = {}
    if cfg.kind == "vanilla":
        d_down = d_core * gelu_grad(down, tape["down_erf"])
    elif cfg.kind == "st_conv":
        d_down, g = causal_conv_vjp(d_core, down, params.w_s)
        core_grads["w_s"] = g["w"]
    elif cfg.kind == "qrnn":
        s, f = tape["s"], tape["f"]
        d_s, d_f = fo_pool_vjp(d_core, s, f, core, np.zeros(cfg.d_prime))
        d_sf = np.concatenate([d_s * (1.0 - s * s), d_f * f * (1.0 - f)], axis=-1)
        d_down, g = causal_conv_vjp(d_sf, down, params.w_sf, params.b_sf)
        core_grads.update(w_sf=g["w"], b_sf=g["bias"])
    else:  # retention
        d_down, core_grads = retention_parallel_vjp(d_core, down, params, tape)
    d_x += d_down @ params.w_down.T
    return d_x, {"w_down": _rows(tape["x"]).T @ _rows(d_down), "b_down": _rows(d_down).sum(axis=0),
                 "w_up": _rows(core).T @ _rows(d_y), "b_up": _rows(d_y).sum(axis=0), **core_grads}


# -- spatio-temporal block ----------------------------------------------------


@dataclass(frozen=True)
class BlockParams(_Arrays):
    """Frozen stand-ins for the spatial and MLP sublayers of one block."""

    w_sp: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def block_shapes(d: int, d_mlp: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of each array ``make_block_params(d, d_mlp, seed)`` holds, in its order."""
    return {"w_sp": (d, d), "w1": (d, d_mlp), "w2": (d_mlp, d)}


def make_block_params(d: int, d_mlp: int, seed: int, scale: float = 0.1) -> BlockParams:
    """Seeded frozen sublayers at ``block_shapes(d, d_mlp)``; small scales keep deep stacks
    well-conditioned."""
    rng = np.random.default_rng(seed)
    shapes = block_shapes(d, d_mlp)
    return BlockParams(
        w_sp=scale * rng.normal(size=shapes["w_sp"]) / math.sqrt(d),
        w1=rng.normal(size=shapes["w1"]) / math.sqrt(d),
        w2=scale * rng.normal(size=shapes["w2"]) / math.sqrt(d_mlp),
    )


def block_forward(
    x: np.ndarray,
    adapter_params: AdapterParams,
    block_params: BlockParams,
    state: StreamState | None = None,
    tape: dict | None = None,
) -> tuple[np.ndarray, StreamState]:
    """Temporal adapter, then frozen spatial and MLP sublayers with residuals.

    u = adapter(x); v = u @ w_sp + x; out = gelu(v @ w1) @ w2 + v, the sublayers
    without biases. ``state`` and ``tape`` as in ``adapter_forward``; the tape
    also receives the MLP's pre-activation ``h1_pre`` and its GELU's ``h1_erf``.
    """
    u, new_state = adapter_forward(x, adapter_params, state, tape)
    v = _affine(u, block_params.w_sp, x)
    h1_pre = matmul(v, block_params.w1)
    out = _affine(gelu(h1_pre, tape, "h1_erf"), block_params.w2, v)
    if tape is not None:
        tape["h1_pre"] = h1_pre
    return out, new_state


def block_vjp(
    d_out: np.ndarray, adapter_params: AdapterParams, block_params: BlockParams, tape: dict
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """VJP of batch-mode ``block_forward`` from its tape: ``(d_x, grads)``.

    The frozen sublayers get no gradient; ``grads`` holds the adapter's,
    as ``adapter_vjp`` returns them.
    """
    d_h1 = (d_out @ block_params.w2.T) * gelu_grad(tape["h1_pre"], tape["h1_erf"])
    d_v = d_out + d_h1 @ block_params.w1.T
    return adapter_vjp(d_v @ block_params.w_sp.T, adapter_params, tape, d_skip=d_v)

