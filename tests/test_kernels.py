import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import erf

from streamstart import detector, kernels
from streamstart.errors import ConfigError, NumericError
from streamstart.kernels import (
    AdapterConfig,
    AdapterParams,
    OpCounter,
    adapter_forward,
    block_forward,
    causal_conv,
    fo_pool,
    fresh_state,
    init_params,
    qrnn_forward,
    retention_recurrent,
)

import oracles

KINDS = ("vanilla", "st_conv", "qrnn", "retention")


def randomized(params, seed, scale=0.4):
    """Adapter params with every trainable array randomized (up included)."""
    return oracles.randomized(params, np.random.default_rng(seed), scale)


def assert_state_is_slice(stacked, b, state, tol=0.0):
    """Stream ``b`` of a stacked state is ``state``: each array's slice within ``tol``, the position equal."""
    assert type(stacked) is type(state)
    for f in fields(state):
        got, want = getattr(stacked, f.name), getattr(state, f.name)
        if f.name == "n":
            assert got == want
        else:
            assert got.shape[1:] == want.shape and np.abs(got[b] - want).max(initial=0.0) <= tol


def run_chunked(x, params, chunks):
    state = fresh_state(params.config)
    outs = []
    i = 0
    for c in chunks:
        y, state = adapter_forward(x[i : i + c], params, state)
        outs.append(y)
        i += c
    assert i == len(x)
    return np.vstack(outs), state


class TestInit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_identity_at_init_bitwise(self, kind):
        cfg = AdapterConfig(d=10, d_prime=5, kind=kind)
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(0).normal(size=(14, 10))
        y, _ = adapter_forward(x, params)
        assert np.array_equal(y, x)

    def test_up_projection_exactly_zero(self):
        for kind in KINDS:
            p = init_params(AdapterConfig(d=8, d_prime=4, kind=kind), seed=1)
            assert not p.w_up.any() and not p.b_up.any()

    def test_qrnn_forget_gate_at_init(self):
        p = init_params(AdapterConfig(d=8, d_prime=4, kind="qrnn"), seed=1)
        assert not p.w_sf[..., 4:].any()
        f = kernels.sigmoid(p.b_sf[4:])
        assert f == pytest.approx(np.full(4, 0.00669), abs=1e-5)

    def test_same_seed_identical(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="retention")
        p1, p2 = init_params(cfg, 7), init_params(cfg, 7)
        for n, a in p1.arrays().items():
            assert np.array_equal(a, getattr(p2, n))

    @pytest.mark.parametrize("depthwise", [False, True], ids=["dense", "depthwise"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_param_shapes_are_init_params_shapes(self, kind, depthwise):
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=3, depthwise=depthwise)
        drawn = {name: arr.shape for name, arr in init_params(cfg, 0).arrays().items()}
        assert list(kernels.param_shapes(cfg).items()) == list(drawn.items())

    def test_qrnn_init_tracks_tanh_conv(self):
        # with W_f = 0 and bias -5 the pooling leak is sigma(-5) per step:
        # exact at step 0, and stays a small multiple of it afterwards
        leak = 1.0 / (1.0 + math.exp(5.0))
        worst = 0.0
        for seed in range(10):
            cfg = AdapterConfig(d=16, d_prime=8, kind="qrnn", k=2)
            p = init_params(cfg, seed)
            x = np.random.default_rng(seed).normal(size=(40, 8))
            h, _ = qrnn_forward(x, p, fresh_state(cfg))
            oracle = np.tanh(causal_conv(x, p.w_sf[..., :8], p.b_sf[:8])[0])
            step0 = np.linalg.norm(h[0] - oracle[0]) / np.linalg.norm(oracle[0])
            assert step0 == pytest.approx(leak, rel=1e-9)
            rms = np.sqrt(np.mean(np.sum(oracle**2, axis=1)))
            worst = max(worst, (np.linalg.norm(h - oracle, axis=1) / rms).max())
        assert worst < 4 * leak  # measured ~1.6e-2 worst case

    def test_zero_input_zero_state_near_zero_output(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn")
        p = init_params(cfg, 0)
        h, _ = qrnn_forward(np.zeros((6, 4)), p, fresh_state(cfg))
        assert np.abs(h).max() == 0.0


class TestCausalConv:
    def test_identity_tap(self):
        w = np.zeros((2, 3, 3))
        w[1] = np.eye(3)
        x = np.random.default_rng(1).normal(size=(7, 3))
        assert np.array_equal(causal_conv(x, w)[0], x)

    def test_pure_delay(self):
        w = np.zeros((2, 3, 3))
        w[0] = np.eye(3)
        x = np.random.default_rng(2).normal(size=(7, 3))
        y = causal_conv(x, w)[0]
        assert np.array_equal(y[0], np.zeros(3))
        assert np.array_equal(y[1:], x[:-1])

    def test_future_perturbation_invisible(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 4, 4))
        x = rng.normal(size=(10, 4))
        y = causal_conv(x, w)[0]
        x2 = x.copy()
        x2[6:] += rng.normal(size=(4, 4))
        y2 = causal_conv(x2, w)[0]
        assert np.array_equal(y[:6], y2[:6])

    def test_depthwise_matches_diagonal_dense(self):
        rng = np.random.default_rng(5)
        w_depth = rng.normal(size=(3, 4))
        w_dense = np.stack([np.diag(w_depth[j]) for j in range(3)])
        x = rng.normal(size=(9, 4))
        got = causal_conv(x, w_depth)[0]
        want = causal_conv(x, w_dense)[0]
        assert np.allclose(got, want, atol=1e-14)


class TestFoPool:
    def test_gate_open_limit(self):
        s = np.array([[1.0], [2.0], [3.0]])
        h, last = fo_pool(s, np.full((3, 1), 1e-300), np.zeros(1))
        assert h == pytest.approx(s)

    def test_gate_closed_limit(self):
        h_init = np.array([5.0])
        h, last = fo_pool(np.ones((4, 1)), np.full((4, 1), 1.0 - 1e-16), h_init)
        assert h == pytest.approx(np.full((4, 1), 5.0))

    def test_geometric(self):
        h, last = fo_pool(np.ones((3, 1)), np.full((3, 1), 0.5), np.zeros(1))
        assert list(h.ravel()) == [0.5, 0.75, 0.875]
        assert last == pytest.approx([0.875])

    def test_s_and_f_share_a_shape(self):
        with pytest.raises(ConfigError, match=r"^s and f must share a shape, got \(3, 1\) vs \(2, 1\)$"):
            fo_pool(np.ones((3, 1)), np.full((2, 1), 0.5), np.zeros(1))

    def test_gate_range_enforced(self):
        with pytest.raises(NumericError):
            fo_pool(np.ones((2, 1)), np.array([[0.5], [1.0]]), np.zeros(1))
        with pytest.raises(NumericError):
            fo_pool(np.ones((2, 1)), np.array([[0.0], [0.5]]), np.zeros(1))

    @pytest.mark.parametrize("n", [0, 1, 2, 65])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_strided_loop_bitwise(self, lead, n):
        # the loop over contiguous time-major copies does each step's operations in the same order
        rng = np.random.default_rng(90 + n + len(lead))
        s, d_h = rng.normal(size=(2, *lead, n, 4))
        f = rng.uniform(0.05, 0.95, size=s.shape)
        for h_init in (rng.normal(size=4), rng.normal(size=(*lead, 4))):  # broadcast, and one per sequence
            h, last = fo_pool(s, f, h_init)
            want_h, want_last = oracles.strided_fo_pool(s, f, h_init)
            assert h.shape == want_h.shape and h.tobytes() == want_h.tobytes()
            assert last.shape == want_last.shape and last.tobytes() == want_last.tobytes()
            assert not np.shares_memory(h, last)
            h_inits, lasts = (np.broadcast_to(a, (*lead, 4)) for a in (h_init, last))
            for idx in np.ndindex(lead):  # each sequence continues from its own h_init, the leading axes in order
                h_i, last_i = fo_pool(s[idx], f[idx], h_inits[idx])
                assert np.array_equal(h[idx], h_i) and np.array_equal(lasts[idx], last_i)
            got = kernels.fo_pool_vjp(d_h, s, f, h, h_init)
            want = oracles.strided_fo_pool_vjp(d_h, s, f, h, h_init)
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_contraction_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, d = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            s = rng.normal(size=(n, d)) * rng.uniform(0.1, 5)
            f = rng.uniform(1e-6, 1 - 1e-6, size=(n, d))
            h_init = rng.normal(size=d)
            h, _ = fo_pool(s, f, h_init)
            bound = max(np.abs(h_init).max(), np.abs(s).max())
            assert np.abs(h).max() <= bound + 1e-12


def counted(fn, *args):
    """Result of fn(*args) and the MACs it executed."""
    counter = OpCounter()
    kernels.set_op_counter(counter)
    try:
        return fn(*args), counter.total
    finally:
        kernels.set_op_counter(None)


class TestBatchAxes:
    """Leading axes batch independent sequences: slice b of a [B, T, d] call
    equals the [T, d] call on slice b, and the executed MACs scale by B."""

    B = 3

    @pytest.mark.parametrize("depthwise", [False, True])
    def test_causal_conv(self, depthwise):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(self.B, 7, 4))
        w = rng.normal(size=(3, 4) if depthwise else (3, 4, 5))
        bias = rng.normal(size=w.shape[-1])
        (y, _), macs = counted(causal_conv, x, w, bias)
        for b in range(self.B):
            (y_b, _), macs_b = counted(causal_conv, x[b], w, bias)
            assert np.array_equal(y[b], y_b)
        assert macs == self.B * macs_b > 0

    def test_fo_pool(self):
        rng = np.random.default_rng(61)
        s = rng.normal(size=(self.B, 9, 4))
        f = rng.uniform(0.05, 0.95, size=s.shape)
        h_init = rng.normal(size=(self.B, 4))
        (h, last), macs = counted(fo_pool, s, f, h_init)
        for b in range(self.B):
            (h_b, last_b), macs_b = counted(fo_pool, s[b], f[b], h_init[b])
            assert np.array_equal(h[b], h_b)
            assert np.array_equal(last[b], last_b)
        assert macs == self.B * macs_b > 0

    def test_retention_parallel(self):
        p = randomized(init_params(AdapterConfig(d=6, d_prime=6, kind="retention"), 0), seed=62)
        x = np.random.default_rng(63).normal(size=(self.B, 8, 6))
        out, macs = counted(oracles.retention_parallel, x, p)
        for b in range(self.B):
            out_b, macs_b = counted(oracles.retention_parallel, x[b], p)
            assert np.array_equal(out[b], out_b)
        assert macs == self.B * macs_b > 0

    def test_rotate(self):
        x = np.random.default_rng(64).normal(size=(self.B, 5, 7))  # odd width: last channel kept
        pos = np.arange(5) + 3
        out = kernels._rotate(x, pos, 0.3)
        for b in range(self.B):
            assert np.array_equal(out[b], kernels._rotate(x[b], pos, 0.3))
        assert np.array_equal(out[..., -1], x[..., -1])


class TestOneForward:
    """One stateful mode: a state stacked over x's leading axes carries one
    stream per leading index, and a call without a state starts every one
    from fresh_state; a conv's carried context is read but gets no output row."""

    B = 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_axes_equal_slices(self, kind):
        rng = np.random.default_rng(65)
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=3)
        p = randomized(init_params(cfg, 0), 66)
        block = kernels.make_block_params(8, 16, seed=67)
        x, x_next = rng.normal(size=(self.B, 7, 8)), rng.normal(size=(self.B, 5, 8))
        y, state = adapter_forward(x, p)
        out, block_state = block_forward(x, p, block)
        y_next, _ = adapter_forward(x_next, p, state)
        out_next, _ = block_forward(x_next, p, block, block_state)
        for b in range(self.B):
            y_b, state_b = adapter_forward(x[b], p)
            out_b, block_state_b = block_forward(x[b], p, block)
            assert np.array_equal(y[b], y_b)
            assert np.array_equal(out[b], out_b)
            assert_state_is_slice(state, b, state_b)
            assert_state_is_slice(block_state, b, block_state_b)
            # the stacked states continue each slice
            assert np.abs(y_next[b] - adapter_forward(x_next[b], p, state_b)[0]).max() <= 1e-12
            assert np.abs(out_next[b] - block_forward(x_next[b], p, block, block_state_b)[0]).max() <= 1e-12

    @pytest.mark.parametrize("kind, depthwise", [(kind, False) for kind in KINDS] + [("st_conv", True), ("qrnn", True)])
    def test_stacked_streams_equal_per_stream_push(self, kind, depthwise):
        rng = np.random.default_rng(72)
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=3, depthwise=depthwise)
        p = randomized(init_params(cfg, 0), 73)
        block = kernels.make_block_params(8, 16, seed=74)
        chunks = [1, 5, 2, kernels.CHUNK + 3, 40, 1, 19]  # one crosses retention's CHUNK-frame split
        x = rng.normal(size=(self.B, sum(chunks), 8))
        state, outs, i = fresh_state(cfg, (self.B,)), [], 0
        for c in chunks:
            y, state = block_forward(x[:, i : i + c], p, block, state)
            outs.append(y)
            i += c
        stacked = np.concatenate(outs, axis=1)
        for b in range(self.B):
            st, pushed = fresh_state(cfg), []
            for t in range(x.shape[1]):
                y, st = block_forward(x[b, t : t + 1], p, block, st)
                pushed.append(y)
            assert np.abs(stacked[b] - np.concatenate(pushed)).max() <= 1e-10
            assert_state_is_slice(state, b, st, tol=1e-10)

    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_causal_conv_context(self, depthwise, lead):
        rng = np.random.default_rng(68)
        w = rng.normal(size=(3, 4) if depthwise else (3, 4, 5))
        bias = rng.normal(size=w.shape[-1])
        n, c = 5, 2
        x = rng.normal(size=lead + (n, 4))
        context = rng.normal(size=lead + (c, 4))
        (y, _), macs = counted(lambda: causal_conv(x, w, bias, context=context))
        full, _ = causal_conv(np.concatenate([context, x], axis=-2), w, bias)
        assert np.array_equal(y, full[..., c:, :])
        # one count per (output row, tap) that lands inside [context; x]
        taps = sum(0 <= c + t + j - 2 < c + n for t in range(n) for j in range(3))
        per_tap = w.shape[-1] if depthwise else w.shape[1] * w.shape[2]
        assert macs == math.prod(lead) * taps * per_tap

    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_causal_conv_returns_the_next_context(self, k, lead, depthwise):
        # the last k - 1 rows of [context; x], where no context is k - 1 zero rows; a context
        # holds exactly k - 1 rows
        rng = np.random.default_rng(75 + k)
        w = rng.normal(size=(k, 4) if depthwise else (k, 4, 5))
        for given in (False, True):
            for n in (1, 6):
                x = rng.normal(size=lead + (n, 4))
                context = rng.normal(size=lead + (k - 1, 4)) if given else np.zeros(lead + (k - 1, 4))
                _, got = causal_conv(x, w, context=context if given else None)
                assert np.array_equal(got, np.concatenate([context, x], axis=-2)[..., n:, :])
                assert got.base is None  # a copy: the carried state keeps no chunk alive
        for c in sorted({0, k - 2, k, k + 1} - {-1, k - 1}):  # shorter and longer contexts
            with pytest.raises(ConfigError, match=f"^context must hold k - 1 = {k - 1} rows, got {c}$"):
                causal_conv(x, w, context=rng.normal(size=lead + (c, 4)))

    def test_causal_conv_empty_context_is_no_context(self):
        rng = np.random.default_rng(69)
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(1, 4, 4))
        (y, _), macs = counted(lambda: causal_conv(x, w, context=np.zeros((0, 4))))
        (y0, _), macs0 = counted(lambda: causal_conv(x, w))
        assert np.array_equal(y, y0) and macs == macs0

    def test_qrnn_batch_runs_from_zero_state(self):
        rng = np.random.default_rng(70)
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn", k=3)
        p = randomized(init_params(cfg, 0), 71)
        x = rng.normal(size=(self.B, 9, 4))
        h, state = qrnn_forward(x, p, fresh_state(cfg, (self.B,)))
        for b in range(self.B):
            streamed, state_b = qrnn_forward(x[b], p, fresh_state(cfg))
            assert np.abs(h[b] - streamed).max() <= 1e-12
            assert_state_is_slice(state, b, state_b, tol=1e-12)

    def test_taped_retention_window_is_one_chunk(self):
        # a training window longer than CHUNK is one chunk, so its tape covers it;
        # an untaped call splits it, with the same output
        rng = np.random.default_rng(75)
        p = randomized(init_params(AdapterConfig(d=8, d_prime=4, kind="retention"), 0), 76)
        t = 2 * kernels.CHUNK + 7
        x = rng.normal(size=(2, t, 8))
        tape = {}
        taped, _ = adapter_forward(x, p, tape=tape)
        assert tape["decay"].shape == (t, t)
        split, _ = adapter_forward(x, p)
        assert np.abs(taped - split).max() <= 1e-10

    def test_tape_only_in_batch_mode(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn")
        with pytest.raises(ConfigError, match="tape"):
            adapter_forward(np.zeros((2, 8)), init_params(cfg, 0), fresh_state(cfg), tape={})


class TestQrnn:
    def test_chunked_equals_batch(self):
        rng = np.random.default_rng(11)
        cfg = AdapterConfig(d=12, d_prime=6, kind="qrnn", k=3)
        p = randomized(init_params(cfg, 0), 1)
        x = rng.normal(size=(16, 6))
        full, _ = qrnn_forward(x, p, fresh_state(cfg))
        state = fresh_state(cfg)
        outs = []
        for i in range(0, 16, 4):
            y, state = qrnn_forward(x[i : i + 4], p, state)
            outs.append(y)
        assert np.abs(np.vstack(outs) - full).max() <= 1e-10

    def test_state_kind_checked(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn")
        p = init_params(cfg, 0)
        with pytest.raises(ConfigError):
            qrnn_forward(np.zeros((3, 4)), p, fresh_state(AdapterConfig(d=8, d_prime=4, kind="retention")))


class TestRetention:
    def test_toy_parallel(self):
        cfg = AdapterConfig(d=2, d_prime=1, kind="retention", gamma=0.5, theta=0.0)
        p = replace(
            init_params(cfg, 0),
            w_qkv=np.array([[1.0, 1.0, 1.0]]),
        )
        out = oracles.retention_parallel(np.array([[1.0], [1.0]]), p)
        assert out.ravel() == pytest.approx([1.0, 1.5])

    def test_toy_recurrent_and_state(self):
        cfg = AdapterConfig(d=2, d_prime=1, kind="retention", gamma=0.5, theta=0.0)
        p = replace(
            init_params(cfg, 0),
            w_qkv=np.array([[1.0, 1.0, 1.0]]),
        )
        o1, st = retention_recurrent(np.array([1.0]), p, state=None)
        o2, st = retention_recurrent(np.array([1.0]), p, state=st)
        assert (o1[0], o2[0]) == (1.0, 1.5)
        assert st.s.ravel() == pytest.approx([1.5])
        assert st.n == 2

    def test_gamma_near_one_is_causal_linear_attention(self):
        rng = np.random.default_rng(12)
        cfg = AdapterConfig(d=6, d_prime=6, kind="retention", gamma=1 - 1e-12, theta=0.0)
        p = randomized(init_params(cfg, 0), 2)
        x = rng.normal(size=(8, 6))
        out = oracles.retention_parallel(x, p)
        q, k, v = np.split(x @ p.w_qkv, 3, axis=1)
        expected = np.array([q[n] @ (k[: n + 1].T @ v[: n + 1]) for n in range(8)])
        assert np.abs(out - expected).max() < 1e-9

    def test_single_frame(self):
        rng = np.random.default_rng(13)
        cfg = AdapterConfig(d=4, d_prime=4, kind="retention", theta=0.0)
        p = randomized(init_params(cfg, 0), 3)
        x = rng.normal(size=(1, 4))
        out = oracles.retention_parallel(x, p)
        q, k, v = np.split(x @ p.w_qkv, 3, axis=1)
        assert out == pytest.approx(q @ (k.T @ v))

    def test_duality_random(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(30):
            dp = int(rng.integers(1, 17))
            cfg = AdapterConfig(d=dp, d_prime=dp, kind="retention")
            p = randomized(init_params(cfg, int(rng.integers(2**31))), int(rng.integers(2**31)))
            n = int(rng.integers(1, 65))
            x = rng.normal(size=(n, dp))
            par = oracles.retention_parallel(x, p)
            st = None
            rec = []
            for t in range(n):
                o, st = retention_recurrent(x[t], p, state=st)
                rec.append(o)
            worst = max(worst, np.abs(par - np.vstack(rec)).max())
        assert worst <= 1e-10

    def test_zero_kv_decays_state(self):
        cfg = AdapterConfig(d=2, d_prime=2, kind="retention", gamma=0.5, theta=0.0)
        p = replace(init_params(cfg, 0), w_qkv=np.hstack([np.eye(2), np.zeros((2, 2)), np.eye(2)]))
        st = kernels.RetentionState(s=np.eye(2), n=0)
        _, st = retention_recurrent(np.ones(2), p, state=st)
        assert st.s == pytest.approx(0.5 * np.eye(2))

    @pytest.mark.parametrize("n", [1, 9, kernels.CHUNK + 3])
    def test_taped_call_is_the_fresh_untaped_call_bitwise(self, monkeypatch, n):
        # a taped call skips the fresh summary's read-out and decay, which add exact zeros
        rng = np.random.default_rng(15)
        cfg = AdapterConfig(d=6, d_prime=6, kind="retention")
        p = randomized(init_params(cfg, 0), 4)
        x = rng.normal(size=(3, n, 6))
        fresh = fresh_state(cfg, (3,))
        taped, taped_state = kernels.retention_forward(x, p, fresh, tape={})
        monkeypatch.setattr(kernels, "CHUNK", n)  # one chunk untaped too, so both sum alike
        untaped, untaped_state = kernels.retention_forward(x, p, fresh)
        assert taped.tobytes() == untaped.tobytes()
        assert taped_state.s.tobytes() == untaped_state.s.tobytes() and taped_state.n == untaped_state.n == n

    def test_taped_call_from_an_advanced_state_is_config_error(self):
        # the taped call drops the summary's read-out, which only a fresh state's zeros allow
        cfg = AdapterConfig(d=4, d_prime=4, kind="retention")
        p = randomized(init_params(cfg, 0), 4)
        x = np.random.default_rng(16).normal(size=(3, 4))
        _, advanced = kernels.retention_forward(x, p, fresh_state(cfg))
        with pytest.raises(ConfigError, match="a taped call starts from a fresh state, got one 3 frames on"):
            kernels.retention_forward(x, p, advanced, tape={})

    def test_taped_call_from_a_nonzero_summary_is_config_error(self):
        # a state at position 0 may still hold a summary (test_zero_kv_decays_state builds one), whose
        # read-out and decay the taped call would drop; one stacked stream's summary is enough
        cfg = AdapterConfig(d=2, d_prime=2, kind="retention")
        p = randomized(init_params(cfg, 0), 4)
        x = np.random.default_rng(17).normal(size=(2, 3, 2))
        state = kernels.RetentionState(s=np.stack([np.zeros((2, 2)), np.eye(2)]), n=0)
        message = "^a taped call starts from a fresh state, got one whose summary is not zero$"
        with pytest.raises(ConfigError, match=message):
            kernels.retention_forward(x, p, state, tape={})
        out, _ = kernels.retention_forward(x, p, state)  # untaped, it reads the summary
        assert not np.array_equal(out, kernels.retention_forward(x, p, fresh_state(cfg, (2,)))[0])

    def test_float32_longer_than_512_frames_runs(self):
        p = init_params(AdapterConfig(d=4, d_prime=4, kind="retention"), 0)
        x = np.random.default_rng(0).normal(size=(513, 4)).astype(np.float32)
        assert np.isfinite(oracles.retention_parallel(x, p)).all()


class TestAdapterStreaming:
    @pytest.mark.parametrize("kind", KINDS)
    def test_chunked_equals_batch(self, kind):
        rng = np.random.default_rng(15)
        worst = 0.0
        for trial in range(10):
            d = int(rng.integers(4, 13))
            dp = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, 4))
            cfg = AdapterConfig(d=d, d_prime=dp, kind=kind, k=k)
            p = randomized(init_params(cfg, trial), trial + 100)
            n = int(rng.integers(1, 25))
            x = rng.normal(size=(n, d))
            batch, _ = adapter_forward(x, p)
            chunks = []
            left = n
            while left > 0:
                c = int(rng.integers(1, left + 1))
                chunks.append(c)
                left -= c
            streamed, _ = run_chunked(x, p, chunks)
            worst = max(worst, np.abs(batch - streamed).max())
        assert worst <= 1e-10

    @pytest.mark.parametrize("kind", ("st_conv", "qrnn", "retention"))
    def test_causality_bitwise(self, kind):
        rng = np.random.default_rng(16)
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=2)
        p = randomized(init_params(cfg, 5), 6)
        x = rng.normal(size=(12, 8))
        y, _ = adapter_forward(x, p)
        x2 = x.copy()
        x2[7:] = rng.normal(size=(5, 8)) * 3.0
        y2, _ = adapter_forward(x2, p)
        assert np.array_equal(y[:7], y2[:7])

    def test_vanilla_is_pointwise(self):
        rng = np.random.default_rng(17)
        cfg = AdapterConfig(d=6, d_prime=3, kind="vanilla")
        p = randomized(init_params(cfg, 1), 2)
        x = rng.normal(size=(9, 6))
        y, _ = adapter_forward(x, p)
        perm = rng.permutation(9)
        y_perm, _ = adapter_forward(x[perm], p)
        assert np.array_equal(y[perm], y_perm)

    def test_state_kind_mismatch(self):
        cfg = AdapterConfig(d=6, d_prime=3, kind="qrnn")
        p = init_params(cfg, 0)
        with pytest.raises(ConfigError, match="mismatch"):
            adapter_forward(np.zeros((4, 6)), p, kernels.VanillaState())

    @pytest.mark.parametrize("kind", ("st_conv", "qrnn"))
    def test_depthwise_streaming_equals_batch(self, kind):
        rng = np.random.default_rng(44)
        cfg = AdapterConfig(d=10, d_prime=5, kind=kind, k=3, depthwise=True)
        p = randomized(init_params(cfg, 0), 1)
        assert oracles.per_bank(p.arrays())["w_s"].shape == (3, 5)
        x = rng.normal(size=(18, 10))
        batch, _ = adapter_forward(x, p)
        streamed, _ = run_chunked(x, p, [4, 7, 1, 6])
        assert np.abs(batch - streamed).max() <= 1e-10

    def test_constant_per_step_op_count(self):
        for kind in ("st_conv", "qrnn", "retention"):
            cfg = AdapterConfig(d=10, d_prime=5, kind=kind, k=3)
            p = init_params(cfg, 0)
            st = fresh_state(cfg)
            rng = np.random.default_rng(0)
            counts = []
            for _ in range(50):
                counter = OpCounter()
                kernels.set_op_counter(counter)
                _, st = adapter_forward(rng.normal(size=(1, 10)), p, st)
                kernels.set_op_counter(None)
                counts.append(counter.total)
            assert len(set(counts)) == 1


class TestLongStream:
    """10^5 frames in score_frames' fixed chunks: the same output as irregular
    cuts and, on a prefix, as batch mode; the carried state keeps its size and
    stays bounded."""

    @pytest.mark.parametrize("kind", ("retention", "qrnn"))
    def test_long_stream_fixed_chunks(self, kind):
        rng = np.random.default_rng(90)
        n, c = 100_000, kernels.CHUNK
        p = randomized(init_params(AdapterConfig(d=16, d_prime=8, kind=kind), 0), 91)
        x = rng.normal(size=(n, 16))
        state, outs, sizes, norms = fresh_state(p.config), [], set(), []
        for i in range(0, n, c):
            y, state = adapter_forward(x[i : i + c], p, state)
            outs.append(y)
            arrays = [state.s] if kind == "retention" else [state.buffer, state.h]
            sizes.add(sum(a.nbytes for a in arrays))
            norms.append(np.linalg.norm(state.s) if kind == "retention" else np.abs(state.h).max())
        fixed = np.concatenate(outs)
        cuts = np.cumsum(rng.integers(1, 2 * c, size=n // c))
        irregular, _ = run_chunked(x, p, np.diff(cuts[cuts < n], prepend=0, append=n))
        assert np.abs(fixed - irregular).max() <= 1e-10
        assert np.abs(fixed[:500] - adapter_forward(x[:500], p)[0]).max() <= 1e-10
        assert len(sizes) == 1
        if kind == "qrnn":  # h is a gated average of tanh values
            assert max(norms) <= 1.0
        else:  # |S| <= sum_j gamma^j |k_j| |v_j|, and rotation keeps |k|
            down = x @ p.w_down + p.b_down
            _, k, v = np.split(down @ p.w_qkv, 3, axis=1)
            kv = np.linalg.norm(k, axis=1) * np.linalg.norm(v, axis=1)
            assert max(norms) <= kv.max() / (1.0 - p.config.gamma)

    def test_long_streamed_retention_chunk_is_split(self):
        # one 5000-frame streamed chunk runs as CHUNK-frame chunks: no [5000, 5000] matrix
        rng = np.random.default_rng(92)
        p = randomized(init_params(AdapterConfig(d=16, d_prime=8, kind="retention"), 0), 93)
        x = rng.normal(size=(5000, 16))
        tracemalloc.start()
        whole, state = adapter_forward(x, p, fresh_state(p.config))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        c = kernels.CHUNK
        fixed, fixed_state = run_chunked(x, p, [c] * (5000 // c) + [5000 % c])
        assert np.abs(whole - fixed).max() <= 1e-10
        assert np.abs(state.s - fixed_state.s).max() <= 1e-10 and state.n == fixed_state.n == 5000
        assert peak < 4 * 2**20  # the output and its intermediates; the parent's two [5000, 5000] took 400 MB


class TestRewrittenPrimitives:
    """causal_conv, sigmoid and gelu against the formulas they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_causal_conv_equals_tap_loop(self, k, lead, depthwise):
        rng = np.random.default_rng(80 + k)
        w = rng.normal(size=(k, 4) if depthwise else (k, 4, 5))
        bias = rng.normal(size=w.shape[-1])
        for given in (False, True):  # a fresh state's zero context, and a carried one
            for n in (1, 6):
                x = rng.normal(size=lead + (n, 4))
                context = rng.normal(size=lead + (k - 1, 4)) if given else None
                (y, _), macs = counted(lambda: causal_conv(x, w, bias, context))
                want, want_macs = oracles.tap_loop_conv(x, w, bias, context)
                assert macs == want_macs
                if depthwise:  # the same products, added in the same order
                    assert np.array_equal(y, want)
                else:  # one product over the taps sums in another order
                    assert np.abs(y - want).max() <= 1e-12

    def test_stacked_depthwise_banks_share_the_input(self):
        rng = np.random.default_rng(84)
        x, w_a, w_b = rng.normal(size=(2, 7, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        y, _ = causal_conv(x, np.concatenate([w_a, w_b], axis=-1))
        assert np.array_equal(y[..., :4], causal_conv(x, w_a)[0])
        assert np.array_equal(y[..., 4:], causal_conv(x, w_b)[0])

    def test_sigmoid_bitwise_equals_where_form(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 750.0, -750.0,
                      np.inf, -np.inf, np.nan])
        got = kernels.sigmoid(x)
        assert got.tobytes() == oracles.where_sigmoid(x).tobytes()
        assert got[0] == got[1] == 0.5 and got[-3] == 1.0 and got[-2] == 0.0
        assert kernels.sigmoid(np.float64(-2.0)) == oracles.where_sigmoid(np.float64(-2.0))

    @pytest.mark.parametrize("d", [16, 64, 128, 192, 256, 512])
    def test_matmul_is_matmul_bitwise_on_a_frame(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(1, d))
        for n in (16, 64, 128, 192, 256, 512):
            w = rng.normal(size=(d, n))
            assert kernels.matmul(x, w).tobytes() == (x @ w).tobytes()

    def test_matmul_is_matmul_bitwise_on_views_vectors_and_stacks(self):
        rng = np.random.default_rng(86)
        # the conv's overlapping window view: its row stride is shorter than its row
        xp = rng.normal(size=(9, 16))
        windows = np.ndarray((7, 3 * 16), xp.dtype, xp, 0, xp.strides)
        pairs = [(windows, rng.normal(size=(48, 16))),
                 (rng.normal(size=(16, 1)), rng.normal(size=(1, 16))),  # a pushed frame's K^T V
                 (rng.normal(size=3)[1:], rng.normal(size=2)),
                 (rng.normal(size=(2, 1, 16)), rng.normal(size=(16, 3))),
                 (rng.normal(size=(4, 30, 16)), rng.normal(size=(16, 48)))]
        for a, b in pairs:
            got = kernels.matmul(a, b)
            assert got.shape == (a @ b).shape and got.tobytes() == (a @ b).tobytes()

    def test_erf_is_odd_bitwise(self):
        # gelu takes erf of |x| / sqrt(2) and copies x's sign back: every bit holds only while erf(-x) == -erf(x)
        rng = np.random.default_rng(88)
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([rng.normal(size=500) * scale for scale in (1e-300, 1e-8, 1e-2, 1.0, 3.0, 10.0, 1e3)]
                           + [[0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                               tiny, 7 * tiny, np.finfo(float).tiny / 3, np.inf]])
        x = np.concatenate([x, -x])
        assert erf(-x).tobytes() == (-erf(x)).tobytes()

    def test_gelu_bitwise_and_tape_is_erf(self):
        rng = np.random.default_rng(85)
        specials = np.concatenate([rng.normal(size=60) * 4, [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]])
        # and a training step's MLP pre-activation [B, T, 2d] and a pushed frame's vanilla core [1, d']
        for x in (specials.reshape(6, 11), np.tile(specials, (8, 1)),
                  rng.normal(size=(32, 60, 32)) * 2, rng.normal(size=(1, 64)) * 2):
            tape = {}
            y = kernels.gelu(x, tape, "e")
            assert y.tobytes() == oracles.erf_gelu(x).tobytes()
            assert tape["e"].tobytes() == erf(x / math.sqrt(2.0)).tobytes()  # erf, not 1 + erf


def central_difference(loss, inputs, name, eps=1e-6):
    """d loss / d inputs[name] by central differences, one element at a time."""
    g = np.zeros_like(inputs[name])
    for idx in np.ndindex(g.shape):
        moved = []
        for step in (eps, -eps):
            arr = inputs[name].copy()
            arr[idx] += step
            moved.append(loss(**{**inputs, name: arr}))
        g[idx] = (moved[0] - moved[1]) / (2 * eps)
    return g


def assert_grads(loss, inputs, grads):
    """Every named analytic gradient matches central differences of ``loss``."""
    assert set(grads) == set(inputs)
    for name, g in grads.items():
        np.testing.assert_allclose(g, central_difference(loss, inputs, name), rtol=1e-6, atol=1e-8,
                                   err_msg=name)


VJP_CASES = [("vanilla", 1, False), ("retention", 1, False)] + [
    (kind, k, depthwise) for kind in ("st_conv", "qrnn") for k in (1, 2, 3) for depthwise in (False, True)
]


class TestVjps:
    """Each VJP against central differences of its own forward, as the scalar
    sum(r * forward) for a fixed random cotangent r."""

    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_causal_conv_vjp(self, k, lead, depthwise):
        rng = np.random.default_rng(90 + k)
        w = rng.normal(size=(k, 3) if depthwise else (k, 3, 2))
        inputs = {"x": rng.normal(size=lead + (5, 3)), "w": w, "bias": rng.normal(size=w.shape[-1])}
        r = rng.normal(size=lead + (5, w.shape[-1]))
        d_x, grads = kernels.causal_conv_vjp(r, inputs["x"], w, inputs["bias"])
        assert_grads(lambda x, w, bias: np.sum(r * causal_conv(x, w, bias)[0]), inputs, {"x": d_x, **grads})
        assert set(kernels.causal_conv_vjp(r, inputs["x"], w)[1]) == {"w"}

    def test_causal_conv_vjp_stacked_depthwise(self):
        # a depthwise [k, 2 * d_in] bank stacks two banks on the same input, as qrnn's w_sf does
        rng = np.random.default_rng(89)
        w = rng.normal(size=(2, 6))
        inputs = {"x": rng.normal(size=(2, 5, 3)), "w": w, "bias": rng.normal(size=6)}
        r = rng.normal(size=(2, 5, 6))
        d_x, grads = kernels.causal_conv_vjp(r, inputs["x"], w, inputs["bias"])
        assert_grads(lambda x, w, bias: np.sum(r * causal_conv(x, w, bias)[0]), inputs, {"x": d_x, **grads})

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_fo_pool_vjp(self, lead):
        rng = np.random.default_rng(93)
        inputs = {"s": rng.normal(size=lead + (6, 3)), "f": rng.uniform(0.1, 0.9, size=lead + (6, 3))}
        h_init, r = rng.normal(size=lead + (3,)), rng.normal(size=lead + (6, 3))  # one state per sequence
        h, _ = fo_pool(inputs["s"], inputs["f"], h_init)
        d_s, d_f = kernels.fo_pool_vjp(r, inputs["s"], inputs["f"], h, h_init)
        assert_grads(lambda s, f: np.sum(r * fo_pool(s, f, h_init)[0]), inputs, {"s": d_s, "f": d_f})

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_retention_parallel_vjp(self, lead):
        rng = np.random.default_rng(94)
        p = randomized(init_params(AdapterConfig(d=5, d_prime=4, kind="retention"), 0), 95)
        inputs = {"x": rng.normal(size=lead + (6, 4)), "w_qkv": p.w_qkv}
        r = rng.normal(size=lead + (6, 4))
        tape = {}
        oracles.retention_parallel(inputs["x"], p, tape)
        d_x, grads = kernels.retention_parallel_vjp(r, inputs["x"], p, tape)

        def loss(x, **banks):
            return np.sum(r * oracles.retention_parallel(x, replace(p, **banks)))

        assert_grads(loss, inputs, {"x": d_x, **grads})

    @pytest.mark.parametrize("kind, k, depthwise", VJP_CASES)
    def test_adapter_vjp(self, kind, k, depthwise):
        rng = np.random.default_rng(96)
        cfg = AdapterConfig(d=5, d_prime=3, kind=kind, k=k, depthwise=depthwise)
        p = randomized(init_params(cfg, 0), 97)
        inputs = {"x": rng.normal(size=(2, 6, 5)), **p.arrays()}
        r = rng.normal(size=(2, 6, 5))
        tape = {}
        adapter_forward(inputs["x"], p, tape=tape)
        d_x, grads = kernels.adapter_vjp(r, p, tape)
        assert list(grads) == list(p.arrays())

        def loss(x, **arrays):
            return np.sum(r * adapter_forward(x, AdapterParams(config=cfg, **arrays))[0])

        assert_grads(loss, inputs, {"x": d_x, **grads})
        skip = rng.normal(size=d_x.shape)
        d_x_skip, grads_skip = kernels.adapter_vjp(r, p, tape, d_skip=skip)
        assert np.abs(d_x_skip - (skip + d_x)).max() <= 1e-12
        assert all(np.array_equal(grads[n], grads_skip[n]) for n in grads)

    @pytest.mark.parametrize("kind, k, depthwise", VJP_CASES)
    def test_block_vjp(self, kind, k, depthwise):
        rng = np.random.default_rng(98)
        cfg = AdapterConfig(d=5, d_prime=3, kind=kind, k=k, depthwise=depthwise)
        p = randomized(init_params(cfg, 0), 99)
        block = kernels.make_block_params(5, 7, seed=100, scale=0.5)
        inputs = {"x": rng.normal(size=(2, 6, 5)), **p.arrays()}
        r = rng.normal(size=(2, 6, 5))
        tape = {}
        block_forward(inputs["x"], p, block, tape=tape)
        d_x, grads = kernels.block_vjp(r, p, block, tape)

        def loss(x, **arrays):
            return np.sum(r * block_forward(x, AdapterParams(config=cfg, **arrays), block)[0])

        assert_grads(loss, inputs, {"x": d_x, **grads})


class TestGelu:
    def test_tape_holds_erf_and_output_is_unchanged(self):
        x = np.random.default_rng(5).normal(size=(4, 7)) * 3
        tape = {}
        y = kernels.gelu(x, tape, "e")
        assert np.array_equal(y, kernels.gelu(x))
        assert np.array_equal(tape["e"], erf(x / math.sqrt(2.0)))

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-6.0, 6.0, 101)
        tape = {}
        kernels.gelu(x, tape, "e")
        h = 1e-6
        numeric = (kernels.gelu(x + h) - kernels.gelu(x - h)) / (2 * h)
        assert np.abs(kernels.gelu_grad(x, tape["e"]) - numeric).max() < 1e-8


class TestBlock:
    def test_identity_composition(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn")
        adapter = init_params(cfg, 0)
        block = oracles.identity_block_params(8, 16)
        x = np.random.default_rng(1).normal(size=(6, 8))
        y, _ = block_forward(x, adapter, block)
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_streaming_equals_batch(self, kind):
        rng = np.random.default_rng(18)
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=2)
        adapter = randomized(init_params(cfg, 2), 3)
        block = kernels.make_block_params(8, 16, seed=4)
        x = rng.normal(size=(20, 8))
        batch, _ = block_forward(x, adapter, block)
        state = fresh_state(cfg)
        outs = []
        for i in range(0, 20, 3):
            y, state = block_forward(x[i : i + 3], adapter, block, state)
            outs.append(y)
        assert np.abs(np.vstack(outs) - batch).max() <= 1e-10

    def test_stacked_receptive_field_probe(self):
        # M st_conv blocks with k=2: perturbing a frame at or beyond
        # receptive_field(M, 2) frames in the past leaves the output unchanged
        rng = np.random.default_rng(19)
        m = 3
        cfg = AdapterConfig(d=6, d_prime=3, kind="st_conv", k=2)
        adapters = [randomized(init_params(cfg, i), i + 50) for i in range(m)]
        blocks = [kernels.make_block_params(6, 12, seed=i) for i in range(m)]

        def stack(x):
            for a, b in zip(adapters, blocks):
                x, _ = block_forward(x, a, b)
            return x

        x = rng.normal(size=(16, 6))
        t = 12
        rf = oracles.receptive_field(m, 2)  # 4
        base = stack(x)
        past = x.copy()
        past[t - rf] += 5.0  # just outside the dependency range
        assert np.array_equal(stack(past)[t], base[t])
        inside = x.copy()
        inside[t - rf + 1] += 5.0
        assert not np.array_equal(stack(inside)[t], base[t])


class TestReceptiveField:
    def test_values(self):
        assert oracles.receptive_field(1, 3) == 3
        assert oracles.receptive_field(2, 3) == 5
        assert oracles.receptive_field(12, 2) == 13  # formula as printed

    def test_validation(self):
        with pytest.raises(ConfigError):
            oracles.receptive_field(0, 3)


class TestConfig:
    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            AdapterConfig(d=8, d_prime=4, kind="retention", gamma=1.0)

    def test_d_prime_bounds(self):
        with pytest.raises(ConfigError):
            AdapterConfig(d=8, d_prime=9, kind="vanilla")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match=r"^kind must be one of \('vanilla', .*\), got 'lstm'$"):
            AdapterConfig(d=8, d_prime=4, kind="lstm")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        # the payload is every array's values end to end, shaped by the reader's config
        rng = np.random.default_rng(20)
        arrays = [rng.normal(size=s).astype(np.float32).astype(float) for s in ((3, 4), (7,), (2, 2, 2))]
        config = {"kind": "qrnn", "d": 8}
        path = tmp_path / "model.sdqk"
        detector.write_checkpoint(path, config, arrays)
        got_config, values = detector.read_checkpoint(path)
        assert got_config == config
        assert values.dtype == float and np.array_equal(values, np.concatenate([a.ravel() for a in arrays]))

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.sdqk"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            detector.read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.sdqk"
        detector.write_checkpoint(path, {"d": 2}, [np.ones((2, 3))])
        raw = path.read_bytes()
        # inside the version, before the config, inside it
        for cut, needs in ((6, 12), (12, len(raw) - 24), (len(raw) - 25, len(raw) - 24)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ConfigError, match=f"truncated: {cut} bytes, needs at least {needs}$"):
                detector.read_checkpoint(path)
        path.write_bytes(raw[:-1])
        with pytest.raises(ConfigError, match="its payload of 23 bytes ends inside a float32$"):
            detector.read_checkpoint(path)
        path.write_bytes(raw[:-4])  # a whole value short: load_model's value count rejects it
        assert detector.read_checkpoint(path)[1].size == 5

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.sdqk"
        detector.write_checkpoint(path, {"d": 2}, [np.ones((2, 3))])
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 2)
        with pytest.raises(ConfigError, match="its payload of 26 bytes ends inside a float32$"):
            detector.read_checkpoint(path)
        path.write_bytes(raw + b"\x00" * 4)  # a whole value more: load_model's value count rejects it
        assert detector.read_checkpoint(path)[1].size == 7

    def test_magic_bytes(self, tmp_path):
        # magic, u32 version 5, u32 config length, the config: no array count, rank or dims
        path = tmp_path / "m.sdqk"
        detector.write_checkpoint(path, {}, [np.ones((2, 1))])
        one = np.float32(1).tobytes()
        assert path.read_bytes() == b"SDQK" + (5).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"{}" + one * 2
