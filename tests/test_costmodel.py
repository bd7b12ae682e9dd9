import numpy as np
import pytest

from streamstart import costmodel as cm
from streamstart import detector, kernels
from streamstart.errors import ConfigError
from streamstart.kernels import AdapterConfig


def linear(d_in, d_out, **kw):
    return cm.LayerSpec(kind="linear", d_in=d_in, d_out=d_out, **kw)


class TestCountParams:
    def test_linear_with_bias(self):
        assert cm.count_params([linear(768, 768)]) == 590_592

    def test_vanilla_adapter_pair(self):
        stack = cm.adapter_stack("vanilla", 768, 384, insertions=1)
        assert cm.count_params(stack) == 590_976

    def test_24_insertions_match_table_band(self):
        stack = cm.adapter_stack("vanilla", 768, 384, insertions=24)
        params = cm.count_params(stack)
        assert params == 14_183_424
        pct = params / 180.92e6 * 100.0
        assert abs(pct - 7.9) < 0.2

    def test_empty_stack(self):
        assert cm.count_params([]) == 0

    def test_matched_parameter_budgets(self):
        d, k = 768, 2
        target = cm.count_params(cm.adapter_stack("st_conv", d, 384, k))
        for kind in ("vanilla", "qrnn", "retention"):
            dp = cm.default_reduced_dim(kind, d, k)
            got = cm.count_params(cm.adapter_stack(kind, d, dp, k))
            assert abs(got - target) / target < 0.01

    def test_additive_and_linear_in_count(self):
        a = [linear(16, 32), cm.LayerSpec(kind="layernorm", d_in=16, d_out=16)]
        b = [cm.LayerSpec(kind="conv1d", d_in=8, d_out=8, k=3)]
        assert cm.count_params(a + b) == cm.count_params(a) + cm.count_params(b)
        tripled = [cm.LayerSpec(kind="conv1d", d_in=8, d_out=8, k=3, count=3)]
        assert cm.count_params(tripled) == 3 * cm.count_params(b)


class TestCountMacs:
    def test_linear_197_tokens(self):
        assert cm.count_macs([linear(768, 768)], tokens=197) == 116_195_328

    def test_flops_double_macs(self):
        stack = cm.vit_backbone_stack(d=64, n_blocks=2)
        rep = cm.cost_report(stack, tokens=10)
        assert rep.flops_per_frame == 2 * rep.macs_per_frame
        # Table-3 style sanity: 15.7 Tflops over 7.85 TMACs is the same factor
        assert 15.7 / 7.85 == 2.0

    def test_additivity(self):
        a = cm.vit_backbone_stack(d=32, n_blocks=1)
        b = cm.adapter_stack("qrnn", 32, 16, insertions=2)
        assert cm.count_macs(a + b, 7) == cm.count_macs(a, 7) + cm.count_macs(b, 7)

    def test_depthwise_conv_cheaper(self):
        dense = [cm.LayerSpec(kind="conv1d", d_in=64, d_out=64, k=3)]
        depth = [cm.LayerSpec(kind="conv1d", d_in=64, d_out=64, k=3, depthwise=True)]
        assert cm.count_macs(dense, 5) == 3 * 64 * 64 * 5
        assert cm.count_macs(depth, 5) == 3 * 64 * 5

    def test_adapter_overhead_brackets_table_band(self):
        # 12-block, d=768, 197-token encoder; vanilla adapters at d'=384,
        # two insertions per block: overhead lands inside (11%, 16%),
        # bracketing the published +12.0%..+15.2% adapter rows
        backbone = cm.vit_backbone_stack(d=768, n_blocks=12)
        adapters = cm.adapter_stack("vanilla", 768, 384, insertions=24)
        rep = cm.cost_report(backbone + adapters, tokens=197, baseline=backbone)
        assert 11.0 <= rep.overhead_macs_pct <= 16.0

    def test_retention_step_formula(self):
        stack = [cm.LayerSpec(kind="retention_step", d_in=24, d_out=24)]
        assert cm.count_macs(stack, tokens=3) == (3 * 24 * 24 + 2 * 24 * 24 + 2 * 24) * 3


class TestMacReconciliation:
    @pytest.mark.parametrize("kind", ["st_conv", "qrnn", "vanilla", "retention"])
    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_streamed_frame_executes_the_sheet(self, kind, depthwise, k):
        cfg = AdapterConfig(d=32, d_prime=16, kind=kind, k=k, depthwise=depthwise)
        params = kernels.init_params(cfg, seed=0)
        state = kernels.fresh_state(cfg)
        sheet = cm.count_macs(cm.adapter_stack(kind, 32, 16, k=k, depthwise=depthwise))
        rng = np.random.default_rng(0)
        for _ in range(k + 1):  # from a fresh buffer through a full one
            counter = kernels.OpCounter()
            kernels.set_op_counter(counter)
            try:
                _, state = kernels.adapter_forward(rng.normal(size=(1, 32)), params, state)
            finally:
                kernels.set_op_counter(None)
            assert counter.total == sheet


    @pytest.mark.parametrize("kind", ["st_conv", "qrnn", "vanilla", "retention"])
    def test_pushed_frame_counts_every_product(self, kind):
        # each block: its adapter's sheet and one MAC per frozen weight (w_sp, w1, w2: 5 d^2);
        # the head: the frame output's norm and its dot product with the query, d each
        d, n_blocks = 32, 2
        cfg = AdapterConfig(d=d, d_prime=16, kind=kind, k=3)
        model = detector.build_model(detector.ModelConfig(d_in=d, d=d, n_blocks=n_blocks, adapter=cfg, seed=0))
        rng = np.random.default_rng(1)
        scorer = detector.StreamingScorer(model, rng.normal(size=d))
        sheet = cm.count_macs(cm.adapter_stack(kind, d, 16, k=3))
        for _ in range(4):  # from fresh states through full ones
            counter = kernels.OpCounter()
            kernels.set_op_counter(counter)
            try:
                scorer.push(rng.normal(size=d))
            finally:
                kernels.set_op_counter(None)
            assert counter.total == n_blocks * (sheet + 5 * d * d) + 2 * d


class TestSlidingWindowOverhead:
    def test_window_values(self):
        assert cm.sliding_window_overhead(4) == 300.0
        assert cm.sliding_window_overhead(1) == 0.0
        assert cm.sliding_window_overhead(8) == 700.0

    def test_close_to_published_number(self):
        assert abs(cm.sliding_window_overhead(4) - 298.5) < 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            cm.sliding_window_overhead(0)


class TestSymbolicConstancy:
    def test_stream_position_never_enters_macs(self):
        stack = cm.adapter_stack("retention", 64, 32, insertions=4)
        values = {cm.count_macs(stack, tokens=9) for _ in range(5)}
        assert len(values) == 1


def small_model():
    cfg = AdapterConfig(d=32, d_prime=16, kind="qrnn", k=2)
    return detector.build_model(detector.ModelConfig(d_in=32, d=32, n_blocks=1, adapter=cfg, seed=0))


class TestBenchLatency:
    def test_shape_and_positivity(self):
        res = cm.bench_latency(small_model(), n_frames=80, repetitions=2, warmup=5, window=3, seed=0)
        assert res["streaming"]["total"] > 0
        assert res["sliding"]["total"] > 0
        assert res["streaming"]["p99"] >= res["streaming"]["p50"] > 0
        assert len(res["frame_times"]) == 2
        assert len(res["frame_times"][0]) == 80

    def test_streaming_cheaper_than_sliding(self):
        res = cm.bench_latency(small_model(), n_frames=150, repetitions=2, warmup=10, window=4, seed=0)
        assert res["sliding"]["total"] > 1.5 * res["streaming"]["total"]

    def test_frame_probe_helper(self):
        res = cm.bench_latency(small_model(), n_frames=60, repetitions=2, warmup=5, window=2, seed=1)
        t = cm.frame_time_at(res, 10)
        assert t > 0
        assert t == np.median(res["probe_times"][10])
        with pytest.raises(ConfigError, match="no probe at frame 30"):
            cm.frame_time_at(res, 30)

    def test_probes_at_each_decade_below_n_frames(self):
        res = cm.bench_latency(small_model(), n_frames=150, repetitions=2, warmup=5, window=2, seed=1)
        assert list(res["probe_times"]) == [10, 100]
        for times in res["probe_times"].values():
            assert len(times) == 2 * cm._PROBE_ROUNDS and min(times) > 0

    def test_probe_restarts_the_stream_position(self):
        # every copy scores frame 100 exactly as the stream it was copied from
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(101, 32))
        scorer = detector.StreamingScorer(small_model(), rng.normal(size=32))
        for f in frames[:100]:
            scorer.push(f)
        snapshot = cm._copy_scorer(scorer)
        expected = scorer.push(frames[100])
        for _ in range(3):
            assert cm._copy_scorer(snapshot).push(frames[100]) == expected
