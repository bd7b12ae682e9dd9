import math
from dataclasses import fields, replace

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart import costmodel, detector, kernels, metrics
from streamstart.detector import (
    ModelConfig,
    StreamingScorer,
    TrainConfig,
    backward,
    build_model,
    infer_streaming,
    score_frames,
    train,
)
from streamstart.errors import ConfigError, NumericError
from streamstart.kernels import AdapterConfig

import oracles

KINDS = ("vanilla", "st_conv", "qrnn", "retention")


def tiny_model(kind, d=8, dp=4, blocks=2, seed=3, tau_sim=0.07):
    cfg = AdapterConfig(d=d, d_prime=dp, kind=kind, k=2)
    return build_model(ModelConfig(d_in=d, d=d, n_blocks=blocks, adapter=cfg, tau_sim=tau_sim, seed=seed))


def tiny_batch(seed, n=6, d=8, count=2):
    """``count`` windows of n frames: embeddings [count, n, d], labels [count, n], queries [count, d]."""
    rng = np.random.default_rng(seed)
    windows = [(rng.normal(size=(n, d)), rng.random(n) < 0.4, rng.normal(size=d)) for _ in range(count)]
    return tuple(np.stack(column) for column in zip(*windows))


def identity_model(d=8, kind="qrnn", tau_sim=0.07):
    """Fresh adapters plus zeroed frozen sublayers: the stack is the identity."""
    model = tiny_model(kind, d=d, dp=d // 2, blocks=1, tau_sim=tau_sim)
    blocks = [(a, oracles.identity_block_params(d, 2 * d)) for a, _ in model.blocks]
    return replace(model, blocks=blocks)


class TestScoreFrames:
    def test_frame_equal_to_query_scores_high(self):
        m = identity_model()
        q = np.random.default_rng(0).normal(size=8)
        p = score_frames(m, q[None, :], q).scores
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0 / 0.07)))
        assert p[0] > 0.999

    def test_orthogonal_scores_half(self):
        m = identity_model()
        q = np.zeros(8)
        q[0] = 1.0
        frame = np.zeros(8)
        frame[1] = 2.5
        assert score_frames(m, frame[None, :], q).scores[0] == pytest.approx(0.5)

    def test_scale_invariance(self):
        m = tiny_model("st_conv")
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(5, 8))
        q = rng.normal(size=8)
        base = score_frames(m, frames, q).scores
        # scaling the model input is not cosine-invariant in general (the
        # stack is nonlinear), so assert at the score head: scaling a frame
        # OUTPUT leaves its cosine unchanged
        out = detector._stack(m, frames, [None] * len(m.blocks))
        s1, _ = detector._cosine_scores(out, q)
        s2, _ = detector._cosine_scores(out * 7.5, q)
        assert s1 == pytest.approx(s2)
        assert base.shape == (5,)

    def test_positive_rescaling_leaves_score_unchanged(self):
        # through an identity stack the cosine head makes per-frame scores
        # exactly invariant to positive rescaling of the frame embedding
        m = identity_model()
        rng = np.random.default_rng(40)
        frames = rng.normal(size=(6, 8))
        q = rng.normal(size=8)
        base = score_frames(m, frames, q).scores
        for c in (0.001, 0.5, 7.0, 4096.0):
            scaled = score_frames(m, frames * c, q).scores
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_norm_scores_half_with_warning(self, caplog):
        m = identity_model()
        q = np.ones(8)
        with caplog.at_level("WARNING", logger=detector.logger.name):
            p = score_frames(m, np.zeros((1, 8)), q).scores
        assert p[0] == 0.5
        assert [r.getMessage() for r in caplog.records] == ["1 zero-norm frame output(s); scoring them as sigmoid(0)"]

    def test_fresh_checkpoints_score_like_frozen_standin(self):
        # identity-initialized adapters contribute nothing, so any adapter
        # kind at init scores exactly like the frozen stand-in path alone
        rng = np.random.default_rng(2)
        frames, q = rng.normal(size=(10, 8)), rng.normal(size=8)
        scores = [score_frames(tiny_model(kind, seed=9), frames, q).scores for kind in KINDS]
        for other in scores[1:]:
            assert np.array_equal(scores[0], other)


class TestScoreStreams:
    @pytest.mark.parametrize("kind, depthwise", [(k, False) for k in KINDS] + [("st_conv", True), ("qrnn", True)])
    def test_rows_equal_each_stream_alone(self, kind, depthwise):
        # 150 frames carry every block's stacked state across two CHUNK boundaries
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=3, depthwise=depthwise)
        m = oracles.randomize_adapters(build_model(ModelConfig(d_in=8, d=8, n_blocks=2, adapter=cfg, seed=5)),
                                       seed=6)
        rng = np.random.default_rng(7)
        frames, queries = rng.normal(size=(3, 150, 8)), rng.normal(size=(3, 8))
        stacked = detector.score_streams(m, frames, queries)
        assert stacked.shape == (3, 150)
        for s in range(3):
            assert np.array_equal(stacked[s], score_frames(m, frames[s], queries[s]).scores)

    @pytest.mark.parametrize("frames, queries", [((3, 8), (1, 8)), ((2, 5, 8), (3, 8)), ((2, 5, 8), (2, 7))])
    def test_shape_mismatch_rejected(self, frames, queries):
        with pytest.raises(ConfigError, match="need streams"):
            detector.score_streams(tiny_model("qrnn"), np.ones(frames), np.ones(queries))

    @pytest.mark.parametrize("width", [1, 7])
    def test_frame_width_other_than_d_rejected(self, width):
        # frames enter the first adapter as they are, and it checks their width
        model = tiny_model("qrnn")
        with pytest.raises(ConfigError, match="input must be"):
            detector.score_streams(model, np.ones((2, 5, width)), np.ones((2, 8)))
        with pytest.raises(ConfigError, match="input must be"):
            StreamingScorer(model, np.ones(8)).push(np.ones(width))

    @pytest.mark.parametrize("kind", KINDS)
    def test_caller_frames_left_bitwise_unchanged(self, kind):
        # the stack reads the caller's float64 array itself, so no block may write into it
        model = oracles.randomize_adapters(tiny_model(kind), seed=8)
        embeddings, labels, queries = tiny_batch(9)
        frames = embeddings.copy()
        detector.score_streams(model, frames, queries)
        scorer = StreamingScorer(model, queries[0])
        for frame in frames[0]:
            scorer.push(frame)
        backward(model, frames, labels, queries)
        assert np.array_equal(frames, embeddings) and not np.shares_memory(frames, embeddings)


class TestWeightedBce:
    def test_single_positive_ln2(self):
        lb = oracles.weighted_bce(np.array([0.5]), np.array([1.0]), cap=math.inf)
        assert lb.total == pytest.approx(math.log(2.0))
        assert lb.pos_weight == 1.0

    def test_imbalanced_batch_hand_value(self):
        lb = oracles.weighted_bce(np.full(4, 0.5), np.array([1.0, 0, 0, 0]), cap=math.inf)
        assert lb.pos_weight == 3.0
        assert lb.total == pytest.approx(1.5 * math.log(2.0))  # 1.0397
        assert lb.total == pytest.approx(1.0397, abs=1e-4)

    def test_perfect_predictions_vanish(self):
        y = np.array([1.0, 0.0, 1.0])
        lb = oracles.weighted_bce(np.array([1.0, 0.0, 1.0]), y)
        assert lb.total < 1e-5

    def test_cap_applies(self):
        y = np.zeros(100)
        y[0] = 1.0
        lb = oracles.weighted_bce(np.full(100, 0.5), y, cap=20.0)
        assert lb.pos_weight == 20.0

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 0.99, 30)
        y = (rng.random(30) < 0.3).astype(float)
        lb = oracles.weighted_bce(p, y)
        assert lb.total == pytest.approx(lb.pos_weight * lb.pos_term + lb.neg_term)

    def test_matches_logit_path(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=25) * 3
        y = (rng.random(25) < 0.5).astype(float)
        lb_p = oracles.weighted_bce(kernels.sigmoid(z), y, cap=10.0)
        lb_z, _ = detector._bce_from_logits(z, y, cap=10.0)
        assert lb_p.total == pytest.approx(lb_z.total, rel=1e-9)


class TestBackward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_difference_all_params(self, kind):
        model = oracles.randomize_adapters(tiny_model(kind), seed=11)
        batch = tiny_batch(5)
        grads, _ = backward(model, *batch)
        fd = oracles.finite_difference_grads(model, *batch, detector.DEFAULT_POS_CAP)
        worst = 0.0
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(g), np.abs(ref)), 1e-8)
            worst = max(worst, float((np.abs(g - ref) / denom).max()))
        assert worst < 1e-5

    def test_finite_difference_depthwise_qrnn(self):
        cfg = AdapterConfig(d=8, d_prime=4, kind="qrnn", k=2, depthwise=True)
        config = ModelConfig(d_in=8, d=8, n_blocks=1, adapter=cfg, seed=44)
        model = oracles.randomize_adapters(build_model(config), seed=45)
        batch = tiny_batch(46)
        grads, _ = backward(model, *batch)
        fd = oracles.finite_difference_grads(model, *batch, detector.DEFAULT_POS_CAP)
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(g), np.abs(ref)), 1e-8)
            assert (np.abs(g - ref) / denom).max() < 1e-5

    def test_zero_up_projection_blocks_down_gradient(self):
        model = tiny_model("st_conv")  # init: w_up == 0
        grads, _ = backward(model, *tiny_batch(6))
        for i in range(len(model.blocks)):
            assert not grads[f"blocks.{i}.w_down"].any()
            assert not grads[f"blocks.{i}.b_down"].any()
            assert grads[f"blocks.{i}.w_up"].any()

    def test_frozen_params_absent(self):
        model = tiny_model("qrnn")
        grads, _ = backward(model, *tiny_batch(7))
        assert not any("w_sp" in k or "w_in" in k or ".w1" in k or ".w2" in k for k in grads)

    def test_nonfinite_gradient_named(self):
        model = oracles.randomize_adapters(tiny_model("vanilla"), seed=1)
        bad = replace(model.blocks[0][0], w_up=np.full((4, 8), np.nan))
        model = replace(model, blocks=[(bad, model.blocks[0][1])] + model.blocks[1:])
        with pytest.raises(NumericError, match="blocks.0"):
            backward(model, *tiny_batch(8))


class TestBatchAxis:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_labels_batch_is_mean_of_windows(self, kind):
        # with one label vector the positive weight is the same for the batch
        # and for each window, so the batch loss and gradients are the mean of
        # the single-window ones; anything mixing windows breaks the equality
        model = oracles.randomize_adapters(tiny_model(kind), seed=50)
        rng = np.random.default_rng(51)
        windows = [(rng.normal(size=(7, 8)), rng.normal(size=8)) for _ in range(4)]
        embeddings, queries = (np.stack(column) for column in zip(*windows))
        labels = np.tile(np.array([0, 0, 1, 1, 1, 0, 0], dtype=bool), (4, 1))
        grads, lb = backward(model, embeddings, labels, queries)
        singles = [backward(model, embeddings[i : i + 1], labels[i : i + 1], queries[i : i + 1]) for i in range(4)]
        assert lb.total == pytest.approx(np.mean([l.total for _, l in singles]), rel=1e-12)
        for name, g in grads.items():
            mean = np.mean([g1[name] for g1, _ in singles], axis=0)
            assert np.abs(g - mean).max() <= 1e-12 * max(1.0, np.abs(mean).max()), name

    @pytest.mark.parametrize("shapes", [
        ((2, 6, 8), (2, 5), (2, 8)),  # labels shorter than the windows
        ((2, 6, 8), (2, 6), (3, 8)),  # one query too many
        ((2, 6, 8), (2, 6), (2, 7)),  # queries narrower than d
        ((2, 6, 7), (2, 6), (2, 8)),  # frames narrower than d_in
        ((6, 8), (6,), (8,)),         # one window without its batch axis
        ((0, 6, 8), (0, 6), (0, 8)),  # no window
    ], ids=["labels", "queries", "query_width", "frame_width", "no_batch_axis", "empty"])
    @pytest.mark.parametrize("call", ["backward", "train"])
    def test_shape_mismatch_rejected(self, shapes, call):
        model = tiny_model("qrnn")
        arrays = [np.ones(shape) for shape in shapes]
        with pytest.raises(ConfigError, match="got shapes") as err:
            if call == "backward":
                backward(model, *arrays)
            else:
                train(model, *arrays, TrainConfig(steps=0))
        message = str(err.value)
        assert all(str(shape) in message for shape in shapes) and "\n" not in message


class TestNonFiniteInput:
    def test_qrnn_nan_frame_scored(self):
        model = oracles.randomize_adapters(tiny_model("qrnn"), seed=54)
        frames = np.random.default_rng(55).normal(size=(6, 8))
        frames[3, 2] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            score_frames(model, frames, np.ones(8))

    def test_qrnn_nan_frame_in_backward(self):
        model = oracles.randomize_adapters(tiny_model("qrnn"), seed=56)
        embeddings, labels, queries = tiny_batch(57)
        embeddings[1, 2, 0] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            backward(model, embeddings, labels, queries)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the overflowing squares
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "overflowing"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_query_without_finite_norm_rejected(self, kind, bad):
        model = tiny_model(kind, blocks=1)
        query = np.ones(8)
        query[5] = bad
        with pytest.raises(ConfigError, match="query embedding must have a finite, positive norm"):
            StreamingScorer(model, query)
        with pytest.raises(ConfigError, match="query embedding must have a finite, positive norm"):
            detector.score_streams(model, np.ones((2, 3, 8)), np.stack([np.ones(8), query]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the inf values
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_frame_push_raises(self, kind, bad):
        # qrnn's fo_pool sees it first; the other kinds reach the head with a NaN logit
        model = oracles.randomize_adapters(tiny_model(kind, blocks=1), seed=58)
        scorer = StreamingScorer(model, np.ones(8))
        frames = np.random.default_rng(59).normal(size=(3, 8))
        frames[2, 4] = bad
        for frame in frames[:2]:
            assert math.isfinite(scorer.push(frame))
        with pytest.raises(NumericError, match="not finite"):
            scorer.push(frames[2])


class TestTrain:
    def test_zero_steps_identical(self):
        model = tiny_model("qrnn")
        trained, history = train(model, *tiny_batch(9), TrainConfig(steps=0))
        assert trained is model
        assert history == []

    def test_deterministic_given_seed(self):
        model = tiny_model("st_conv")
        config = TrainConfig(learning_rate=1e-3, steps=5, batch_size=2, seed=5)
        t1, h1 = train(model, *tiny_batch(10), config)
        t2, h2 = train(model, *tiny_batch(10), config)
        assert h1 == h2
        for (a1, _), (a2, _) in zip(t1.blocks, t2.blocks):
            for name, arr in a1.arrays().items():
                assert np.array_equal(arr, getattr(a2, name))

    def test_only_adapters_change(self):
        model = tiny_model("qrnn")
        trained, _ = train(model, *tiny_batch(11), TrainConfig(learning_rate=1e-2, steps=3))
        for (a0, b0), (a1, b1) in zip(model.blocks, trained.blocks):
            assert b0 is b1

    def test_divergence_aborts_with_history(self, monkeypatch):
        # the cosine head keeps the loss bounded near w_pos * |log sigmoid(-1/tau)|,
        # so trip the documented limit directly to exercise the abort path
        monkeypatch.setattr(detector, "DIVERGENCE_LIMIT", 1e-6)
        model = oracles.randomize_adapters(tiny_model("vanilla"), seed=2)
        config = TrainConfig(learning_rate=1e-3, steps=50, batch_size=2, seed=0)
        with pytest.raises(NumericError, match="diverged") as err:
            train(model, *tiny_batch(12), config)
        assert hasattr(err.value, "history") and len(err.value.history) >= 1

    def test_loss_decreases_on_separable_task(self):
        rng = np.random.default_rng(13)
        d = 8
        q = rng.normal(size=d)
        q /= np.linalg.norm(q)
        embeddings, labels = [], []
        for _ in range(30):
            labels.append(rng.random(10) < 0.4)
            noise = rng.normal(size=(10, d)) * 0.4
            embeddings.append(np.where(labels[-1][:, None], q[None, :] + noise, noise))
        model = tiny_model("qrnn", tau_sim=0.25)
        trained, hist = train(
            model, np.stack(embeddings), np.stack(labels), np.tile(q, (30, 1)),
            TrainConfig(learning_rate=5e-3, steps=200, batch_size=8, seed=0),
        )
        first = np.mean([h.total for h in hist[:20]])
        last = np.mean([h.total for h in hist[-20:]])
        assert last < first

    def test_qrnn_beats_vanilla_on_order_sensitive_task(self):
        # event = pattern A then pattern B (only B labeled); each stream also
        # contains a B-run NOT preceded by A. A pointwise adapter cannot
        # tell the two apart; a recurrent one can.
        rows = make_order_corpus(90, seed=5)
        train_rows, val_rows = rows[:60], rows[60:]
        embeddings = np.stack([f for f, _, _ in train_rows])
        labels = np.stack([(np.arange(40) >= a.start_sec) & (np.arange(40) <= a.end_sec) for _, _, a in train_rows])
        queries = np.stack([q for _, q, _ in train_rows])
        results = {}
        for kind in ("qrnn", "vanilla"):
            cfg = AdapterConfig(d=12, d_prime=12, kind=kind, k=2)
            model = build_model(ModelConfig(d_in=12, d=12, n_blocks=2, adapter=cfg, tau_sim=0.25, seed=0))
            config = TrainConfig(learning_rate=1e-2, steps=200, batch_size=16, seed=0, weight_decay=1e-3)
            trained, _ = train(model, embeddings, labels, queries, config)
            series, anns = [], []
            for frames, q, a in val_rows:
                series.append(
                    score_frames(trained, frames, q, video_uid=a.video_uid,
                                 query_id=metrics.default_query_id(a), fps=1.0)
                )
                anns.append(a)
            _, rep = metrics.sweep_thresholds(series, anns, metrics.ToleranceWindow(5, 10), n=20)
            results[kind] = rep.sr[1]
        assert results["qrnn"] > results["vanilla"]
        assert results["qrnn"] >= 80.0


def make_order_corpus(n_streams, seed, dim=12, n_frames=40, noise=0.1, n_pairs=6):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    rows = []
    for i in range(n_streams):
        a_dir, b_dir = pairs[i % n_pairs]
        frames = rng.normal(size=(n_frames, dim)) * (noise + 1 / np.sqrt(dim))
        td = int(rng.integers(4, 13))  # reversed/bare pattern: B with no A before it
        for j in range(4):
            frames[td + j] = b_dir + noise * rng.normal(size=dim)
        t0 = int(rng.integers(22, 35))
        for j in range(1, 4):
            frames[t0 - j] = a_dir + noise * rng.normal(size=dim)
        for j in range(4):
            frames[t0 + j] = b_dir + noise * rng.normal(size=dim)
        annot = ann.EventAnnotation(
            split="train", source="synthetic", video_uid=f"ord-{i:04d}", clip_uid=f"ord-{i:04d}",
            annotator_uid="synth", ann_idx=0, query=f"pattern pair {i % n_pairs}", response="r",
            start_sec=float(t0), end_sec=float(t0 + 3), video_fps=1.0, video_length=float(n_frames),
        )
        rows.append((frames, b_dir.copy(), annot))
    return rows


class TestStreamingInference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_streaming_equals_batch(self, kind):
        model = oracles.randomize_adapters(tiny_model(kind), seed=21)
        rng = np.random.default_rng(22)
        frames = rng.normal(size=(60, 8))
        q = rng.normal(size=8)
        batch = score_frames(model, frames, q).scores
        streamed = infer_streaming(model, frames, q).scores
        assert np.abs(batch - streamed).max() <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_push_leaves_earlier_states_unchanged(self, kind):
        # copies of a scorer share state objects, so a push must replace them, never write into them
        model = oracles.randomize_adapters(tiny_model(kind), seed=42)
        rng = np.random.default_rng(43)
        frames, q = rng.normal(size=(5, 8)), rng.normal(size=8)
        scorer = StreamingScorer(model, q)
        for frame in frames[:3]:
            scorer.push(frame)
        earlier = list(scorer.states)
        saved = [{f.name: np.array(getattr(st, f.name)) for f in fields(st)} for st in earlier]
        weights = [a.copy() for adapter, _ in model.blocks for a in adapter.arrays().values()]
        pushed = frames[3].copy()
        scorer.push(pushed)
        scorer.push(frames[4])
        for st, arrays in zip(earlier, saved):
            for name, arr in arrays.items():
                assert np.asarray(getattr(st, name)).tobytes() == arr.tobytes()
        assert all(np.array_equal(a, b) for a, b in
                   zip(weights, [a for adapter, _ in model.blocks for a in adapter.arrays().values()]))
        assert np.array_equal(pushed, frames[3])

    def test_push_head_matches_batch_head_at_saturation_and_zero_norm(self):
        # through an identity stack the cosine is exact: +-q give s/tau = +-50
        model = identity_model(tau_sim=0.02)
        q = np.random.default_rng(44).normal(size=8)
        frames = np.stack([q, -q, np.zeros(8), 3.0 * q, -0.5 * q, np.zeros(8)])
        batch = score_frames(model, frames, q).scores
        pushed = infer_streaming(model, frames, q).scores
        assert np.abs(pushed - batch).max() <= 1e-10
        assert np.all(np.abs(pushed - batch) <= 1e-12 * batch)
        assert pushed[2] == pushed[5] == 0.5 and pushed[1] < 1e-21 and pushed[0] == 1.0

    def test_first_frame_equals_length_one_batch(self):
        model = oracles.randomize_adapters(tiny_model("retention"), seed=23)
        rng = np.random.default_rng(24)
        frame = rng.normal(size=8)
        q = rng.normal(size=8)
        scorer = StreamingScorer(model, q)
        assert scorer.push(frame) == pytest.approx(
            score_frames(model, frame[None, :], q).scores[0], abs=1e-12
        )

    def test_interleaved_streams_are_isolated(self):
        model = oracles.randomize_adapters(tiny_model("qrnn"), seed=25)
        rng = np.random.default_rng(26)
        fa = rng.normal(size=(10, 8))
        fb = rng.normal(size=(10, 8))
        q = rng.normal(size=8)
        sep_a = infer_streaming(model, fa, q).scores
        sep_b = infer_streaming(model, fb, q).scores
        sa, sb = StreamingScorer(model, q), StreamingScorer(model, q)
        mixed_a, mixed_b = [], []
        for i in range(10):
            mixed_a.append(sa.push(fa[i]))
            mixed_b.append(sb.push(fb[i]))
        assert np.array_equal(sep_a, np.array(mixed_a))
        assert np.array_equal(sep_b, np.array(mixed_b))

    def test_never_reads_ahead(self):
        model = oracles.randomize_adapters(tiny_model("st_conv"), seed=27)
        rng = np.random.default_rng(28)
        frames = rng.normal(size=(15, 8))
        q = rng.normal(size=8)
        produced = []

        def stream():
            for i, frame in enumerate(frames):
                # every already-delivered frame must already have a score
                assert len(produced) == i
                yield frame

        scorer = StreamingScorer(model, q)
        for frame in stream():
            produced.append(scorer.push(frame))
        assert len(produced) == 15


@pytest.mark.parametrize("field, value", [("n_blocks", 1.5), ("seed", "x"), ("d", True), ("d_prime", 4.0),
                                          ("k", 2.5)],
                         ids=["fractional_n_blocks", "string_seed", "bool_d", "float_d_prime", "fractional_k"])
def test_config_integer_field_rejects_a_non_integer(field, value):
    # a library caller gets the ConfigError a checkpoint's config gets, not a TypeError from build_model
    adapter = dict(d=8, d_prime=4, kind="qrnn", k=2)
    model = dict(d_in=8, d=8, n_blocks=1, seed=0)
    (adapter if field in adapter else model)[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
        ModelConfig(adapter=AdapterConfig(**adapter), **model)


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(d_in=8, d=8, n_blocks=1, adapter=AdapterConfig(d=8, d_prime=4, kind="qrnn"), seed=-1),
    lambda: TrainConfig(seed=-1),
    lambda: ann.make_corpus_specs(n_streams=1, seed=-1),
    lambda: costmodel.bench_latency(build_model(ModelConfig(
        d_in=8, d=8, n_blocks=1, adapter=AdapterConfig(d=8, d_prime=4, kind="qrnn"))), n_frames=20, seed=-1),
], ids=["model_config", "train_config", "make_corpus_specs", "bench_latency"])
def test_negative_seed_is_config_error(make):
    # numpy's seeding would raise a ValueError; a library caller gets the CLI's ConfigError
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        make()


def test_config_integer_fields_take_numpy_integers():
    adapter = AdapterConfig(d=np.int64(8), d_prime=np.int32(4), kind="qrnn", k=np.int64(2))
    assert build_model(ModelConfig(d_in=np.int64(8), d=8, n_blocks=np.int64(1), adapter=adapter)).config.n_blocks == 1


class TestModelCheckpoint:
    def test_round_trip_preserves_scores(self, tmp_path):
        model = oracles.randomize_adapters(tiny_model("qrnn"), seed=30, scale=0.2)
        path = tmp_path / "model.sdqk"
        detector.save_model(path, model)
        loaded = detector.load_model(path)
        rng = np.random.default_rng(31)
        frames, q = rng.normal(size=(12, 8)), rng.normal(size=8)
        loaded2 = detector.load_model(path)
        s1 = score_frames(loaded, frames, q).scores
        s2 = score_frames(loaded2, frames, q).scores
        assert np.array_equal(s1, s2)
        # float32 storage: scores agree with the double-precision model to f32 accuracy
        s0 = score_frames(model, frames, q).scores
        assert np.abs(s0 - s1).max() < 1e-5

    def test_loaded_config_matches(self, tmp_path):
        model = tiny_model("retention", d=8, dp=4)
        detector.save_model(tmp_path / "m.sdqk", model)
        loaded = detector.load_model(tmp_path / "m.sdqk")
        assert loaded.config.adapter.kind == "retention"
        assert loaded.config.d == 8 and loaded.config.adapter.d_prime == 4

    @pytest.mark.parametrize("value", [1e39, -4e38, np.inf, np.nan])
    def test_array_not_finite_in_float32_is_not_written(self, tmp_path, value):
        model = tiny_model("qrnn")
        w_sf = model.blocks[1][0].w_sf.copy()
        w_sf.flat[3] = value
        model = detector.with_arrays(model, {"blocks.1.w_sf": w_sf, "blocks.1.w_sp": np.full((8, 8), 1e39)})
        out = tmp_path / "run"
        with pytest.raises(NumericError, match="^array blocks.1.w_sf is not finite as the float32"):
            detector.save_model(out / "m.sdqk", model)
        assert not out.exists()

    def test_identity_init_survives_checkpoint(self, tmp_path):
        model = tiny_model("st_conv")
        detector.save_model(tmp_path / "m.sdqk", model)
        loaded = detector.load_model(tmp_path / "m.sdqk")
        for adapter, _ in loaded.blocks:
            assert not adapter.w_up.any() and not adapter.b_up.any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_array_order_is_backwards_gradient_order(self, tmp_path, kind):
        # training and the checkpoint name the trainable arrays alike
        model = tiny_model(kind)
        detector.save_model(tmp_path / "m.sdqk", model)
        config, arrays = detector.read_checkpoint(tmp_path / "m.sdqk")
        adapter_names = {f.name for f in fields(kernels.AdapterParams)}
        trained = [name for name in config["array_order"] if name.rsplit(".", 1)[-1] in adapter_names]
        grads, _ = backward(model, *tiny_batch(12))
        assert trained == list(grads)
        assert len(config["array_order"]) == len(arrays)


class _ReadLog(dict):
    """A tape that records which keys are read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestTapeConsistency:
    @pytest.mark.parametrize("kind", KINDS)
    def test_taped_forward_matches_kernels_block(self, kind):
        model = oracles.randomize_adapters(tiny_model(kind, blocks=1), seed=33)
        x = np.random.default_rng(34).normal(size=(3, 9, 8))
        adapter, block = model.blocks[0]
        with_tape, _ = kernels.block_forward(x, adapter, block, tape={})
        without, _ = kernels.block_forward(x, adapter, block)
        assert np.array_equal(with_tape, without)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tape_holds_every_key_backward_reads(self, kind):
        model = oracles.randomize_adapters(tiny_model(kind, blocks=1), seed=35)
        rng = np.random.default_rng(36)
        x = rng.normal(size=(3, 9, 8))
        adapter, block = model.blocks[0]
        tape = {}
        out, _ = kernels.block_forward(x, adapter, block, tape=tape)
        log = _ReadLog(tape)
        kernels.block_vjp(rng.normal(size=out.shape), adapter, block, log)
        core_keys = {"vanilla": {"down_erf"}, "qrnn": {"s", "f"},
                     "retention": {"q", "k", "v", "decay", "scores", "pos"}}
        assert log.read == {"x", "down", "core", "h1_pre", "h1_erf"} | core_keys.get(kind, set())
