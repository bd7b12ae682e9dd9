"""Seeded property tests of the one stateful mode: any chunking of a stream
reproduces a call from a fresh state (batch mode), streams stacked on a
leading axis reproduce each stream pushed alone, frame-by-frame scoring
reproduces chunked scoring, and streams scored together reproduce each
stream scored alone bitwise. The blocked evaluator reproduces the brute-force
one at any block budget, and the threshold sweep reproduces evaluating every
candidate on its own."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamstart import detector, kernels, metrics

import oracles
from test_metrics import BLOCK_BUDGETS

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def models(draw):
    """A detector of 1-3 blocks with randomized adapters, any kind, k and bank layout."""
    kind = draw(st.sampled_from(kernels.KINDS))
    d = draw(st.integers(2, 10))
    cfg = kernels.AdapterConfig(
        d=d, d_prime=draw(st.integers(1, d)), kind=kind, k=draw(st.integers(1, 3)),
        depthwise=draw(st.booleans()) if kind in ("st_conv", "qrnn") else False,
    )
    config = detector.ModelConfig(d_in=d, d=d, n_blocks=draw(st.integers(1, 3)), adapter=cfg,
                                  seed=draw(st.integers(0, 2**16)))
    return oracles.randomize_adapters(detector.build_model(config), seed=draw(st.integers(0, 2**16)))


@st.composite
def streams(draw, d, lead=()):
    """``[*lead, T, d]`` frames and the cut points of a chunking. T <= 200
    crosses score_streams' chunks of C = 64 frames, whose carried state must
    match one pass; half the draws end on either side of a chunk boundary."""
    c = kernels.CHUNK
    n = draw(st.integers(1, 200) | st.sampled_from([m * c + e for m in (1, 2, 3) for e in (0, 1)]))
    frames = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(*lead, n, d))
    cuts = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=6)) if n > 1 else []
    return frames, sorted(set(cuts))


@SETTINGS
@given(st.data())
def test_chunked_streaming_equals_batch(data):
    model = data.draw(models())
    adapter = model.blocks[0][0]
    x, cuts = data.draw(streams(model.config.d))
    batch, _ = kernels.adapter_forward(x, adapter)
    state = kernels.fresh_state(adapter.config)
    chunks = []
    for chunk in np.split(x, cuts):
        y, state = kernels.adapter_forward(chunk, adapter, state)
        chunks.append(y)
    assert np.abs(np.concatenate(chunks) - batch).max() <= 1e-10


@SETTINGS
@given(st.data())
def test_stacked_streams_equal_per_stream_push(data):
    model = data.draw(models())
    adapter = model.blocks[0][0]
    n_streams = data.draw(st.integers(1, 3))
    x, cuts = data.draw(streams(model.config.d, lead=(n_streams,)))
    state = kernels.fresh_state(adapter.config, (n_streams,))
    chunks = []
    for chunk in np.split(x, cuts, axis=-2):
        y, state = kernels.adapter_forward(chunk, adapter, state)
        chunks.append(y)
    stacked = np.concatenate(chunks, axis=-2)
    for s in range(n_streams):
        pushed, one = [], kernels.fresh_state(adapter.config)
        for t in range(x.shape[-2]):
            y, one = kernels.adapter_forward(x[s, t : t + 1], adapter, one)
            pushed.append(y)
        assert np.abs(stacked[s] - np.concatenate(pushed)).max() <= 1e-10


@SETTINGS
@given(st.data())
def test_infer_streaming_equals_score_frames(data):
    model = data.draw(models())
    frames, _ = data.draw(streams(model.config.d))
    query = np.random.default_rng(data.draw(st.integers(0, 2**16))).normal(size=model.config.d)
    streamed = detector.infer_streaming(model, frames, query).scores
    batch = detector.score_frames(model, frames, query).scores
    assert np.abs(streamed - batch).max() <= 1e-10


@SETTINGS
@given(st.data())
def test_score_streams_equal_per_stream_score_frames(data):
    model = data.draw(models())
    n_streams = data.draw(st.integers(1, 4))
    c = kernels.CHUNK
    n = data.draw(st.integers(1, 150) | st.sampled_from([c - 1, c, c + 1, 2 * c, 2 * c + 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frames, queries = rng.normal(size=(n_streams, n, model.config.d)), rng.normal(size=(n_streams, model.config.d))
    stacked = detector.score_streams(model, frames, queries)
    for s in range(n_streams):
        assert np.array_equal(stacked[s], detector.score_frames(model, frames[s], queries[s]).scores)


SCORE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)  # scores and thresholds, so thresholds land exactly on scores


@st.composite
def queries(draw):
    """Score series of 1-200 frames at mixed fps, and an annotation for each.
    Half the lengths are at most 5, so that a block pads short series that
    have fewer predictions than k next to longer ones."""
    series, anns = [], []
    for i in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 200) | st.integers(1, 5))
        fps = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        scores = draw(st.lists(st.sampled_from(SCORE_LEVELS), min_size=n, max_size=n))
        series.append(metrics.ScoreSeries(f"v{i}", "a-0", fps, np.array(scores)))
        anns.append(SimpleNamespace(video_uid=f"v{i}", annotator_uid="a", ann_idx=0,
                                    start_sec=draw(st.floats(0.0, n / fps))))
    return series, anns


@SETTINGS
@given(queries(), st.sets(st.integers(1, 5), min_size=1), st.sampled_from([1, 300, 2**18]))
def test_blocked_evaluation_equals_brute_force(data, ks, budget):
    series, anns = data
    ks = sorted(ks)
    window = metrics.ToleranceWindow(5, 10)
    for mode in metrics.MODES:
        for threshold in SCORE_LEVELS:
            with mock.patch.object(metrics, "_BLOCK", budget):
                rep = metrics.evaluate_dataset(series, anns, ks, window, mode, threshold)
            sr, smd = oracles.brute_evaluate(series, anns, ks, 5, 10, mode, threshold,
                                             metrics.default_query_id)
            assert (rep.sr, rep.smd) == (sr, smd)


SWEEP_FPS = (0.5, 1.0, 2.5, 29.97, 30000 / 1001)
# lengths around 16 and its multiples, from one frame up
EDGE_LENGTHS = (1, 15, 16, 17, 33, 63)


@st.composite
def sweep_queries(draw):
    """Score series of 1-63 frames at mixed, mostly non-integer fps, and an annotation
    for each. Lengths are drawn from EDGE_LENGTHS as well, so a block mixes lengths and
    pads its rows. Scores are SCORE_LEVELS, so a grid of 2, 3, 5 or 9 candidates
    between two levels puts candidates exactly on scores. A series
    may be constant, hold only the lowest level, so it crosses no higher candidate, put
    its maximum at frame 0, or climb in plateaus that repeat each maximum. Some starts
    put a frame exactly on a window edge, and a series without annotation, which the sweep
    ignores, may hold a score outside the paired ones' range."""
    series, anns = [], []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 60) | st.integers(1, 4) | st.sampled_from(EDGE_LENGTHS))
        fps = draw(st.sampled_from(SWEEP_FPS))
        shape = draw(st.sampled_from(["levels", "constant", "lowest", "peak_first", "plateaus"]))
        if shape in ("levels", "peak_first", "plateaus"):
            scores = draw(st.lists(st.sampled_from(SCORE_LEVELS), min_size=n, max_size=n))
            if shape == "peak_first":
                scores[0] = max(scores)
            elif shape == "plateaus":
                scores.sort()
        else:
            scores = [SCORE_LEVELS[0] if shape == "lowest" else draw(st.sampled_from(SCORE_LEVELS))] * n
        start = draw(st.floats(0.0, n / fps) | st.builds(lambda f, edge: f / fps + edge,
                                                         st.integers(0, n - 1), st.sampled_from([-2.0, 1.0])))
        series.append(metrics.ScoreSeries(f"v{i}", "a-0", fps, np.array(scores)))
        anns.append(SimpleNamespace(video_uid=f"v{i}", annotator_uid="a", ann_idx=0, start_sec=start))
    if draw(st.booleans()):
        series.append(metrics.ScoreSeries("unpaired", "a-0", 1.0, np.array([draw(st.sampled_from(SCORE_LEVELS))])))
    return series, anns


@SETTINGS
@given(sweep_queries(), st.sampled_from([2, 3, 5, 9, 20]))
def test_sweep_equals_exhaustive_sweep(data, n):
    series, anns = data
    window = metrics.ToleranceWindow(1.0, 2.0)
    for mode in metrics.MODES:
        for objective_k in (1, 2, 3):
            want = oracles.exhaustive_sweep(series, anns, window, n, objective_k, [1, 2], mode)
            for budget in BLOCK_BUDGETS:
                with mock.patch.object(metrics, "_BLOCK", budget):
                    tau, rep = metrics.sweep_thresholds(series, anns, window, n, objective_k, [1, 2], mode)
                assert (tau, rep) == want
