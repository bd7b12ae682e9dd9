"""Seeded property tests of the stateful paths: any chunking of a stream
reproduces batch mode, and frame-by-frame scoring reproduces batch scoring."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamstart import detector, kernels

import oracles

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
def streams(draw, d):
    """``[T, d]`` frames and the cut points of a chunking. T <= 200 crosses
    score_frames' chunks of C = 64 frames, whose carried state must match
    one pass; half the draws end on either side of a chunk boundary."""
    c = kernels.CHUNK
    n = draw(st.integers(1, 200) | st.sampled_from([m * c + e for m in (1, 2, 3) for e in (0, 1)]))
    frames = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
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
def test_infer_streaming_equals_score_frames(data):
    model = data.draw(models())
    frames, _ = data.draw(streams(model.config.d))
    query = np.random.default_rng(data.draw(st.integers(0, 2**16))).normal(size=model.config.d)
    streamed = detector.infer_streaming(model, frames, query).scores
    batch = detector.score_frames(model, frames, query).scores
    assert np.abs(streamed - batch).max() <= 1e-10
