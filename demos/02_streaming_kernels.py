#!/usr/bin/env python3
# The temporal-aggregation kernels and their streaming contract.
#
# Each adapter processes sequences [..., n_t, d] and carries a small
# fixed-size state per sequence, so feeding a stream chunk by chunk
# reproduces the single-pass output exactly: no sliding-window
# recomputation, constant work per frame. Leading axes stack independent
# streams, and a call without a state starts them all fresh.

from dataclasses import replace

import numpy as np

from streamstart import kernels
from streamstart.kernels import (
    AdapterConfig, adapter_forward, fo_pool, fresh_state, init_params,
    retention_forward, retention_recurrent,
)

rng = np.random.default_rng(7)

# -- identity at initialization -------------------------------------------------
# Up-projections start at exactly zero: a fresh adapter is a no-op, so a
# frozen backbone keeps its pretrained behavior at training step 0.

for kind in ("vanilla", "st_conv", "qrnn", "retention"):
    cfg = AdapterConfig(d=16, d_prime=8, kind=kind)
    x = rng.normal(size=(12, 16))
    y, _ = adapter_forward(x, init_params(cfg, seed=0))
    print(f"{kind:9s} adapter at init is identity: {np.array_equal(x, y)}")

# -- gated pooling ---------------------------------------------------------------
# fo-pooling h_t = f*h + (1-f)*s with a constant gate is an exponential
# moving average; the gate is what the qrnn kind learns per channel.

s = np.ones((5, 1))
h, last = fo_pool(s, np.full((5, 1), 0.5), np.zeros(1))
print("\nfo_pool with f=0.5, s=1:", h.ravel(), "-> converges to 1")

# -- streaming == batch ------------------------------------------------------------

cfg = AdapterConfig(d=16, d_prime=8, kind="qrnn", k=3)
params = init_params(cfg, seed=1)
params = replace(params, w_up=rng.normal(size=(8, 16)) * 0.3)  # make the core visible
x = rng.normal(size=(32, 16))

batch, _ = adapter_forward(x, params)
state = fresh_state(cfg)
chunks = []
for lo in range(0, 32, 5):
    y, state = adapter_forward(x[lo : lo + 5], params, state)
    chunks.append(y)
streamed = np.vstack(chunks)
print(f"\nqrnn 5-frame chunks vs one pass: max |diff| = {np.abs(batch - streamed).max():.2e}")

# three streams stacked on a leading axis share every call, one state each
xs = rng.normal(size=(3, 32, 16))
state, chunks = fresh_state(cfg, (3,)), []
for lo in range(0, 32, 5):
    y, state = adapter_forward(xs[:, lo : lo + 5], params, state)
    chunks.append(y)
alone = np.stack([adapter_forward(xs[i], params)[0] for i in range(3)])
print(f"3 stacked streams vs each alone: max |diff| = {np.abs(np.concatenate(chunks, axis=1) - alone).max():.2e}")

# -- retention: one chunkwise kernel ------------------------------------------------
# Inside a chunk it is a masked, decayed attention matrix; across chunks it
# carries a d'xd' decayed summary. A whole 48-frame chunk and 48 one-frame
# chunks (the recurrent step) give the same outputs.

cfg = AdapterConfig(d=8, d_prime=8, kind="retention")
params = init_params(cfg, seed=2)
params = replace(params, w_qkv=rng.normal(size=(8, 24)) * 0.4)  # q, k and v projections stacked
z = rng.normal(size=(48, 8))
par, _ = retention_forward(z, params, fresh_state(cfg))
state, rec = None, []
for t in range(48):
    out, state = retention_recurrent(z[t], params, state=state)
    rec.append(out)
print(f"retention parallel vs recurrent: max |diff| = {np.abs(par - np.vstack(rec)).max():.2e}")

# -- causality is bitwise -----------------------------------------------------------
# Left-padded convolutions and causal decay masks never read the future:
# perturbing later frames leaves earlier outputs bit-identical.

cfg = AdapterConfig(d=16, d_prime=8, kind="st_conv", k=2)
params = replace(init_params(cfg, 3), w_up=rng.normal(size=(8, 16)) * 0.3)
y0, _ = adapter_forward(x, params)
x2 = x.copy()
x2[20:] += 100.0
y1, _ = adapter_forward(x2, params)
print(f"outputs before the perturbed frame identical: {np.array_equal(y0[:20], y1[:20])}")

# -- receptive fields ----------------------------------------------------------------
# Each width-k causal conv reaches k - 1 frames further back than the layer below it.

for m, k in ((1, 3), (2, 3), (12, 2)):
    print(f"{m:2d} stacked conv layers, kernel {k}: receptive field {k + (m - 1) * (k - 1)} frames")

# -- constant per-frame cost ----------------------------------------------------------
# Instrument the op counter over a stream: the work of step 200 equals the
# work of step 2, independent of how much history the state summarizes.

cfg = AdapterConfig(d=16, d_prime=8, kind="retention")
params = init_params(cfg, 4)
state = fresh_state(cfg)
costs = []
for i in range(200):
    counter = kernels.OpCounter()
    kernels.set_op_counter(counter)
    _, state = adapter_forward(rng.normal(size=(1, 16)), params, state)
    kernels.set_op_counter(None)
    costs.append(counter.total)
print(f"\nper-step MACs at steps 2/20/200: {costs[1]}/{costs[19]}/{costs[199]}")
