#!/usr/bin/env python3
# Train a streaming detector on a synthetic desk-scale corpus.
#
# Events are sustained runs of a query-aligned direction inside noise, with
# isolated one-frame distractor flashes of the same direction outside the
# event. A single-frame detector fires on the flashes; a temporal adapter
# learns to require persistence. Runs in well under a minute on a laptop.

import numpy as np

from streamstart import annotations as ann
from streamstart import detector, metrics
from streamstart.kernels import AdapterConfig

DIM, N_TRAIN, N_VAL = 16, 120, 40

specs = ann.make_corpus_specs(N_TRAIN + N_VAL, seed=7, dim=DIM)
corpus = []
for i, spec in enumerate(specs):
    frames, query, a = ann.gen_synthetic(spec)
    corpus.append((frames, query, a, "train" if i < N_TRAIN else "val"))

# one 60-frame window per training stream, stacked into the training set
train_rows = [(frames, query, a) for frames, query, a, split in corpus if split == "train"]
windows = [ann.sample_windows(a, frames, w_s=60, fps=1.0, seed=a.ann_idx + hash(a.video_uid) % 10_000)
           for frames, _, a in train_rows]
embeddings = np.stack([window for window, _ in windows])  # [N, 60, DIM]
labels = np.stack([labels for _, labels in windows])      # [N, 60]
queries = np.stack([query for _, query, _ in train_rows])  # [N, DIM]

config = detector.ModelConfig(
    d_in=DIM, d=DIM, n_blocks=2,
    adapter=AdapterConfig(d=DIM, d_prime=DIM, kind="qrnn", k=2),
    tau_sim=0.25, seed=0,
)
model = detector.build_model(config)
train_config = detector.TrainConfig(learning_rate=1e-2, steps=100,
                                    batch_size=32, seed=0, weight_decay=1e-3)
trained, history = detector.train(model, embeddings, labels, queries, train_config)
print(f"loss: {history[0].total:.3f} -> {history[-1].total:.3f} over {len(history)} steps "
      f"(positive weight ~{history[-1].pos_weight:.1f})")


def evaluate(m):
    # the val streams share one length, so one call scores them all together
    val = [(frames, query, a) for frames, query, a, split in corpus if split == "val"]
    scores = detector.score_streams(m, np.stack([frames for frames, _, _ in val]),
                                    np.stack([query for _, query, _ in val]))
    anns = [a for _, _, a in val]
    series = [metrics.ScoreSeries(a.video_uid, metrics.default_query_id(a), 1.0, p)
              for a, p in zip(anns, scores)]
    return metrics.sweep_thresholds(series, anns, metrics.ToleranceWindow(5, 10),
                                    n=20, objective_k=1)


for name, m in (("untrained", model), ("trained", trained)):
    tau, report = evaluate(m)
    print(f"{name:9s}: SR@1 = {report.sr[1]:5.1f}%  SMD@1 = {report.smd[1]:5.2f}s  (tau = {tau:.3f})")

# Streaming inference: one score per arriving frame, identical to batch.
frames, query, a, _ = corpus[-1]
scorer = detector.StreamingScorer(trained, query)
streamed = np.array([scorer.push(f) for f in frames])
batch = detector.score_frames(trained, frames, query).scores
print(f"\nstreaming vs batch scoring: max |diff| = {np.abs(streamed - batch).max():.2e}")
print(f"event at [{a.start_sec:.0f}, {a.end_sec:.0f}]s; "
      f"peak score at t = {int(np.argmax(streamed))}s")
