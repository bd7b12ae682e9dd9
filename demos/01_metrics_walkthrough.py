#!/usr/bin/env python3
# Streaming Recall and Streaming Minimum Distance, step by step.
#
# A streaming detector emits event-start predictions as frames arrive. A
# prediction counts if it falls inside an asymmetric tolerance window around
# the annotated start: a little early is fine (anticipation), later is fine
# up to a budget (latency). Only the FIRST k predictions count, so crying
# wolf early exhausts the budget.

import numpy as np

from streamstart import metrics
from streamstart.annotations import tolerance_from_variance
from streamstart.metrics import ScoreSeries, ToleranceWindow

# -- the tolerance window -----------------------------------------------------
# A window comes from annotator disagreement: given the variance of the
# annotated start times, take sigma of early slack and 2*sigma of late
# slack, snap both to the frame grid.

window = tolerance_from_variance(28.8, fps=1.0)
print(f"variance 28.8 s^2  ->  window [-{window.anticipation:g}, +{window.latency:g}] s")

# -- from scores to predictions -----------------------------------------------
# Per-frame probabilities cross a threshold; the rising edge is the
# detection. every_frame mode keeps all above-threshold frames instead.

scores = ScoreSeries("demo", "q0", fps=1.0,
                     scores=np.array([0.1, 0.6, 0.7, 0.2, 0.8, 0.9, 0.3]))
edges = metrics.extract_predictions(scores, threshold=0.5, mode="rising_edge")
every = metrics.extract_predictions(scores, threshold=0.5, mode="every_frame")
print(f"rising edges at t = {list(edges)}; every-frame hits at t = {list(every)}")

# -- counting hits --------------------------------------------------------------

t_s = 5.0
w = ToleranceWindow(5, 10)
for k in (1, 2):
    hit = metrics.streaming_recall_at_k(edges, t_s, k, w)
    dist = metrics.smd_at_k(edges, t_s, k, horizon=len(scores.scores))
    print(f"k={k}: hit within window = {hit}, closest distance = {dist:g} s")

# The first edge (t=1) is 4 s early: inside the 5 s anticipation, so even
# k=1 scores. Tighten the window and the same prediction misses:

print("tight window [-2, +5]:",
      metrics.streaming_recall_at_k(edges, t_s, 1, ToleranceWindow(2, 5)))

# -- a dataset and a threshold sweep --------------------------------------------
# Build 40 toy score series with spikes near their annotated starts, then
# let the sweep pick the threshold that maximizes SR@1 across the set.


class Ann:
    def __init__(self, uid, t):
        self.video_uid, self.annotator_uid, self.ann_idx, self.start_sec = uid, "a", 0, t


rng = np.random.default_rng(0)
series, anns = [], []
for i in range(40):
    t = int(rng.integers(10, 50))
    s = rng.uniform(0, 0.35, 60)
    s[t : t + 2] += 0.6
    series.append(ScoreSeries(f"v{i}", "a-0", 1.0, np.clip(s, 0, 1)))
    anns.append(Ann(f"v{i}", float(t)))

tau, report = metrics.sweep_thresholds(series, anns, w, n=20, objective_k=1)
print(f"\nswept 20 thresholds -> tau = {tau:.3f}")
print(f"SR@k  = { {k: round(v, 1) for k, v in report.sr.items()} } (percent)")
print(f"SMD@k = { {k: round(v, 2) for k, v in report.smd.items()} } (seconds)")
print(report.to_json())
