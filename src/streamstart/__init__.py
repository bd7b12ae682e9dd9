"""streamstart: streaming event-start detection engine and evaluation toolkit.

Temporal-aggregation kernels with constant per-frame cost, a trainable
cosine-similarity detection head, Streaming Recall / Streaming Minimum
Distance metrics with asymmetric tolerance windows, and symbolic compute
cost accounting.
"""

__version__ = "0.1.0"
