#!/usr/bin/env python3
# Parameter / MAC / FLOP accounting and the streaming-vs-sliding contrast.
#
# The symbolic model answers "what does one more frame cost?" for a frozen
# encoder stack with adapters, per the formula sheet in docs/formats.md.
# The wall-clock harness then demonstrates the two properties that matter
# for streaming: per-frame time independent of stream position, and the
# multiple a sliding-window baseline pays for recomputation.

from streamstart import costmodel as cm
from streamstart import detector
from streamstart.kernels import AdapterConfig

D, TOKENS, BLOCKS = 768, 197, 12

backbone = cm.vit_backbone_stack(d=D, n_blocks=BLOCKS)
print(f"encoder approximation: {BLOCKS} blocks, d={D}, {TOKENS} tokens/frame")
print(f"  params          : {cm.count_params(backbone):,}")
print(f"  MACs per frame  : {cm.count_macs(backbone, TOKENS):,}")

for kind in ("vanilla", "st_conv", "qrnn", "retention"):
    dp = cm.default_reduced_dim(kind, D)
    adapters = cm.adapter_stack(kind, D, dp, k=2, insertions=2 * BLOCKS)
    report = cm.cost_report(backbone + adapters, tokens=TOKENS, baseline=backbone)
    print(f"  +{kind:9s} (d'={dp:3d}): params +{report.overhead_params_pct:5.2f}%  "
          f"MACs +{report.overhead_macs_pct:5.2f}%  "
          f"(FLOPs = 2 x MACs: {report.flops_per_frame == 2 * report.macs_per_frame})")

print("\nsliding-window recomputation overhead (MACs, vs one frame):")
for w in (1, 4, 8):
    print(f"  window {w}: +{cm.sliding_window_overhead(w):g}%")

# -- wall clock -----------------------------------------------------------------

model = detector.build_model(detector.ModelConfig(
    d_in=128, d=128, n_blocks=2,
    adapter=AdapterConfig(d=128, d_prime=64, kind="qrnn", k=2), seed=0,
))
result = cm.bench_latency(model, n_frames=1500, repetitions=3, warmup=10, window=4, seed=1)
t10 = cm.frame_time_at(result, 10)
t1000 = cm.frame_time_at(result, 1000)
print(f"\ndesk-scale harness (d=128, 2 blocks, qrnn), 1500 frames x 3 reps:")
print(f"  push time at frame 10            : {t10 * 1e6:7.1f} us")
print(f"  push time at frame 1000          : {t1000 * 1e6:7.1f} us  "
      f"(drift {abs(t1000 - t10) / t10 * 100:.1f}%)")
print(f"  streaming totals per rep         : "
      + ", ".join(f"{t:.3f}s" for t in result["streaming"]["totals"]))
print(f"  sliding(4) totals per rep        : "
      + ", ".join(f"{t:.3f}s" for t in result["sliding"]["totals"]))
print(f"  sliding / streaming              : "
      f"{result['sliding']['total'] / result['streaming']['total']:.2f}x")
