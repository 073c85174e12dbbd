#!/usr/bin/env bash
# Bench smoke: Release build + the benches that gate engine/scheduler/
# submission performance work. Writes BENCH_queue_depth.json (interval-indexed
# queue-depth sweep, images checked against an in-order memcpy replay, gated
# on cycles/task at depth 4096 <= 2x depth 16), BENCH_sched.json (sharded vs
# linear scheduler sweep), BENCH_submit_batch.json (vectored submission sweep,
# received bytes checked against the source, gated on 1 entry + 1 doorbell
# per send), BENCH_dma_channels.json (async multi-channel DMA sweep, images
# checked against the source, gated at >=1.5x from 1 to 4 channels),
# BENCH_engines.json (engine-pool sweep, 1 -> 8 copier engines, gated at
# >=3x aggregate scaling),
# BENCH_ipc_fuse.json (fused single-hop IPC vs the two-step ablation, gated
# at >=1.4x on the 1 MiB socket row, >=1.5x on >=64 KiB binder parcels,
# >=90% fused rate on the pipelined qd4 rows, and >=1.8x on the
# proxy-forwarded pipeline-e2e rows — which must all be present),
# BENCH_cow.json (CoW fault split handling), and BENCH_serve.json (open-loop
# serving sweep: p50/p99/p999 vs offered load, overload admission policies) at
# the repo root; fails if any sweep reports non-identical memory images, the
# queue-depth sweep is not flat, a send needs more than one batch, the DMA
# channel or engine-pool scaling or a gated fuse row misses its speedup floor,
# the serving sweep's p999 knee fails to move right under load shedding, or
# the Fig. 9 throughput gate (Copier beats AVX2 at 256 KiB, positive ATCache
# gain) fails.
#
# Usage: scripts/bench_smoke.sh [quick]
#   quick — CI mode: the vectored-submission and serving sweeps run their
#           quick subsets.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-release}
QUICK=${1:-}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_queue_depth bench_sched bench_submit_batch bench_dma_channels bench_engines bench_ipc_fuse bench_cow bench_serve bench_fig9_copy_throughput

echo
"$BUILD_DIR"/bench/bench_queue_depth --json | tee /tmp/bench_queue_depth.out
if grep -q ' NO ' /tmp/bench_queue_depth.out; then
  echo "bench_queue_depth: an image differs from the in-order replay or cycles/task is not flat" >&2
  exit 1
fi

echo
"$BUILD_DIR"/bench/bench_sched --json | tee /tmp/bench_sched.out
if grep -q ' NO ' /tmp/bench_sched.out; then
  echo "bench_sched: sharded and linear images differ" >&2
  exit 1
fi

echo
if [[ "$QUICK" == "quick" ]]; then
  "$BUILD_DIR"/bench/bench_submit_batch --json --quick | tee /tmp/bench_submit_batch.out
else
  "$BUILD_DIR"/bench/bench_submit_batch --json | tee /tmp/bench_submit_batch.out
fi
if grep -q ' NO ' /tmp/bench_submit_batch.out; then
  echo "bench_submit_batch: received bytes differ from the source or a send needed more than one batch" >&2
  exit 1
fi

echo
"$BUILD_DIR"/bench/bench_dma_channels --json | tee /tmp/bench_dma_channels.out
if grep -q ' NO ' /tmp/bench_dma_channels.out; then
  echo "bench_dma_channels: an image differs from the source bytes or 1 -> 4 channel scaling is below 1.5x" >&2
  exit 1
fi

echo
"$BUILD_DIR"/bench/bench_engines --json | tee /tmp/bench_engines.out
if grep -q ' NO ' /tmp/bench_engines.out; then
  echo "bench_engines: pooled image differs from the 1-engine run or 1 -> 8 engine scaling is below 3x" >&2
  exit 1
fi

echo
"$BUILD_DIR"/bench/bench_ipc_fuse --json | tee /tmp/bench_ipc_fuse.out
if grep -q ' NO ' /tmp/bench_ipc_fuse.out; then
  echo "bench_ipc_fuse: fused image differs from the two-step ablation or a gated row missed its speedup floor" >&2
  exit 1
fi
# The qd4 fused-rate and pipeline-speedup gates live inside the bench (a miss
# prints NO above); also fail loudly if the gated rows vanish from the JSON —
# a silently dropped scenario would otherwise pass the grep.
for scenario in socket-qd4 pipeline-e2e; do
  if ! grep -q "\"scenario\": \"$scenario\"" BENCH_ipc_fuse.json; then
    echo "bench_ipc_fuse: gated scenario '$scenario' missing from BENCH_ipc_fuse.json" >&2
    exit 1
  fi
done

echo
"$BUILD_DIR"/bench/bench_cow --json | tee /tmp/bench_cow.out

echo
"$BUILD_DIR"/bench/bench_fig9_copy_throughput | tee /tmp/bench_fig9.out
if grep -q ' NO ' /tmp/bench_fig9.out; then
  echo "bench_fig9_copy_throughput: Copier no longer beats AVX2 at 256 KiB or the ATCache gain vanished" >&2
  exit 1
fi

echo
if [[ "$QUICK" == "quick" ]]; then
  "$BUILD_DIR"/bench/bench_serve --json --quick | tee /tmp/bench_serve.out
else
  "$BUILD_DIR"/bench/bench_serve --json | tee /tmp/bench_serve.out
fi
if grep -q ' NO ' /tmp/bench_serve.out; then
  echo "bench_serve: a reply diverged from the model or the shed-policy p999 knee did not move right" >&2
  exit 1
fi

echo
echo "bench smoke OK; results in BENCH_queue_depth.json + BENCH_sched.json + BENCH_submit_batch.json + BENCH_dma_channels.json + BENCH_engines.json + BENCH_ipc_fuse.json + BENCH_cow.json + BENCH_serve.json"
