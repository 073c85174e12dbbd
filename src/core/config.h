// CopierConfig — service-wide tunables and ablation switches.
//
// The ablation switches (use_dma, enable_piggyback, enable_absorption,
// enable_atcache) exist so the breakdown experiments (Fig. 12-c, Fig. 9) can
// turn individual mechanisms off; defaults are the full system.
#ifndef COPIER_SRC_CORE_CONFIG_H_
#define COPIER_SRC_CORE_CONFIG_H_

#include <cstddef>

#include "src/common/align.h"
#include "src/common/cycle_clock.h"

namespace copier::core {

struct CopierConfig {
  // Queue geometry.
  size_t queue_capacity = 4096;         // entries per CSH queue
  size_t default_segment_size = 4096;   // descriptor granularity (§4.1)

  // Hardware usage (§4.3).
  bool use_dma = true;
  bool enable_piggyback = true;  // false: DMA used naively (submit+wait)
  bool enable_atcache = true;
  // Independent DMA channels per engine (DESIGN.md §9). 1 = one serial
  // channel; more channels let one round's batches (and chunks of one large
  // subtask) transfer concurrently.
  size_t dma_channel_count = 4;
  // Descriptor-ring slots per channel (ring-full submissions fall back to
  // the CPU and are counted in dma_ring_full_fallbacks). DMA completion is
  // always non-blocking (DESIGN.md §9): a round parks its in-flight batches
  // and a later serve reaps them.
  size_t dma_ring_slots = 256;

  // Global-view optimizations (§4.4).
  bool enable_absorption = true;

  // Fused IPC fast path (DESIGN.md §12): when the receiver of a Binder
  // transaction or loopback-socket send has already posted its landing
  // window, the two-step transfer (sender -> kernel skb/parcel buffer ->
  // receiver) collapses into one direct cross-address-space Copy Task; the
  // intermediate kernel buffers are reserved only as flow-control tokens and
  // their reclaim KFUNCs ride the fused task. Off = every posted transfer
  // takes the two-step path (ablation / bench_ipc_fuse "two-step" mode).
  bool enable_ipc_fuse = true;

  // Proxy-transparent forwarding (DESIGN.md §12): a window posted with a
  // forward rule rewrites the message header in the kernel and dispatches ONE
  // src->destination-window Copy Task whose SgList splices the rewritten
  // header in front of the unmodified payload — the payload never crosses the
  // proxy's address space. Off = the message lands in the proxy's window and
  // the app re-frames it (the historical two-hop pipeline).
  bool enable_forward_fuse = true;

  // Scheduling (§4.5.3).
  size_t copy_slice_bytes = 256 * kKiB;  // max copy length per scheduling pick

  // Engine pool (DESIGN.md §10): the service runs `engine_count` copier
  // instances, each owning a disjoint slice of the DMA channel pool, with
  // client home-engine affinity (id % engine_count), cross-engine work
  // stealing and a shared-range ledger. A single engine is engine_count = 1.
  // 0 = auto: one engine per service thread in threaded mode (max_threads),
  // one engine in manual mode (manual callers drive engines explicitly).
  // Threaded mode runs one thread per engine, so the pool is clamped to
  // max_threads there; raise max_threads alongside engine_count.
  size_t engine_count = 0;

  // Threaded-mode scheduling (DESIGN.md §7): per-engine run queues with
  // O(log n) picks, event-driven runnable marking and a targeted wakeup of
  // the shard owner's thread. An idle shard steals the highest-backlog
  // runnable client from the most loaded shard before sleeping. Required for
  // full throughput when a hot client hashes onto a busy shard; disable only
  // for ablation (the fairness test pins clients to their home shards).
  bool enable_work_stealing = true;

  // Overload admission control (DESIGN.md §13). Request submitters consult
  // CopierService::AdmitRequest before pushing a request's copy work; the
  // service tracks per-cgroup admitted-but-unfinished work and the engines'
  // DMA ring-full feedback (dma_ring_full_fallbacks escalated from "silently
  // eat it on CPU" into a signal) and applies the policy when either
  // saturates. kNone = the historical behavior: every request is admitted and
  // overload shows up only as unbounded queueing delay.
  enum class OverloadPolicy {
    kNone,      // admit everything (baseline / ablation)
    kShed,      // reject the request outright (load shedding)
    kDefer,     // ask the submitter to retry after admission_defer_cycles
    kThrottle,  // admit, but make the submitter wait out the excess backlog
  };
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
  // A cgroup is overloaded when its admitted-but-unfinished work exceeds
  // either bound (bytes of copy work, or request count).
  uint64_t admission_max_inflight_bytes = 8 * kMiB;
  uint64_t admission_max_inflight_requests = 64;
  // Ring-pressure feedback: each newly observed dma_ring_full_fallback puts
  // admission into a back-off window covering the next N admission decisions.
  uint64_t admission_ring_backoff = 8;
  // kDefer: suggested retry-after gap, and how many retries a submitter
  // should attempt before treating the request as shed.
  Cycles admission_defer_cycles = 50'000;
  uint64_t admission_max_defer_retries = 4;

  // Lazy tasks execute when depended upon, aborted, or after this age (§4.4).
  Cycles lazy_timeout_cycles = 10'000'000;

  // Service threads (§4.5.1).
  enum class PollMode {
    kNapi,            // poll continuously, back off to sleep after idle spins
    kScenarioDriven,  // run only while a scenario is active (smartphone, §5.3)
  };
  PollMode poll_mode = PollMode::kNapi;
  size_t min_threads = 1;
  size_t max_threads = 4;
  double low_load = 0.2;   // auto-scaling thresholds (fraction of busy polls)
  double high_load = 0.8;
  size_t idle_spins_before_sleep = 4096;

  // Safety limit for recursive dependency resolution.
  int max_dependency_depth = 16;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_CONFIG_H_
