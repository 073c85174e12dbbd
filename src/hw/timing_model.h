// TimingModel — the calibrated cost model behind every simulated clock charge.
//
// All Copier mechanisms that *decide* something (DMA-candidate thresholds,
// piggyback splits, break-even sizes, absorption profit) and all virtual-time
// benches consume costs from this one table, so the whole reproduction is
// consistent and deterministic. Defaults approximate the paper's testbed
// (2×Xeon E5-2650 v4 @ 2.9 GHz, I/OAT DMA, Fig. 7-a):
//   * AVX2 is the fastest CPU unit; ERMS (the kernel's method) is slower,
//     especially below a page;
//   * DMA has a fixed submission cost roughly equal to copying 1.4 KiB with
//     AVX2 (§4.3) and lower standalone throughput than AVX2, but costs no CPU
//     cycles while in flight;
//   * VA→PA translation costs ~240 cycles/page (§4.3), amortized by ATCache.
#ifndef COPIER_SRC_HW_TIMING_MODEL_H_
#define COPIER_SRC_HW_TIMING_MODEL_H_

#include <cstddef>
#include <vector>

#include "src/common/cycle_clock.h"
#include "src/hw/copy_unit.h"

namespace copier::hw {

// Piecewise throughput curve: bytes/cycle as a function of transfer size,
// log-linearly interpolated between anchor points (cache-tier behaviour).
struct ThroughputCurve {
  struct Point {
    size_t size;             // transfer size anchor (bytes)
    double bytes_per_cycle;  // sustained throughput at that size
  };

  double startup_cycles = 0;  // fixed per-invocation cost
  std::vector<Point> points;  // ascending by size, non-empty

  double BytesPerCycle(size_t size) const;
  Cycles CopyCycles(size_t size) const;
};

struct TimingModel {
  // Per-unit throughput.
  ThroughputCurve avx;
  ThroughputCurve erms;
  ThroughputCurve dma;

  // DMA engine interface costs (CPU-side).
  Cycles dma_submit_cycles = 180;      // descriptor write + doorbell, per batch
  Cycles dma_per_desc_cycles = 40;     // each additional descriptor in a batch
  Cycles dma_completion_check_cycles = 25;

  // Address translation (§4.3, §4.5.4).
  Cycles va_translate_cycles_per_page = 240;
  Cycles atcache_hit_cycles = 18;
  Cycles page_pin_cycles = 45;  // lock the mapping for the copy duration

  // Copier client-side primitives (§4.6 break-even discussion).
  Cycles task_submit_cycles = 90;   // alloc descriptor + ring enqueue
  // Vectored submission (copier_submitv / k-mode CopyV): one ring reservation
  // + one doorbell for the whole batch plus a per-segment descriptor write —
  // the same per-batch amortization shape as dma_submit_cycles above.
  Cycles task_submitv_base_cycles = 140;
  Cycles task_submitv_per_seg_cycles = 20;
  Cycles csync_check_cycles = 28;   // descriptor bitmap check (ready case)
  Cycles csync_submit_cycles = 70;  // Sync Task enqueue (unready case)
  Cycles handler_dispatch_cycles = 60;

  // OS substrate events.
  Cycles syscall_entry_cycles = 350;   // trap + entry work
  Cycles syscall_exit_cycles = 350;    // return to userspace
  Cycles context_switch_cycles = 2000;
  Cycles wakeup_cycles = 1200;  // futex-style wakeup of a sleeping thread

  // Memory-subsystem events (used by CoW, zero-copy and zIO baselines).
  Cycles page_alloc_cycles = 300;
  Cycles page_fault_entry_cycles = 1400;  // hardware fault + kernel entry/exit
  Cycles page_remap_cycles = 650;         // PTE update for one page
  Cycles tlb_shootdown_cycles = 2200;     // per batch of PTE changes (CoW break)
  Cycles skb_alloc_cycles = 250;
  Cycles binder_transaction_cycles = 5200;  // driver bookkeeping + server wakeup

  // Network stack per-packet costs (checksum offloaded: header-only work).
  Cycles tcp_tx_per_packet_cycles = 300;
  Cycles tcp_rx_per_packet_cycles = 220;
  Cycles nic_tx_enqueue_cycles = 180;
  Cycles socket_status_cycles = 150;

  // fork() bookkeeping (page-table duplication dominates).
  Cycles fork_base_cycles = 9000;
  Cycles fork_per_page_cycles = 90;

  // Copier service internals.
  Cycles poll_iteration_cycles = 55;       // scan one client's queues, empty
  Cycles schedule_pick_cycles = 45;        // CFS-style min-length pick (§4.5.3)
  // Linear-scan scheduler baseline: the global pick examines every attached
  // client (twice); charged once per client scanned so the threaded mode's
  // virtual cost model reflects the O(clients) shape the sharded run queues
  // remove (the sharded pick charges schedule_pick_cycles alone).
  Cycles schedule_scan_cycles_per_client = 4;
  Cycles barrier_process_cycles = 20;
  // Dependency/absorption matching: charged once per pending-range index
  // probe.
  Cycles absorption_match_cycles = 12;

  // Dispatcher policy constants (§4.3).
  size_t dma_min_subtask_bytes = 2048;   // below this, DMA submission loses
  size_t ipiggyback_min_task_bytes = 12 * 1024;  // i-piggyback threshold
  // Piggyback greedy slack: a subtask moves to DMA while the (aggregate,
  // multi-channel) DMA makespan stays within this percentage over the
  // remaining AVX time — a short confirmed wait beats an idle second unit.
  size_t piggyback_greedy_tolerance_pct = 15;

  // Cost of one CPU-driven copy of `size` bytes on the given unit.
  Cycles CpuCopyCycles(CopyUnitKind kind, size_t size) const;
  // Wall-clock duration of a DMA transfer once submitted (no CPU cost).
  Cycles DmaTransferCycles(size_t size) const;

  // Default model (deterministic; approximates the paper's testbed). Also the
  // model used by every bench unless --calibrate is passed.
  static const TimingModel& Default();

  // Measures AVX/ERMS curves on the running machine (DMA stays modeled since
  // no I/OAT hardware is assumed). Used by benches under --calibrate.
  static TimingModel Calibrated();
};

}  // namespace copier::hw

#endif  // COPIER_SRC_HW_TIMING_MODEL_H_
