#include "src/core/engine.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::core {
namespace {

// Bounded work per ServeClient call so one client cannot monopolize the
// ingestion loop.
constexpr size_t kMaxIngestPerCall = 1024;
// e-piggyback fuses at most this many adjacent tasks into one round (§4.3).
constexpr size_t kMaxFusedTasks = 8;
// Upper bound on a single subtask: fully contiguous large tasks are still
// split so the piggyback dispatcher can balance AVX and DMA and segment bits
// publish incrementally (copy-use pipelining, §4.1).
constexpr size_t kMaxSubtaskBytes = 16 * kKiB;

// True when `dst_side` of `t` is the segment list of a scatter-gather task.
// Bookkeeping lists (fused IPC, DESIGN.md §12) carry only chunk lengths and
// per-chunk KFUNCs — both sides of the task are its plain contiguous dst/src.
bool SideIsSg(const CopyTask& t, bool dst_side) {
  return t.sg != nullptr && !t.sg->bookkeeping && t.sg->kernel_is_dst == dst_side;
}

// Forward-fuse header splice (DESIGN.md §12): length of the kernel-resident
// prefix spliced in front of the task's user source. 0 for every other task.
size_t SrcPrefixLen(const CopyTask& t) {
  return (t.sg != nullptr && t.sg->prefix != nullptr) ? t.sg->prefix->size() : 0;
}

// A contiguous piece of one side of a task: `ref` names the memory at
// task-local byte `task_offset`, `length` bytes long. A plain side is one
// piece; the scatter-gather side of a vectored task is one piece per segment.
// All coordination arithmetic (overlap windows, index entries, producer
// lookups) runs over pieces so it never assumes a side is contiguous.
struct RefPiece {
  MemRef ref;
  size_t task_offset = 0;
  size_t length = 0;
};

// Appends the pieces of the chosen side of `t` covering task-local
// [offset, offset + length), clipped to the task's extent.
void CollectPieces(const CopyTask& t, bool dst_side, size_t offset, size_t length,
                   std::vector<RefPiece>* out) {
  if (offset >= t.length) {
    return;
  }
  length = std::min(length, t.length - offset);
  if (!SideIsSg(t, dst_side)) {
    const size_t pfx = dst_side ? 0 : SrcPrefixLen(t);
    if (pfx == 0) {
      const MemRef& side = dst_side ? t.dst : t.src;
      out->push_back({side.Offset(offset), offset, length});
      return;
    }
    // Prefix-spliced source: [0, pfx) reads the kernel prefix bytes, the rest
    // reads the user range shifted back by pfx.
    const size_t end = offset + length;
    if (offset < pfx) {
      const size_t hi = std::min(end, pfx);
      out->push_back({MemRef::Kernel(const_cast<uint8_t*>(t.sg->prefix->data()) + offset),
                      offset, hi - offset});
      offset = hi;
    }
    if (offset < end) {
      out->push_back({t.src.Offset(offset - pfx), offset, end - offset});
    }
    return;
  }
  const size_t end = offset + length;
  size_t seg_base = 0;
  for (const SgSegment& seg : t.sg->segs) {
    const size_t seg_end = seg_base + seg.length;
    if (seg_end > offset) {
      const size_t lo = std::max(offset, seg_base);
      const size_t hi = std::min(end, seg_end);
      if (lo >= hi) {
        break;
      }
      out->push_back({MemRef::Kernel(seg.kernel + (lo - seg_base)), lo, hi - lo});
      if (hi == end) {
        break;
      }
    }
    seg_base = seg_end;
  }
}

// Resolves the memory at task-local byte `offset` of a side; *contig reports
// how many bytes are contiguous from there (clipped at the segment end for a
// scatter-gather side).
MemRef SideRefAt(const CopyTask& t, bool dst_side, size_t offset, size_t* contig) {
  if (!SideIsSg(t, dst_side)) {
    const size_t pfx = dst_side ? 0 : SrcPrefixLen(t);
    if (offset < pfx) {
      *contig = pfx - offset;
      return MemRef::Kernel(const_cast<uint8_t*>(t.sg->prefix->data()) + offset);
    }
    *contig = t.length - offset;
    return (dst_side ? t.dst : t.src).Offset(offset - pfx);
  }
  size_t seg_base = 0;
  for (const SgSegment& seg : t.sg->segs) {
    const size_t seg_end = seg_base + seg.length;
    if (offset < seg_end) {
      *contig = seg_end - offset;
      return MemRef::Kernel(seg.kernel + (offset - seg_base));
    }
    seg_base = seg_end;
  }
  COPIER_CHECK(false) << "task-local offset " << offset << " past scatter-gather extent";
  return {};
}

// Depth of cross-engine settles on this thread (DESIGN.md §10). While > 0,
// force-landed tasks deliver their completion handlers in per-client task
// order — a landing that overtakes an unfired predecessor stays done-but-
// unfired until the predecessor's own completion cascades it — so KFUNC
// firing order is identical for every engine-pool size.
thread_local int t_cross_settle = 0;
thread_local bool t_fire_cascade = false;

}  // namespace

Engine::Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx,
               hw::DmaChannelSlice dma, OverloadSignals* overload)
    : config_(config), timing_(timing), ctx_(ctx), dma_(dma), overload_(overload) {}

Engine::Stats Engine::stats() const {
  Stats s;
#define COPIER_LOAD_COUNTER(name) s.name = stats_.name;
  COPIER_ENGINE_COUNTERS(COPIER_LOAD_COUNTER)
#undef COPIER_LOAD_COUNTER
  s.last_kfunc_cycles = stats_.last_kfunc_cycles.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Ingestion (§4.2.1)
// ---------------------------------------------------------------------------

Status Engine::ValidateTask(Client& client, const CopyTask& task, bool kernel_mode) const {
  if (task.length == 0) {
    return InvalidArgument("zero-length copy task");
  }
  if (task.sg != nullptr) {
    // Scatter-gather tasks name raw kernel buffers; only kernel submitters
    // (which own the buffer lifecycle) may build them.
    if (!kernel_mode) {
      return PermissionDenied("u-mode task carries a scatter-gather list");
    }
    if (task.sg->segs.empty() || task.sg->total_length() != task.length) {
      return InvalidArgument("scatter-gather segments do not sum to task length");
    }
    if (task.sg->prefix != nullptr &&
        (!task.sg->bookkeeping || task.sg->prefix->size() >= task.length)) {
      // A source prefix rides bookkeeping (fused-forward) lists only, and the
      // task must carry at least one user payload byte past it.
      return InvalidArgument("malformed source-prefix splice");
    }
  }
  if (!kernel_mode) {
    // Security checks: a u-mode task may only name its own address space —
    // kernel pointers or foreign spaces are rejected and the process is
    // signalled, as a bad synchronous copy would have faulted (§4.5.4).
    if (!task.dst.is_user() || !task.src.is_user()) {
      return PermissionDenied("u-mode task names kernel memory");
    }
    if (task.dst.space != client.space() || task.src.space != client.space()) {
      return PermissionDenied("u-mode task names a foreign address space");
    }
    if (task.dst.va == 0 || task.src.va == 0 || task.dst.va + task.length < task.dst.va ||
        task.src.va + task.length < task.src.va) {
      return PermissionDenied("address range out of bounds");
    }
  }
  return OkStatus();
}

void Engine::AcceptTask(Client& client, QueuePair& pair, CopyTask task, bool kernel_mode) {
  const Status valid = ValidateTask(client, task, kernel_mode);
  task.id = client.next_task_id++;
  // Virtual-time alignment: the Copier thread cannot have observed the task
  // before the client submitted it (the service polls; idle time is skipped,
  // and is not serving work).
  if (task.submit_time > ctx_->now()) {
    idle_cycles_ += task.submit_time - ctx_->now();
    ctx_->WaitUntil(task.submit_time);
  }

  auto pending = std::make_unique<PendingTask>();
  pending->task = std::move(task);
  pending->kernel_mode = kernel_mode;
  pending->order = client.next_order++;
  pending->origin = &pair;
  // Execution progress is always tracked in a private per-task descriptor:
  // client descriptors may be shared by several tasks at arbitrary offsets
  // (stream framing), so their segments cannot distinguish which task's bytes
  // have landed. The client-visible descriptor is *mirrored* from the private
  // one in MarkProgress. (A client segment straddling two tasks is set when
  // either task finishes its bytes in it — adjacent recv tasks execute
  // back-to-back in FIFO order, so the early-set window is confined to a
  // partially-served batch; see EXPERIMENTS.md "known deviations".)
  const size_t seg_size = pending->task.descriptor != nullptr
                              ? pending->task.descriptor->segment_size()
                              : config_.default_segment_size;
  pending->internal_progress = std::make_unique<Descriptor>(pending->task.length, seg_size);
  pending->progress = pending->internal_progress.get();
  pending->progress_offset = 0;
  if (pending->task.sg != nullptr && valid.ok()) {
    const auto& segs = pending->task.sg->segs;
    pending->sg_remaining.resize(segs.size());
    pending->sg_ends.resize(segs.size());
    size_t seg_end = 0;
    for (size_t i = 0; i < segs.size(); ++i) {
      pending->sg_remaining[i] = segs[i].length;
      seg_end += segs[i].length;
      pending->sg_ends[i] = seg_end;
    }
    pending->sg_fired.assign(segs.size(), false);
    if (pending->task.sg->bookkeeping) {
      ++stats_.fused_ipc_tasks;
    }
  }
  ++stats_.submit_entries;
  if (pending->task.sg != nullptr) {
    ++stats_.submit_batches;
  }

  if (!valid.ok()) {
    // A submitter-stamped sequence dies with the task: retire it so it
    // cannot hold back tombstone pruning forever.
    if (cross_ != nullptr) {
      cross_->RetireGlobalSeq(pending->task.gseq);
    }
    // Never entered the pending list: there is no Done transition to record.
    pending->done_processed = true;
    DropTask(client, *pending, valid);
    // Keep the dropped task out of the pending list entirely.
    ++stats_.tasks_ingested;
    return;
  }

  // Cross-engine ordering (DESIGN.md §10): give the task its place in the
  // service-global submission sequence — the submitter's stamp when present,
  // else the next sequence number at ingestion — and register shared-visible
  // ranges in the service ledger so foreign engines can order against them.
  if (cross_ != nullptr) {
    pending->gseq = pending->task.gseq != 0 ? pending->task.gseq : cross_->NextGlobalSeq();
    pending->shared_visible = TaskIsSharedVisible(client, *pending);
  } else {
    // Pool disabled: per-client order doubles as the sequence (monotone, and
    // only ever compared against this client's own entries).
    pending->gseq = pending->task.gseq != 0 ? pending->task.gseq : pending->order;
  }
  PendingTask* accepted = pending.get();
  client.pending.push_back(std::move(pending));
  client.pending_count.store(client.pending.size(), std::memory_order_release);
  client.live_gseqs.insert(accepted->gseq);
  IndexInsert(client, *accepted);
  if (cross_ != nullptr) {
    if (accepted->shared_visible) {
      cross_->RegisterShared(client, *accepted);
    } else {
      // Private tasks never probe the ledger; their sequence stops being
      // outstanding the moment that is decided.
      cross_->RetireGlobalSeq(accepted->gseq);
    }
  }
  ++stats_.tasks_ingested;
}

bool Engine::TaskIsSharedVisible(Client& client, const PendingTask& task) const {
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  simos::AddressSpace* own = client.space();
  for (const RefPiece& piece : pieces) {
    if (!piece.ref.is_user() || piece.ref.space != own) {
      return true;  // kernel host memory or a foreign address space
    }
    if (cross_->DomainShared(piece.ref.domain(), client)) {
      return true;  // own space, but a foreign client has ranges here
    }
  }
  return false;
}

void Engine::IngestPair(Client& client, QueuePair& pair) {
  current_pair_ = &pair;
  for (size_t steps = 0; steps < kMaxIngestPerCall; ++steps) {
    if (pair.kernel_bracket_open) {
      // Inside a syscall bracket: consume k entries until the exit barrier.
      // u-mode entries beyond the bracket bound wait (k-mode prioritized in
      // the concurrent-submission corner, §4.2.1).
      auto entry = pair.kernel.copy_q.TryPop();
      if (!entry.has_value()) {
        break;  // kernel still mid-syscall; resume on a later poll
      }
      if (entry->kind == CopyQueueEntry::Kind::kBarrierExit) {
        pair.kernel_bracket_open = false;
        ++stats_.barriers_processed;
        ctx_->Charge(timing_->barrier_process_cycles);
        continue;
      }
      if (entry->kind == CopyQueueEntry::Kind::kBarrierEnter) {
        pair.bracket_user_bound = entry->user_queue_position;  // re-bracket
        ++stats_.barriers_processed;
        continue;
      }
      AcceptTask(client, pair, std::move(entry->task), /*kernel_mode=*/true);
      continue;
    }

    const CopyQueueEntry* k_head = pair.kernel.copy_q.Peek();
    if (k_head != nullptr && k_head->kind == CopyQueueEntry::Kind::kBarrierEnter) {
      // The k batch after this barrier follows all u entries below the
      // recorded position: drain those first.
      if (pair.user_ingested < k_head->user_queue_position) {
        auto u = pair.user.copy_q.TryPop();
        if (!u.has_value()) {
          break;  // the u producer acquired a slot but has not published yet
        }
        ++pair.user_ingested;
        AcceptTask(client, pair, std::move(u->task), /*kernel_mode=*/false);
        continue;
      }
      pair.bracket_user_bound = k_head->user_queue_position;
      pair.kernel_bracket_open = true;
      pair.kernel.copy_q.TryPop();
      ++stats_.barriers_processed;
      ctx_->Charge(timing_->barrier_process_cycles);
      continue;
    }
    if (k_head != nullptr) {
      // Un-bracketed k entry (standalone kernel clients submit without
      // barriers — there is no paired u queue activity to order against).
      auto entry = pair.kernel.copy_q.TryPop();
      if (entry->kind == CopyQueueEntry::Kind::kCopy) {
        AcceptTask(client, pair, std::move(entry->task), /*kernel_mode=*/true);
      }
      continue;
    }

    auto u = pair.user.copy_q.TryPop();
    if (!u.has_value()) {
      break;
    }
    ++pair.user_ingested;
    AcceptTask(client, pair, std::move(u->task), /*kernel_mode=*/false);
  }
  current_pair_ = nullptr;
}

void Engine::IngestClient(Client& client) {
  for (size_t i = 0; i < client.pair_count(); ++i) {
    IngestPair(client, client.pair(static_cast<int>(i)));
  }
}

// ---------------------------------------------------------------------------
// Sync Tasks: promotion and abort (§4.1, §4.4)
// ---------------------------------------------------------------------------

void Engine::HandleSyncTask(Client& client, const SyncTask& sync) {
  // A Sync Task orders after every Copy Task its submitter queued before it:
  // the copy-queue pushes happened-before the sync-queue push, so draining the
  // copy queues here makes those tasks visible to the matching below. Without
  // this, an abort can be observed while the consumer that absorbs the
  // protected range (e.g. the send following a lazy reply copy) is still
  // un-ingested; the dependent probe then misses it and discards a mediator
  // the consumer later resolves through.
  uint64_t ingest_progress;
  do {
    ingest_progress = stats_.tasks_ingested + stats_.barriers_processed;
    IngestClient(client);
  } while (stats_.tasks_ingested + stats_.barriers_processed != ingest_progress);
  if (sync.kind == SyncTask::Kind::kAbort) {
    // Explicitly discard still-queued Copy Tasks writing the range. The
    // discard is deferred while a later pending task still reads the would-be
    // destination (its absorption chain runs through this task); handlers
    // still run at discard time (source buffers must be reclaimed). Copier
    // never discards implicitly.
    const auto request_abort = [&client](PendingTask& task) {
      if (!task.abort_requested) {
        task.abort_requested = true;
        ++client.pending_abort_requests;
      }
    };
    ++stats_.dep_probes;
    ctx_->Charge(timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        RangeIndex::Side::kDst, sync.addr.domain(), sync.addr.start(), sync.length,
        [&](const RangeIndex::Entry& entry) {
          request_abort(*entry.task);
          return true;
        });
    ApplyDeferredAborts(client);
    return;
  }
  ++stats_.sync_promotions;
  PromoteRange(client, sync.addr, sync.length);
}

void Engine::ProcessSyncQueues(Client& client) {
  for (size_t i = 0; i < client.pair_count(); ++i) {
    QueuePair& pair = client.pair(static_cast<int>(i));
    // k-mode Sync Queue first, then u-mode (§4.2.2).
    while (auto sync = pair.kernel.sync_q.TryPop()) {
      HandleSyncTask(client, *sync);
    }
    while (auto sync = pair.user.sync_q.TryPop()) {
      HandleSyncTask(client, *sync);
    }
  }
}

void Engine::PromoteRange(Client& client, const MemRef& addr, size_t length) {
  // Promote every pending task producing bytes of [addr, addr+length),
  // oldest first so newer writers land last (ResolveDependencies additionally
  // orders each one's prerequisites).
  ++stats_.dep_probes;
  struct Hit {
    PendingTask* task;
    uint64_t order;
    uint64_t start;
    uint64_t end;
    size_t task_offset;
  };
  std::vector<Hit> hits;
  ctx_->Charge(timing_->absorption_match_cycles);
  stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
      RangeIndex::Side::kDst, addr.domain(), addr.start(), length,
      [&](const RangeIndex::Entry& entry) {
        hits.push_back({entry.task, entry.order, entry.start, entry.start + entry.length,
                        entry.task_offset});
        return true;
      });
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.order < b.order; });
  for (const Hit& hit : hits) {
    PendingTask& task = *hit.task;
    if (task.Done()) {
      continue;  // executed as a dependency of an older promoted task
    }
    const uint64_t ovl_start = std::max(hit.start, addr.start());
    const uint64_t ovl_end = std::min(hit.end, addr.start() + length);
    task.promoted = true;
    const Status status =
        ExecuteTaskRange(client, task, ovl_start - hit.start + hit.task_offset,
                         ovl_end - ovl_start, /*depth=*/0, /*must_land=*/true);
    if (!status.ok() && status.code() != StatusCode::kUnavailable) {
      // kUnavailable: a cross-engine settle bounced off a held foreign
      // client. The promotion stays incomplete; the waiter's pump retries.
      DropTask(client, task, status);
    }
  }
  RetireDone(client);
}

// ---------------------------------------------------------------------------
// Dependency resolution (§4.2.2)
// ---------------------------------------------------------------------------

Status Engine::ResolveDependencies(Client& client, PendingTask& task, size_t offset,
                                   size_t length, int depth) {
  if (depth >= config_.max_dependency_depth) {
    return FailedPrecondition("dependency chain too deep");
  }
  // Probe windows: the task's own dst and src over [offset, offset+length),
  // piece by piece (a scatter-gather side probes once per covered segment).
  std::vector<RefPiece> dst_windows;
  std::vector<RefPiece> src_windows;
  CollectPieces(task.task, /*dst_side=*/true, offset, length, &dst_windows);
  if (!config_.enable_absorption) {
    // RAW: with absorption enabled, ResolveSources reads through the producer
    // (layered absorption); otherwise the producer must execute first.
    CollectPieces(task.task, /*dst_side=*/false, offset, length, &src_windows);
  }
  // Enumerate only the overlapping entries, then replay them in submission
  // order (oldest first, so earlier conflicting writes land first) with WAW
  // before WAR before RAW per conflicting task.
  struct Conflict {
    PendingTask* task;
    uint64_t order;
    uint8_t kind;    // 0 = WAW, 1 = WAR, 2 = RAW
    uint64_t start;  // overlap, in the conflicting task's domain addresses
    uint64_t end;
    uint64_t entry_start;      // the conflicting entry's own start address
    size_t entry_task_offset;  // task-local byte at entry_start
  };
  std::vector<Conflict> conflicts;
  const auto probe = [&](RangeIndex::Side side, const RefPiece& w, uint8_t kind) {
    ++stats_.dep_probes;
    ctx_->Charge(timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        side, w.ref.domain(), w.ref.start(), w.length, [&](const RangeIndex::Entry& entry) {
          if (entry.order < task.order) {
            const uint64_t start = std::max(entry.start, w.ref.start());
            const uint64_t end = std::min(entry.start + entry.length, w.ref.start() + w.length);
            conflicts.push_back(
                {entry.task, entry.order, kind, start, end, entry.start, entry.task_offset});
          }
          return true;
        });
  };
  for (const RefPiece& w : dst_windows) {
    probe(RangeIndex::Side::kDst, w, 0);  // WAW: earlier writes of these bytes
    probe(RangeIndex::Side::kSrc, w, 1);  // WAR: earlier reads this overwrites
  }
  for (const RefPiece& w : src_windows) {
    probe(RangeIndex::Side::kDst, w, 2);  // RAW: producers must land first
  }
  std::sort(conflicts.begin(), conflicts.end(), [](const Conflict& a, const Conflict& b) {
    return a.order != b.order ? a.order < b.order : a.kind < b.kind;
  });
  for (const Conflict& c : conflicts) {
    // The entry carries its own (start, task_offset), so the overlap maps to
    // the conflicting task's local bytes without assuming its side is
    // contiguous. ExecuteTaskRange skips tasks an earlier conflict already
    // completed.
    COPIER_RETURN_IF_ERROR(ExecuteTaskRange(client, *c.task,
                                            c.start - c.entry_start + c.entry_task_offset,
                                            c.end - c.start, depth + 1,
                                            /*must_land=*/true));
  }
  return OkStatus();
}

PendingTask* Engine::FindProducer(Client& client, const PendingTask& task, const MemRef& ref,
                                  size_t length, size_t* overlap_offset,
                                  size_t* overlap_length, size_t* producer_local) {
  // Latest-order earlier task whose destination contains ref's FIRST byte.
  // If none contains it, overlap_offset reports where the nearest producer
  // region begins (bounding the plain prefix) and nullptr is returned with
  // overlap_length/producer_local untouched. Candidates are per contiguous
  // destination *piece*, so a scatter-gather producer contributes one
  // candidate per segment and producer_local maps through the segment list.
  const uint64_t first_byte = ref.start();
  struct Cand {
    PendingTask* task;
    uint64_t order;
    uint64_t start;
    uint64_t end;
    size_t task_offset;  // task-local byte of the candidate piece's start
  };
  std::vector<Cand> cands;
  ++stats_.dep_probes;
  // One overlap enumeration yields the stabbing answer (latest writer
  // containing the first byte), the successor bound for the plain prefix,
  // and the newer-writer clip. Index entries only cover live (non-Done)
  // tasks; a completed producer's bytes have landed, so the plain path
  // reading the actual source memory is equivalent (and dead-write
  // suppression keeps those bytes WAW-consistent).
  ctx_->Charge(timing_->absorption_match_cycles);
  stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
      RangeIndex::Side::kDst, ref.domain(), first_byte, length,
      [&](const RangeIndex::Entry& entry) {
        if (entry.order < task.order) {
          cands.push_back({entry.task, entry.order, entry.start, entry.start + entry.length,
                           entry.task_offset});
        }
        return true;
      });
  const Cand* best = nullptr;
  uint64_t nearest_start = UINT64_MAX;
  for (const Cand& cand : cands) {
    if (first_byte >= cand.start && first_byte < cand.end) {
      if (best == nullptr || cand.order > best->order) {
        best = &cand;
      }
    } else if (cand.start > first_byte) {
      nearest_start = std::min(nearest_start, cand.start);
    }
  }
  if (best == nullptr) {
    *overlap_offset = nearest_start == UINT64_MAX
                          ? length
                          : static_cast<size_t>(nearest_start - first_byte);
    return nullptr;
  }
  uint64_t end = std::min(best->end, first_byte + length);
  // Clip at the start of any LATER-ordered producer piece inside the overlap:
  // those bytes belong to the newer writer, which the next iteration picks up.
  for (const Cand& cand : cands) {
    if (cand.order > best->order && cand.start > first_byte && cand.start < end) {
      end = cand.start;
    }
  }
  *overlap_offset = 0;
  *overlap_length = end - first_byte;
  *producer_local = static_cast<size_t>(first_byte - best->start) + best->task_offset;
  return best->task;
}

// ---------------------------------------------------------------------------
// Layered copy absorption (§4.4)
// ---------------------------------------------------------------------------

void Engine::ResolveSources(Client& client, PendingTask& task, size_t src_offset, size_t length,
                            int depth, std::vector<SourcePiece>* out) {
  // Per contiguous piece of the task's source side: a scatter-gather source
  // resolves segment by segment, so absorption chains can pass *through* a
  // vectored producer exactly as through a plain one.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/false, src_offset, length, &pieces);
  const bool absorb = config_.enable_absorption && depth < config_.max_dependency_depth;
  for (const RefPiece& p : pieces) {
    if (!absorb) {
      out->push_back({p.ref, p.length});
    } else {
      ResolveSourcesContig(client, task, p.ref, p.length, depth, out);
    }
  }
}

void Engine::ResolveSourcesContig(Client& client, PendingTask& task, const MemRef& src,
                                  size_t length, int depth, std::vector<SourcePiece>* out) {
  size_t pos = 0;
  while (pos < length) {
    size_t ovl_off = 0;
    size_t ovl_len = 0;
    size_t producer_base = 0;
    // FindProducer charges the probe.
    PendingTask* producer = FindProducer(client, task, src.Offset(pos), length - pos, &ovl_off,
                                         &ovl_len, &producer_base);
    if (producer == nullptr) {
      // Plain piece up to the nearest producer-covered byte (ovl_off).
      const size_t plain = std::min(length - pos, ovl_off);
      out->push_back({src.Offset(pos), plain});
      pos += plain;
      continue;
    }
    // Walk the overlapping piece segment by segment of the *producer*'s
    // progress space: marked segments may hold client-modified data, so the
    // intermediate buffer (this task's src) is authoritative; unmarked
    // segments cannot have been touched (the client would have csync'd
    // first), so read through to the producer's own source (Fig. 8-b).
    size_t done = 0;
    while (done < ovl_len) {
      const size_t producer_local = producer_base + done;
      const size_t seg_size = producer->progress->segment_size();
      const size_t seg_space_off = producer->progress_offset + producer_local;
      const size_t seg_index = producer->progress->SegmentOf(seg_space_off);
      const size_t seg_end_space = (seg_index + 1) * seg_size;
      size_t chunk = std::min(ovl_len - done, seg_end_space - seg_space_off);
      // Clamp to the producer's own extent.
      chunk = std::min(chunk, producer->task.length - producer_local);
      if (producer->progress->SegmentReady(seg_index)) {
        out->push_back({src.Offset(pos + done), chunk});
      } else {
        stats_.bytes_absorbed += chunk;
        if (producer->task.type == TaskType::kLazy) {
          stats_.lazy_absorbed_bytes += chunk;
        }
        ResolveSources(client, *producer, producer_local, chunk, depth + 1, out);
      }
      done += chunk;
    }
    pos += ovl_len;
  }
}

// ---------------------------------------------------------------------------
// Proactive fault handling and subtask construction (§4.3, §4.5.4)
// ---------------------------------------------------------------------------

StatusOr<uint8_t*> Engine::ResolveUserPage(simos::AddressSpace* space, uint64_t va,
                                           bool for_write, bool* cached) {
  if (config_.enable_atcache) {
    const ATCache::Entry* entry = atcache_.Lookup(space->asid(), va);
    if (entry != nullptr && (!for_write || entry->writable)) {
      if (cached != nullptr) {
        *cached = true;
      }
      return entry->host_page + PageOffset(va);
    }
  }
  // Proactive fault handling: translate now; the translation itself faults
  // pages in (on-demand paging) and breaks CoW in the Copier context instead
  // of waiting for a hardware fault mid-copy. The explicit-translation cost
  // (needed only when the subtask goes to DMA) is charged by ExecuteRound.
  auto pfn_or = for_write ? space->TranslateWrite(va, ctx_) : space->TranslateRead(va, ctx_);
  if (!pfn_or.ok()) {
    return pfn_or.status();
  }
  if (cached != nullptr) {
    *cached = false;
  }
  uint8_t* host_page = space->phys()->FrameData(*pfn_or);
  if (config_.enable_atcache) {
    atcache_.Insert(space->asid(), va, host_page, for_write);
  }
  return host_page + PageOffset(va);
}

// Resolves the longest host-contiguous run starting at `ref`, at most
// `max_length` bytes. Subtask boundaries fall exactly where physical
// contiguity breaks (Fig. 7-b). Kernel refs are contiguous by construction.
StatusOr<Engine::HostRun> Engine::ResolveHostRun(const MemRef& ref, size_t max_length,
                                                 bool for_write, HostRunExtra* extra) {
  if (!ref.is_user()) {
    return HostRun{ref.host, max_length};
  }
  bool cached = false;
  auto first_or = ResolveUserPage(ref.space, ref.va, for_write, &cached);
  if (!first_or.ok()) {
    return first_or.status();
  }
  if (extra != nullptr) {
    (cached ? extra->pages_cached : extra->pages_uncached) += 1;
  }
  HostRun run{*first_or, std::min(max_length, kPageSize - PageOffset(ref.va))};
  uint8_t* expected = *first_or - PageOffset(ref.va) + kPageSize;
  uint64_t next_va = PageBase(ref.va) + kPageSize;
  while (run.length < max_length) {
    auto next_or = ResolveUserPage(ref.space, next_va, for_write, &cached);
    if (!next_or.ok()) {
      return next_or.status();  // every byte of the range must be accessible
    }
    if (*next_or != expected) {
      break;  // physical discontinuity
    }
    if (extra != nullptr) {
      (cached ? extra->pages_cached : extra->pages_uncached) += 1;
    }
    run.length += std::min(kPageSize, max_length - run.length);
    expected += kPageSize;
    next_va += kPageSize;
  }
  return run;
}

Status Engine::BuildSubtasks(Client& client, PendingTask& task, size_t offset,
                             const std::vector<SourcePiece>& sources,
                             std::vector<Subtask>* out) {
  size_t dst_cursor = offset;
  for (const SourcePiece& piece : sources) {
    size_t piece_pos = 0;
    while (piece_pos < piece.length) {
      // Resolve at most one subtask's worth per iteration so pages are
      // translated exactly once each (no redundant walks). A scatter-gather
      // destination additionally bounds the subtask at its segment edge.
      size_t dst_contig = 0;
      const MemRef dref = SideRefAt(task.task, /*dst_side=*/true, dst_cursor, &dst_contig);
      const size_t remaining =
          std::min({piece.length - piece_pos, kMaxSubtaskBytes, dst_contig});
      HostRunExtra extra;
      auto dst_or = ResolveHostRun(dref, remaining, /*for_write=*/true, &extra);
      if (!dst_or.ok()) {
        return dst_or.status();
      }
      auto src_or = ResolveHostRun(piece.ref.Offset(piece_pos), dst_or->length,
                                   /*for_write=*/false, &extra);
      if (!src_or.ok()) {
        return src_or.status();
      }

      Subtask st;
      st.length = std::min({dst_or->length, src_or->length, kMaxSubtaskBytes});
      st.dst = dst_or->host;
      st.src = src_or->host;
      st.owner = &task;
      st.task_offset = dst_cursor;
      st.dma_eligible = config_.use_dma && st.length >= timing_->dma_min_subtask_bytes;
      st.pages_cached = extra.pages_cached;
      st.pages_uncached = extra.pages_uncached;
      out->push_back(st);
      piece_pos += st.length;
      dst_cursor += st.length;
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Piggyback-based dispatch and execution (§4.3)
// ---------------------------------------------------------------------------

void Engine::ExecuteRound(Client& client, std::vector<Subtask>& subtasks) {
  if (subtasks.empty()) {
    return;
  }
  const size_t nch = dma_.channel_count();

  // Pick the DMA set. Piggybacking draws DMA candidates from the *tail* of
  // the round (latter part of a large task — i-piggyback — or latter tasks of
  // a fused round — e-piggyback) because later bytes have longer Copy-Use
  // windows, and balances the two units' completion times.
  std::vector<size_t> dma_set;
  Cycles avx_time = 0;
  for (const Subtask& st : subtasks) {
    avx_time += timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, st.length);
  }
  if (config_.use_dma && config_.enable_piggyback) {
    // Channel-aware greedy split: a candidate moves to DMA while the
    // *aggregate* DMA makespan — each candidate placed on the least-loaded
    // channel — stays within the tolerance over the remaining AVX time.
    // Both units finish close together and the CPU never idles waiting
    // (§4.3); the slack biases toward engaging DMA — a short confirmed wait
    // beats leaving the second unit idle. Loads start at zero: the round
    // balances its own work (with one channel this is exactly the serial
    // dma_time accumulation of the single-engine split).
    std::vector<Cycles> load(nch, 0);
    const size_t tol = timing_->piggyback_greedy_tolerance_pct;
    for (size_t i = subtasks.size(); i-- > 0;) {
      const Subtask& st = subtasks[i];
      if (!st.dma_eligible) {
        continue;
      }
      const Cycles st_avx = timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, st.length);
      const Cycles st_dma = timing_->DmaTransferCycles(st.length);
      size_t least = 0;
      for (size_t c = 1; c < nch; ++c) {
        if (load[c] < load[least]) {
          least = c;
        }
      }
      Cycles makespan = load[least] + st_dma;
      for (size_t c = 0; c < nch; ++c) {
        if (c != least) {
          makespan = std::max(makespan, load[c]);
        }
      }
      const Cycles rem_avx = avx_time - st_avx;
      if (makespan <= rem_avx + rem_avx * tol / 100) {
        dma_set.push_back(i);
        subtasks[i].on_dma = true;
        load[least] += st_dma;
        avx_time -= st_avx;
      }
    }
  }

  // Submit the DMA side: one descriptor batch per channel, chunks assigned
  // least-loaded-first. A large subtask is chunked across channels only when
  // the round has fewer DMA subtasks than channels (otherwise whole subtasks
  // already spread, and chunking would just multiply per-descriptor cost).
  struct RoundChunk {
    size_t subtask = 0;  // index into `subtasks`
    size_t offset = 0;   // byte offset within the subtask
    size_t length = 0;
  };
  struct SubmittedBatch {
    Cycles completion = 0;
    uint64_t bytes = 0;
    std::vector<RoundChunk> chunks;
  };
  std::vector<SubmittedBatch> submitted;
  std::vector<RoundChunk> ring_full_chunks;  // partial fallbacks, AVX below
  if (!dma_set.empty()) {
    struct ChannelBatch {
      std::vector<hw::DmaDescriptor> descs;
      std::vector<RoundChunk> chunks;
      uint64_t bytes = 0;
    };
    std::vector<ChannelBatch> batches(nch);
    std::vector<Cycles> load(nch, 0);
    const bool chunk_large = nch > 1 && dma_set.size() < nch;
    Cycles translate = 0;
    for (size_t idx : dma_set) {
      const Subtask& st = subtasks[idx];
      // DMA needs explicit physical addresses: ~240 cycles per page-table
      // walk, amortized by the ATCache (§4.3). CPU copies pay nothing (MMU).
      translate += st.pages_cached * timing_->atcache_hit_cycles +
                   st.pages_uncached * timing_->va_translate_cycles_per_page;
      size_t pieces = 1;
      if (chunk_large && st.length >= 2 * timing_->dma_min_subtask_bytes) {
        pieces = std::min(nch, st.length / timing_->dma_min_subtask_bytes);
      }
      const size_t base = st.length / pieces;
      size_t off = 0;
      for (size_t p = 0; p < pieces; ++p) {
        const size_t len = (p + 1 == pieces) ? st.length - off : base;
        size_t least = 0;
        for (size_t c = 1; c < nch; ++c) {
          if (load[c] < load[least]) {
            least = c;
          }
        }
        batches[least].descs.push_back({st.dst + off, st.src + off, len});
        batches[least].chunks.push_back({idx, off, len});
        batches[least].bytes += len;
        load[least] += timing_->DmaTransferCycles(len);
        off += len;
      }
    }
    ctx_->Charge(translate);
    for (size_t c = 0; c < nch; ++c) {
      ChannelBatch& b = batches[c];
      if (b.descs.empty()) {
        continue;
      }
      ctx_->Charge(dma_.SubmissionCost(b.descs.size()));
      auto sub_or = dma_.SubmitOn(c, b.descs, ctx_->now());
      if (!sub_or.ok()) {
        // Ring full on this channel: its chunks fall back to the CPU (the
        // failed attempt stays charged — the descriptors were written before
        // the doorbell bounced). Whole subtasks rejoin the AVX loop; partial
        // chunks of a split subtask run separately below.
        ++stats_.dma_ring_full_fallbacks;
        ++overload_->ring_full_events;
        for (const RoundChunk& ch : b.chunks) {
          if (ch.offset == 0 && ch.length == subtasks[ch.subtask].length) {
            subtasks[ch.subtask].on_dma = false;
          } else {
            ring_full_chunks.push_back(ch);
          }
        }
        continue;
      }
      submitted.push_back({sub_or->completion_time, b.bytes, std::move(b.chunks)});
      stats_.dma_bytes_submitted += b.bytes;
      ++stats_.dma_batches_submitted;
    }
  }

  // CPU side: AVX subtasks run while the DMA transfers are in flight. Each
  // subtask's segments become ready as soon as its bytes land.
  for (size_t i = 0; i < subtasks.size(); ++i) {
    if (subtasks[i].on_dma) {
      continue;
    }
    Subtask& st = subtasks[i];
    if (config_.use_dma && !config_.enable_piggyback && st.dma_eligible) {
      // Naive DMA (ablation): submit and busy-wait per subtask.
      hw::DmaDescriptor desc{st.dst, st.src, st.length};
      ctx_->Charge(dma_.SubmissionCost(1));
      const size_t ch = dma_.PickChannel(1);
      if (ch < nch) {
        auto sub_or = dma_.SubmitOn(ch, {&desc, 1}, ctx_->now());
        if (sub_or.ok()) {
          const Cycles stall_from = ctx_->now();
          ctx_->WaitUntil(sub_or->completion_time);
          stats_.dma_stall_cycles += ctx_->now() - stall_from;
          ctx_->Charge(timing_->dma_completion_check_cycles);
          stats_.dma_bytes_submitted += st.length;
          ++stats_.dma_batches_submitted;
          stats_.dma_bytes_completed += st.length;
          ++stats_.dma_batches_completed;
          MarkProgress(client, *st.owner, st.task_offset, st.length, ctx_->now());
          continue;
        }
      }
      ++stats_.dma_ring_full_fallbacks;
      ++overload_->ring_full_events;
    }
    hw::AvxCopy(st.dst, st.src, st.length);
    ctx_->Charge(timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, st.length));
    stats_.avx_bytes += st.length;
    MarkProgress(client, *st.owner, st.task_offset, st.length, ctx_->now());
  }
  for (const RoundChunk& ch : ring_full_chunks) {
    Subtask& st = subtasks[ch.subtask];
    hw::AvxCopy(st.dst + ch.offset, st.src + ch.offset, ch.length);
    ctx_->Charge(timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, ch.length));
    stats_.avx_bytes += ch.length;
    MarkProgress(client, *st.owner, st.task_offset + ch.offset, ch.length, ctx_->now());
  }

  // Park the in-flight batches instead of waiting them out (DESIGN.md §9):
  // the round retires with its DMA bytes outstanding, the serve returns to
  // the scheduler, and ReapParkedDma lands the bytes on a later pass.
  // Completion times were captured at submission, so even an engine that
  // later steals this client never touches this engine's channels.
  if (submitted.empty()) {
    return;
  }
  ++stats_.dma_rounds_parked;
  for (SubmittedBatch& b : submitted) {
    Client::ParkedDma parked;
    parked.completion_time = b.completion;
    parked.bytes = b.bytes;
    parked.min_order = UINT64_MAX;
    parked.segs.reserve(b.chunks.size());
    for (const RoundChunk& ch : b.chunks) {
      Subtask& st = subtasks[ch.subtask];
      const size_t task_off = st.task_offset + ch.offset;
      parked.segs.push_back({st.owner, task_off, ch.length});
      parked.min_order = std::min(parked.min_order, st.owner->order);
      st.owner->dma_parked.emplace_back(task_off, task_off + ch.length);
    }
    client.parked_orders.insert(parked.min_order);
    client.parked_dma.push_back(std::move(parked));
    client.dma_inflight_bytes.fetch_add(b.bytes, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Task-range execution
// ---------------------------------------------------------------------------

Status Engine::CopyRange(Client& client, PendingTask& task, size_t offset, size_t length,
                         int depth) {
  // Execute whole progress segments covering [offset, offset+length),
  // skipping segments already marked: a segment's bit is set only once all of
  // the task's bytes in it have landed (§4.1).
  const size_t seg_size = task.progress->segment_size();
  const size_t end = std::min(task.task.length, offset + length);
  if (offset >= end) {
    return OkStatus();
  }
  const auto seg_start_local = [&](size_t seg) {
    const size_t space = seg * seg_size;
    return space > task.progress_offset ? space - task.progress_offset : 0;
  };
  const auto seg_end_local = [&](size_t seg) {
    return std::min(task.task.length, (seg + 1) * seg_size - task.progress_offset);
  };

  const size_t first_seg = task.progress->SegmentOf(task.progress_offset + offset);
  const size_t last_seg = task.progress->SegmentOf(task.progress_offset + end - 1);
  size_t seg = first_seg;
  while (seg <= last_seg) {
    if (task.progress->SegmentReady(seg)) {
      ++seg;
      continue;
    }
    const size_t run_first = seg;
    while (seg <= last_seg && !task.progress->SegmentReady(seg)) {
      ++seg;
    }
    const size_t run_start = seg_start_local(run_first);
    const size_t run_end = seg_end_local(seg - 1);

    // Dead-write suppression: bytes of this run that a *later* task has
    // already written (its progress segments are marked) must not be
    // overwritten with this task's older data — promotion can execute tasks
    // out of submission order (§4.1), so the suppression is what keeps WAW
    // semantics intact. Dead bytes are marked done without copying.
    std::vector<std::pair<size_t, size_t>> live;  // [start, end) task-local
    live.emplace_back(run_start, run_end);
    // Removes [cut_start, cut_end) (task-local bytes) from `ranges`.
    const auto subtract_range = [](std::vector<std::pair<size_t, size_t>>& ranges,
                                   size_t cut_start, size_t cut_end) {
      std::vector<std::pair<size_t, size_t>> next;
      for (auto [ls, le] : ranges) {
        if (cut_end <= ls || cut_start >= le) {
          next.emplace_back(ls, le);
          continue;
        }
        if (ls < cut_start) {
          next.emplace_back(ls, cut_start);
        }
        if (cut_end < le) {
          next.emplace_back(cut_end, le);
        }
      }
      ranges = std::move(next);
    };
    const auto subtract_dead = [&live, &subtract_range](size_t dead_start, size_t dead_end) {
      subtract_range(live, dead_start, dead_end);
    };
    // Bytes of this run already in flight on a DMA channel execute on nobody:
    // their batch lands them at the reap. Snapshot before suppression runs —
    // a later-writer settle below may reap this task's own batches mid-run,
    // and re-copying bytes that just landed would double-count progress.
    const std::vector<std::pair<size_t, size_t>> parked_before = task.dma_parked;
    // Suppression runs per contiguous destination piece of the run: a
    // scatter-gather destination checks each covered segment against later
    // writers of *that* segment's addresses.
    std::vector<RefPiece> dpieces;
    CollectPieces(task.task, /*dst_side=*/true, run_start, run_end - run_start, &dpieces);
    for (const RefPiece& dp : dpieces) {
      const uint64_t dbase = dp.ref.start();
      const uint64_t ddomain = dp.ref.domain();
      // Bytes fully written by later tasks that already completed. Entries
      // are gseq-keyed: locally retired writes and imported foreign landed
      // writes (cross-engine dead-write suppression) compare uniformly. The
      // log probe walks in address order, not landing order; subtract_dead
      // leaves the same set of live ranges whatever order its cuts arrive in.
      client.completed_writes.ForEachLaterOverlap(
          ddomain, dbase, dp.length, task.gseq, [&](const LandedWriteLog::Write& w) {
            const uint64_t ovl_start = std::max(w.start, dbase);
            const uint64_t ovl_end = std::min(w.start + w.length, dbase + dp.length);
            subtract_dead(ovl_start - dbase + dp.task_offset,
                          ovl_end - dbase + dp.task_offset);
            return true;
          });
      // Bytes a later *pending* writer has already landed (segment-granular).
      const auto suppress_from = [&](PendingTask& other) {
        // A later writer with bytes still in flight must land first: its
        // unreaped segments read as "unready" here, and copying this task's
        // older data under them would then be overwritten-in-reverse when the
        // newer batch is reaped (a WAW inversion against in-flight hardware).
        if (!other.dma_parked.empty()) {
          SettleTaskParked(client, other);
        }
        std::vector<RefPiece> opieces;
        CollectPieces(other.task, /*dst_side=*/true, 0, other.task.length, &opieces);
        for (const RefPiece& op : opieces) {
          if (op.ref.domain() != ddomain) {
            continue;
          }
          const uint64_t obase = op.ref.start();
          const uint64_t ovl_start = std::max(obase, dbase);
          const uint64_t ovl_end = std::min(obase + op.length, dbase + dp.length);
          if (ovl_start >= ovl_end) {
            continue;
          }
          // Walk the overlap in `other`'s progress segments; marked pieces
          // are dead for this task.
          uint64_t cursor = ovl_start;
          while (cursor < ovl_end) {
            const size_t other_local = cursor - obase + op.task_offset;
            const size_t o_seg_size = other.progress->segment_size();
            const size_t o_space = other.progress_offset + other_local;
            const size_t o_seg = other.progress->SegmentOf(o_space);
            const size_t seg_room = (o_seg + 1) * o_seg_size - o_space;
            const uint64_t piece_end = std::min<uint64_t>(ovl_end, cursor + seg_room);
            if (other.progress->SegmentReady(o_seg)) {
              subtract_dead(cursor - dbase + dp.task_offset,
                            piece_end - dbase + dp.task_offset);
            }
            cursor = piece_end;
          }
        }
      };
      // Live later writers whose dst overlaps this piece. Done tasks already
      // left the index; their full write is covered by completed_writes
      // above. An SG writer has one entry per segment — dedup so
      // suppress_from walks it once.
      std::vector<PendingTask*> writers;
      ++stats_.dep_probes;
      ctx_->Charge(timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          RangeIndex::Side::kDst, ddomain, dbase, dp.length, [&](const RangeIndex::Entry& entry) {
            if (entry.order > task.order && !entry.task->aborted &&
                std::find(writers.begin(), writers.end(), entry.task) == writers.end()) {
              writers.push_back(entry.task);
            }
            return true;
          });
      for (PendingTask* other : writers) {
        suppress_from(*other);
      }
    }

    size_t live_bytes = 0;
    for (auto [ls, le] : live) {
      live_bytes += le - ls;
      // Parked bytes stay out of the executed set but still count as live:
      // they are neither dead nor this round's work.
      std::vector<std::pair<size_t, size_t>> exec;
      exec.emplace_back(ls, le);
      for (auto [ps, pe] : parked_before) {
        subtract_range(exec, ps, pe);
      }
      for (auto [xs, xe] : exec) {
        std::vector<SourcePiece> sources;
        ResolveSources(client, task, xs, xe - xs, depth, &sources);
        std::vector<Subtask> subtasks;
        COPIER_RETURN_IF_ERROR(BuildSubtasks(client, task, xs, sources, &subtasks));
        ExecuteRound(client, subtasks);
      }
    }
    // Dead bytes: obligation satisfied by the newer writer; mark done.
    if (live_bytes < run_end - run_start) {
      size_t cursor = run_start;
      for (auto [ls, le] : live) {
        if (cursor < ls) {
          MarkProgress(client, task, cursor, ls - cursor, ctx_->now());
        }
        cursor = le;
      }
      if (cursor < run_end) {
        MarkProgress(client, task, cursor, run_end - cursor, ctx_->now());
      }
    }
  }
  return OkStatus();
}

Status Engine::ExecuteTaskRange(Client& client, PendingTask& task, size_t offset, size_t length,
                                int depth, bool must_land) {
  if (task.Done() || length == 0) {
    return OkStatus();
  }
  if (depth >= config_.max_dependency_depth) {
    return FailedPrecondition("dependency recursion limit");
  }
  offset = std::min(offset, task.task.length);
  length = std::min(length, task.task.length - offset);
  // Execution happens in whole progress segments (CopyRange), so dependency
  // resolution must cover the segment-aligned expansion of the requested
  // range — otherwise bytes copied "for free" at segment edges could land
  // before an earlier conflicting write (WAW/WAR inversion).
  const size_t seg = task.progress->segment_size();
  const size_t space_start = AlignDown(task.progress_offset + offset, seg);
  const size_t aligned_offset =
      space_start >= task.progress_offset ? space_start - task.progress_offset : 0;
  const size_t aligned_end = std::min<size_t>(
      task.task.length,
      AlignUp(task.progress_offset + offset + length, seg) - task.progress_offset);
  offset = aligned_offset;
  length = aligned_end - aligned_offset;
  // Barrier-drain rule (DESIGN.md §9): a synchronizing or conflicting access
  // (promotion, csync, dependency resolution) may not proceed past bytes the
  // hardware still has in flight — settle them to their completion first.
  // Plain FIFO passes skip this; their parked bytes land via the reaper.
  if (must_land && !task.dma_parked.empty()) {
    SettleParkedRange(client, task, offset, length);
    if (task.Done()) {
      return OkStatus();
    }
  }
  // Cross-engine shared-range protocol (DESIGN.md §10): before executing a
  // window other clients may also name, import landed foreign writes ordered
  // after us (dead-write suppression) and force-land live foreign conflicts
  // ordered before us. kUnavailable from a held foreign client propagates to
  // the caller as a defer — never a drop.
  if (cross_ != nullptr && task.shared_visible) {
    COPIER_RETURN_IF_ERROR(CrossSettle(client, task, offset, length));
  }
  COPIER_RETURN_IF_ERROR(ResolveDependencies(client, task, offset, length, depth));
  COPIER_RETURN_IF_ERROR(CopyRange(client, task, offset, length, depth));
  if (task.bytes_done >= task.task.length) {
    CompleteTask(client, task, /*fifo_ordered=*/!must_land);
  }
  return OkStatus();
}

Status Engine::CrossSettle(Client& client, PendingTask& task, size_t offset, size_t length) {
  // One ledger probe per contiguous piece of each side of the window: dst
  // pieces are writes (WAW/WAR against foreign tasks), src pieces are reads
  // (RAW). The hooks decide what conflicts; this only enumerates windows.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, offset, length, &pieces);
  const size_t dst_pieces = pieces.size();
  CollectPieces(task.task, /*dst_side=*/false, offset, length, &pieces);
  for (size_t i = 0; i < pieces.size(); ++i) {
    const RefPiece& piece = pieces[i];
    ++stats_.cross_dep_probes;
    Status status = cross_->SettleForeign(*this, client, task, piece.ref.domain(),
                                          piece.ref.start(), piece.length,
                                          /*writes=*/i < dst_pieces);
    if (!status.ok() && status.code() == StatusCode::kUnavailable) {
      ++stats_.cross_dep_defers;
    }
    COPIER_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

bool Engine::RangeLanded(const PendingTask& task, size_t offset, size_t length) const {
  if (task.Done()) {
    return true;
  }
  const size_t end = std::min(offset + length, task.task.length);
  if (offset >= end) {
    return true;
  }
  for (const auto& [s, e] : task.dma_parked) {
    if (s < end && e > offset) {
      return false;  // in flight on a channel: submitted, not landed
    }
  }
  return task.progress->RangeReady(task.progress_offset + offset, end - offset);
}

Status Engine::SettleSharedRange(Client& client, uint64_t domain, uint64_t start, size_t length,
                                 uint64_t gseq_bound) {
  // Runs on the *probing* engine while `client` — usually homed on another
  // engine — is claimed through its `serving` flag: force-lands every live
  // task of `client` ordered before `gseq_bound` that touches
  // [start, start + length) of `domain`. Charges accrue to this engine's
  // clock and DMA slice; the victim's channel state is never touched (parked
  // batches carry their completion times). Never retires: the victim may be
  // mid-ExecutePending up-stack on its own engine, holding `pending`
  // iterators.
  struct Hit {
    PendingTask* task;
    size_t offset;
    size_t length;
    uint64_t gseq;
  };
  std::vector<Hit> hits;
  const auto consider = [&](PendingTask* task, size_t local_off, size_t local_len) {
    if (task == nullptr || task->Done() || task->gseq >= gseq_bound) {
      return;
    }
    hits.push_back({task, local_off, local_len, task->gseq});
  };
  for (const RangeIndex::Side side : {RangeIndex::Side::kDst, RangeIndex::Side::kSrc}) {
    client.range_index.ForEachOverlap(
        side, domain, start, length, [&](const RangeIndex::Entry& entry) {
          const uint64_t lo = std::max(start, entry.start);
          const uint64_t hi = std::min(start + length, entry.start + entry.length);
          if (lo < hi) {
            consider(entry.task, entry.task_offset + (lo - entry.start),
                     static_cast<size_t>(hi - lo));
          }
          return true;
        });
  }
  // gseq order is the cross-client conflict order (fixed at submission):
  // settling in it reproduces exactly what a single engine executing in
  // global submission order would do to these bytes.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.gseq != b.gseq ? a.gseq < b.gseq : a.offset < b.offset;
  });
  const Cycles settle_start = ctx_->now();
  for (const Hit& hit : hits) {
    if (hit.task->Done() || RangeLanded(*hit.task, hit.offset, hit.length)) {
      continue;  // already landed (e.g. absorbed or delivered): nothing to order
    }
    ++stats_.cross_dep_settles;
    ++t_cross_settle;
    Status status =
        ExecuteTaskRange(client, *hit.task, hit.offset, hit.length, /*depth=*/0,
                         /*must_land=*/true);
    --t_cross_settle;
    if (!status.ok()) {
      if (status.code() == StatusCode::kUnavailable) {
        stats_.cross_dep_wait_cycles += ctx_->now() - settle_start;
        return status;  // nested defer: unwind to the original caller
      }
      DropTask(client, *hit.task, status);
    }
  }
  stats_.cross_dep_wait_cycles += ctx_->now() - settle_start;
  return OkStatus();
}

void Engine::ApplyDeferredAborts(Client& client) {
  if (client.pending_abort_requests == 0) {
    return;  // common case: nothing deferred (runs after every pending pass)
  }
  size_t remaining = 0;
  for (auto& pending : client.pending) {
    PendingTask& task = *pending;
    if (!task.abort_requested || task.Done()) {
      continue;
    }
    // A dependent is a live, later-ordered reader of this task's dst
    // (probed per contiguous destination piece).
    bool has_dependent = false;
    std::vector<RefPiece> dpieces;
    CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &dpieces);
    for (const RefPiece& dp : dpieces) {
      ++stats_.dep_probes;
      ctx_->Charge(timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          RangeIndex::Side::kSrc, dp.ref.domain(), dp.ref.start(), dp.length,
          [&](const RangeIndex::Entry& entry) {
            if (entry.order > task.order && !entry.task->Done()) {
              has_dependent = true;
              return false;
            }
            return true;
          });
      if (has_dependent) {
        break;
      }
    }
    if (has_dependent) {
      ++remaining;
    } else {
      // Bytes already on a DMA channel cannot be recalled: settle them first
      // so the abort never leaves parked references to a retiring task. If
      // the landing completes the task, the abort raced completion and lost.
      if (!task.dma_parked.empty()) {
        SettleTaskParked(client, task);
        if (task.Done()) {
          continue;
        }
      }
      task.aborted = true;
      OnTaskDone(client, task);
      ++stats_.tasks_aborted;
      // Settle the client-visible descriptor: the client explicitly discarded
      // this copy and promised not to use the data (§4.4), but csync_all
      // sweeps every registered copy and must not wait forever on it.
      if (task.task.descriptor != nullptr) {
        task.task.descriptor->MarkRange(task.task.descriptor_offset, task.task.length,
                                        ctx_->now());
      }
      CompleteTask(client, task);
    }
  }
  client.pending_abort_requests = remaining;
}

uint64_t Engine::ExecutePending(Client& client, uint64_t budget) {
  uint64_t served = 0;
  const Cycles now = ctx_->now();
  // Every task before the retirement frontier is Done: start there.
  size_t scan = client.fire_frontier;
  while (served < budget && scan < client.pending.size()) {
    // Find the first executable task (FIFO; lazy tasks wait for promotion,
    // dependency pull, abort, or their age timeout, §4.4).
    PendingTask* head = nullptr;
    std::vector<PendingTask*> round;
    for (; scan < client.pending.size(); ++scan) {
      PendingTask& task = *client.pending[scan];
      if (task.Done() || task.abort_requested) {
        continue;
      }
      if (task.task.type == TaskType::kLazy && !task.promoted &&
          now < task.task.submit_time + config_.lazy_timeout_cycles) {
        continue;
      }
      head = &task;
      break;
    }
    if (head == nullptr) {
      break;
    }

    round.push_back(head);
    // e-piggyback: fuse small adjacent tasks with no data dependencies into
    // one hardware round so even sub-12 KiB tasks get DMA parallelism (§4.3).
    // The fused path bypasses per-task dependency resolution, so the head
    // itself must also be conflict-free against every unfinished task ordered
    // before it (it may have been scheduled past skipped lazy tasks).
    // Scatter-gather tasks never fuse: per-segment KFUNC timing depends on
    // the ordered per-task path, and their round-size economics differ (one
    // SG task already fills a round).
    // Shared-visible tasks never fuse either: their cross-engine ledger probe
    // runs in the ordered per-task path (ExecuteTaskRange).
    bool head_fusable = head->task.sg == nullptr && !head->shared_visible &&
                        !client.completed_writes.AnyLaterOverlap(
                            head->task.dst.domain(), head->task.dst.start(),
                            head->task.length, head->gseq);
    if (head_fusable && HasAnyConflict(client, *head)) {
      head_fusable = false;
    }
    // The fused path copies whole tasks without segment clipping, so only
    // fully-unstarted tasks may fuse: a partially-executed task re-copying
    // its done segments would re-read sources that later tasks have since
    // legally overwritten (found by the concurrency stress harness).
    // Tasks with bytes parked on a DMA channel look unstarted (bytes_done is
    // credited only at the reap) but are not: re-copying them whole would
    // double their progress.
    if (head_fusable && head->bytes_done == 0 && head->dma_parked.empty() &&
        config_.use_dma && config_.enable_piggyback &&
        head->task.length < timing_->ipiggyback_min_task_bytes) {
      // A fused candidate executes ahead of every task it is hoisted over, so
      // it must have no data dependency (RAW/WAW/WAR, either direction) with
      // round members *or* any unfinished task ordered before it — including
      // lazy/abort-deferred tasks sitting before the round head.
      size_t round_bytes = head->task.length;
      for (size_t j = scan + 1; j < client.pending.size() && round.size() < kMaxFusedTasks;
           ++j) {
        PendingTask& cand = *client.pending[j];
        if (cand.Done()) {
          continue;
        }
        // Conflict with any live task (round members included — they are all
        // live pending tasks, so one probe set covers them), or a newer
        // completed write covering part of dst.
        const bool conflict =
            HasAnyConflict(client, cand) ||
            client.completed_writes.AnyLaterOverlap(cand.task.dst.domain(),
                                                    cand.task.dst.start(),
                                                    cand.task.length, cand.gseq);
        if (conflict || cand.task.type == TaskType::kLazy || cand.bytes_done != 0 ||
            !cand.dma_parked.empty() || cand.task.sg != nullptr || cand.shared_visible) {
          continue;  // stays in place; later candidates are checked against it
        }
        // Tasks with producers need the ordered (absorption-aware) path.
        if (HasEarlierLiveWriter(client, cand)) {
          continue;
        }
        round.push_back(&cand);
        round_bytes += cand.task.length;
        if (round_bytes >= config_.copy_slice_bytes) {
          break;
        }
      }
    }

    if (round.size() == 1) {
      // Parked (submitted, unreaped) bytes count as progress here: the slice
      // already paid their submission, and the reap that lands them is free
      // work the scheduler should not bill twice.
      const uint64_t before = head->bytes_done + head->dma_parked_bytes();
      const Status status =
          ExecuteTaskRange(client, *head, 0, head->task.length, 0, /*must_land=*/false);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        // kUnavailable is the cross-engine defer signal (a foreign serving
        // claim was held): the task stays queued and retries on a later pass.
        DropTask(client, *head, status);
      }
      const uint64_t after = head->bytes_done + head->dma_parked_bytes();
      served += after - before;
      if (after == before && !head->Done()) {
        ++scan;  // no forward progress on this task: move past it this pass
      }
    } else {
      // Fused round: build one combined subtask list. Dependencies were ruled
      // out above, so sources resolve plainly.
      std::vector<Subtask> subtasks;
      std::vector<uint64_t> before;
      bool fault = false;
      for (PendingTask* member : round) {
        before.push_back(member->bytes_done + member->dma_parked_bytes());
        std::vector<SourcePiece> sources;
        ResolveSources(client, *member, 0, member->task.length, 0, &sources);
        const Status status = BuildSubtasks(client, *member, 0, sources, &subtasks);
        if (!status.ok()) {
          DropTask(client, *member, status);
          fault = true;
          break;
        }
      }
      if (!fault) {
        ExecuteRound(client, subtasks);
      }
      for (size_t i = 0; i < round.size(); ++i) {
        if (round[i]->bytes_done >= round[i]->task.length) {
          CompleteTask(client, *round[i], /*fifo_ordered=*/true);
        }
        served += round[i]->bytes_done + round[i]->dma_parked_bytes() -
                  (i < before.size() ? before[i] : 0);
      }
    }
  }
  ApplyDeferredAborts(client);
  RetireDone(client);
  return served;
}

// ---------------------------------------------------------------------------
// Completion, drops, retirement
// ---------------------------------------------------------------------------

void Engine::MarkProgress(Client& client, PendingTask& task, size_t offset, size_t length,
                          Cycles when) {
  const bool was_done = task.Done();
  task.progress->MarkRange(task.progress_offset + offset, length, when);
  // Mirror into the client-visible descriptor (§4.1): csync gates on it.
  if (task.task.descriptor != nullptr) {
    task.task.descriptor->MarkRange(task.task.descriptor_offset + offset, length, when);
  }
  task.bytes_done += length;
  stats_.bytes_copied += length;
  if (task.task.sg != nullptr) {
    // Fused-IPC accounting is exact by construction: every byte that lands
    // through a bookkeeping task skipped the intermediate kernel buffer, and
    // aborted remainders never reach MarkProgress.
    if (task.task.sg->bookkeeping) {
      stats_.fused_ipc_bytes += length;
    }
    CreditSgSegments(client, task, offset, length, when);
  }
  if (!was_done && task.Done()) {
    OnTaskDone(client, task);
  }
}

void Engine::CreditSgSegments(Client& client, PendingTask& task, size_t offset, size_t length,
                              Cycles when) {
  const std::vector<size_t>& ends = task.sg_ends;
  const size_t end = offset + length;
  // Segments ending at or before `offset` hold none of these bytes; start at
  // the first one past it (zero-length segments are never credited: they
  // start fully landed).
  for (size_t i = std::upper_bound(ends.begin(), ends.end(), offset) - ends.begin();
       i < ends.size(); ++i) {
    const size_t seg_start = i == 0 ? 0 : ends[i - 1];
    if (seg_start >= end) {
      break;
    }
    const size_t ovl = std::min(end, ends[i]) - std::max(offset, seg_start);
    task.sg_remaining[i] -= std::min(ovl, task.sg_remaining[i]);
  }
  // Fire the longest fully-credited prefix, IN SEGMENT ORDER. Progress can
  // land out of order within a round (DMA takes the tail while the CPU
  // finishes the head), but the op-list is a stream: segment k's handler
  // (skb delivery on the send path) must not run before segment k-1's, or
  // the receiver reassembles the bytes in the wrong order — exactly the
  // per-op path's task-order firing. The same stream can also span several
  // tasks: while an earlier-ordered task still has bytes in flight, defer
  // the firing too — FireOrderedCompletions replays it at the reap.
  if (HasEarlierParked(client, task.order)) {
    return;
  }
  FireReadySgSegments(client, task, when);
}

void Engine::FireReadySgSegments(Client& client, PendingTask& task, Cycles when) {
  (void)client;
  const auto& segs = task.task.sg->segs;
  while (task.sg_next_fire < segs.size() && task.sg_remaining[task.sg_next_fire] == 0) {
    const size_t i = task.sg_next_fire++;
    task.sg_fired[i] = true;
    if (segs[i].on_complete != nullptr) {
      // The per-segment KFUNC is the per-skb completion handler of the
      // per-op path: same dispatch charge, same kfuncs_run accounting.
      ctx_->Charge(timing_->handler_dispatch_cycles);
      segs[i].on_complete(when);
      ++stats_.kfuncs_run;
      NoteKfuncTime(when);
    }
  }
}

void Engine::FireRemainingSgSegments(Client& client, PendingTask& task, Cycles when) {
  (void)client;
  if (task.task.sg == nullptr) {
    return;
  }
  const auto& segs = task.task.sg->segs;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (task.sg_fired[i]) {
      continue;
    }
    task.sg_fired[i] = true;
    task.sg_remaining[i] = 0;
    if (segs[i].on_complete != nullptr) {
      ctx_->Charge(timing_->handler_dispatch_cycles);
      segs[i].on_complete(when);
      ++stats_.kfuncs_run;
      NoteKfuncTime(when);
    }
  }
  task.sg_next_fire = segs.size();
}

void Engine::CompleteTask(Client& client, PendingTask& task, bool fifo_ordered) {
  if (task.handler_fired) {
    return;
  }
  // FIFO-ordered completions must not overtake an earlier task whose bytes
  // are still on a DMA channel: handlers fire in submission order, and the
  // socket paths reassemble streams in handler order. The handler stays
  // unfired; FireOrderedCompletions delivers it at the reap that lands the
  // earlier task.
  if (fifo_ordered && HasEarlierParked(client, task.order)) {
    return;
  }
  // Per-client handler order is submission order, unconditionally: if an
  // earlier task has not fired, this one stays done-but-unfired and the
  // predecessor's completion cascades it (below). Cross-engine settles need
  // this so KFUNC order does not depend on which engine's settle landed the
  // task first.
  if (HasEarlierUnfired(client, task.order)) {
    // The blocking predecessor may itself be done (completed mid-round via
    // absorption) with nobody left to call CompleteTask on it:
    // run the cascade so done-but-unfired prefixes drain now, not never.
    FireDeferredSuccessors(client);
    return;
  }
  task.handler_fired = true;
  client.AdvanceFireFrontier();  // `task` was the frontier: nothing earlier is unfired
  if (!task.aborted) {
    ++stats_.tasks_completed;
  }
  client.total_copy_length += task.task.length;
  // Any segment KFUNC not yet fired through progress fires now: the kernel
  // buffers behind an aborted vectored task must be reclaimed exactly as the
  // per-op path's completion handlers would have.
  FireRemainingSgSegments(client, task, ctx_->now());
  PostHandler& handler = task.task.handler;
  switch (handler.kind) {
    case PostHandler::Kind::kNone:
      break;
    case PostHandler::Kind::kKernelFunc:
      ctx_->Charge(timing_->handler_dispatch_cycles);
      handler.fn(ctx_->now());
      ++stats_.kfuncs_run;
      NoteKfuncTime(ctx_->now());
      break;
    case PostHandler::Kind::kUserFunc: {
      QueuePair* pair = task.origin != nullptr ? task.origin : &client.default_pair();
      HandlerTask ht;
      ht.fn = handler.fn;
      ht.ready_time = ctx_->now();
      if (!pair->user.handler_q.TryPush(std::move(ht))) {
        // Handler queue full: execute inline as a last resort (never drop a
        // reclamation handler).
        handler.fn(ctx_->now());
      }
      ++stats_.ufuncs_queued;
      break;
    }
  }
  FireDeferredSuccessors(client);
}

bool Engine::HasEarlierUnfired(const Client& client, uint64_t order) const {
  const PendingTask* frontier = client.frontier();
  return frontier != nullptr && frontier->order < order;
}

void Engine::FireDeferredSuccessors(Client& client) {
  if (t_fire_cascade) {
    return;  // the outermost completion runs one cascade for the whole chain
  }
  t_fire_cascade = true;
  // The first unfired, incomplete task blocks everything behind it. Done
  // includes aborted tasks — their handlers fire too.
  for (PendingTask* task = client.frontier(); task != nullptr && task->Done();
       task = client.frontier()) {
    CompleteTask(client, *task);
    if (!task->handler_fired) {
      break;
    }
  }
  t_fire_cascade = false;
}

void Engine::DropTask(Client& client, PendingTask& task, const Status& reason) {
  COPIER_LOG(kDebug) << "dropping task " << task.task.id << ": " << reason.ToString();
  // Bytes already on a DMA channel land regardless of the fault; settle them
  // so no parked batch keeps a reference to the retiring task.
  if (!task.dma_parked.empty()) {
    SettleTaskParked(client, task);
  }
  ++stats_.tasks_dropped;
  task.aborted = true;
  OnTaskDone(client, task);
  if (!task.handler_fired) {
    task.handler_fired = true;  // handlers do not run for faulted tasks
    if (client.frontier() == &task) {
      client.AdvanceFireFrontier();
    } else {
      client.retire_out_of_order = true;  // retired behind the frontier
    }
  }
  if (task.progress != nullptr) {
    task.progress->MarkFailed(ctx_->now());
  }
  if (task.task.descriptor != nullptr) {
    task.task.descriptor->MarkFailed(ctx_->now());
  }
  if (client.process() != nullptr) {
    client.process()->Deliver(simos::Signal::kSegv);
  }
  FireDeferredSuccessors(client);
}

void Engine::RetireDone(Client& client) {
  // A task retires once it is Done and its handler has fired. One with bytes
  // still parked on a DMA channel must outlive the reap (the parked batch
  // holds a pointer to it).
  const auto retire = [](const PendingTask& task) {
    return task.Done() && task.handler_fired && task.dma_parked.empty();
  };
  // Handlers fire in order, so retirees normally form a prefix.
  while (!client.pending.empty() && retire(*client.pending.front())) {
    client.pending.pop_front();
    --client.fire_frontier;
  }
  // A fired task still waiting on parked bytes at the front, or a task
  // dropped behind the frontier, leaves retirees further back: sweep once.
  if (client.fire_frontier != 0 || client.retire_out_of_order) {
    std::erase_if(client.pending,
                  [&retire](const std::unique_ptr<PendingTask>& task) { return retire(*task); });
    client.retire_out_of_order = false;
    client.fire_frontier = 0;
    client.AdvanceFireFrontier();
  }
  client.pending_count.store(client.pending.size(), std::memory_order_release);
  // Prune: a completed write only matters while an EARLIER-sequenced task
  // could still execute late.
  const uint64_t min_pending_gseq =
      client.live_gseqs.empty() ? UINT64_MAX : *client.live_gseqs.begin();
  client.completed_writes.Prune(min_pending_gseq, [this](const LandedWriteLog::Write& w) {
    // Cross-engine retention: a write into a shared domain that landed before
    // the domain turned shared has no ledger tombstone — this log entry is
    // the only record a foreign lower-gseq prober can import (SettleForeign's
    // owner-log probe). Keep it while such a prober may still be outstanding.
    return cross_ != nullptr && cross_->LandedWriteStillNeeded(w.domain, w.gseq);
  });
}

// ---------------------------------------------------------------------------
// Pending-range interval index
// ---------------------------------------------------------------------------

void Engine::IndexInsert(Client& client, PendingTask& task) {
  if (task.in_range_index || task.Done()) {
    return;
  }
  // One entry per contiguous piece of each side: a scatter-gather side
  // contributes one entry per segment, carrying the segment's task-local
  // prefix offset so probes map hits back to task bytes.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Insert(RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), p.length,
                              task.order, &task, p.task_offset);
  }
  pieces.clear();
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Insert(RangeIndex::Side::kSrc, p.ref.domain(), p.ref.start(), p.length,
                              task.order, &task, p.task_offset);
  }
  task.in_range_index = true;
}

void Engine::IndexErase(Client& client, PendingTask& task) {
  if (!task.in_range_index) {
    return;
  }
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Erase(RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), p.length,
                             task.order);
  }
  pieces.clear();
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Erase(RangeIndex::Side::kSrc, p.ref.domain(), p.ref.start(), p.length,
                             task.order);
  }
  task.in_range_index = false;
}

void Engine::OnTaskDone(Client& client, PendingTask& task) {
  if (task.done_processed) {
    return;
  }
  task.done_processed = true;
  IndexErase(client, task);
  const auto live = client.live_gseqs.find(task.gseq);
  COPIER_CHECK(live != client.live_gseqs.end()) << "task " << task.task.id << " was never live";
  client.live_gseqs.erase(live);
  // Log the write so a still-pending earlier task executing late cannot
  // overwrite it (WAW); pruned in RetireDone once no earlier task remains.
  // One log entry per contiguous destination piece.
  if (!task.aborted) {
    std::vector<RefPiece> pieces;
    CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
    for (const RefPiece& p : pieces) {
      client.completed_writes.Insert({task.gseq, p.ref.domain(), p.ref.start(), p.length});
    }
  }
  if (cross_ != nullptr && task.shared_visible) {
    cross_->UnregisterShared(client, task);
  }
}

bool Engine::HasAnyConflict(Client& client, const PendingTask& self) {
  const CopyTask& b = self.task;
  bool conflict = false;
  const auto probe = [&](RangeIndex::Side side, const RefPiece& p) {
    if (conflict) {
      return;
    }
    ++stats_.dep_probes;
    ctx_->Charge(timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        side, p.ref.domain(), p.ref.start(), p.length, [&](const RangeIndex::Entry& entry) {
          if (entry.task != &self && !entry.task->Done()) {
            conflict = true;
            return false;
          }
          return true;
        });
  };
  std::vector<RefPiece> pieces;
  CollectPieces(b, /*dst_side=*/true, 0, b.length, &pieces);
  for (const RefPiece& p : pieces) {
    probe(RangeIndex::Side::kDst, p);  // WAW: another writer of our dst
    probe(RangeIndex::Side::kSrc, p);  // WAR: a reader of our dst
  }
  pieces.clear();
  CollectPieces(b, /*dst_side=*/false, 0, b.length, &pieces);
  for (const RefPiece& p : pieces) {
    probe(RangeIndex::Side::kDst, p);  // RAW: a writer of our src
  }
  return conflict;
}

bool Engine::HasEarlierLiveWriter(Client& client, const PendingTask& reader) {
  const CopyTask& b = reader.task;
  bool found = false;
  std::vector<RefPiece> pieces;
  CollectPieces(b, /*dst_side=*/false, 0, b.length, &pieces);
  for (const RefPiece& p : pieces) {
    ++stats_.dep_probes;
    ctx_->Charge(timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), p.length,
        [&](const RangeIndex::Entry& entry) {
          if (entry.order < reader.order && !entry.task->Done()) {
            found = true;
            return false;
          }
          return true;
        });
    if (found) {
      break;
    }
  }
  return found;
}

// ---------------------------------------------------------------------------
// Asynchronous DMA completion (DESIGN.md §9)
// ---------------------------------------------------------------------------

uint64_t Engine::ReapParkedDma(Client& client, Cycles now) {
  if (client.parked_dma.empty()) {
    return 0;
  }
  // Land ripe batches in completion order (ties: submission order), so
  // progress marks, SG-segment credits and completion handlers replay exactly
  // as the hardware retired them.
  std::vector<size_t> ripe;
  for (size_t i = 0; i < client.parked_dma.size(); ++i) {
    if (client.parked_dma[i].completion_time <= now) {
      ripe.push_back(i);
    }
  }
  if (ripe.empty()) {
    return 0;
  }
  std::stable_sort(ripe.begin(), ripe.end(), [&client](size_t a, size_t b) {
    return client.parked_dma[a].completion_time < client.parked_dma[b].completion_time;
  });
  uint64_t landed = 0;
  for (size_t i : ripe) {
    Client::ParkedDma& batch = client.parked_dma[i];
    // One completion check per batch.
    ctx_->Charge(timing_->dma_completion_check_cycles);
    stats_.dma_bytes_completed += batch.bytes;
    ++stats_.dma_batches_completed;
    landed += batch.bytes;
    for (const Client::ParkedDma::Seg& seg : batch.segs) {
      std::erase(seg.task->dma_parked, std::make_pair(seg.offset, seg.offset + seg.length));
      MarkProgress(client, *seg.task, seg.offset, seg.length, batch.completion_time);
    }
    client.dma_inflight_bytes.fetch_sub(batch.bytes, std::memory_order_relaxed);
  }
  // Erase reaped entries back-to-front so earlier indices stay valid. Until
  // here every ripe batch still counts as parked for HasEarlierParked.
  std::sort(ripe.begin(), ripe.end(), std::greater<size_t>());
  for (size_t i : ripe) {
    client.parked_orders.erase(client.parked_orders.find(client.parked_dma[i].min_order));
    client.parked_dma.erase(client.parked_dma.begin() + static_cast<ptrdiff_t>(i));
  }
  // Handlers deferred behind the landed batches fire now, in task order —
  // never in batch-completion order, which multi-channel submission permutes.
  FireOrderedCompletions(client, now);
  return landed;
}

bool Engine::HasEarlierParked(const Client& client, uint64_t order) const {
  return !client.parked_orders.empty() && *client.parked_orders.begin() < order;
}

void Engine::FireOrderedCompletions(Client& client, Cycles when) {
  // Everything before the frontier has fired; if one of those tasks still
  // has bytes in flight, everything behind it waits for that landing.
  const PendingTask* frontier = client.frontier();
  if (frontier == nullptr || HasEarlierParked(client, frontier->order)) {
    return;
  }
  for (size_t i = client.fire_frontier; i < client.pending.size(); ++i) {
    PendingTask& task = *client.pending[i];
    if (!task.dma_parked.empty()) {
      break;  // everything behind this task waits for its landing
    }
    if (task.handler_fired) {
      continue;
    }
    if (task.task.sg != nullptr) {
      FireReadySgSegments(client, task, when);
    }
    if (task.Done()) {
      CompleteTask(client, task);
    }
  }
}

void Engine::SettleParkedRange(Client& client, PendingTask& task, size_t offset, size_t length) {
  if (client.parked_dma.empty()) {
    return;
  }
  const size_t end = offset + length;
  Cycles target = 0;
  for (const Client::ParkedDma& batch : client.parked_dma) {
    for (const Client::ParkedDma::Seg& seg : batch.segs) {
      if (seg.task == &task && seg.offset < end && seg.offset + seg.length > offset) {
        target = std::max(target, batch.completion_time);
        break;
      }
    }
  }
  if (target == 0) {
    return;  // nothing of this range is in flight
  }
  if (target > ctx_->now()) {
    stats_.dma_drain_wait_cycles += target - ctx_->now();
    ctx_->WaitUntil(target);
  }
  ReapParkedDma(client, ctx_->now());
}

// ---------------------------------------------------------------------------
// Top-level serving
// ---------------------------------------------------------------------------

uint64_t Engine::ServeClient(Client& client, uint64_t max_bytes) {
  const Cycles serve_start = ctx_->now();
  const Cycles idle_start = idle_cycles_;
  ctx_->Charge(timing_->poll_iteration_cycles);
  // Land whatever the hardware finished since the last serve before taking
  // new work: reaps unblock csync gates and retire parked tasks. This is the
  // scheduler-integrated reaper — FinishServe re-queues a client that still
  // has pending (possibly only parked) tasks, so the next pick lands here.
  ReapParkedDma(client, ctx_->now());
  IngestClient(client);
  ProcessSyncQueues(client);
  const uint64_t served = ExecutePending(client, max_bytes);
  ReapParkedDma(client, ctx_->now());
  if (served == 0 && !client.parked_dma.empty()) {
    // Nothing executable and nothing newly landed: only in-flight hardware
    // remains. Advance to the completions instead of spinning serve after
    // serve with the clock stuck before them (virtual time moves only by
    // charges and waits). The wait is drain time, not an execution stall —
    // the engine had no other work for this client.
    while (!client.parked_dma.empty()) {
      Cycles earliest = client.parked_dma.front().completion_time;
      for (const Client::ParkedDma& batch : client.parked_dma) {
        earliest = std::min(earliest, batch.completion_time);
      }
      if (earliest > ctx_->now()) {
        stats_.dma_drain_wait_cycles += earliest - ctx_->now();
        idle_cycles_ += earliest - ctx_->now();
        ctx_->WaitUntil(earliest);
      }
      ReapParkedDma(client, ctx_->now());
    }
    RetireDone(client);
  }
  dma_.Poll(ctx_->now());
  stats_.serve_cycles += ctx_->now() - serve_start - (idle_cycles_ - idle_start);
  return served;
}

void Engine::DrainClient(Client& client) {
  // Two passes may be required: executing tasks can fire KFUNCs that submit
  // more tasks (e.g. skb reclamation rarely does, but be safe) — loop until
  // no work remains.
  for (int i = 0; i < 64; ++i) {
    if (!client.HasQueuedWork()) {
      return;
    }
    ServeClient(client, UINT64_MAX);
  }
}

}  // namespace copier::core
