#include "src/libcopier/libcopier.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::lib {

// ---------------------------------------------------------------------------
// DescriptorPool
// ---------------------------------------------------------------------------

namespace {

// Size classes: 2^0 .. 2^12 segments (up to 16 MiB at 4 KiB segments).
constexpr size_t kSizeClasses = 13;
constexpr size_t kPreallocPerClass = 8;

size_t ClassFor(size_t segments) {
  size_t k = 0;
  while ((size_t{1} << k) < segments && k + 1 < kSizeClasses) {
    ++k;
  }
  return k;
}

}  // namespace

DescriptorPool::DescriptorPool(size_t segment_size) : segment_size_(segment_size) {
  free_.resize(kSizeClasses);
  // Pre-allocate the small classes (most copies are < 64 KiB; §2.2).
  for (size_t k = 0; k < 6; ++k) {
    for (size_t i = 0; i < kPreallocPerClass; ++i) {
      all_.push_back(
          std::make_unique<core::Descriptor>((size_t{1} << k) * segment_size_, segment_size_));
      free_[k].push_back(all_.back().get());
    }
  }
}

core::Descriptor* DescriptorPool::Acquire(size_t length) {
  const size_t segments = std::max<size_t>(1, (length + segment_size_ - 1) / segment_size_);
  const size_t k = ClassFor(segments);
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_[k].empty()) {
    core::Descriptor* descriptor = free_[k].back();
    free_[k].pop_back();
    descriptor->Reset(length);
    return descriptor;
  }
  all_.push_back(
      std::make_unique<core::Descriptor>((size_t{1} << k) * segment_size_, segment_size_));
  core::Descriptor* descriptor = all_.back().get();
  descriptor->Reset(length);
  return descriptor;
}

void DescriptorPool::Release(core::Descriptor* descriptor) {
  // Capacity class from the descriptor's segment capacity at construction:
  // length may have been Reset smaller, so recompute conservatively.
  const size_t k = ClassFor(std::max<size_t>(1, descriptor->num_segments()));
  std::lock_guard<std::mutex> lock(mu_);
  free_[k].push_back(descriptor);
}

// ---------------------------------------------------------------------------
// CopierLib
// ---------------------------------------------------------------------------

CopierLib::CopierLib(core::Client* client, core::CopierService* service)
    : client_(client),
      service_(service),
      timing_(&service->timing()),
      pool_(service->config().default_segment_size) {}

CopierLib::~CopierLib() = default;

void CopierLib::SyncFallbackCopy(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx) {
  // Queue full: plain userspace memcpy (AVX), as sync copy would have done.
  // A direct copy is a synchronous program point: it reads `src` (which may
  // be produced by pending copies) and writes `dst`/overwrites data pending
  // tasks may still read — quiesce first (§5.1.1 guidelines applied to the
  // library's own direct access).
  COPIER_CHECK_OK(csync_all(ctx));
  simos::AddressSpace* space = client_->space();
  COPIER_CHECK(space != nullptr);
  std::vector<uint8_t> buffer(n);
  COPIER_CHECK_OK(space->ReadBytes(src, buffer.data(), n, ctx));
  COPIER_CHECK_OK(space->WriteBytes(dst, buffer.data(), n, ctx));
  ChargeCtx(ctx, timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, n));
}

bool CopierLib::SubmitTask(uint64_t dst, uint64_t src, size_t n, core::Descriptor* descriptor,
                           size_t descriptor_offset, const AmemcpyOptions& opts,
                           ExecContext* ctx) {
  simos::AddressSpace* space = client_->space();
  COPIER_CHECK(space != nullptr) << "CopierLib requires a process-backed client";
  core::CopyQueueEntry entry;
  entry.kind = core::CopyQueueEntry::Kind::kCopy;
  core::CopyTask& task = entry.task;
  task.dst = core::MemRef::User(space, dst);
  task.src = core::MemRef::User(space, src);
  task.length = n;
  task.descriptor = descriptor;
  task.descriptor_offset = descriptor_offset;
  task.type = opts.lazy ? core::TaskType::kLazy : core::TaskType::kNormal;
  task.submit_time = CtxNow(ctx);
  task.gseq = service_->AllocateGlobalSeq();
  if (opts.ufunc) {
    task.handler = core::PostHandler::UserFunc(opts.ufunc);
  }
  ChargeCtx(ctx, timing_->task_submit_cycles);
  const uint64_t gseq = task.gseq;
  if (!client_->pair(opts.fd).user.copy_q.TryPush(std::move(entry))) {
    // The task dies here (caller falls back to a synchronous copy); its
    // stamped sequence must not stay outstanding.
    service_->RetireGlobalSeq(gseq);
    return false;
  }
  service_->NotifyRunnable(*client_, n);
  return true;
}

core::Descriptor* CopierLib::_amemcpy(uint64_t dst, uint64_t src, size_t n,
                                      const AmemcpyOptions& opts, ExecContext* ctx) {
  if (n == 0) {
    return opts.descriptor;
  }
  core::Descriptor* descriptor = opts.descriptor;
  const bool pooled = descriptor == nullptr;
  size_t descriptor_offset = opts.descriptor_offset;
  if (pooled) {
    descriptor = pool_.Acquire(n);
    descriptor_offset = 0;
  }
  if (!SubmitTask(dst, src, n, descriptor, descriptor_offset, opts, ctx)) {
    SyncFallbackCopy(dst, src, n, ctx);
    descriptor->MarkRange(descriptor_offset, n, CtxNow(ctx));
    if (opts.ufunc) {
      opts.ufunc(CtxNow(ctx));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(ActiveCopy{dst, n, descriptor, descriptor_offset, pooled, false});
  }
  return descriptor;
}

void CopierLib::amemcpy(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx) {
  _amemcpy(dst, src, n, AmemcpyOptions{}, ctx);
}

void CopierLib::amemmove(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx) {
  if (n == 0 || dst == src) {
    return;
  }
  if (!RangesOverlap(dst, n, src, n)) {
    amemcpy(dst, src, n, ctx);
    return;
  }
  // Overlapping move (footnote 3, §4.1): split into displacement-sized tasks
  // submitted in the safe direction — each task's source is read by an
  // *earlier-submitted* task before this task overwrites it, and the engine's
  // WAR dependency tracking preserves that order even under promotion. No
  // individual task self-overlaps (chunk length == displacement).
  const uint64_t d = dst > src ? dst - src : src - dst;
  if (d < kPageSize) {
    // Tiny displacement would explode into n/d tasks: synchronous memmove.
    // Direct access — quiesce pending copies first (see SyncFallbackCopy).
    COPIER_CHECK_OK(csync_all(ctx));
    simos::AddressSpace* space = client_->space();
    std::vector<uint8_t> buffer(n);
    COPIER_CHECK_OK(space->ReadBytes(src, buffer.data(), n, ctx));
    COPIER_CHECK_OK(space->WriteBytes(dst, buffer.data(), n, ctx));
    ChargeCtx(ctx, timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, n));
    return;
  }
  if (dst > src) {
    // Forward move: copy from the tail downward.
    size_t remaining = n;
    while (remaining > 0) {
      const size_t chunk = std::min<size_t>(d, remaining);
      remaining -= chunk;
      amemcpy(dst + remaining, src + remaining, chunk, ctx);
    }
  } else {
    // Backward move: copy from the head upward.
    for (size_t x = 0; x < n;) {
      const size_t chunk = std::min<size_t>(d, n - x);
      amemcpy(dst + x, src + x, chunk, ctx);
      x += chunk;
    }
  }
}

void CopierLib::copier_submitv(const std::vector<CopyVecEntry>& entries, ExecContext* ctx,
                               int fd) {
  size_t count = 0;
  size_t total = 0;
  for (const CopyVecEntry& e : entries) {
    if (e.length > 0) {
      ++count;
      total += e.length;
    }
  }
  if (count == 0) {
    return;
  }
  auto per_entry = [&] {
    AmemcpyOptions opts;
    opts.fd = fd;
    for (const CopyVecEntry& e : entries) {
      if (e.length > 0) {
        _amemcpy(e.dst, e.src, e.length, opts, ctx);
      }
    }
  };
  simos::AddressSpace* space = client_->space();
  COPIER_CHECK(space != nullptr) << "CopierLib requires a process-backed client";

  // One ring transaction for the whole vector: reserve N contiguous slots,
  // fill them, publish with a single release (§4.2.1 order is the slot
  // order). Each entry stays an independent Copy Task with its own pooled
  // descriptor so csync per destination range still works.
  MpscRingBuffer<core::CopyQueueEntry>::Batch batch;
  if (!client_->pair(fd).user.copy_q.TryReserveBatch(count, &batch)) {
    per_entry();  // ring too full for the batch: degrade, don't drop
    return;
  }
  std::vector<ActiveCopy> registered;
  registered.reserve(count);
  size_t slot = 0;
  for (const CopyVecEntry& e : entries) {
    if (e.length == 0) {
      continue;
    }
    core::Descriptor* descriptor = pool_.Acquire(e.length);
    core::CopyQueueEntry entry;
    entry.kind = core::CopyQueueEntry::Kind::kCopy;
    core::CopyTask& task = entry.task;
    task.dst = core::MemRef::User(space, e.dst);
    task.src = core::MemRef::User(space, e.src);
    task.length = e.length;
    task.descriptor = descriptor;
    task.descriptor_offset = 0;
    task.submit_time = CtxNow(ctx);
    task.gseq = service_->AllocateGlobalSeq();
    batch[slot++] = std::move(entry);
    registered.push_back(ActiveCopy{e.dst, e.length, descriptor, 0, true, false});
  }
  batch.Commit();
  ChargeCtx(ctx, timing_->task_submitv_base_cycles +
                     count * timing_->task_submitv_per_seg_cycles);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.insert(active_.end(), registered.begin(), registered.end());
  }
  service_->NotifyRunnable(*client_, total);
}

CopierLib::ActiveCopy* CopierLib::FindActive(uint64_t addr) {
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    if (addr >= it->dst && addr < it->dst + it->length) {
      return &*it;
    }
  }
  return nullptr;
}

Status CopierLib::WaitRange(core::Descriptor* descriptor, size_t offset, size_t n,
                            ExecContext* ctx) {
  if (descriptor->RangeReady(offset, n)) {
    // Fast path: the segments are already marked — csync costs one bitmap
    // check (§4.6 break-even accounting).
    if (descriptor->failed()) {
      return FaultError("descriptor failed");
    }
    if (ctx != nullptr) {
      ctx->WaitUntil(descriptor->ReadyTime(offset, n));
    }
    return OkStatus();
  }
  // Slow path: submit a Sync Task (promotes the producing copies and their
  // dependencies, §4.1) and wait.
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kPromote;
  sync.addr = core::MemRef::User(client_->space(), 0);  // filled by caller variants
  // The Sync Task names the *destination* range; reconstruct it from the
  // registry entry that owns this descriptor range.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
      if (it->descriptor == descriptor && offset >= it->descriptor_offset &&
          offset < it->descriptor_offset + it->length) {
        sync.addr = core::MemRef::User(client_->space(),
                                       it->dst + (offset - it->descriptor_offset));
        sync.length = std::min(n, it->length - (offset - it->descriptor_offset));
        break;
      }
    }
  }
  ChargeCtx(ctx, timing_->csync_submit_cycles);
  if (sync.length > 0) {
    client_->default_pair().user.sync_q.TryPush(std::move(sync));
    service_->NotifyRunnable(*client_);
  }
  std::function<void()> pump;
  if (service_->mode() == core::CopierService::Mode::kManual) {
    pump = [this] { service_->Serve(*client_); };
  }
  return core::WaitDescriptor(*descriptor, offset, n, ctx, pump);
}

Status CopierLib::_csync(core::Descriptor* descriptor, size_t offset, size_t n,
                         ExecContext* ctx) {
  ChargeCtx(ctx, timing_->csync_check_cycles);
  return WaitRange(descriptor, offset, n, ctx);
}

Status CopierLib::csync(uint64_t addr, size_t n, ExecContext* ctx) {
  ChargeCtx(ctx, timing_->csync_check_cycles);
  // The range may span several active copies (e.g. a chunked amemmove):
  // collect every (descriptor, range) piece overlapping [addr, addr+n), then
  // wait on each. Newest-registered copies win per byte, but since every
  // writer of a byte must land before csync returns, waiting on all
  // overlapping copies is both sufficient and necessary.
  struct Piece {
    core::Descriptor* descriptor;
    size_t offset;
    size_t length;
  };
  std::vector<Piece> pieces;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ActiveCopy& copy : active_) {
      if (!RangesOverlap(copy.dst, copy.length, addr, n)) {
        continue;
      }
      const uint64_t start = std::max(copy.dst, addr);
      const uint64_t end = std::min(copy.dst + copy.length, addr + n);
      pieces.push_back(Piece{copy.descriptor, copy.descriptor_offset + (start - copy.dst),
                             static_cast<size_t>(end - start)});
    }
  }
  if (pieces.empty()) {
    return OkStatus();  // no async copy covers this range: nothing to sync
  }
  Status first_error;
  for (const Piece& piece : pieces) {
    const Status status = WaitRange(piece.descriptor, piece.offset, piece.length, ctx);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  ReleaseFinished();
  return first_error;
}

Status CopierLib::csync_all(ExecContext* ctx) {
  // Snapshot under the lock, wait outside it. shm bindings are address
  // aliases for csync(addr) lookup, not copy records: only the ranges the
  // kernel actually reported into them are ever marked, so waiting on the
  // whole binding would block forever. They are skipped here; the copies
  // *into* bound buffers are k-mode tasks the engine drains on its own.
  std::vector<ActiveCopy> copies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ActiveCopy& copy : active_) {
      if (!copy.shm_bound) {
        copies.push_back(copy);
      }
    }
  }
  Status first_error;
  for (const ActiveCopy& copy : copies) {
    const Status status =
        WaitRange(copy.descriptor, copy.descriptor_offset, copy.length, ctx);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  post_handlers(ctx);
  ReleaseFinished();
  return first_error;
}

void CopierLib::shm_descr_bind(uint64_t shm_base, core::Descriptor* descriptor) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.push_back(
      ActiveCopy{shm_base, descriptor->length(), descriptor, 0, false, true});
}

void CopierLib::abort_range(uint64_t addr, size_t n, ExecContext* ctx) {
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kAbort;
  sync.addr = core::MemRef::User(client_->space(), addr);
  sync.length = n;
  ChargeCtx(ctx, timing_->csync_submit_cycles);
  client_->default_pair().user.sync_q.TryPush(std::move(sync));
  if (service_->mode() == core::CopierService::Mode::kThreaded) {
    service_->NotifyRunnable(*client_);
  } else {
    service_->Serve(*client_);
  }
}

int CopierLib::create_queue() { return client_->CreateQueuePair(); }

void CopierLib::Pump() {
  if (service_->mode() == core::CopierService::Mode::kManual) {
    service_->Serve(*client_);
  } else {
    service_->NotifyRunnable(*client_);
  }
}

size_t CopierLib::post_handlers(ExecContext* ctx) {
  size_t ran = 0;
  for (size_t i = 0; i < client_->pair_count(); ++i) {
    auto& queue = client_->pair(static_cast<int>(i)).user.handler_q;
    while (auto handler = queue.TryPop()) {
      if (ctx != nullptr) {
        ctx->WaitUntil(handler->ready_time);
      }
      ChargeCtx(ctx, timing_->handler_dispatch_cycles);
      handler->fn(CtxNow(ctx));
      ++ran;
    }
  }
  return ran;
}

void CopierLib::ReleaseFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(active_, [this](const ActiveCopy& copy) {
    if (copy.shm_bound) {
      return false;  // shm bindings persist until rebound
    }
    if (!copy.descriptor->RangeReady(copy.descriptor_offset, copy.length)) {
      return false;
    }
    if (copy.pooled) {
      pool_.Release(copy.descriptor);
    }
    return true;
  });
}

}  // namespace copier::lib
