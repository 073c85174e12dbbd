// libCopier — the client library (§5.1.1, Table 2).
//
// High-level APIs mirror the paper exactly:
//   amemcpy(dst, src, n)        — asynchronous memcpy on the default queues;
//   amemmove(dst, src, n)       — overlap-safe (split into two tasks, the one
//                                 whose source will be overwritten first);
//   csync(addr, n)              — ensure prior async copies of [addr, addr+n)
//                                 finished: descriptor fast path, Sync Task +
//                                 wait on the slow path;
//   csync_all()                 — ensure all async copies and FUNCs finish.
//
// Low-level APIs (_amemcpy/_csync) expose customized descriptor management,
// lazy tasks, UFUNC handlers, and per-thread queues (multi-queue, fd-based).
//
// The library maintains a descriptor pool (pre-allocated size classes) and a
// registry mapping destination ranges to active descriptors for csync lookup.
// Addresses are simulated user VAs in the owning process's address space.
#ifndef COPIER_SRC_LIBCOPIER_LIBCOPIER_H_
#define COPIER_SRC_LIBCOPIER_LIBCOPIER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/core/descriptor.h"
#include "src/core/linux_glue.h"
#include "src/core/service.h"

namespace copier::lib {

// Pre-allocated descriptors bucketed by capacity (§5.1.1: "libCopier
// maintains a descriptor pool and pre-allocates descriptors with different
// sizes").
class DescriptorPool {
 public:
  explicit DescriptorPool(size_t segment_size = core::kDefaultSegmentSize);

  // Fetches a descriptor covering `length` bytes (reset and ready to use).
  core::Descriptor* Acquire(size_t length);
  void Release(core::Descriptor* descriptor);

  size_t segment_size() const { return segment_size_; }

 private:
  size_t segment_size_;
  std::mutex mu_;
  // free_[k] holds descriptors with capacity 2^k segments.
  std::vector<std::vector<core::Descriptor*>> free_;
  std::vector<std::unique_ptr<core::Descriptor>> all_;
};

struct AmemcpyOptions {
  core::Descriptor* descriptor = nullptr;  // custom descriptor (reuse, §5.1.1)
  size_t descriptor_offset = 0;
  int fd = 0;                              // queue pair (0 = default; per-thread otherwise)
  bool lazy = false;                       // Lazy Copy Task (§4.4)
  std::function<void(Cycles)> ufunc;       // post-copy handler run by post_handlers()
};

// One entry of a vectored submission (copier_submitv): an independent
// dst/src/length copy in the caller's address space.
struct CopyVecEntry {
  uint64_t dst = 0;
  uint64_t src = 0;
  size_t length = 0;
};

class CopierLib {
 public:
  // Binds the library to an attached client. In manual-mode services csync
  // pumps the service inline; in threaded mode it spins on the descriptor.
  CopierLib(core::Client* client, core::CopierService* service);
  ~CopierLib();

  CopierLib(const CopierLib&) = delete;
  CopierLib& operator=(const CopierLib&) = delete;

  // --- high-level (Table 2) ---

  // Asynchronous copy; falls back to synchronous copy when the ring is full
  // (§4.6). `ctx` is the calling thread's clock (nullable).
  void amemcpy(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx = nullptr);
  void amemmove(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx = nullptr);

  Status csync(uint64_t addr, size_t n, ExecContext* ctx = nullptr);
  Status csync_all(ExecContext* ctx = nullptr);

  // Binds a descriptor to a shared-memory range so csync on shm addresses
  // resolves through it (Binder/shm use, §5.1.1). The descriptor covers
  // [shm_base, shm_base + descriptor->length()).
  void shm_descr_bind(uint64_t shm_base, core::Descriptor* descriptor);

  // --- low-level (Table 2) ---

  // Returns the descriptor tracking the copy (the provided one, or a pooled
  // one registered for csync). Null only if the copy completed synchronously.
  core::Descriptor* _amemcpy(uint64_t dst, uint64_t src, size_t n, const AmemcpyOptions& opts,
                             ExecContext* ctx = nullptr);
  Status _csync(core::Descriptor* descriptor, size_t offset, size_t n,
                ExecContext* ctx = nullptr);

  // Submits an abort Sync Task discarding still-queued copies writing the
  // range (§4.4).
  void abort_range(uint64_t addr, size_t n, ExecContext* ctx = nullptr);

  // copier_submitv(): vectored submission — N independent copies published
  // with ONE ring transaction and ONE doorbell carrying the accumulated
  // length. Each entry gets a pooled descriptor registered for csync. Falls
  // back to per-entry _amemcpy when the batch reservation fails (ring full).
  void copier_submitv(const std::vector<CopyVecEntry>& entries, ExecContext* ctx = nullptr,
                      int fd = 0);

  // copier_create_queue(): per-thread queue pair; returns its fd.
  int create_queue();

  // Runs queued UFUNC handler tasks (§4.1 post_handlers()).
  size_t post_handlers(ExecContext* ctx = nullptr);

  // Drives the service for this client inline (manual-mode pump); wakes the
  // Copier threads in threaded mode.
  void Pump();

  core::Client* client() { return client_; }
  DescriptorPool& pool() { return pool_; }

 private:
  struct ActiveCopy {
    uint64_t dst = 0;
    size_t length = 0;
    core::Descriptor* descriptor = nullptr;
    size_t descriptor_offset = 0;
    bool pooled = false;   // descriptor owned by pool_ (release when finished)
    bool shm_bound = false;
  };

  // Submits one Copy Task; returns false if the ring was full (caller falls
  // back to synchronous copy).
  bool SubmitTask(uint64_t dst, uint64_t src, size_t n, core::Descriptor* descriptor,
                  size_t descriptor_offset, const AmemcpyOptions& opts, ExecContext* ctx);
  void SyncFallbackCopy(uint64_t dst, uint64_t src, size_t n, ExecContext* ctx);
  Status WaitRange(core::Descriptor* descriptor, size_t offset, size_t n, ExecContext* ctx);
  // Finds the newest active copy covering `addr`; null if none.
  ActiveCopy* FindActive(uint64_t addr);
  void ReleaseFinished();

  core::Client* client_;
  core::CopierService* service_;
  const hw::TimingModel* timing_;
  DescriptorPool pool_;

  std::mutex mu_;
  std::vector<ActiveCopy> active_;
};

}  // namespace copier::lib

#endif  // COPIER_SRC_LIBCOPIER_LIBCOPIER_H_
