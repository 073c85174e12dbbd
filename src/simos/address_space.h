// AddressSpace — simulated per-process virtual memory (page table + VMAs).
//
// Reproduces the memory-subsystem features Copier must coordinate with
// (§4.5.4): on-demand zero-fill paging, copy-on-write after fork, page
// pinning (mapping locked for the duration of a copy), shared mappings
// (Binder/shm), and mapping-change invalidation callbacks (consumed by the
// ATCache, §4.3). All methods are thread-safe: the Copier service translates
// and pins pages of client address spaces concurrently with the owning
// process faulting pages in.
//
// Simulated virtual addresses are plain integers; host backing is reached by
// translating to a frame and indexing PhysicalMemory. VA 0 is never mapped.
#ifndef COPIER_SRC_SIMOS_ADDRESS_SPACE_H_
#define COPIER_SRC_SIMOS_ADDRESS_SPACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "src/common/align.h"
#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/hw/timing_model.h"
#include "src/simos/phys_memory.h"

namespace copier::simos {

inline constexpr size_t kHugePageSize = 2 * kMiB;

// A physically contiguous piece of a virtual range: the dispatcher's subtask
// unit (Fig. 7-b).
struct PhysRun {
  uint8_t* host = nullptr;  // host pointer to the first byte
  size_t length = 0;        // contiguous bytes available (<= requested)
};

class AddressSpace {
 public:
  // Fired when a VA range's mapping changes (unmap, CoW break, fork):
  // (asid, first VA affected, byte length).
  using InvalidationFn = std::function<void(uint32_t, uint64_t, size_t)>;
  // Page-copy hook used by the CoW break path; Copier-Linux installs an
  // accelerated implementation (§5.2). Defaults to ERMS + modeled charge.
  using PageCopyFn = std::function<void(void* dst, const void* src, size_t len, ExecContext* ctx)>;

  AddressSpace(PhysicalMemory* phys, uint32_t asid, const hw::TimingModel* timing);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint32_t asid() const { return asid_; }
  PhysicalMemory* phys() { return phys_; }

  // --- VMA management -------------------------------------------------------

  // Maps `length` bytes of anonymous zero-fill memory; returns the base VA.
  // `populate` pre-faults all pages (like MAP_POPULATE). `huge` uses 2 MiB
  // fault granularity with physically contiguous backing.
  StatusOr<uint64_t> MapAnonymous(size_t length, std::string name, bool populate = false,
                                  bool huge = false);

  // Maps anonymous memory at the fixed, page-aligned `va` (MAP_FIXED_NOREPLACE):
  // fails if the range overlaps an existing mapping.
  StatusOr<uint64_t> MapAnonymousAt(uint64_t va, size_t length, std::string name,
                                    bool populate = false);

  // Maps the frames backing [other_va, other_va+length) of `other` into this
  // space (shared memory / Binder buffer mapping). Pages must be present in
  // `other`. Returns the base VA here.
  StatusOr<uint64_t> MapSharedFrom(AddressSpace& other, uint64_t other_va, size_t length,
                                   bool writable);

  Status Unmap(uint64_t va, size_t length);

  // --- Translation and faults ------------------------------------------------

  // Translates for read/write, faulting pages in on demand (zero-fill) and
  // breaking CoW on writes. Charges fault costs to `ctx`. Fails with
  // kPermissionDenied for unmapped or read-only-written addresses.
  StatusOr<Pfn> TranslateRead(uint64_t va, ExecContext* ctx);
  StatusOr<Pfn> TranslateWrite(uint64_t va, ExecContext* ctx);

  bool IsMapped(uint64_t va) const;
  // Present and, if `for_write`, writable without a CoW break.
  bool IsResident(uint64_t va, bool for_write) const;

  // Longest physically contiguous run starting at `va`, at most `max_length`
  // bytes, after faulting in pages. Used by the dispatcher to form subtasks.
  StatusOr<PhysRun> ResolveRun(uint64_t va, size_t max_length, bool for_write, ExecContext* ctx);

  // --- Pinning (proactive fault handling, §4.5.4) ----------------------------

  Status PinRange(uint64_t va, size_t length, bool for_write, ExecContext* ctx);
  void UnpinRange(uint64_t va, size_t length);

  // --- Byte access helpers (app-side) ----------------------------------------

  Status ReadBytes(uint64_t va, void* out, size_t length, ExecContext* ctx = nullptr);
  Status WriteBytes(uint64_t va, const void* in, size_t length, ExecContext* ctx = nullptr);
  // Invokes fn(host_chunk, chunk_len) over page-bounded chunks of the range.
  Status ForEachChunk(uint64_t va, size_t length, bool for_write, ExecContext* ctx,
                      const std::function<void(uint8_t*, size_t)>& fn);

  // --- Fork / CoW -------------------------------------------------------------

  // Duplicates this space with copy-on-write semantics (shared frames, both
  // sides' writable anon pages downgraded to read-only CoW).
  StatusOr<std::unique_ptr<AddressSpace>> ForkCow(uint32_t child_asid);

  void SetCowCopyFn(PageCopyFn fn) { cow_copy_ = std::move(fn); }

  // --- Fused-IPC source write-protection (DESIGN.md §12) ----------------------

  // Write-protects [va, va+length) until UnlockRangeForCopy: any write-side
  // access (TranslateWrite, for_write ResolveRun/PinRange/ForEachChunk,
  // WriteBytes) overlapping the range blocks by invoking `resolver` — which
  // must make forward progress on the in-flight fused copy (pump the service
  // in manual mode, yield to the copier threads in threaded mode) — until the
  // lock is released. Reads are unaffected, as is the engine itself: the
  // locked range is only ever the *source* of the in-flight copy, and the
  // engine's internal fault paths do not route through the public write
  // entry points. Returns a token for UnlockRangeForCopy.
  int LockRangeForCopy(uint64_t va, size_t length, std::function<void()> resolver);
  void UnlockRangeForCopy(int token);
  // True when any live copy-lock overlaps [va, va+length).
  bool WriteLockedForCopy(uint64_t va, size_t length) const;
  // Blocks while a copy-lock overlaps [va, va+length), the wait every
  // write-side access makes; must be called with mu_ NOT held (the resolver
  // re-enters the space and the service).
  void WaitForCopyLocks(uint64_t va, size_t length);
  uint64_t copy_lock_waits() const {
    return copy_lock_waits_.load(std::memory_order_relaxed);
  }

  // --- Invalidation listeners -------------------------------------------------

  int AddInvalidationListener(InvalidationFn fn);
  void RemoveInvalidationListener(int token);

  // --- Stats -------------------------------------------------------------------

  uint64_t minor_faults() const { return minor_faults_; }
  uint64_t cow_faults() const { return cow_faults_; }
  uint64_t resident_pages() const;

 private:
  struct Pte {
    Pfn pfn = 0;
    bool present = false;
    bool writable = false;
    bool cow = false;
    uint16_t pin_count = 0;
  };

  struct Vma {
    uint64_t start = 0;
    size_t length = 0;
    std::string name;
    bool writable = true;
    bool huge = false;    // 2 MiB fault granularity
    bool shared = false;  // MapSharedFrom: frames owned elsewhere (refcounted)
  };

  struct CopyLock {
    uint64_t va = 0;
    size_t length = 0;
    std::function<void()> resolver;
  };

  // All Locked* helpers require mu_ held.
  const Vma* LockedFindVma(uint64_t va) const;
  StatusOr<Pfn> LockedTranslate(uint64_t va, bool for_write, ExecContext* ctx);
  Status LockedFaultIn(const Vma& vma, uint64_t va, ExecContext* ctx);
  Status LockedBreakCow(uint64_t va, Pte& pte, ExecContext* ctx);
  void LockedNotifyInvalidation(uint64_t va, size_t length);
  uint64_t LockedAllocateVaRange(size_t length);
  void LockedMapAnonymous(uint64_t base, size_t length, std::string name, bool populate,
                          bool huge);

  PhysicalMemory* phys_;
  uint32_t asid_;
  const hw::TimingModel* timing_;

  mutable std::mutex mu_;
  std::map<uint64_t, Vma> vmas_;                 // keyed by start VA
  std::unordered_map<uint64_t, Pte> page_table_;  // keyed by VPN
  uint64_t next_va_ = 0x4000'0000;               // bump allocator with guard gaps
  PageCopyFn cow_copy_;

  std::vector<std::pair<int, InvalidationFn>> listeners_;
  int next_listener_token_ = 1;

  uint64_t minor_faults_ = 0;
  uint64_t cow_faults_ = 0;

  // Fused-IPC source locks (guarded by mu_; the count is a lock-free fast
  // path so unrelated writes never take mu_ twice).
  std::vector<std::pair<int, CopyLock>> copy_locks_;
  int next_copy_lock_token_ = 1;
  std::atomic<size_t> copy_locks_active_{0};
  std::atomic<uint64_t> copy_lock_waits_{0};
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_ADDRESS_SPACE_H_
