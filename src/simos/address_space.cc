#include "src/simos/address_space.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::simos {

AddressSpace::AddressSpace(PhysicalMemory* phys, uint32_t asid, const hw::TimingModel* timing)
    : phys_(phys), asid_(asid), timing_(timing) {
  // Default CoW page copy: the kernel's method (ERMS) with modeled cost.
  cow_copy_ = [this](void* dst, const void* src, size_t len, ExecContext* ctx) {
    hw::ErmsCopy(dst, src, len);
    ChargeCtx(ctx, timing_->CpuCopyCycles(hw::CopyUnitKind::kErms, len));
  };
}

AddressSpace::~AddressSpace() {
  for (auto& [vpn, pte] : page_table_) {
    if (pte.present) {
      phys_->Unref(pte.pfn);
    }
  }
}

uint64_t AddressSpace::LockedAllocateVaRange(size_t length) {
  // Keep one guard page between ranges; align huge-capable regions naturally.
  const uint64_t base = AlignUp(next_va_, kHugePageSize);
  next_va_ = base + AlignUp(length, kPageSize) + kPageSize;
  return base;
}

StatusOr<uint64_t> AddressSpace::MapAnonymous(size_t length, std::string name, bool populate,
                                              bool huge) {
  if (length == 0) {
    return InvalidArgument("zero-length mapping");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (huge) {
    length = AlignUp(length, kHugePageSize);
  }
  const uint64_t base = LockedAllocateVaRange(length);
  Vma vma;
  vma.start = base;
  vma.length = AlignUp(length, kPageSize);
  vma.name = std::move(name);
  vma.huge = huge;
  vmas_.emplace(base, vma);
  if (populate) {
    for (uint64_t va = base; va < base + vma.length; va += kPageSize) {
      COPIER_CHECK_OK(LockedFaultIn(vmas_.at(base), va, nullptr));
    }
  }
  return base;
}

StatusOr<uint64_t> AddressSpace::MapSharedFrom(AddressSpace& other, uint64_t other_va,
                                               size_t length, bool writable) {
  if (!IsAligned(other_va, kPageSize)) {
    return InvalidArgument("shared mapping source must be page-aligned");
  }
  // Collect source frames first (other's lock), then install under our lock.
  const size_t pages = AlignUp(length, kPageSize) >> kPageShift;
  std::vector<Pfn> frames;
  frames.reserve(pages);
  {
    std::lock_guard<std::mutex> other_lock(other.mu_);
    for (size_t i = 0; i < pages; ++i) {
      auto it = other.page_table_.find(PageNumber(other_va) + i);
      if (it == other.page_table_.end() || !it->second.present) {
        return FailedPrecondition("shared mapping source page not present");
      }
      frames.push_back(it->second.pfn);
    }
    for (Pfn pfn : frames) {
      other.phys_->Ref(pfn);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t base = LockedAllocateVaRange(pages << kPageShift);
  Vma vma;
  vma.start = base;
  vma.length = pages << kPageShift;
  vma.name = "shared";
  vma.writable = writable;
  vma.shared = true;
  vmas_.emplace(base, vma);
  for (size_t i = 0; i < pages; ++i) {
    Pte pte;
    pte.pfn = frames[i];
    pte.present = true;
    pte.writable = writable;
    page_table_[PageNumber(base) + i] = pte;
  }
  return base;
}

Status AddressSpace::Unmap(uint64_t va, size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = vmas_.find(va);
  if (it == vmas_.end() || it->second.length != AlignUp(length, kPageSize)) {
    return InvalidArgument("unmap must cover a whole mapping");
  }
  const Vma vma = it->second;
  for (uint64_t page_va = vma.start; page_va < vma.start + vma.length; page_va += kPageSize) {
    auto pit = page_table_.find(PageNumber(page_va));
    if (pit != page_table_.end()) {
      if (pit->second.pin_count > 0) {
        return FailedPrecondition("unmap of pinned page");
      }
      if (pit->second.present) {
        phys_->Unref(pit->second.pfn);
      }
      page_table_.erase(pit);
    }
  }
  LockedNotifyInvalidation(vma.start, vma.length);
  vmas_.erase(it);
  return OkStatus();
}

const AddressSpace::Vma* AddressSpace::LockedFindVma(uint64_t va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  const Vma& vma = it->second;
  if (va >= vma.start && va < vma.start + vma.length) {
    return &vma;
  }
  return nullptr;
}

Status AddressSpace::LockedFaultIn(const Vma& vma, uint64_t va, ExecContext* ctx) {
  ++minor_faults_;
  ChargeCtx(ctx, timing_->page_fault_entry_cycles);
  if (vma.huge) {
    // Fault the whole 2 MiB block with contiguous frames.
    const uint64_t block = AlignDown(va, kHugePageSize);
    const size_t frames = kHugePageSize >> kPageShift;
    auto base_or = phys_->AllocContiguous(frames);
    if (!base_or.ok()) {
      return base_or.status();
    }
    ChargeCtx(ctx, timing_->page_alloc_cycles * 4);  // buddy alloc of a 2 MiB block
    std::memset(phys_->FrameData(*base_or), 0, kHugePageSize);
    for (size_t i = 0; i < frames; ++i) {
      Pte pte;
      pte.pfn = *base_or + i;
      pte.present = true;
      pte.writable = vma.writable;
      page_table_[PageNumber(block) + i] = pte;
      if (i > 0) {
        phys_->Ref(pte.pfn);  // AllocContiguous set count 1 per frame already
        phys_->Unref(pte.pfn);
      }
    }
    return OkStatus();
  }
  auto pfn_or = phys_->AllocFrame();
  if (!pfn_or.ok()) {
    return pfn_or.status();
  }
  ChargeCtx(ctx, timing_->page_alloc_cycles);
  std::memset(phys_->FrameData(*pfn_or), 0, kPageSize);
  Pte pte;
  pte.pfn = *pfn_or;
  pte.present = true;
  pte.writable = vma.writable;
  page_table_[PageNumber(va)] = pte;
  return OkStatus();
}

Status AddressSpace::LockedBreakCow(uint64_t va, Pte& pte, ExecContext* ctx) {
  ++cow_faults_;
  ChargeCtx(ctx, timing_->page_fault_entry_cycles);
  const Vma* vma = LockedFindVma(va);
  const bool huge = vma != nullptr && vma->huge;
  const size_t block_size = huge ? kHugePageSize : kPageSize;
  const uint64_t block_va = AlignDown(va, block_size);
  const uint64_t first_vpn = PageNumber(block_va);
  const size_t pages = block_size >> kPageShift;

  // Fast path: sole owner — just restore write permission.
  bool sole_owner = true;
  for (size_t i = 0; i < pages; ++i) {
    auto it = page_table_.find(first_vpn + i);
    COPIER_CHECK(it != page_table_.end() && it->second.present);
    if (phys_->RefCount(it->second.pfn) > 1) {
      sole_owner = false;
    }
  }
  if (sole_owner) {
    for (size_t i = 0; i < pages; ++i) {
      page_table_[first_vpn + i].writable = true;
      page_table_[first_vpn + i].cow = false;
    }
    return OkStatus();
  }

  // Copy path: new frames + page copy (via the pluggable hook so Copier can
  // accelerate it, §5.2), then remap.
  StatusOr<Pfn> base_or = huge ? phys_->AllocContiguous(pages) : phys_->AllocFrame();
  if (!base_or.ok()) {
    return base_or.status();
  }
  ChargeCtx(ctx, timing_->page_alloc_cycles * (huge ? 4 : 1));
  if (huge) {
    const Pte& old = page_table_[first_vpn];
    // Huge CoW blocks were allocated contiguously, so one bulk copy suffices.
    cow_copy_(phys_->FrameData(*base_or), phys_->FrameData(old.pfn), block_size, ctx);
  } else {
    cow_copy_(phys_->FrameData(*base_or), phys_->FrameData(pte.pfn), kPageSize, ctx);
  }
  for (size_t i = 0; i < pages; ++i) {
    Pte& entry = page_table_[first_vpn + i];
    phys_->Unref(entry.pfn);
    entry.pfn = *base_or + i;
    entry.writable = true;
    entry.cow = false;
  }
  ChargeCtx(ctx, timing_->page_remap_cycles * pages / (huge ? 64 : 1) +
                     timing_->tlb_shootdown_cycles);
  LockedNotifyInvalidation(block_va, block_size);
  return OkStatus();
}

StatusOr<Pfn> AddressSpace::LockedTranslate(uint64_t va, bool for_write, ExecContext* ctx) {
  const Vma* vma = LockedFindVma(va);
  if (vma == nullptr) {
    return PermissionDenied("unmapped address");
  }
  if (for_write && !vma->writable) {
    return PermissionDenied("write to read-only mapping");
  }
  auto it = page_table_.find(PageNumber(va));
  if (it == page_table_.end() || !it->second.present) {
    COPIER_RETURN_IF_ERROR(LockedFaultIn(*vma, va, ctx));
    it = page_table_.find(PageNumber(va));
  }
  Pte& pte = it->second;
  if (for_write && (pte.cow || !pte.writable)) {
    COPIER_RETURN_IF_ERROR(LockedBreakCow(va, pte, ctx));
    it = page_table_.find(PageNumber(va));  // may have been rewritten
  }
  return it->second.pfn;
}

StatusOr<Pfn> AddressSpace::TranslateRead(uint64_t va, ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  return LockedTranslate(va, /*for_write=*/false, ctx);
}

StatusOr<Pfn> AddressSpace::TranslateWrite(uint64_t va, ExecContext* ctx) {
  WaitForCopyLocks(va, 1);
  std::lock_guard<std::mutex> lock(mu_);
  return LockedTranslate(va, /*for_write=*/true, ctx);
}

bool AddressSpace::IsMapped(uint64_t va) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LockedFindVma(va) != nullptr;
}

bool AddressSpace::IsResident(uint64_t va, bool for_write) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(PageNumber(va));
  if (it == page_table_.end() || !it->second.present) {
    return false;
  }
  if (for_write && (it->second.cow || !it->second.writable)) {
    return false;
  }
  return true;
}

StatusOr<PhysRun> AddressSpace::ResolveRun(uint64_t va, size_t max_length, bool for_write,
                                           ExecContext* ctx) {
  if (max_length == 0) {
    return InvalidArgument("zero-length run");
  }
  if (for_write) {
    WaitForCopyLocks(va, max_length);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto first_or = LockedTranslate(va, for_write, ctx);
  if (!first_or.ok()) {
    return first_or.status();
  }
  PhysRun run;
  run.host = phys_->FrameData(*first_or) + PageOffset(va);
  run.length = std::min<size_t>(max_length, kPageSize - PageOffset(va));

  Pfn prev = *first_or;
  uint64_t next_va = PageBase(va) + kPageSize;
  while (run.length < max_length) {
    auto pfn_or = LockedTranslate(next_va, for_write, ctx);
    if (!pfn_or.ok()) {
      return pfn_or.status();  // whole range must be accessible
    }
    if (*pfn_or != prev + 1) {
      break;  // physical discontinuity: run ends here
    }
    run.length += std::min<size_t>(max_length - run.length, kPageSize);
    prev = *pfn_or;
    next_va += kPageSize;
  }
  return run;
}

Status AddressSpace::PinRange(uint64_t va, size_t length, bool for_write, ExecContext* ctx) {
  if (for_write) {
    WaitForCopyLocks(va, length);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first = PageNumber(va);
  const uint64_t last = PageNumber(va + length - 1);
  for (uint64_t vpn = first; vpn <= last; ++vpn) {
    auto pfn_or = LockedTranslate(vpn << kPageShift, for_write, ctx);
    if (!pfn_or.ok()) {
      // Roll back pins taken so far.
      for (uint64_t undo = first; undo < vpn; ++undo) {
        --page_table_[undo].pin_count;
      }
      return pfn_or.status();
    }
    ++page_table_[vpn].pin_count;
    ChargeCtx(ctx, timing_->page_pin_cycles);
  }
  return OkStatus();
}

void AddressSpace::UnpinRange(uint64_t va, size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first = PageNumber(va);
  const uint64_t last = PageNumber(va + length - 1);
  for (uint64_t vpn = first; vpn <= last; ++vpn) {
    auto it = page_table_.find(vpn);
    COPIER_CHECK(it != page_table_.end() && it->second.pin_count > 0);
    --it->second.pin_count;
  }
}

Status AddressSpace::ForEachChunk(uint64_t va, size_t length, bool for_write, ExecContext* ctx,
                                  const std::function<void(uint8_t*, size_t)>& fn) {
  if (for_write && length > 0) {
    WaitForCopyLocks(va, length);
  }
  while (length > 0) {
    StatusOr<Pfn> pfn_or = [&] {
      std::lock_guard<std::mutex> lock(mu_);
      return LockedTranslate(va, for_write, ctx);
    }();
    if (!pfn_or.ok()) {
      return pfn_or.status();
    }
    const size_t chunk = std::min<size_t>(length, kPageSize - PageOffset(va));
    fn(phys_->FrameData(*pfn_or) + PageOffset(va), chunk);
    va += chunk;
    length -= chunk;
  }
  return OkStatus();
}

Status AddressSpace::ReadBytes(uint64_t va, void* out, size_t length, ExecContext* ctx) {
  auto* dst = static_cast<uint8_t*>(out);
  return ForEachChunk(va, length, /*for_write=*/false, ctx, [&](uint8_t* host, size_t n) {
    std::memcpy(dst, host, n);
    dst += n;
  });
}

Status AddressSpace::WriteBytes(uint64_t va, const void* in, size_t length, ExecContext* ctx) {
  const auto* src = static_cast<const uint8_t*>(in);
  return ForEachChunk(va, length, /*for_write=*/true, ctx, [&](uint8_t* host, size_t n) {
    std::memcpy(host, src, n);
    src += n;
  });
}

int AddressSpace::LockRangeForCopy(uint64_t va, size_t length,
                                   std::function<void()> resolver) {
  COPIER_CHECK(resolver != nullptr);  // a lock nobody can resolve would spin forever
  std::lock_guard<std::mutex> lock(mu_);
  const int token = next_copy_lock_token_++;
  copy_locks_.emplace_back(token, CopyLock{va, length, std::move(resolver)});
  copy_locks_active_.store(copy_locks_.size(), std::memory_order_release);
  return token;
}

void AddressSpace::UnlockRangeForCopy(int token) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = copy_locks_.begin(); it != copy_locks_.end(); ++it) {
    if (it->first == token) {
      copy_locks_.erase(it);
      break;
    }
  }
  copy_locks_active_.store(copy_locks_.size(), std::memory_order_release);
}

bool AddressSpace::WriteLockedForCopy(uint64_t va, size_t length) const {
  if (copy_locks_active_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [token, cl] : copy_locks_) {
    if (RangesOverlap(va, length, cl.va, cl.length)) {
      return true;
    }
  }
  return false;
}

void AddressSpace::WaitForCopyLocks(uint64_t va, size_t length) {
  // Fast path: no live lock anywhere in this space (the common case — the
  // counter is only non-zero while a fused IPC copy is in flight).
  if (copy_locks_active_.load(std::memory_order_acquire) == 0) {
    return;
  }
  for (;;) {
    std::function<void()> resolver;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [token, cl] : copy_locks_) {
        if (RangesOverlap(va, length, cl.va, cl.length)) {
          resolver = cl.resolver;  // copy: the entry may die once mu_ drops
          break;
        }
      }
    }
    if (resolver == nullptr) {
      return;
    }
    copy_lock_waits_.fetch_add(1, std::memory_order_relaxed);
    resolver();
  }
}

StatusOr<std::unique_ptr<AddressSpace>> AddressSpace::ForkCow(uint32_t child_asid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto child = std::make_unique<AddressSpace>(phys_, child_asid, timing_);
  child->vmas_ = vmas_;
  child->next_va_ = next_va_;
  for (auto& [vpn, pte] : page_table_) {
    if (!pte.present) {
      continue;
    }
    if (pte.pin_count > 0) {
      return FailedPrecondition("fork while pages are pinned for copy");
    }
    // Shared mappings stay shared-writable; anon pages go CoW on both sides.
    const Vma* vma = LockedFindVma(vpn << kPageShift);
    const bool shared = vma != nullptr && vma->shared;
    Pte child_pte = pte;
    if (!shared && pte.writable) {
      pte.writable = false;
      pte.cow = true;
      child_pte.writable = false;
      child_pte.cow = true;
    }
    child_pte.pin_count = 0;
    phys_->Ref(pte.pfn);
    child->page_table_[vpn] = child_pte;
  }
  LockedNotifyInvalidation(0, SIZE_MAX);  // permissions changed broadly
  return child;
}

int AddressSpace::AddInvalidationListener(InvalidationFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(fn));
  return token;
}

void AddressSpace::RemoveInvalidationListener(int token) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(listeners_, [token](const auto& entry) { return entry.first == token; });
}

void AddressSpace::LockedNotifyInvalidation(uint64_t va, size_t length) {
  for (const auto& [token, fn] : listeners_) {
    fn(asid_, va, length);
  }
}

uint64_t AddressSpace::resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t count = 0;
  for (const auto& [vpn, pte] : page_table_) {
    count += pte.present ? 1 : 0;
  }
  return count;
}

}  // namespace copier::simos
