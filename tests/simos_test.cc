// Unit tests for the simulated OS substrate: physical memory, address spaces
// (on-demand paging, CoW fork, pinning, shared mappings, invalidation),
// sockets, and Binder.
#include <gtest/gtest.h>

#include "src/libcopier/libcopier.h"
#include "src/simos/binder.h"
#include "src/simos/kernel.h"
#include "tests/test_util.h"

namespace copier::simos {
namespace {

using copier::test::FillPattern;
using copier::test::ReadAll;

TEST(PhysicalMemory, AllocFreeRefcount) {
  PhysicalMemory phys(1 * kMiB);
  auto a = phys.AllocFrame();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(phys.RefCount(*a), 1u);
  phys.Ref(*a);
  EXPECT_EQ(phys.RefCount(*a), 2u);
  phys.Unref(*a);
  phys.Unref(*a);
  EXPECT_EQ(phys.RefCount(*a), 0u);
  EXPECT_EQ(phys.free_frames(), phys.total_frames());
}

TEST(PhysicalMemory, SequentialAllocIsContiguous) {
  PhysicalMemory phys(1 * kMiB, PhysicalMemory::AllocPolicy::kSequential);
  auto a = phys.AllocFrame();
  auto b = phys.AllocFrame();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*b, *a + 1);
}

TEST(PhysicalMemory, FragmentedAllocRarelyContiguous) {
  PhysicalMemory phys(16 * kMiB, PhysicalMemory::AllocPolicy::kFragmented, 42);
  int contiguous = 0;
  Pfn prev = 0;
  for (int i = 0; i < 100; ++i) {
    auto f = phys.AllocFrame();
    ASSERT_TRUE(f.ok());
    if (i > 0 && *f == prev + 1) {
      ++contiguous;
    }
    prev = *f;
  }
  EXPECT_LT(contiguous, 20);
}

TEST(PhysicalMemory, AllocContiguousRun) {
  PhysicalMemory phys(4 * kMiB);
  auto run = phys.AllocContiguous(16);
  ASSERT_TRUE(run.ok());
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(phys.RefCount(*run + i), 1u);
  }
  // Exhaustion path.
  PhysicalMemory small(8 * kPageSize);
  EXPECT_FALSE(small.AllocContiguous(16).ok());
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory phys_{64 * kMiB};
  AddressSpace space_{&phys_, 1, &hw::TimingModel::Default()};
};

TEST_F(AddressSpaceTest, OnDemandZeroFill) {
  auto va = space_.MapAnonymous(8 * kKiB, "anon");
  ASSERT_TRUE(va.ok());
  EXPECT_TRUE(space_.IsMapped(*va));
  EXPECT_FALSE(space_.IsResident(*va, false));
  auto bytes = ReadAll(space_, *va, 8 * kKiB);  // faults in
  EXPECT_TRUE(space_.IsResident(*va, false));
  for (uint8_t b : bytes) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(space_.minor_faults(), 2u);
}

TEST_F(AddressSpaceTest, UnmappedAccessFails) {
  uint8_t byte = 0;
  EXPECT_FALSE(space_.ReadBytes(0x10, &byte, 1).ok());
  auto va = space_.MapAnonymous(kPageSize, "one");
  ASSERT_TRUE(va.ok());
  EXPECT_FALSE(space_.ReadBytes(*va + kPageSize, &byte, 1).ok());  // past end
}

TEST_F(AddressSpaceTest, UnmapInvalidatesAndRejectsPartial) {
  auto va = space_.MapAnonymous(4 * kPageSize, "u", /*populate=*/true);
  ASSERT_TRUE(va.ok());
  int invalidations = 0;
  space_.AddInvalidationListener([&](uint32_t, uint64_t, size_t) { ++invalidations; });
  EXPECT_FALSE(space_.Unmap(*va, kPageSize).ok());  // partial unmap unsupported
  EXPECT_TRUE(space_.Unmap(*va, 4 * kPageSize).ok());
  EXPECT_EQ(invalidations, 1);
  EXPECT_FALSE(space_.IsMapped(*va));
}

TEST_F(AddressSpaceTest, PinBlocksUnmap) {
  auto va = space_.MapAnonymous(2 * kPageSize, "p", true);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(space_.PinRange(*va, kPageSize, false, nullptr).ok());
  EXPECT_FALSE(space_.Unmap(*va, 2 * kPageSize).ok());
  space_.UnpinRange(*va, kPageSize);
  EXPECT_TRUE(space_.Unmap(*va, 2 * kPageSize).ok());
}

TEST_F(AddressSpaceTest, ResolveRunStopsAtDiscontinuity) {
  // Sequential policy: a populated VMA is physically contiguous.
  auto va = space_.MapAnonymous(8 * kPageSize, "r", true);
  ASSERT_TRUE(va.ok());
  auto run = space_.ResolveRun(*va + 100, 8 * kPageSize - 100, false, nullptr);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->length, 8 * kPageSize - 100);
}

TEST_F(AddressSpaceTest, ForkCowSharesThenCopies) {
  auto va = space_.MapAnonymous(4 * kPageSize, "cow", true);
  ASSERT_TRUE(va.ok());
  FillPattern(space_, *va, 4 * kPageSize, 9);
  const auto original = ReadAll(space_, *va, 4 * kPageSize);

  auto child_or = space_.ForkCow(2);
  ASSERT_TRUE(child_or.ok());
  AddressSpace& child = **child_or;

  // Child reads see parent data without copying.
  EXPECT_EQ(ReadAll(child, *va, 4 * kPageSize), original);
  EXPECT_EQ(child.cow_faults(), 0u);

  // Child write breaks CoW; parent unaffected.
  uint8_t patch = 0xAB;
  ASSERT_TRUE(child.WriteBytes(*va, &patch, 1).ok());
  EXPECT_GE(child.cow_faults(), 1u);
  EXPECT_EQ(ReadAll(space_, *va, 4 * kPageSize), original);
  EXPECT_EQ(ReadAll(child, *va, 1)[0], 0xAB);

  // Parent write on another page also breaks CoW (both sides downgraded).
  uint8_t patch2 = 0xCD;
  ASSERT_TRUE(space_.WriteBytes(*va + kPageSize, &patch2, 1).ok());
  EXPECT_EQ(ReadAll(child, *va + kPageSize, 1)[0], original[kPageSize]);
}

TEST_F(AddressSpaceTest, CowSoleOwnerFastPath) {
  auto va = space_.MapAnonymous(kPageSize, "solo", true);
  ASSERT_TRUE(va.ok());
  FillPattern(space_, *va, kPageSize, 3);
  {
    auto child_or = space_.ForkCow(2);
    ASSERT_TRUE(child_or.ok());
    // Child destroyed: parent becomes sole owner again.
  }
  uint8_t patch = 1;
  ASSERT_TRUE(space_.WriteBytes(*va, &patch, 1).ok());
  // Sole-owner break must not have allocated a new frame (refcount path).
  EXPECT_GE(space_.cow_faults(), 1u);
}

TEST_F(AddressSpaceTest, HugePageFaultsAsBlock) {
  auto va = space_.MapAnonymous(kHugePageSize, "huge", false, /*huge=*/true);
  ASSERT_TRUE(va.ok());
  uint8_t byte = 0;
  ASSERT_TRUE(space_.ReadBytes(*va + 123456, &byte, 1).ok());
  // One fault populated the whole 2 MiB block.
  EXPECT_EQ(space_.minor_faults(), 1u);
  EXPECT_EQ(space_.resident_pages(), kHugePageSize / kPageSize);
  // And it is physically contiguous: a run can span it all.
  auto run = space_.ResolveRun(*va, kHugePageSize, false, nullptr);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->length, kHugePageSize);
}

TEST_F(AddressSpaceTest, SharedMappingSeesWrites) {
  auto va = space_.MapAnonymous(2 * kPageSize, "shm", true);
  ASSERT_TRUE(va.ok());
  FillPattern(space_, *va, 2 * kPageSize, 5);

  AddressSpace other(&phys_, 3, &hw::TimingModel::Default());
  auto mapped = other.MapSharedFrom(space_, *va, 2 * kPageSize, /*writable=*/true);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(ReadAll(other, *mapped, 2 * kPageSize), ReadAll(space_, *va, 2 * kPageSize));

  uint8_t patch = 0x77;
  ASSERT_TRUE(other.WriteBytes(*mapped + 10, &patch, 1).ok());
  EXPECT_EQ(ReadAll(space_, *va + 10, 1)[0], 0x77);
}

TEST(SimKernelSocket, SendRecvRoundTrip) {
  SimKernel kernel;
  Process* sender = kernel.CreateProcess("tx");
  Process* receiver = kernel.CreateProcess("rx");
  auto [a, b] = kernel.CreateSocketPair();

  const size_t n = 10 * kKiB;  // spans 3 skbs
  auto src = sender->mem().MapAnonymous(n, "src", true);
  auto dst = receiver->mem().MapAnonymous(n, "dst", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  FillPattern(sender->mem(), *src, n, 17);

  auto sent = kernel.Send(*sender, a, *src, n, nullptr);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, n);
  EXPECT_TRUE(b->HasData());
  EXPECT_EQ(b->RxBytes(), n);

  auto received = kernel.Recv(*receiver, b, *dst, n, nullptr);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, n);
  EXPECT_EQ(ReadAll(sender->mem(), *src, n), ReadAll(receiver->mem(), *dst, n));
}

TEST(SimKernelSocket, RecvOnEmptyReturnsEagain) {
  SimKernel kernel;
  Process* proc = kernel.CreateProcess("p");
  auto [a, b] = kernel.CreateSocketPair();
  auto buf = proc->mem().MapAnonymous(kPageSize, "b", true);
  ASSERT_TRUE(buf.ok());
  auto r = kernel.Recv(*proc, b, *buf, kPageSize, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(SimKernelSocket, SkbsReturnToPoolAfterRecv) {
  SimKernel::Config config;
  config.skb_pool_size = 8;
  SimKernel kernel(config);
  Process* p = kernel.CreateProcess("p");
  auto [a, b] = kernel.CreateSocketPair();
  auto buf = p->mem().MapAnonymous(16 * kKiB, "b", true);
  ASSERT_TRUE(buf.ok());
  const size_t before = kernel.skb_pool().available();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kernel.Send(*p, a, *buf, 8 * kKiB, nullptr).ok());
    ASSERT_TRUE(kernel.Recv(*p, b, *buf + 8 * kKiB, 8 * kKiB, nullptr).ok());
  }
  EXPECT_EQ(kernel.skb_pool().available(), before);
}

TEST(SimKernelSocket, PartialRecvConsumesInOrder) {
  SimKernel kernel;
  Process* p = kernel.CreateProcess("p");
  auto [a, b] = kernel.CreateSocketPair();
  const size_t n = 6 * kKiB;
  auto src = p->mem().MapAnonymous(n, "s", true);
  auto dst = p->mem().MapAnonymous(n, "d", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  FillPattern(p->mem(), *src, n, 21);
  ASSERT_TRUE(kernel.Send(*p, a, *src, n, nullptr).ok());
  // Two partial receives of 3 KiB each (second splits an skb).
  ASSERT_TRUE(kernel.Recv(*p, b, *dst, 3 * kKiB, nullptr).ok());
  ASSERT_TRUE(kernel.Recv(*p, b, *dst + 3 * kKiB, 3 * kKiB, nullptr).ok());
  EXPECT_EQ(ReadAll(p->mem(), *src, n), ReadAll(p->mem(), *dst, n));
}

TEST(SimKernelFork, ForkedChildIsCow) {
  SimKernel kernel;
  Process* parent = kernel.CreateProcess("parent");
  auto va = parent->mem().MapAnonymous(4 * kPageSize, "data", true);
  ASSERT_TRUE(va.ok());
  FillPattern(parent->mem(), *va, 4 * kPageSize, 33);
  auto child_or = kernel.Fork(*parent, nullptr);
  ASSERT_TRUE(child_or.ok());
  Process* child = *child_or;
  EXPECT_EQ(ReadAll(child->mem(), *va, 4 * kPageSize),
            ReadAll(parent->mem(), *va, 4 * kPageSize));
  uint8_t patch = 0xFF;
  ASSERT_TRUE(child->mem().WriteBytes(*va, &patch, 1).ok());
  EXPECT_NE(ReadAll(parent->mem(), *va, 1)[0], 0xFF);
}

TEST(Binder, TransactionMapsDataToServer) {
  SimKernel kernel;
  BinderDriver binder(&kernel);
  Process* client = kernel.CreateProcess("client");
  const size_t n = 8 * kKiB;
  auto msg = client->mem().MapAnonymous(n, "msg", true);
  ASSERT_TRUE(msg.ok());
  FillPattern(client->mem(), *msg, n, 44);
  const auto expected = ReadAll(client->mem(), *msg, n);

  auto txn = binder.Transact(*client, *msg, n, nullptr);
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> server_view(txn->data, txn->data + n);
  EXPECT_EQ(server_view, expected);
  binder.Release(txn->id);

  // Buffer reusable for the next transaction.
  auto txn2 = binder.Transact(*client, *msg, n, nullptr);
  ASSERT_TRUE(txn2.ok());
  binder.Release(txn2->id);
}

TEST(Binder, ExhaustsBuffers) {
  SimKernel kernel;
  BinderDriver binder(&kernel, /*buffer_count=*/2);
  Process* client = kernel.CreateProcess("c");
  auto msg = client->mem().MapAnonymous(kPageSize, "m", true);
  ASSERT_TRUE(msg.ok());
  auto t1 = binder.Transact(*client, *msg, kPageSize, nullptr);
  auto t2 = binder.Transact(*client, *msg, kPageSize, nullptr);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_FALSE(binder.Transact(*client, *msg, kPageSize, nullptr).ok());
  binder.Release(t1->id);
  EXPECT_TRUE(binder.Transact(*client, *msg, kPageSize, nullptr).ok());
}

// Vectored submission: each Send publishes its whole skb op-list as ONE
// scatter-gather Copy Task behind ONE doorbell, and so does each Recv that
// moves bytes. The received image is checked against the sent source bytes
// and the accounting against absolute counts: one batch, one queue entry and
// one doorbell per syscall, and one completion handler per skb on each side
// (send-side delivery, receive-side reclaim).
struct VectoredRunResult {
  std::vector<uint8_t> image;
  std::vector<uint8_t> source;
  size_t sends = 0;
  size_t recvs = 0;
  size_t skbs = 0;  // skbs the sends filled (one per kMtu of payload)
  uint64_t kfuncs_run = 0;
  uint64_t submit_entries = 0;
  uint64_t submit_batches = 0;
  uint64_t notify_calls = 0;
};

VectoredRunResult RunVectoredWorkload() {
  test::CopierStack stack;
  Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 150 * kKiB + 123;  // many skbs, ragged tail
  const uint64_t src = stack.Map(n, "src");
  auto dst_or = peer->mem().MapAnonymous(n, "dst", true);
  EXPECT_TRUE(dst_or.ok());
  FillPattern(stack.proc->mem(), src, n, 91);

  VectoredRunResult result;
  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  size_t received = 0;
  size_t sent_total = 0;
  for (int iter = 0; iter < 1000 && received < n; ++iter) {
    // Chunked sends keep the skb pool bounded; each Send is one syscall
    // publishing its whole op-list.
    if (sent_total < n) {
      const size_t chunk = std::min<size_t>(32 * kKiB, n - sent_total);
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, chunk, nullptr);
      EXPECT_TRUE(sent.ok()) << sent.status().ToString();
      if (!sent.ok()) {
        break;
      }
      ++result.sends;
      result.skbs += (*sent + kMtu - 1) / kMtu;
      sent_total += *sent;
    }
    stack.service->DrainAll();
    auto got = stack.kernel->Recv(*peer, rx, *dst_or + received, n - received, nullptr, ropts);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) {
      break;
    }
    result.recvs += *got > 0 ? 1 : 0;
    received += *got;
    stack.service->DrainAll();
  }
  EXPECT_EQ(received, n);

  result.image = ReadAll(peer->mem(), *dst_or, n);
  result.source = ReadAll(stack.proc->mem(), src, n);
  const core::Engine::Stats stats = stack.service->TotalStats();
  result.kfuncs_run = stats.kfuncs_run;
  result.submit_entries = stats.submit_entries;
  result.submit_batches = stats.submit_batches;
  result.notify_calls = stats.notify_calls;
  return result;
}

TEST(VectoredSubmit, DifferentialVectoredVsPerSkb) {
  const VectoredRunResult vec = RunVectoredWorkload();
  ASSERT_EQ(vec.image.size(), vec.source.size());
  EXPECT_EQ(vec.image, vec.source);

  // 150 KiB + 123 B in 32 KiB sends: 5 sends filling 38 skbs.
  EXPECT_EQ(vec.sends, 5u);
  EXPECT_EQ(vec.skbs, 38u);
  const uint64_t syscalls = vec.sends + vec.recvs;
  EXPECT_EQ(vec.submit_batches, syscalls);
  EXPECT_EQ(vec.submit_entries, syscalls);
  EXPECT_EQ(vec.notify_calls, syscalls);
  EXPECT_EQ(vec.kfuncs_run, 2 * vec.skbs);
}

// Ring-full fallbacks. A 2-slot ring cannot take a vector of eight copies,
// so libcopier submits entry by entry (copying synchronously, after a
// csync_all, whenever the ring is full). Nor can it take a syscall's enter
// barrier and scatter-gather task while keeping a slot for the exit barrier,
// so every Send and Recv takes the glue's per-segment path: one task and one
// doorbell per skb, each waiting for the engine to make room so no skb is
// delivered out of stream order. Bytes must match the source and every
// per-skb handler must fire exactly once.
TEST(VectoredSubmit, RingFullFallbacksMatchSourceBytes) {
  core::CopierConfig config;
  config.queue_capacity = 2;
  test::CopierStack stack(config);
  size_t handlers = 0;
  stack.kernel->SetKfuncProbe([&](uint32_t) { ++handlers; });

  constexpr size_t kEntry = 8 * kKiB;
  constexpr size_t kEntries = 8;
  const uint64_t src = stack.Map(kEntries * kEntry, "src");
  const uint64_t dst = stack.Map(kEntries * kEntry, "dst");
  FillPattern(stack.proc->mem(), src, kEntries * kEntry, 17);
  std::vector<lib::CopyVecEntry> entries;
  for (size_t i = 0; i < kEntries; ++i) {
    entries.push_back({dst + i * kEntry, src + i * kEntry, kEntry});
  }
  stack.lib->copier_submitv(entries);
  ASSERT_TRUE(stack.lib->csync_all().ok());
  EXPECT_EQ(ReadAll(stack.proc->mem(), dst, kEntries * kEntry),
            ReadAll(stack.proc->mem(), src, kEntries * kEntry));
  const core::Engine::Stats lib_stats = stack.service->TotalStats();
  EXPECT_GT(lib_stats.submit_entries, 0u);
  EXPECT_LT(lib_stats.submit_entries, kEntries) << "a full ring must copy some entries inline";
  EXPECT_EQ(lib_stats.submit_batches, 0u);

  // Two back-to-back sends with no serve between them, then the receive.
  Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  constexpr size_t kSend = 16 * kKiB;
  for (size_t i = 0; i < 2; ++i) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + i * kSend, kSend, nullptr);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ASSERT_EQ(*sent, kSend);
  }
  stack.service->DrainAll();
  auto buf = peer->mem().MapAnonymous(2 * kSend, "rx", true);
  ASSERT_TRUE(buf.ok());
  size_t received = 0;
  for (int i = 0; i < 8 && received < 2 * kSend; ++i) {
    auto got = stack.kernel->Recv(*peer, rx, *buf + received, 2 * kSend - received, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    received += *got;
    stack.service->DrainAll();
  }
  ASSERT_EQ(received, 2 * kSend);
  EXPECT_EQ(ReadAll(peer->mem(), *buf, 2 * kSend), ReadAll(stack.proc->mem(), src, 2 * kSend));

  const core::Engine::Stats stats = stack.service->TotalStats();
  constexpr size_t kSkbs = 2 * kSend / kMtu;
  EXPECT_EQ(handlers, 2 * kSkbs) << "one send-side and one receive-side handler per skb";
  EXPECT_EQ(stats.kfuncs_run, 2 * kSkbs) << "every skb copy was queued, none inline";
  EXPECT_EQ(stats.submit_batches, 0u);
  EXPECT_EQ(stats.submit_entries - lib_stats.submit_entries, 2 * kSkbs);
}

// A Send that finds the ring full behind an undrained Send on the same
// stream waits for the engine to make room instead of copying inline: an
// inline copy would deliver its skbs ahead of the queued ones.
TEST(VectoredSubmit, FullRingKeepsStreamOrder) {
  core::CopierConfig config;
  config.queue_capacity = 4;  // one Send's [enter, SG task, exit] leaves 1 slot
  test::CopierStack stack(config);
  Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  constexpr size_t kSend = 16 * kKiB;
  constexpr size_t kSends = 3;
  const uint64_t src = stack.Map(kSends * kSend, "src");
  FillPattern(stack.proc->mem(), src, kSends * kSend, 29);
  for (size_t i = 0; i < kSends; ++i) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + i * kSend, kSend, nullptr);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ASSERT_EQ(*sent, kSend);
  }
  stack.service->DrainAll();
  auto buf = peer->mem().MapAnonymous(kSends * kSend, "rx", true);
  ASSERT_TRUE(buf.ok());
  auto got = stack.kernel->Recv(*peer, rx, *buf, kSends * kSend, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(*got, kSends * kSend);
  stack.service->DrainAll();
  EXPECT_EQ(ReadAll(peer->mem(), *buf, kSends * kSend),
            ReadAll(stack.proc->mem(), src, kSends * kSend));
  const core::Engine::Stats stats = stack.service->TotalStats();
  EXPECT_EQ(stats.submit_batches, kSends + 1) << "one batch per Send and one for the Recv";
  EXPECT_EQ(stats.kfuncs_run, 2 * kSends * kSend / kMtu) << "no skb was copied inline";
}

TEST(VirtualTime, SyscallChargesTrapCosts) {
  SimKernel kernel;
  Process* p = kernel.CreateProcess("p");
  auto [a, b] = kernel.CreateSocketPair();
  auto buf = p->mem().MapAnonymous(kPageSize, "b", true);
  ASSERT_TRUE(buf.ok());
  ExecContext ctx("app");
  ASSERT_TRUE(kernel.Send(*p, a, *buf, kPageSize, &ctx).ok());
  const auto& t = kernel.timing();
  EXPECT_GE(ctx.now(), t.syscall_entry_cycles + t.syscall_exit_cycles +
                           t.CpuCopyCycles(hw::CopyUnitKind::kErms, kPageSize));
}

}  // namespace
}  // namespace copier::simos
