// Vectored-submission sweep: submission-side cost of send() on the
// scatter-gather batch path.
//
// Each send() gathers size/4096 skbs and publishes them as ONE scatter-gather
// Copy Task in one ring transaction behind one doorbell. A plain synchronous
// receiver drains the stream; every received image is checked against the
// sent source bytes. Reported per size:
//   * submission-side cycles per byte (sender context across the syscall),
//   * queue entries and doorbells (NotifyRunnable calls) per send,
//   * per-skb completion handlers run.
// The gate fails a size whose image differs from the source, or that needs
// more than 1 entry and 1 doorbell per send, or one handler per skb.
//
// --quick runs a two-size subset (CI smoke); --json additionally writes
// BENCH_submit_batch.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/libcopier/libcopier.h"
#include "src/simos/socket.h"

namespace copier::bench {
namespace {

struct SizeResult {
  size_t size = 0;
  uint64_t sends = 0;
  uint64_t submit_cycles = 0;    // sender ctx cycles across all send() calls
  uint64_t submit_entries = 0;   // copy-queue entries ingested
  uint64_t submit_batches = 0;   // scatter-gather tasks among them
  uint64_t notify_calls = 0;     // doorbells
  uint64_t kfuncs_run = 0;       // per-skb completion handlers
  bool matches_source = true;    // every received image == the sent bytes
  double cycles_per_byte() const {
    return static_cast<double>(submit_cycles) / (static_cast<double>(sends) * size);
  }
  // One entry and one doorbell per send, one completion handler per skb.
  bool one_batch_per_send() const {
    return submit_entries == sends && notify_calls == sends &&
           kfuncs_run == sends * ((size + simos::kMtu - 1) / simos::kMtu);
  }
};

SizeResult RunSize(const hw::TimingModel& timing, size_t size, int iters) {
  BenchStack stack(&timing);
  apps::AppProcess* tx = stack.NewApp("tx");
  apps::AppProcess* rx = stack.NewSyncApp("rx");  // unattached: sync recv drains
  auto [tx_sock, rx_sock] = stack.kernel->CreateSocketPair();
  core::Client* client = stack.service->ClientById(tx->proc()->copier_client_id());

  const uint64_t src = tx->Map(size, "src");
  const uint64_t dst = rx->Map(size, "dst");
  Rng rng(0xBA7C4 ^ size);
  std::vector<uint8_t> pattern(size);
  for (auto& b : pattern) {
    b = static_cast<uint8_t>(rng.Next());
  }
  tx->io().Write(src, pattern.data(), size, nullptr);

  const core::Engine::Stats before = stack.service->TotalStats();
  SizeResult result;
  result.size = size;
  std::vector<uint8_t> image(size);
  for (int i = 0; i < iters; ++i) {
    ExecContext& ctx = tx->ctx();
    const Cycles start = ctx.now();
    auto sent = stack.kernel->Send(*tx->proc(), tx_sock, src, size, &ctx);
    COPIER_CHECK(sent.ok() && *sent == size) << "short send at size " << size;
    result.submit_cycles += ctx.now() - start;
    ++result.sends;
    // The Copier core drains the submission off the sender's critical path.
    while (client->HasQueuedWork()) {
      stack.service->Serve(*client);
    }
    auto got = stack.kernel->Recv(*rx->proc(), rx_sock, dst, size, nullptr);
    COPIER_CHECK(got.ok() && *got == size) << "short recv at size " << size;
    COPIER_CHECK_OK(rx->proc()->mem().ReadBytes(dst, image.data(), size));
    result.matches_source = result.matches_source && image == pattern;
  }
  const core::Engine::Stats after = stack.service->TotalStats();
  result.submit_entries = after.submit_entries - before.submit_entries;
  result.submit_batches = after.submit_batches - before.submit_batches;
  result.notify_calls = after.notify_calls - before.notify_calls;
  result.kfuncs_run = after.kfuncs_run - before.kfuncs_run;
  return result;
}

void Run(int argc, char** argv) {
  const hw::TimingModel& timing = SelectTiming(argc, argv);
  const bool quick = HasFlag(argc, argv, "--quick");
  PrintBanner("Vectored submission: one scatter-gather task per send");
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{64 * kKiB, kMiB}
            : std::vector<size_t>{4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB, kMiB, 4 * kMiB};
  const int iters = quick ? 4 : 12;

  TextTable table({"size", "cyc/B", "doorbells/send", "entries/send", "kfuncs/send",
                   "matches src", "1 batch/send"});
  std::vector<SizeResult> rows;
  for (size_t size : sizes) {
    const SizeResult r = RunSize(timing, size, iters);
    rows.push_back(r);
    table.AddRow({TextTable::Bytes(size), TextTable::Num(r.cycles_per_byte(), 4),
                  TextTable::Num(static_cast<double>(r.notify_calls) / r.sends, 1),
                  TextTable::Num(static_cast<double>(r.submit_entries) / r.sends, 1),
                  TextTable::Num(static_cast<double>(r.kfuncs_run) / r.sends, 0),
                  r.matches_source ? "yes" : "NO", r.one_batch_per_send() ? "yes" : "NO"});
    if (!r.matches_source) {
      std::fprintf(stderr, "MISMATCH at size %zu: received bytes differ from the source\n",
                   size);
    }
  }
  table.Print();
  std::printf("\nvectored publishes the syscall's whole skb op-list as one scatter-gather\n"
              "task: one ring transaction, one doorbell, one barrier-state check per send.\n");

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_submit_batch.json");
    out << "{\n  \"bench\": \"submit_batch\",\n  \"sizes\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const SizeResult& r = rows[i];
      out << "    {\"size\": " << r.size << ", \"submit_cycles\": " << r.submit_cycles
          << ", \"cycles_per_byte\": " << std::to_string(r.cycles_per_byte())
          << ", \"sends\": " << r.sends << ", \"submit_entries\": " << r.submit_entries
          << ", \"submit_batches\": " << r.submit_batches
          << ", \"notify_calls\": " << r.notify_calls << ", \"kfuncs_run\": " << r.kfuncs_run
          << ", \"identical_result\": " << (r.matches_source ? "true" : "false")
          << ", \"one_batch_per_send\": " << (r.one_batch_per_send() ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote BENCH_submit_batch.json\n");
  }
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(argc, argv);
  return 0;
}
