// Scheduler sweep: host-side pick cost of the sharded run-queue scheduler
// (service.h, DESIGN.md §7) under real Copier threads.
//
// Every configuration runs the same kind of submission stream — each client
// copies a private source slot into `slots` destination slots, all submitted
// before Start() — and checks every destination slot against its source
// slot. Reported per configuration (host TSC, not the virtual cost model):
//   * pick cyc/call   — TSC cycles per PickClient invocation,
//   * picks and pick calls, steals, targeted wakeups, reconcile rescues.
// The pick is O(log n) under a per-shard lock, so cyc/call should stay
// roughly flat as the client count sweeps 8 -> 1024.
//
// --json additionally writes BENCH_sched.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/libcopier/libcopier.h"
#include "src/simos/kernel.h"

namespace copier::bench {
namespace {

// Total copy tasks per run is constant: sweeping the client count changes how
// the same work is spread across run queues, not how much work there is.
constexpr size_t kTotalTasks = 2048;
constexpr size_t kSlotBytes = 4 * kKiB;

struct RunResult {
  size_t threads = 0;
  size_t clients = 0;
  core::CopierService::SchedStats sched;
  uint64_t bytes_copied = 0;
  double wall_ms = 0;
  bool matches_source = true;  // every destination slot equals its source slot
};

// One attached process: a read-only source slot plus `slots` destinations.
struct SchedWorker {
  SchedWorker(simos::SimKernel& kernel, core::CopierService& service, size_t slots)
      : slots(slots) {
    proc = kernel.CreateProcess("schedbench");
    client = service.AttachProcess(proc);
    lib = std::make_unique<lib::CopierLib>(client, &service);
    auto va = proc->mem().MapAnonymous((slots + 1) * kSlotBytes, "arena", true);
    COPIER_CHECK(va.ok());
    arena = *va;
    Rng rng(0x5CED ^ client->id());
    std::vector<uint8_t> pattern(kSlotBytes);
    for (auto& b : pattern) {
      b = static_cast<uint8_t>(rng.Next());
    }
    COPIER_CHECK(proc->mem().WriteBytes(arena, pattern.data(), pattern.size()).ok());
  }

  size_t slots;
  simos::Process* proc = nullptr;
  core::Client* client = nullptr;
  std::unique_ptr<lib::CopierLib> lib;
  uint64_t arena = 0;
};

RunResult RunConfig(size_t threads, size_t clients) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = threads;
  options.config.max_threads = threads;
  options.config.idle_spins_before_sleep = 256;  // reach the steal path
  core::CopierService service(std::move(options));

  const size_t slots = std::max<size_t>(1, kTotalTasks / clients);
  std::vector<std::unique_ptr<SchedWorker>> workers;
  workers.reserve(clients);
  for (size_t i = 0; i < clients; ++i) {
    workers.push_back(std::make_unique<SchedWorker>(kernel, service, slots));
  }
  // Submit the whole wave up front: every run queue is loaded before the
  // first pick, so pick cost is measured at the full client count.
  for (auto& worker : workers) {
    for (size_t i = 0; i < worker->slots; ++i) {
      worker->lib->amemcpy(worker->arena + (i + 1) * kSlotBytes, worker->arena, kSlotBytes);
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  service.Start();
  for (auto& worker : workers) {
    COPIER_CHECK_OK(worker->lib->csync_all());
  }
  const auto wall_end = std::chrono::steady_clock::now();

  RunResult result;
  result.threads = threads;
  result.clients = clients;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  for (auto& worker : workers) {
    result.matches_source &=
        SlotsMatchSource(worker->proc->mem(), worker->arena, worker->slots, kSlotBytes);
  }
  result.sched = service.sched_stats();
  result.bytes_copied = service.TotalStats().bytes_copied;
  service.Stop();
  return result;
}

double CycPerCall(const RunResult& r) {
  return static_cast<double>(r.sched.pick_tsc_cycles) /
         std::max<uint64_t>(1, r.sched.pick_calls);
}

void AddRow(TextTable& table, const RunResult& r) {
  table.AddRow({TextTable::Num(r.threads, 0), TextTable::Num(r.clients, 0),
                TextTable::Num(CycPerCall(r), 0), TextTable::Num(r.sched.picks, 0),
                TextTable::Num(r.sched.pick_calls, 0), TextTable::Num(r.sched.steals, 0),
                TextTable::Num(r.sched.targeted_wakeups, 0), TextTable::Num(r.wall_ms, 2),
                r.matches_source ? "yes" : "NO"});
  if (!r.matches_source) {
    std::fprintf(stderr, "MISMATCH: a destination slot differs from its source at %zu "
                 "threads / %zu clients\n", r.threads, r.clients);
  }
}

void EmitRowsJson(std::ofstream& out, const std::vector<RunResult>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"clients\": " << r.clients
        << ", \"pick_calls\": " << r.sched.pick_calls
        << ", \"picks\": " << r.sched.picks
        << ", \"pick_tsc_cycles\": " << r.sched.pick_tsc_cycles
        << ", \"cyc_per_pick_call\": " << CycPerCall(r)
        << ", \"steals\": " << r.sched.steals
        << ", \"steal_attempts\": " << r.sched.steal_attempts
        << ", \"targeted_wakeups\": " << r.sched.targeted_wakeups
        << ", \"broadcast_wakeups\": " << r.sched.broadcast_wakeups
        << ", \"reconcile_marks\": " << r.sched.reconcile_marks
        << ", \"bytes_copied\": " << r.bytes_copied
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"matches_source\": " << (r.matches_source ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void Run(int argc, char** argv) {
  PrintBanner("Scheduler sweep: sharded run queues under real Copier threads");
  std::printf("(host TSC per PickClient call; %zu tasks x %zu KiB per run, every slot "
              "byte-checked against its source)\n\n",
              kTotalTasks, kSlotBytes / kKiB);

  const std::vector<const char*> header = {"threads", "clients",        "cyc/call",
                                           "picks",   "pick calls",     "steals",
                                           "targeted wakes", "wall ms", "matches source"};

  // Client sweep at a fixed thread count: pick cost vs run-queue population.
  const size_t kSweepThreads = 4;
  std::vector<RunResult> client_rows;
  TextTable client_table({header.begin(), header.end()});
  for (size_t clients : {size_t{8}, size_t{64}, size_t{256}, size_t{1024}}) {
    client_rows.push_back(RunConfig(kSweepThreads, clients));
    AddRow(client_table, client_rows.back());
  }
  client_table.Print();

  // Thread sweep at a fixed client count: contention on the pick path.
  const size_t kSweepClients = 256;
  std::vector<RunResult> thread_rows;
  TextTable thread_table({header.begin(), header.end()});
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    thread_rows.push_back(RunConfig(threads, kSweepClients));
    AddRow(thread_table, thread_rows.back());
  }
  std::printf("\n");
  thread_table.Print();

  std::printf("\ncyc/call growth 8 -> 1024 clients: %.2fx\n",
              CycPerCall(client_rows.back()) / CycPerCall(client_rows.front()));

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_sched.json");
    out << "{\n  \"bench\": \"sched\",\n  \"total_tasks\": " << kTotalTasks
        << ",\n  \"slot_bytes\": " << kSlotBytes << ",\n  \"client_sweep_threads\": "
        << kSweepThreads << ",\n  \"client_sweep\": [\n";
    EmitRowsJson(out, client_rows);
    out << "  ],\n  \"thread_sweep_clients\": " << kSweepClients
        << ",\n  \"thread_sweep\": [\n";
    EmitRowsJson(out, thread_rows);
    out << "  ]\n}\n";
    std::printf("wrote BENCH_sched.json\n");
  }
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(argc, argv);
  return 0;
}
