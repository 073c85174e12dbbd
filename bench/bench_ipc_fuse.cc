// Fused IPC sweep (DESIGN.md §12): posted-receive transfers with the fused
// single-hop dispatch on vs the enable_ipc_fuse=false two-step ablation, on
// three shapes:
//
//   socket   — loopback stream send into the receiver's posted window,
//              4 KiB → 4 MiB. Fused sends skip the skb staging hop; the
//              ablation stages into skbs and drains into the same window.
//   binder   — one transaction landing in the server's posted window,
//              64 KiB → 1 MiB (the transaction-buffer ceiling).
//   pipeline — proxy→KV over Binder: the client ships a MiniKv SET command
//              over a posted socket window to the proxy, which forwards it
//              to the KV server over a posted-receive parcel.
//
// Both arms of every row must produce byte-identical receiver images and the
// same KFUNC count; a mismatch prints " NO " (bench_smoke.sh greps for it)
// and a MISMATCH line on stderr. Gated rows must also hit their minimum
// fused-vs-two-step speedup: ≥1.4x on the 1 MiB socket row, ≥1.5x on every
// ≥64 KiB binder parcel. --json writes BENCH_ipc_fuse.json.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/minikv.h"
#include "src/apps/miniproxy.h"
#include "src/apps/parcel.h"
#include "src/simos/binder.h"

namespace copier::bench {
namespace {

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    hash = (hash ^ b) * 1099511628211ull;
  }
  return hash;
}

core::CopierConfig FuseConfig(bool fuse) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  return config;
}

void FillPattern(simos::AddressSpace& mem, uint64_t va, size_t n, uint32_t seed) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + seed);
  }
  COPIER_CHECK_OK(mem.WriteBytes(va, bytes.data(), n));
}

std::vector<uint8_t> ReadAll(simos::AddressSpace& mem, uint64_t va, size_t n) {
  std::vector<uint8_t> bytes(n);
  COPIER_CHECK_OK(mem.ReadBytes(va, bytes.data(), n));
  return bytes;
}

struct RunResult {
  double us = 0;              // receiver-observed transfer latency
  uint64_t checksum = 0;      // FNV-1a over the receiver image
  uint64_t kfuncs = 0;
  uint64_t moved = 0;         // avx_bytes + dma_bytes_completed
  uint64_t fused_bytes = 0;   // Engine::Stats::fused_ipc_bytes
  core::CopierService::IpcFuseStats fuse;  // full fallback ladder
};

void FillStats(RunResult* r, BenchStack& stack) {
  const core::Engine::Stats stats = stack.service->TotalStats();
  r->kfuncs = stats.kfuncs_run;
  r->moved = stats.avx_bytes + stats.dma_bytes_completed;
  r->fused_bytes = stats.fused_ipc_bytes;
  r->fuse = stack.service->ipc_fuse_stats();
}

// Loopback stream into a posted window: latency from the post to the window
// descriptor covering every payload byte.
RunResult RunSocket(const hw::TimingModel& t, bool fuse, size_t n) {
  BenchStack stack(&t, FuseConfig(fuse));
  apps::AppProcess* sender = stack.NewApp("fuse-tx");
  apps::AppProcess* receiver = stack.NewApp("fuse-rx");
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const uint64_t src = sender->Map(n, "src", true);
  const uint64_t win = receiver->Map(n, "win", true);
  FillPattern(sender->proc()->mem(), src, n, 17);

  receiver->ctx().WaitUntil(sender->ctx().now());
  sender->ctx().WaitUntil(receiver->ctx().now());
  const Cycles start = receiver->ctx().now();

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  auto staged = stack.kernel->PostRecv(*receiver->proc(), rx, win, n, &receiver->ctx(), ropts);
  COPIER_CHECK(staged.ok()) << staged.status().ToString();

  size_t sent_total = 0;
  while (sent_total < n) {
    auto sent = stack.kernel->Send(*sender->proc(), tx, src + sent_total, n - sent_total,
                                   &sender->ctx());
    COPIER_CHECK(sent.ok()) << sent.status().ToString();
    sent_total += *sent;
    stack.service->DrainAll();
  }
  COPIER_CHECK_OK(core::WaitDescriptor(descriptor, 0, n, &receiver->ctx(),
                                       [&] { stack.service->DrainAll(); }));
  auto filled = stack.kernel->CompleteRecv(*receiver->proc(), rx, &receiver->ctx());
  COPIER_CHECK(filled.ok() && *filled == n);

  RunResult r;
  r.us = Us(receiver->ctx().now() - start);
  r.checksum = Fnv1a(ReadAll(receiver->proc()->mem(), win, n));
  FillStats(&r, stack);
  return r;
}

// Pipelined loopback stream at queue depth `depth` (multi-window receive
// ring, DESIGN.md §12): the receiver posts a `depth`-deep ring in ONE trap,
// the sender bursts `depth` equal-size messages back-to-back without waiting,
// and the receiver reaps the ring in FIFO order — two rounds, so reap/re-post
// churn is covered. On the fused arm every burst message must land fused in
// its own window (the qd4 row gates fused_rate >= 0.90); the ablation stages
// each message through skbs into the same ring.
RunResult RunSocketPipelined(const hw::TimingModel& t, bool fuse, size_t depth, size_t n) {
  BenchStack stack(&t, FuseConfig(fuse));
  apps::AppProcess* sender = stack.NewApp("pipe-tx");
  apps::AppProcess* receiver = stack.NewApp("pipe-rx");
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const uint64_t src = sender->Map(depth * n, "src", true);
  const uint64_t win = receiver->Map(depth * n, "win", true);
  std::vector<std::unique_ptr<core::Descriptor>> descriptors;
  for (size_t i = 0; i < depth; ++i) {
    descriptors.push_back(std::make_unique<core::Descriptor>(n));
  }

  receiver->ctx().WaitUntil(sender->ctx().now());
  sender->ctx().WaitUntil(receiver->ctx().now());
  const Cycles start = receiver->ctx().now();

  std::vector<uint8_t> image;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < depth; ++i) {
      FillPattern(sender->proc()->mem(), src + i * n, n,
                  static_cast<uint32_t>(round * depth + i + 3));
    }
    std::vector<simos::SimKernel::RecvWindowSpec> specs;
    for (size_t i = 0; i < depth; ++i) {
      descriptors[i]->Reset(n);
      specs.push_back({win + i * n, n, descriptors[i].get()});
    }
    auto staged = stack.kernel->PostRecvRing(*receiver->proc(), rx, specs, &receiver->ctx());
    COPIER_CHECK(staged.ok()) << staged.status().ToString();
    for (size_t i = 0; i < depth; ++i) {
      size_t sent_total = 0;
      while (sent_total < n) {
        auto sent = stack.kernel->Send(*sender->proc(), tx, src + i * n + sent_total,
                                       n - sent_total, &sender->ctx());
        COPIER_CHECK(sent.ok()) << sent.status().ToString();
        sent_total += *sent;
        if (sent_total < n) {
          stack.service->DrainAll();
        }
      }
    }
    for (size_t i = 0; i < depth; ++i) {
      COPIER_CHECK_OK(core::WaitDescriptor(*descriptors[i], 0, n, &receiver->ctx(),
                                           [&] { stack.service->DrainAll(); }));
      auto filled = stack.kernel->CompleteRecv(*receiver->proc(), rx, &receiver->ctx());
      COPIER_CHECK(filled.ok() && *filled == n);
      const std::vector<uint8_t> bytes = ReadAll(receiver->proc()->mem(), win + i * n, n);
      image.insert(image.end(), bytes.begin(), bytes.end());
    }
  }

  RunResult r;
  r.us = Us(receiver->ctx().now() - start);
  r.checksum = Fnv1a(image);
  FillStats(&r, stack);
  return r;
}

// One Binder transaction into the server's posted window: latency from the
// client's transact to the descriptor covering the whole message.
RunResult RunBinder(const hw::TimingModel& t, bool fuse, size_t n) {
  BenchStack stack(&t, FuseConfig(fuse));
  apps::AppProcess* client = stack.NewApp("fuse-client");
  apps::AppProcess* server = stack.NewApp("fuse-server");
  simos::BinderDriver binder(stack.kernel.get());

  const uint64_t msg = client->Map(n, "msg", true);
  const uint64_t win = server->Map(n, "win", true);
  FillPattern(client->proc()->mem(), msg, n, 29);

  server->ctx().WaitUntil(client->ctx().now());
  client->ctx().WaitUntil(server->ctx().now());
  const Cycles start = server->ctx().now();

  core::Descriptor descriptor(n);
  COPIER_CHECK_OK(binder.PostReceive(*server->proc(), win, n, &descriptor, &server->ctx()));
  auto txn = binder.Transact(*client->proc(), msg, n, &client->ctx());
  COPIER_CHECK(txn.ok()) << txn.status().ToString();
  COPIER_CHECK(txn->in_window);
  COPIER_CHECK_OK(core::WaitDescriptor(descriptor, 0, n, &server->ctx(),
                                       [&] { stack.service->DrainAll(); }));
  binder.Release(txn->id);

  RunResult r;
  r.us = Us(server->ctx().now() - start);
  r.checksum = Fnv1a(ReadAll(server->proc()->mem(), win, n));
  FillStats(&r, stack);
  return r;
}

// Proxy→KV over Binder: SET command over a posted socket window to the
// proxy, re-framed and forwarded to the KV server over a posted parcel.
RunResult RunPipeline(const hw::TimingModel& t, bool fuse, size_t vlen) {
  BenchStack stack(&t, FuseConfig(fuse));
  apps::AppProcess* client = stack.NewApp("kv-client");
  apps::AppProcess* proxy = stack.NewApp("proxy");
  apps::AppProcess* kv = stack.NewApp("kv");
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  simos::BinderDriver binder(stack.kernel.get());
  apps::BinderParcelChannel channel(&binder, proxy, kv, /*posted_receive=*/true);

  std::vector<uint8_t> value(vlen);
  for (size_t i = 0; i < vlen; ++i) {
    value[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const std::vector<uint8_t> set_cmd = apps::MiniKv::BuildSet("bench-key", value);
  const size_t n = set_cmd.size();
  const uint64_t src = client->Map(n, "cmd", true);
  COPIER_CHECK_OK(client->proc()->mem().WriteBytes(src, set_cmd.data(), n));
  const uint64_t win = proxy->Map(n, "proxy-win", true);

  proxy->ctx().WaitUntil(client->ctx().now());
  client->ctx().WaitUntil(proxy->ctx().now());
  kv->ctx().WaitUntil(proxy->ctx().now());
  const Cycles start = proxy->ctx().now();

  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  auto staged = stack.kernel->PostRecv(*proxy->proc(), rx, win, n, &proxy->ctx(), ropts);
  COPIER_CHECK(staged.ok()) << staged.status().ToString();
  size_t sent_total = 0;
  while (sent_total < n) {
    auto sent = stack.kernel->Send(*client->proc(), tx, src + sent_total, n - sent_total,
                                   &client->ctx());
    COPIER_CHECK(sent.ok()) << sent.status().ToString();
    sent_total += *sent;
    stack.service->DrainAll();
  }
  COPIER_CHECK_OK(core::WaitDescriptor(d1, 0, n, &proxy->ctx(),
                                       [&] { stack.service->DrainAll(); }));
  auto filled = stack.kernel->CompleteRecv(*proxy->proc(), rx, &proxy->ctx());
  COPIER_CHECK(filled.ok() && *filled == n);

  // The proxy re-frames the command for the Binder hop (app-level read).
  std::string cmd(n, '\0');
  COPIER_CHECK_OK(proxy->proc()->mem().ReadBytes(win, cmd.data(), n, &proxy->ctx()));
  auto result = channel.Call({cmd}, &proxy->ctx(), &kv->ctx());
  COPIER_CHECK(result.ok()) << result.status().ToString();
  COPIER_CHECK(result->size() == 1 && (*result)[0].size() == n);

  RunResult r;
  r.us = Us(proxy->ctx().now() - start);
  r.checksum = Fnv1a(std::vector<uint8_t>((*result)[0].begin(), (*result)[0].end()));
  COPIER_CHECK(r.checksum == Fnv1a(set_cmd));  // value survived both hops
  FillStats(&r, stack);
  return r;
}

// End-to-end forwarded pipeline (proxy-transparent forwarding, DESIGN.md
// §12): client → proxy socket → KV binder window. On the fused arm the
// proxy's forward rule re-frames "FWD ..." as the "VIA ..." parcel in the
// kernel and ONE fused task splices header + payload straight into the KV
// server's posted parcel window — the payload never enters the proxy's
// address space. The ablation receives, parses, marshals and transacts
// app-level, exactly what the rule replaces. Both arms must produce a
// byte-identical KV window image and the same KFUNC count.
RunResult RunForwardPipeline(const hw::TimingModel& t, bool fuse, size_t body_len) {
  BenchStack stack(&t, FuseConfig(fuse));
  apps::AppProcess* client = stack.NewApp("fwd-client");
  apps::AppProcess* proxy = stack.NewApp("fwd-proxy");
  apps::AppProcess* kv = stack.NewApp("fwd-kv");
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  simos::BinderDriver binder(stack.kernel.get());

  std::vector<uint8_t> body(body_len);
  for (size_t i = 0; i < body_len; ++i) {
    body[i] = static_cast<uint8_t>(i * 61 + 7);
  }
  const int upstream = 7;
  const std::vector<uint8_t> fwd_msg = apps::MiniProxy::BuildMessage(upstream, body);
  const size_t n = fwd_msg.size();
  char via[64];
  const int via_len = std::snprintf(via, sizeof(via), "VIA %d %zu\r\n", upstream, body_len);
  const size_t parcel_len = 4 + static_cast<size_t>(via_len) + body_len;

  const uint64_t src = client->Map(n, "fwd-msg", true);
  COPIER_CHECK_OK(client->proc()->mem().WriteBytes(src, fwd_msg.data(), n));
  const uint64_t pwin = proxy->Map(n, "proxy-win", true);
  const uint64_t kv_win = kv->Map(parcel_len, "kv-win", true);
  const uint64_t marshal = proxy->Map(parcel_len, "marshal", true);  // ablation only

  proxy->ctx().WaitUntil(client->ctx().now());
  client->ctx().WaitUntil(proxy->ctx().now());
  kv->ctx().WaitUntil(proxy->ctx().now());
  const Cycles start = kv->ctx().now();

  core::Descriptor d2(parcel_len);
  COPIER_CHECK_OK(binder.PostReceive(*kv->proc(), kv_win, parcel_len, &d2, &kv->ctx()));
  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  rx->SetForwardRule(apps::MiniProxy::MakeParcelForwardRule(&binder));
  auto staged = stack.kernel->PostRecv(*proxy->proc(), rx, pwin, n, &proxy->ctx(), ropts);
  COPIER_CHECK(staged.ok()) << staged.status().ToString();

  size_t sent_total = 0;
  while (sent_total < n) {
    auto sent = stack.kernel->Send(*client->proc(), tx, src + sent_total, n - sent_total,
                                   &client->ctx());
    COPIER_CHECK(sent.ok()) << sent.status().ToString();
    sent_total += *sent;
    if (sent_total < n) {
      stack.service->DrainAll();
    }
  }
  // The proxy's window settles on both arms: staged bytes mark it directly,
  // a dispatched forward marks it when the payload lands downstream.
  COPIER_CHECK_OK(
      core::WaitDescriptor(d1, 0, n, &proxy->ctx(), [&] { stack.service->DrainAll(); }));
  auto reaped = stack.kernel->CompleteRecv(*proxy->proc(), rx, &proxy->ctx());
  COPIER_CHECK(reaped.ok() && *reaped == n);

  const bool forwarded = stack.service->ipc_fuse_stats().forward_fused > 0;
  if (!forwarded) {
    // App-level path (the ablation, or any declined forward): parse the
    // header, rewrite it, marshal the parcel, and transact to the KV server —
    // the payload crosses the proxy twice more.
    std::vector<uint8_t> msg(n);
    COPIER_CHECK_OK(proxy->proc()->mem().ReadBytes(pwin, msg.data(), n, &proxy->ctx()));
    proxy->io().Compute(&proxy->ctx(), 64, apps::MiniProxy::kHeaderParseCpb,
                        apps::MiniProxy::kRouteFixed);
    const uint8_t* body_start =
        static_cast<const uint8_t*>(std::memchr(msg.data(), '\n', 64)) + 1;
    apps::ParcelWriter writer;
    std::string item(via, via + via_len);
    item.append(body_start, body_start + body_len);
    writer.WriteString(item);
    COPIER_CHECK(writer.bytes().size() == parcel_len);
    proxy->io().Write(marshal, writer.bytes().data(), parcel_len, &proxy->ctx());
    auto txn = binder.Transact(*proxy->proc(), marshal, parcel_len, &proxy->ctx());
    COPIER_CHECK(txn.ok()) << txn.status().ToString();
    COPIER_CHECK(txn->in_window);
    COPIER_CHECK_OK(core::WaitDescriptor(d2, 0, parcel_len, &kv->ctx(),
                                         [&] { stack.service->DrainAll(); }));
    binder.Release(txn->id);
  } else {
    COPIER_CHECK_OK(core::WaitDescriptor(d2, 0, parcel_len, &kv->ctx(),
                                         [&] { stack.service->DrainAll(); }));
  }
  kv->ctx().WaitUntil(proxy->ctx().now());

  RunResult r;
  r.us = Us(kv->ctx().now() - start);
  r.checksum = Fnv1a(ReadAll(kv->proc()->mem(), kv_win, parcel_len));
  FillStats(&r, stack);
  return r;
}

struct Row {
  std::string scenario;
  size_t bytes = 0;
  RunResult off;  // enable_ipc_fuse = false
  RunResult on;   // enable_ipc_fuse = true
  double min_speedup = 0;     // 0 = latency not gated
  double min_fused_rate = 0;  // 0 = fused rate not gated

  double speedup() const { return on.us > 0 ? off.us / on.us : 0; }
  bool identical() const { return off.checksum == on.checksum && off.kfuncs == on.kfuncs; }
  bool speed_ok() const { return min_speedup == 0 || speedup() >= min_speedup; }
  bool rate_ok() const {
    return min_fused_rate == 0 || on.fuse.fused_rate() >= min_fused_rate;
  }
};

void Run(const hw::TimingModel& t, bool json) {
  PrintBanner("Fused IPC: posted-window transfer latency, two-step vs fused (us)");
  std::vector<Row> rows;
  for (size_t bytes : {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB}) {
    Row row;
    row.scenario = "socket";
    row.bytes = bytes;
    row.off = RunSocket(t, false, bytes);
    row.on = RunSocket(t, true, bytes);
    row.min_speedup = bytes == 1 * kMiB ? 1.4 : 0;
    rows.push_back(row);
  }
  for (size_t bytes : {64 * kKiB, 256 * kKiB, 1 * kMiB}) {
    Row row;
    row.scenario = "binder";
    row.bytes = bytes;
    row.off = RunBinder(t, false, bytes);
    row.on = RunBinder(t, true, bytes);
    row.min_speedup = 1.5;
    rows.push_back(row);
  }
  for (size_t bytes : {64 * kKiB, 256 * kKiB}) {
    Row row;
    row.scenario = "proxy-kv";
    row.bytes = bytes;
    row.off = RunPipeline(t, false, bytes);
    row.on = RunPipeline(t, true, bytes);
    rows.push_back(row);
  }
  // Pipelined senders over the multi-window receive ring: the qd4 1 MiB row
  // is the ISSUE-gated shape (every burst message fused, rate >= 0.90).
  for (size_t bytes : {64 * kKiB, 1 * kMiB}) {
    Row row;
    row.scenario = "socket-qd4";
    row.bytes = bytes;
    row.off = RunSocketPipelined(t, false, 4, bytes);
    row.on = RunSocketPipelined(t, true, 4, bytes);
    row.min_fused_rate = 0.90;
    row.min_speedup = bytes == 1 * kMiB ? 1.4 : 0;
    rows.push_back(row);
  }
  // Proxy-transparent forwarding: header-splice fused dispatch vs the full
  // app-level receive+marshal+transact chain. Body sizes keep the rewritten
  // parcel under the 1 MiB binder transaction ceiling on the ablation arm.
  for (size_t bytes : {64 * kKiB, 256 * kKiB, 1 * kMiB - 4 * kKiB}) {
    Row row;
    row.scenario = "pipeline-e2e";
    row.bytes = bytes;
    row.off = RunForwardPipeline(t, false, bytes);
    row.on = RunForwardPipeline(t, true, bytes);
    row.min_speedup = bytes >= 256 * kKiB ? 1.8 : 0;
    rows.push_back(row);
  }

  TextTable table({"scenario", "size KiB", "two-step", "fused", "speedup", "fused rate",
                   "moved(2step)", "moved(fused)", "ok"});
  bool all_ok = true;
  for (const Row& row : rows) {
    const bool ok = row.identical() && row.speed_ok() && row.rate_ok();
    all_ok &= ok;
    if (!row.identical()) {
      std::fprintf(stderr, "MISMATCH: %s/%zu images or kfuncs differ across the ablation\n",
                   row.scenario.c_str(), row.bytes);
    }
    if (!row.speed_ok()) {
      std::fprintf(stderr, "MISMATCH: %s/%zu speedup %.2fx < %.2fx\n", row.scenario.c_str(),
                   row.bytes, row.speedup(), row.min_speedup);
    }
    if (!row.rate_ok()) {
      std::fprintf(stderr, "MISMATCH: %s/%zu fused rate %.2f < %.2f\n", row.scenario.c_str(),
                   row.bytes, row.on.fuse.fused_rate(), row.min_fused_rate);
    }
    table.AddRow({row.scenario, std::to_string(row.bytes / kKiB), TextTable::Num(row.off.us),
                  TextTable::Num(row.on.us), TextTable::Num(row.speedup(), 2) + "x",
                  TextTable::Num(row.on.fuse.fused_rate(), 2),
                  std::to_string(row.off.moved), std::to_string(row.on.moved),
                  ok ? "yes" : " NO "});
  }
  table.Print();

  if (json) {
    std::ofstream out("BENCH_ipc_fuse.json");
    out << "{\n  \"bench\": \"ipc_fuse\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"scenario\": \"" << row.scenario << "\", \"bytes\": " << row.bytes
          << ", \"us_two_step\": " << row.off.us << ", \"us_fused\": " << row.on.us
          << ", \"speedup\": " << row.speedup() << ", \"min_speedup\": " << row.min_speedup
          << ", \"moved_two_step\": " << row.off.moved << ", \"moved_fused\": " << row.on.moved
          << ", \"fused_ipc_bytes\": " << row.on.fused_bytes
          << ", \"fused_rate\": " << row.on.fuse.fused_rate()
          << ", \"min_fused_rate\": " << row.min_fused_rate
          << ", \"forward_fused\": " << row.on.fuse.forward_fused
          << ", \"ring_windows_posted\": " << row.on.fuse.ring_windows_posted
          << ", \"ring_rollovers\": " << row.on.fuse.ring_rollovers
          << ", \"identical_result\": " << (row.identical() ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  COPIER_CHECK(all_ok);
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv),
                     copier::bench::HasFlag(argc, argv, "--json"));
  return 0;
}
