#include "src/apps/serve_harness.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/apps/minikv.h"
#include "src/apps/miniproxy.h"
#include "src/common/logging.h"
#include "src/core/linux_glue.h"
#include "src/core/service.h"
#include "src/simos/kernel.h"

namespace copier::apps {
namespace {

constexpr double kNominalGHz = 2.9;  // virtual cycles -> microseconds
// Cost estimate handed to admission: the value/body bytes a request pushes
// through the copy service, plus a fixed header allowance.
constexpr uint64_t kRequestOverheadBytes = 64;

double VirtualUs(Cycles cycles) { return static_cast<double>(cycles) / (kNominalGHz * 1e3); }

// Deterministic value/body content from the request identity alone, so a
// replayed subset (SpreadTrace keeps indices) regenerates identical bytes.
std::vector<uint8_t> ValueBytes(const core::ServeRequest& req) {
  std::vector<uint8_t> value(req.value_bytes);
  uint64_t x = req.index * 0x9e3779b97f4a7c15ull + req.key + 1;
  for (auto& byte : value) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(x >> 56);
  }
  return value;
}

struct Conn {
  AppProcess* app = nullptr;
  simos::SimSocket* sock = nullptr;        // KV pair, client end
  simos::SimSocket* server_end = nullptr;  // KV pair, server end
  simos::SimSocket* px_sock = nullptr;     // proxy pair, client end
  simos::SimSocket* px_in = nullptr;       // proxy pair, proxy-side end
  uint64_t buf = 0;
};

ServeResult RunServe(const ServeOptions& options, bool threaded) {
  const hw::TimingModel* timing =
      options.timing != nullptr ? options.timing : &hw::TimingModel::Default();
  const core::ServeWorkload& workload = options.workload;
  const std::vector<core::ServeRequest> trace =
      options.trace.empty() ? core::BuildServeTrace(workload) : options.trace;
  ServeResult result;
  if (trace.empty()) {
    return result;
  }

  simos::SimKernel::Config kconfig;
  kconfig.timing = timing;
  auto kernel = std::make_unique<simos::SimKernel>(kconfig);
  core::CopierService::Options soptions;
  soptions.config = options.config;
  soptions.timing = timing;
  soptions.mode =
      threaded ? core::CopierService::Mode::kThreaded : core::CopierService::Mode::kManual;
  if (threaded) {
    soptions.config.min_threads = options.threads;
    soptions.config.max_threads = options.threads;
  }
  auto service = std::make_unique<core::CopierService>(std::move(soptions));
  auto glue = std::make_unique<core::CopierLinux>(service.get(), kernel.get());
  if (options.mode == Mode::kCopier) {
    glue->Install();
  }
  if (threaded) {
    service->Start();
  }

  std::vector<std::unique_ptr<AppProcess>> apps;
  auto new_app = [&](Mode mode, const std::string& name) {
    apps.push_back(std::make_unique<AppProcess>(kernel.get(), service.get(), mode, name));
    return apps.back().get();
  };

  AppProcess* server = new_app(options.mode, "kv-server");
  MiniKv kv(server);
  core::Client* kv_client = options.mode == Mode::kCopier
                                ? service->ClientById(server->proc()->copier_client_id())
                                : nullptr;

  const bool use_proxy = std::any_of(trace.begin(), trace.end(),
                                     [](const core::ServeRequest& r) { return r.via_proxy; });
  AppProcess* proxy = nullptr;
  std::unique_ptr<MiniProxy> mp;
  core::Client* proxy_client = nullptr;
  simos::SimSocket* proxy_out = nullptr;
  simos::SimSocket* upstream = nullptr;
  if (use_proxy) {
    proxy = new_app(options.mode, "proxy");
    mp = std::make_unique<MiniProxy>(proxy);
    auto [out_end, up_end] = kernel->CreateSocketPair();
    proxy_out = out_end;
    upstream = up_end;
    if (options.mode == Mode::kCopier) {
      proxy_client = service->ClientById(proxy->proc()->copier_client_id());
    }
  }

  // Admission requires a copier client to account against; without one
  // (kSync/kZio server) only the kNone policy is meaningful.
  COPIER_CHECK(options.mode == Mode::kCopier ||
               options.config.overload_policy == core::CopierConfig::OverloadPolicy::kNone);

  size_t conn_count = workload.connections;
  size_t max_value = 4096;
  for (const core::ServeRequest& req : trace) {
    conn_count = std::max<size_t>(conn_count, req.conn + 1);
    max_value = std::max<size_t>(max_value, req.value_bytes);
  }
  const size_t buf_bytes = max_value + 64 * kKiB;

  std::vector<Conn> conns(conn_count);
  for (size_t i = 0; i < conns.size(); ++i) {
    Conn& conn = conns[i];
    conn.app = new_app(Mode::kSync, "client-" + std::to_string(i));
    auto [client_end, server_end] = kernel->CreateSocketPair();
    conn.sock = client_end;
    conn.server_end = server_end;
    if (use_proxy) {
      auto [px_client, px_in] = kernel->CreateSocketPair();
      conn.px_sock = px_client;
      conn.px_in = px_in;
    }
    conn.buf = conn.app->Map(buf_bytes, "cbuf");
  }

  // Host-clock pacing (threaded mode): arrival cycle * ns_per_cycle.
  const auto host_start = std::chrono::steady_clock::now();
  auto host_now_ns = [&]() -> uint64_t {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - host_start)
                                     .count());
  };
  auto arrival_ns = [&](const core::ServeRequest& req) -> uint64_t {
    return static_cast<uint64_t>(static_cast<double>(req.arrival) * options.ns_per_cycle);
  };
  auto host_sleep_ns = [&](uint64_t ns) {
    if (ns > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns - 50'000));
    }
  };

  // Pumps the manual-mode service on behalf of the Copier core; a no-op in
  // threaded mode (real threads serve) and sync mode (no copier client).
  auto pump = [&](core::Client* client) {
    if (!threaded && client != nullptr) {
      service->Serve(*client);
    }
  };

  // Reads the whole reply into conn.buf. Recv returns only what the socket
  // holds, and under real threads a reply longer than one skb can still be
  // landing: a short read must keep going at conn.buf + got, or the rest of
  // this reply would become the start of the next one on the connection.
  auto recv_reply = [&](Conn& conn, size_t reply_len, ExecContext& cctx) {
    size_t got = 0;
    uint64_t spins = 0;
    while (got < reply_len) {
      auto reply =
          kernel->Recv(*conn.app->proc(), conn.sock, conn.buf + got, reply_len - got, &cctx);
      if (reply.ok()) {
        got += *reply;
        continue;
      }
      if (!threaded) {
        COPIER_CHECK(kv_client != nullptr) << reply.status().ToString();
        service->Serve(*kv_client);
      } else {
        std::this_thread::yield();
        ++spins;
        if (spins % 4096 == 0) {
          service->DrainAll();
        }
        COPIER_CHECK(spins < (1ull << 26)) << "serve reply stuck: " << reply.status().ToString();
      }
    }
  };

  std::map<std::string, std::vector<uint8_t>> model;  // expected store image
  result.records.reserve(trace.size());

  for (const core::ServeRequest& req : trace) {
    ++result.offered;
    Conn& conn = conns[req.conn];
    ServeRecord rec;
    rec.index = req.index;
    rec.conn = req.conn;
    rec.is_get = req.is_get;
    rec.via_proxy = req.via_proxy;

    if (req.churn_before) {
      // Connection churn: the client reconnects — fresh socket pairs, same
      // process. The old pair is fully drained (requests complete inline).
      auto [client_end, server_end] = kernel->CreateSocketPair();
      conn.sock = client_end;
      conn.server_end = server_end;
      if (use_proxy) {
        auto [px_client, px_in] = kernel->CreateSocketPair();
        conn.px_sock = px_client;
        conn.px_in = px_in;
      }
      ++result.churns;
    }

    ExecContext& cctx = conn.app->ctx();
    if (threaded) {
      const uint64_t target = arrival_ns(req);
      uint64_t now = host_now_ns();
      if (now < target) {
        host_sleep_ns(target - now);
        while (host_now_ns() < target) {
        }
      }
    } else {
      cctx.WaitUntil(req.arrival);
    }

    // --- admission (request boundary: before any bytes move) ---
    const std::string key = "key" + std::to_string(req.key);
    const auto model_it = model.find(key);
    const uint64_t expected_value =
        req.via_proxy ? req.value_bytes
                      : (req.is_get ? (model_it != model.end() ? model_it->second.size() : 0)
                                    : req.value_bytes);
    const uint64_t cost = expected_value + kRequestOverheadBytes;
    core::Client* target_client = req.via_proxy ? proxy_client : kv_client;
    bool admitted = true;
    if (target_client != nullptr) {
      for (;;) {
        const core::CopierService::Admission adm = service->AdmitRequest(
            *target_client, cost, threaded ? host_now_ns() : cctx.now());
        if (adm.verdict == core::CopierService::AdmissionVerdict::kAdmit) {
          break;
        }
        if (adm.verdict == core::CopierService::AdmissionVerdict::kThrottle) {
          rec.throttled = true;
          ++result.throttle_verdicts;
          if (threaded) {
            host_sleep_ns(adm.wait_cycles);
          } else {
            cctx.WaitUntil(cctx.now() + adm.wait_cycles);
          }
          break;  // throttle admits once the backpressure wait is charged
        }
        if (adm.verdict == core::CopierService::AdmissionVerdict::kDefer) {
          ++rec.defers;
          ++result.defer_verdicts;
          if (rec.defers > options.config.admission_max_defer_retries) {
            service->AbandonRequest(*target_client);
            admitted = false;
            break;
          }
          if (threaded) {
            host_sleep_ns(adm.wait_cycles);
          } else {
            cctx.WaitUntil(cctx.now() + adm.wait_cycles);
          }
          continue;
        }
        admitted = false;  // kShed
        break;
      }
    }
    rec.admitted = admitted;
    if (!admitted) {
      ++result.shed;
      rec.kfuncs_after = service->TotalStats().kfuncs_run;
      result.records.push_back(rec);
      continue;
    }
    ++result.admitted;

    // Copy-use window attribution (virtual runs): everything the service
    // retires from here to completion belongs to this request — the trace is
    // driven one request at a time, so [submit_at, last KFUNC] is the span
    // the Copier held kernel resources (skbs, locked pages) on its behalf.
    const uint64_t prev_kfuncs = service->TotalStats().kfuncs_run;
    const Cycles submit_at = cctx.now();

    Cycles completion_cycles = 0;
    uint64_t completion_ns = 0;
    if (!req.via_proxy) {
      // --- KV request ---
      std::vector<uint8_t> request_bytes;
      std::vector<uint8_t> expected_reply;
      if (req.is_get) {
        request_bytes = MiniKv::BuildGet(key);
        if (model_it == model.end()) {
          expected_reply = {'$', '-', '1', '\r', '\n'};
        } else {
          const std::string header = "$" + std::to_string(model_it->second.size()) + "\r\n";
          expected_reply.assign(header.begin(), header.end());
          expected_reply.insert(expected_reply.end(), model_it->second.begin(),
                                model_it->second.end());
          expected_reply.push_back('\r');
          expected_reply.push_back('\n');
        }
      } else {
        const std::vector<uint8_t> value = ValueBytes(req);
        request_bytes = MiniKv::BuildSet(key, value);
        expected_reply = {'+', 'O', 'K', '\r', '\n'};
        model[key] = value;
      }
      conn.app->io().Write(conn.buf, request_bytes.data(), request_bytes.size(), &cctx);
      COPIER_CHECK(
          kernel->Send(*conn.app->proc(), conn.sock, conn.buf, request_bytes.size(), &cctx)
              .ok());
      if (!threaded) {
        // The server cannot see the request before it was sent; under
        // overload its clock is already ahead and this is a no-op — that lag
        // *is* the queueing delay.
        server->ctx().WaitUntil(cctx.now());
      }
      auto processed = kv.ProcessOne(conn.server_end, &server->ctx());
      COPIER_CHECK(processed.ok()) << processed.status().ToString();
      uint64_t idle_spins = 0;
      while (!*processed) {  // threaded: request bytes may still be landing
        COPIER_CHECK(threaded && ++idle_spins < (1ull << 26)) << "request never arrived";
        std::this_thread::yield();
        processed = kv.ProcessOne(conn.server_end, &server->ctx());
        COPIER_CHECK(processed.ok()) << processed.status().ToString();
      }
      pump(kv_client);
      recv_reply(conn, expected_reply.size(), cctx);
      std::vector<uint8_t> got(expected_reply.size());
      COPIER_CHECK(
          conn.app->proc()->mem().ReadBytes(conn.buf, got.data(), got.size()).ok());
      if (got != expected_reply) {
        result.replies_ok = false;
        size_t diff = 0;
        while (diff < got.size() && got[diff] == expected_reply[diff]) {
          ++diff;
        }
        std::fprintf(stderr,
                     "MISMATCH: req %llu conn %u %s key%u reply differs at byte %zu/%zu "
                     "(got 0x%02x want 0x%02x)\n",
                     (unsigned long long)req.index, req.conn, req.is_get ? "GET" : "SET",
                     req.key, diff, got.size(), diff < got.size() ? got[diff] : 0,
                     diff < expected_reply.size() ? expected_reply[diff] : 0);
      }
      rec.reply_hash = Fnv1a(got.data(), got.size());
      completion_cycles = cctx.now();
      completion_ns = host_now_ns();
    } else {
      // --- proxy request ---
      const std::vector<uint8_t> body = ValueBytes(req);
      const auto msg = MiniProxy::BuildMessage(1, body);
      conn.app->io().Write(conn.buf, msg.data(), msg.size(), &cctx);
      COPIER_CHECK(
          kernel->Send(*conn.app->proc(), conn.px_sock, conn.buf, msg.size(), &cctx).ok());
      if (!threaded) {
        proxy->ctx().WaitUntil(cctx.now());
      }
      auto forwarded = mp->ForwardOne(conn.px_in, proxy_out, &proxy->ctx());
      COPIER_CHECK(forwarded.ok()) << forwarded.status().ToString();
      uint64_t idle_spins = 0;
      while (!*forwarded) {
        COPIER_CHECK(threaded && ++idle_spins < (1ull << 26)) << "forward never arrived";
        std::this_thread::yield();
        forwarded = mp->ForwardOne(conn.px_in, proxy_out, &proxy->ctx());
        COPIER_CHECK(forwarded.ok()) << forwarded.status().ToString();
      }
      pump(proxy_client);
      // Upstream sink: the request completes when the forwarded message has
      // fully arrived (its skbs drain back to the pool here).
      size_t consumed = 0;
      Cycles delivered = 0;
      uint64_t drain_spins = 0;
      while (consumed < msg.size()) {
        const size_t n =
            upstream->ConsumeRx(SIZE_MAX, &delivered, [&](simos::Skb* skb, size_t, size_t) {
              skb->pending_copies.fetch_add(1, std::memory_order_relaxed);
              simos::SimSocket::CompleteCopy(&kernel->skb_pool(), skb);
            });
        consumed += n;
        if (n == 0) {
          COPIER_CHECK(++drain_spins < (1ull << 26)) << "upstream starved";
          pump(proxy_client);
          if (threaded) {
            std::this_thread::yield();
          }
        }
      }
      completion_cycles = std::max(proxy->ctx().now(), delivered);
      cctx.WaitUntil(completion_cycles);  // the conn is busy until delivery
      completion_ns = host_now_ns();
    }
    if (target_client != nullptr) {
      service->FinishRequest(*target_client, cost,
                             threaded ? completion_ns : completion_cycles);
    }
    rec.latency_us = threaded
                         ? static_cast<double>(completion_ns - arrival_ns(req)) / 1e3
                         : VirtualUs(completion_cycles - req.arrival);
    const core::Engine::Stats after = service->TotalStats();
    rec.kfuncs_after = after.kfuncs_run;
    if (!threaded && after.kfuncs_run > prev_kfuncs &&
        after.last_kfunc_cycles > submit_at) {
      rec.copy_window_us = VirtualUs(after.last_kfunc_cycles - submit_at);
      result.copy_window.Add(rec.copy_window_us);
    }
    result.latency.Add(rec.latency_us);
    result.records.push_back(rec);
  }

  service->DrainAll();

  // Final store image vs the model (byte identity of every admitted SET).
  uint64_t hash = 1469598103934665603ull;
  for (const auto& [model_key, value] : model) {
    auto stored = kv.Lookup(model_key);
    if (!stored.ok() || *stored != value) {
      result.replies_ok = false;
      std::fprintf(stderr, "MISMATCH: final store image differs from model at %s (%s)\n",
                   model_key.c_str(),
                   stored.ok() ? "bytes differ" : stored.status().ToString().c_str());
    }
    hash = Fnv1a(model_key.data(), model_key.size(), hash);
    if (stored.ok()) {
      hash = Fnv1a(stored->data(), stored->size(), hash);
    }
  }
  result.store_hash = hash;

  if (threaded) {
    result.span_us =
        static_cast<double>(host_now_ns() - arrival_ns(trace.front())) / 1e3;
  } else {
    Cycles end = server->ctx().now();
    if (proxy != nullptr) {
      end = std::max(end, proxy->ctx().now());
    }
    for (const Conn& conn : conns) {
      end = std::max(end, conn.app->ctx().now());
    }
    result.span_us = VirtualUs(end - trace.front().arrival);
  }
  if (result.span_us > 0) {
    result.achieved_rps = static_cast<double>(result.admitted) / (result.span_us / 1e6);
  }
  result.stats = service->TotalStats();
  if (threaded) {
    service->Stop();
  }
  return result;
}

}  // namespace

ServeResult RunServeVirtual(const ServeOptions& options) { return RunServe(options, false); }

ServeResult RunServeThreaded(const ServeOptions& options) { return RunServe(options, true); }

std::vector<core::ServeRequest> SpreadTrace(const std::vector<core::ServeRequest>& requests,
                                            Cycles gap) {
  std::vector<core::ServeRequest> spread = requests;
  Cycles at = 0;
  for (core::ServeRequest& req : spread) {
    at += gap;
    req.arrival = at;
    req.churn_before = false;  // replay measures the requests, not reconnects
  }
  return spread;
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace copier::apps
