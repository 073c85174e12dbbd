// kv-zipf and kv-threaded: MiniKv GET/SET plus MiniProxy requests replayed
// from a loadgen trace. The request loop mirrors apps::RunServe
// (src/apps/serve_harness.cc) call for call, so the benchmark can time every
// call into a layer; main.cc checks that the virtual pass reproduces
// RunServeVirtual's reply and store hashes on the same trace.
#include <algorithm>
#include <map>
#include <thread>

#include "src/apps/minikv.h"
#include "src/apps/miniproxy.h"
#include "src/apps/serve_harness.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = copier::core;
namespace simos = copier::simos;
using copier::Cycles;
using copier::ExecContext;
using copier::apps::AppProcess;
using copier::apps::MiniKv;
using copier::apps::MiniProxy;
using copier::apps::Mode;

namespace {

constexpr uint64_t kRequestOverheadBytes = 64;  // serve_harness's admission cost allowance
constexpr Cycles kPreloadGap = 6000;
constexpr Cycles kPreloadSettle = 2'000'000;  // quiet gap between pre-load and timed trace
// MMPP shape: bursts at 3x the calm rate on a fifth of the phases, 16
// requests per phase on average. Milder and shorter than loadgen's default
// (8x, 64): a run holds thousands of bursts of similar weight, so the tail
// does not hinge on the few longest bursts a seed happens to draw.
constexpr core::BurstConfig kKvBurst = {3.0, 0.2, 16};

// serve_harness's value bytes: a function of the request identity alone.
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
  simos::SimSocket* sock = nullptr;
  simos::SimSocket* server_end = nullptr;
  simos::SimSocket* px_sock = nullptr;
  simos::SimSocket* px_in = nullptr;
  uint64_t buf = 0;
  bool dead = false;  // threaded: a request on it got stuck; later ones fail
};

}  // namespace

KvInputs MakeKvInputs(uint64_t seed, size_t requests, double mean_gap_cycles,
                      size_t connections, double proxy_fraction) {
  KvInputs in;
  in.shape.seed = seed;
  in.shape.requests = requests;
  in.shape.connections = connections;
  in.shape.keys = 1024;
  in.shape.zipf_theta = 0.99;
  in.shape.value_sizes = {64, 1024, 4096, 16384};
  in.shape.mean_gap_cycles = mean_gap_cycles;
  in.shape.proxy_fraction = proxy_fraction;
  in.shape.churn_every = 64;
  in.shape.burst = kKvBurst;
  // Pre-load: one SET per key, sizes cycling through the mix.
  for (size_t k = 0; k < in.shape.keys; ++k) {
    core::ServeRequest req;
    req.index = k;
    req.arrival = (k + 1) * kPreloadGap;
    req.conn = static_cast<uint32_t>(k % connections);
    req.key = static_cast<uint32_t>(k);
    req.value_bytes = in.shape.value_sizes[k % in.shape.value_sizes.size()];
    in.trace.push_back(req);
  }
  in.preload = in.trace.size();
  const Cycles offset = in.trace.back().arrival + kPreloadSettle;
  for (core::ServeRequest req : core::BuildServeTrace(in.shape)) {
    req.index += in.preload;
    req.arrival += offset;
    in.trace.push_back(req);
  }
  return in;
}

PassOutput RunKvPass(const KvInputs& inputs, const KvOptions& options) {
  const bool threaded = options.threaded;
  Tracer* tracer = threaded ? nullptr : options.tracer;
  const std::vector<core::ServeRequest>& trace = inputs.trace;
  PassOutput out;
  const uint64_t host_start = HostNowNs();

  Stack stack(threaded, options.threads, tracer);
  simos::SimKernel* kernel = stack.kernel.get();
  core::CopierService* service = stack.service.get();

  AppProcess* server = stack.NewApp(Mode::kCopier, "kv-server");
  MiniKv kv(server);
  core::Client* kv_client = service->ClientById(server->proc()->copier_client_id());

  const bool use_proxy = std::any_of(trace.begin(), trace.end(),
                                     [](const core::ServeRequest& r) { return r.via_proxy; });
  AppProcess* proxy = nullptr;
  std::unique_ptr<MiniProxy> mp;
  core::Client* proxy_client = nullptr;
  simos::SimSocket* proxy_out = nullptr;
  simos::SimSocket* upstream = nullptr;
  if (use_proxy) {
    proxy = stack.NewApp(Mode::kCopier, "proxy");
    mp = std::make_unique<MiniProxy>(proxy);
    auto [out_end, up_end] = kernel->CreateSocketPair();
    proxy_out = out_end;
    upstream = up_end;
    proxy_client = service->ClientById(proxy->proc()->copier_client_id());
  }

  size_t conn_count = inputs.shape.connections;
  size_t max_value = 4096;
  for (const core::ServeRequest& req : trace) {
    conn_count = std::max<size_t>(conn_count, req.conn + 1);
    max_value = std::max<size_t>(max_value, req.value_bytes);
  }
  const size_t buf_bytes = max_value + 64 * copier::kKiB;
  std::vector<Conn> conns(conn_count);
  for (size_t i = 0; i < conns.size(); ++i) {
    Conn& conn = conns[i];
    conn.app = stack.NewApp(Mode::kSync, "client-" + std::to_string(i));
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

  // Threaded pacing: trace cycles scaled to host ns from the first arrival.
  const uint64_t pace_origin = HostNowNs();
  auto host_now = [&] { return HostNowNs() - pace_origin; };
  auto arrival_ns = [&](const core::ServeRequest& req) {
    return static_cast<uint64_t>(static_cast<double>(req.arrival) * options.ns_per_cycle);
  };
  auto host_sleep_ns = [](uint64_t ns) {
    if (ns > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns - 50'000));
    }
  };
  auto pump = [&](core::Client* client) {
    if (!threaded && client != nullptr) {
      const uint64_t served =
          ServiceCall(tracer, stack, "service.serve", [&] { return service->Serve(*client); });
      if (tracer != nullptr) {
        tracer->Count("service.serve.calls");
        tracer->Count("service.serve.idle", served == 0 ? 1 : 0);
      }
    }
  };
  // Threaded waits are bounded: a request waiting past the deadline fails,
  // and its connection is retired until the next churn (a late reply would
  // land in the next request's receive).
  bool timed_out = false;
  auto stuck = [&](uint64_t since) {
    timed_out = timed_out || (threaded && HostNowNs() - since > options.stuck_timeout_ns);
    return timed_out;
  };

  std::map<std::string, std::vector<uint8_t>> model;
  uint64_t timed_host_start = 0;
  Cycles timed_virtual_start = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const core::ServeRequest& req = trace[i];
    const bool timed = i >= inputs.preload;
    if (i == inputs.preload) {
      out.setup_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
      out.begin = stack.Snapshot();
      timed_host_start = HostNowNs();
      timed_virtual_start = req.arrival;
    }
    Conn& conn = conns[req.conn];
    if (timed) {
      ++out.attempted;
    }
    if (req.churn_before) {
      auto [client_end, server_end] = kernel->CreateSocketPair();
      conn.sock = client_end;
      conn.server_end = server_end;
      if (use_proxy) {
        auto [px_client, px_in] = kernel->CreateSocketPair();
        conn.px_sock = px_client;
        conn.px_in = px_in;
      }
      conn.dead = false;
    }
    if (conn.dead || (threaded && host_now() > options.pass_deadline_ns)) {
      ++out.failed;
      out.reply_hashes.push_back(0);
      continue;
    }

    ExecContext& cctx = conn.app->ctx();
    if (threaded) {
      const uint64_t target = arrival_ns(req);
      uint64_t now = host_now();
      if (now < target) {
        host_sleep_ns(target - now);
        while (host_now() < target) {
        }
      }
    } else {
      cctx.WaitUntil(req.arrival);
    }
    if (tracer != nullptr && timed) {
      tracer->BeginRequest(static_cast<uint32_t>(req.index), req.arrival);
    }

    timed_out = false;
    const std::string key = "key" + std::to_string(req.key);
    const auto model_it = model.find(key);
    const uint64_t expected_value =
        req.via_proxy ? req.value_bytes
                      : (req.is_get ? (model_it != model.end() ? model_it->second.size() : 0)
                                    : req.value_bytes);
    const uint64_t cost = expected_value + kRequestOverheadBytes;
    core::Client* target_client = req.via_proxy ? proxy_client : kv_client;
    // The default config admits everything (overload_policy kNone); any
    // other verdict is a failed request.
    const core::CopierService::Admission adm = ServiceCall(tracer, stack, "service.admit", [&] {
      return service->AdmitRequest(*target_client, cost, threaded ? host_now() : cctx.now());
    });
    if (adm.verdict != core::CopierService::AdmissionVerdict::kAdmit) {
      ++out.failed;
      out.reply_hashes.push_back(0);
      if (tracer != nullptr && timed) {
        tracer->EndRequest(cctx.now());
      }
      continue;
    }

    const uint64_t prev_kfuncs = service->TotalStats().kfuncs_run;
    const Cycles submit_at = cctx.now();
    Cycles completion_cycles = 0;
    uint64_t completion_ns = 0;
    bool ok = true;
    uint64_t reply_hash = 0;
    double lag = 0;
    if (!req.via_proxy) {
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
      {
        ScopedSpan span(tracer, "simos.send", Layer::kSimos, &cctx);
        ok = kernel->Send(*conn.app->proc(), conn.sock, conn.buf, request_bytes.size(), &cctx)
                 .ok();
      }
      if (!threaded) {
        lag = static_cast<double>(server->ctx().now() > cctx.now()
                                      ? server->ctx().now() - cctx.now()
                                      : 0);
        server->ctx().WaitUntil(cctx.now());
      }
      const uint64_t wait_from = HostNowNs();
      copier::StatusOr<bool> processed = false;
      do {
        ScopedSpan span(tracer, "apps.kv_process", Layer::kApps, &server->ctx());
        processed = kv.ProcessOne(conn.server_end, &server->ctx());
        if (!processed.ok() || *processed || stuck(wait_from) || !threaded) {
          break;
        }
        std::this_thread::yield();
      } while (true);
      ok = ok && processed.ok() && *processed;
      if (ok) {
        pump(kv_client);
        const size_t reply_len = expected_reply.size();
        auto recv_once = [&] {
          ScopedSpan span(tracer, "simos.recv", Layer::kSimos, &cctx);
          if (tracer != nullptr) {
            tracer->Count("simos.recv.calls");
          }
          return kernel->Recv(*conn.app->proc(), conn.sock, conn.buf, reply_len, &cctx);
        };
        auto reply = recv_once();
        uint64_t spins = 0;
        while (!reply.ok() && ok) {
          if (tracer != nullptr) {
            tracer->Count("simos.recv.retries");
          }
          if (!threaded) {
            pump(kv_client);
          } else {
            std::this_thread::yield();
            if (++spins % 4096 == 0) {
              service->DrainAll();
            }
            ok = !stuck(wait_from);
          }
          reply = recv_once();
        }
        ok = ok && reply.ok();
        std::vector<uint8_t> got(reply_len);
        if (ok) {
          ok = conn.app->proc()->mem().ReadBytes(conn.buf, got.data(), got.size()).ok() &&
               got == expected_reply;
          reply_hash = copier::apps::Fnv1a(got.data(), got.size());
        }
        if (ok) {
          out.payload_bytes += req.is_get ? reply_len : request_bytes.size();
        }
      }
      completion_cycles = cctx.now();
      completion_ns = host_now();
    } else {
      const std::vector<uint8_t> body = ValueBytes(req);
      const auto msg = MiniProxy::BuildMessage(1, body);
      conn.app->io().Write(conn.buf, msg.data(), msg.size(), &cctx);
      {
        ScopedSpan span(tracer, "simos.send", Layer::kSimos, &cctx);
        ok = kernel->Send(*conn.app->proc(), conn.px_sock, conn.buf, msg.size(), &cctx).ok();
      }
      if (!threaded) {
        lag = static_cast<double>(proxy->ctx().now() > cctx.now()
                                      ? proxy->ctx().now() - cctx.now()
                                      : 0);
        proxy->ctx().WaitUntil(cctx.now());
      }
      const uint64_t wait_from = HostNowNs();
      copier::StatusOr<bool> forwarded = false;
      do {
        ScopedSpan span(tracer, "apps.proxy_forward", Layer::kApps, &proxy->ctx());
        forwarded = mp->ForwardOne(conn.px_in, proxy_out, &proxy->ctx());
        if (!forwarded.ok() || *forwarded || stuck(wait_from) || !threaded) {
          break;
        }
        std::this_thread::yield();
      } while (true);
      ok = ok && forwarded.ok() && *forwarded;
      Cycles delivered = 0;
      if (ok) {
        pump(proxy_client);
        size_t consumed = 0;
        uint64_t body_hash = 1469598103934665603ull;
        while (consumed < msg.size() && ok) {
          size_t n = 0;
          {
            ScopedSpan span(tracer, "simos.consume_rx", Layer::kSimos, &cctx);
            n = upstream->ConsumeRx(SIZE_MAX, &delivered, [&](simos::Skb* skb, size_t off,
                                                              size_t len) {
              body_hash = Fnv(skb->data + off, len, body_hash);
              skb->pending_copies.fetch_add(1, std::memory_order_relaxed);
              simos::SimSocket::CompleteCopy(&kernel->skb_pool(), skb);
            });
          }
          consumed += n;
          if (n == 0) {
            pump(proxy_client);
            if (threaded) {
              std::this_thread::yield();
              ok = !stuck(wait_from);
            }
          }
        }
        // The forwarded message is the request with FWD rewritten to VIA.
        std::vector<uint8_t> expected = msg;
        std::copy_n("VIA", 3, expected.begin());
        ok = ok && consumed == msg.size() &&
             body_hash == Fnv(expected.data(), expected.size());
        reply_hash = body_hash;
        if (ok) {
          out.payload_bytes += body.size();
        }
      }
      completion_cycles = std::max(proxy->ctx().now(), delivered);
      cctx.WaitUntil(completion_cycles);
      completion_ns = host_now();
    }
    ServiceCall(tracer, stack, "service.finish", [&] {
      service->FinishRequest(*target_client, cost, threaded ? completion_ns : completion_cycles);
      return 0;
    });
    if (!ok) {
      conn.dead = timed_out;
      reply_hash = 0;
    }
    out.reply_hashes.push_back(reply_hash);
    if (tracer != nullptr && timed) {
      tracer->EndRequest(completion_cycles);
    }
    if (!timed) {
      if (!ok) {
        ++out.failed;  // a failed pre-load SET poisons every later GET of its key
      }
      continue;
    }
    out.failed += ok ? 0 : 1;
    const double latency_us =
        threaded ? static_cast<double>(completion_ns - arrival_ns(req)) / 1e3
                 : CyclesToUs(static_cast<double>(completion_cycles - req.arrival));
    out.latency_us.push_back(latency_us);
    out.lag_cycles.push_back(lag);
    const core::Engine::Stats after = service->TotalStats();
    if (!threaded && after.kfuncs_run > prev_kfuncs && after.last_kfunc_cycles > submit_at) {
      out.copy_window_us.push_back(CyclesToUs(static_cast<double>(after.last_kfunc_cycles - submit_at)));
    }
    out.output_hash = FnvValue(reply_hash, out.output_hash == 0 ? 1469598103934665603ull
                                                                 : out.output_hash);
  }

  {
    const uint64_t t0 = HostNowNs();
    service->DrainAll();
    if (tracer != nullptr) {
      tracer->Count("service.drain.ns", static_cast<double>(HostNowNs() - t0));
    }
  }
  out.timed_s = static_cast<double>(HostNowNs() - timed_host_start) / 1e9;

  // Final store image against the model: one more checked output.
  ++out.attempted;
  bool store_ok = true;
  uint64_t hash = 1469598103934665603ull;
  for (const auto& [model_key, value] : model) {
    auto stored = kv.Lookup(model_key);
    store_ok = store_ok && stored.ok() && *stored == value;
    hash = copier::apps::Fnv1a(model_key.data(), model_key.size(), hash);
    if (stored.ok()) {
      hash = copier::apps::Fnv1a(stored->data(), stored->size(), hash);
    }
  }
  out.failed += store_ok ? 0 : 1;
  out.store_hash = hash;
  out.output_hash = FnvValue(hash, out.output_hash);

  if (threaded) {
    out.span_us = static_cast<double>(host_now() - arrival_ns(trace[inputs.preload])) / 1e3;
  } else {
    Cycles end = server->ctx().now();
    if (proxy != nullptr) {
      end = std::max(end, proxy->ctx().now());
    }
    for (const Conn& conn : conns) {
      end = std::max(end, conn.app->ctx().now());
    }
    out.span_us = CyclesToUs(static_cast<double>(end - timed_virtual_start));
  }
  out.end = stack.Snapshot();
  return out;
}

}  // namespace perfbench
