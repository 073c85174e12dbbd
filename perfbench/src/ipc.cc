// ipc-pipeline: client -> MiniProxy socket -> KV server Binder window.
//
// Each client sends "FWD <id> <len>\r\n<body>" into the proxy's socket,
// whose posted receive ring carries MiniProxy's parcel forward rule: the
// kernel re-frames the message as the "VIA" parcel and lands it, in one fused
// task, in the KV server's posted Binder window ring. A declined forward
// lands in the proxy's window and the proxy forwards it app-level (parse,
// marshal, Transact). The KV server reads the parcel through ParcelReader,
// checks it byte for byte, and re-posts the window behind the ring.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "src/apps/miniproxy.h"
#include "src/apps/parcel.h"
#include "src/common/rng.h"
#include "src/simos/binder.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = copier::core;
namespace simos = copier::simos;
using copier::Cycles;
using copier::kKiB;
using copier::apps::AppProcess;
using copier::apps::Mode;

namespace {

constexpr size_t kClients = 4;
constexpr size_t kProxyRingDepth = 2;  // posted windows per proxy socket
constexpr size_t kKvRingDepth = 4;     // posted Binder windows at the KV server
constexpr size_t kMaxBody = 1020 * kKiB;  // parcel stays under the 1 MiB txn buffer
constexpr size_t kWindowBytes = kMaxBody + 64;
constexpr size_t kPoolBytes = 2 * copier::kMiB;  // body content source

std::string FwdHeader(const IpcRequest& r) {
  return "FWD " + std::to_string(r.upstream) + " " + std::to_string(r.body_bytes) + "\r\n";
}
std::string ViaHeader(const IpcRequest& r) {
  return "VIA " + std::to_string(r.upstream) + " " + std::to_string(r.body_bytes) + "\r\n";
}

}  // namespace

IpcInputs MakeIpcInputs(uint64_t seed, size_t requests, double mean_gap_cycles) {
  copier::Rng rng(seed);
  IpcInputs in;
  in.pool.resize(kPoolBytes);
  for (size_t i = 0; i < in.pool.size(); i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(in.pool.data() + i, &v, 8);
  }
  double at = 0;
  for (size_t i = 0; i < requests; ++i) {
    // Exponential inter-arrival gaps: Poisson arrivals at a fixed mean rate.
    const double u = (static_cast<double>(rng.Next() >> 11) + 0.5) / 9007199254740992.0;
    at += -std::log(u) * mean_gap_cycles;
    IpcRequest r;
    r.arrival = static_cast<Cycles>(at) + 1;
    r.client = static_cast<uint32_t>(rng.Next() % kClients);
    // Log-uniform body sizes over [64 KiB, kMaxBody], 64-byte granular.
    const double unit = (static_cast<double>(rng.Next() >> 11) + 0.5) / 9007199254740992.0;
    const double bytes = 64.0 * kKiB * std::pow(static_cast<double>(kMaxBody) / (64 * kKiB), unit);
    r.body_bytes = static_cast<uint32_t>(bytes) / 64 * 64;
    r.congruent = rng.Next() % 2 == 0;
    r.upstream = static_cast<uint32_t>(1 + rng.Next() % 9);
    r.content_offset = rng.Next() % (kPoolBytes - r.body_bytes);
    in.requests.push_back(r);
  }
  return in;
}

PassOutput RunIpcPass(const IpcInputs& in, Tracer* tracer) {
  PassOutput out;
  const uint64_t host_start = HostNowNs();
  const std::vector<IpcRequest>& inputs = in.requests;

  Stack stack(false, 0, tracer);
  simos::SimKernel* kernel = stack.kernel.get();
  core::CopierService* service = stack.service.get();
  simos::BinderDriver binder(kernel);
  AppProcess* proxy = stack.NewApp(Mode::kCopier, "proxy");
  AppProcess* kv = stack.NewApp(Mode::kCopier, "kv-server");

  auto drain = [&] {
    ServiceCall(tracer, stack, "service.drain", [&] {
      const uint64_t t0 = HostNowNs();
      service->DrainAll();
      if (tracer != nullptr) {
        tracer->Count("service.drain.ns", static_cast<double>(HostNowNs() - t0));
      }
      return 0;
    });
  };

  // KV server's Binder window ring.
  struct Window {
    uint64_t va = 0;
    std::unique_ptr<core::Descriptor> descriptor;
  };
  std::vector<Window> kv_windows(kKvRingDepth);
  std::deque<size_t> kv_ring;
  std::vector<simos::SimKernel::RecvWindowSpec> specs;
  for (size_t i = 0; i < kKvRingDepth; ++i) {
    kv_windows[i].va = kv->Map(kWindowBytes, "kv-win");
    kv_windows[i].descriptor = std::make_unique<core::Descriptor>(kWindowBytes);
    specs.push_back({kv_windows[i].va, kWindowBytes, kv_windows[i].descriptor.get()});
    kv_ring.push_back(i);
  }
  {
    ScopedSpan span(tracer, "simos.binder_post", Layer::kSimos, &kv->ctx());
    if (!binder.PostReceiveRing(*kv->proc(), specs, &kv->ctx()).ok()) {
      ++out.failed;
    }
  }

  struct Client {
    AppProcess* app = nullptr;
    simos::SimSocket* tx = nullptr;
    simos::SimSocket* rx = nullptr;  // proxy side
    uint64_t buf = 0;
    std::vector<Window> windows;  // proxy windows on rx
    std::deque<size_t> ring;
  };
  std::vector<Client> clients(kClients);
  const auto rule = copier::apps::MiniProxy::MakeParcelForwardRule(&binder);
  const uint64_t marshal = proxy->Map(kWindowBytes, "marshal");
  for (size_t c = 0; c < kClients; ++c) {
    Client& cl = clients[c];
    cl.app = stack.NewApp(Mode::kCopier, "ipc-client-" + std::to_string(c));
    auto [tx, rx] = kernel->CreateSocketPair();
    cl.tx = tx;
    cl.rx = rx;
    cl.buf = cl.app->Map(kWindowBytes + 2 * 4096, "msg");
    rx->SetForwardRule(rule);
    std::vector<simos::SimKernel::RecvWindowSpec> pspecs;
    for (size_t i = 0; i < kProxyRingDepth; ++i) {
      Window w;
      w.va = proxy->Map(kWindowBytes, "proxy-win");
      w.descriptor = std::make_unique<core::Descriptor>(kWindowBytes);
      pspecs.push_back({w.va, kWindowBytes, w.descriptor.get()});
      cl.windows.push_back(std::move(w));
      cl.ring.push_back(i);
    }
    ScopedSpan span(tracer, "simos.post_recv", Layer::kSimos, &proxy->ctx());
    if (!kernel->PostRecvRing(*proxy->proc(), rx, pspecs, &proxy->ctx()).ok()) {
      ++out.failed;
    }
  }
  out.setup_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  out.begin = stack.Snapshot();
  const uint64_t timed_start = HostNowNs();

  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const IpcRequest& req = inputs[i];
    Client& cl = clients[req.client];
    ++out.attempted;
    cl.app->ctx().WaitUntil(req.arrival);
    if (tracer != nullptr) {
      tracer->BeginRequest(static_cast<uint32_t>(i), req.arrival);
    }
    const std::string fwd = FwdHeader(req);
    const std::string via = ViaHeader(req);
    const size_t msg_len = fwd.size() + req.body_bytes;
    const size_t item_len = via.size() + req.body_bytes;
    const size_t parcel_len = 4 + item_len;
    const uint8_t* body = in.pool.data() + req.content_offset;
    // Page-congruent requests put the body at the same page offset in the
    // client buffer as it lands at in the KV window.
    const uint64_t body_off = (4 + via.size() + (req.congruent ? 0 : 512)) % 4096;
    const uint64_t src = cl.buf + (body_off + 4096 - fwd.size()) % 4096;
    {
      std::vector<uint8_t> msg(fwd.begin(), fwd.end());
      msg.insert(msg.end(), body, body + req.body_bytes);
      cl.app->io().Write(src, msg.data(), msg.size(), &cl.app->ctx());
    }

    bool ok = true;
    const uint64_t forwards_before = service->ipc_fuse_stats().forward_fused;
    size_t sent_total = 0;
    while (sent_total < msg_len && ok) {
      copier::StatusOr<size_t> sent = 0;
      {
        ScopedSpan span(tracer, "simos.send", Layer::kSimos, &cl.app->ctx());
        sent = kernel->Send(*cl.app->proc(), cl.tx, src + sent_total, msg_len - sent_total,
                            &cl.app->ctx());
      }
      ok = sent.ok() && *sent > 0;
      sent_total += ok ? *sent : 0;
      if (ok && sent_total < msg_len) {
        drain();
      }
    }

    // Proxy: wait for its window to settle, reap it, forward app-level if
    // the kernel declined, re-post the window.
    const double lag = static_cast<double>(
        proxy->ctx().now() > cl.app->ctx().now() ? proxy->ctx().now() - cl.app->ctx().now() : 0);
    proxy->ctx().WaitUntil(cl.app->ctx().now());
    const size_t pw = cl.ring.front();
    Window& pwin = cl.windows[pw];
    const size_t kw = kv_ring.front();
    Window& kwin = kv_windows[kw];
    uint64_t txn_id = 0;
    if (ok) {
      ScopedSpan span(tracer, "apps.proxy_forward", Layer::kApps, &proxy->ctx());
      ok = core::WaitDescriptor(*pwin.descriptor, 0, msg_len, &proxy->ctx(), drain).ok();
      copier::StatusOr<size_t> reaped = 0;
      {
        ScopedSpan reap(tracer, "simos.post_recv", Layer::kSimos, &proxy->ctx());
        reaped = kernel->CompleteRecv(*proxy->proc(), cl.rx, &proxy->ctx());
      }
      ok = ok && reaped.ok() && *reaped == msg_len;
      if (ok && service->ipc_fuse_stats().forward_fused == forwards_before) {
        std::vector<uint8_t> msg(msg_len);
        ok = proxy->proc()->mem().ReadBytes(pwin.va, msg.data(), msg_len, &proxy->ctx()).ok();
        proxy->io().Compute(&proxy->ctx(), 64, copier::apps::MiniProxy::kHeaderParseCpb,
                            copier::apps::MiniProxy::kRouteFixed);
        copier::apps::ParcelWriter writer;
        std::string item = via;
        item.append(msg.begin() + static_cast<std::ptrdiff_t>(fwd.size()), msg.end());
        writer.WriteString(item);
        proxy->io().Write(marshal, writer.bytes().data(), writer.bytes().size(), &proxy->ctx());
        auto txn = binder.Transact(*proxy->proc(), marshal, writer.bytes().size(),
                                   &proxy->ctx());
        ok = ok && txn.ok() && txn->in_window;
        txn_id = txn.ok() ? txn->id : 0;
      }
      pwin.descriptor->Reset(kWindowBytes);
      cl.ring.pop_front();
      cl.ring.push_back(pw);
      ScopedSpan repost(tracer, "simos.post_recv", Layer::kSimos, &proxy->ctx());
      ok = kernel->PostRecvRing(*proxy->proc(), cl.rx,
                                {{pwin.va, kWindowBytes, pwin.descriptor.get()}}, &proxy->ctx())
               .ok() &&
           ok;
    }

    // KV server: read the parcel out of its window and check it.
    if (ok) {
      kv->ctx().WaitUntil(proxy->ctx().now());
      ScopedSpan span(tracer, "apps.kv_process", Layer::kApps, &kv->ctx());
      copier::apps::ParcelReader reader(&kv->proc()->mem(), kwin.va, parcel_len,
                                        kwin.descriptor.get(), &kernel->timing());
      auto item = reader.ReadString(&kv->ctx(), drain);
      ok = item.ok() && item->size() == item_len &&
           std::memcmp(item->data(), via.data(), via.size()) == 0 &&
           std::memcmp(item->data() + via.size(), body, req.body_bytes) == 0;
      if (txn_id != 0) {
        binder.Release(txn_id);
      }
    }
    if (ok) {
      kwin.descriptor->Reset(kWindowBytes);
      kv_ring.pop_front();
      kv_ring.push_back(kw);
      ScopedSpan span(tracer, "simos.binder_post", Layer::kSimos, &kv->ctx());
      ok = binder.PostReceive(*kv->proc(), kwin.va, kWindowBytes, kwin.descriptor.get(),
                              &kv->ctx())
               .ok();
    }
    const Cycles done = kv->ctx().now();
    if (tracer != nullptr) {
      tracer->EndRequest(done);
    }
    if (!ok) {
      // The rings no longer line up with the requests: fail the rest.
      out.failed += inputs.size() - i;
      out.attempted += inputs.size() - i - 1;
      break;
    }
    out.payload_bytes += req.body_bytes;
    out.latency_us.push_back(CyclesToUs(static_cast<double>(done - req.arrival)));
    out.lag_cycles.push_back(lag);
    hash = FnvValue(req.content_offset, FnvValue(done, hash));
  }
  drain();
  out.timed_s = static_cast<double>(HostNowNs() - timed_start) / 1e9;
  out.output_hash = hash;
  Cycles end = std::max(proxy->ctx().now(), kv->ctx().now());
  for (const Client& cl : clients) {
    end = std::max(end, cl.app->ctx().now());
  }
  out.span_us = inputs.empty() ? 0 : CyclesToUs(static_cast<double>(end - inputs.front().arrival));
  out.end = stack.Snapshot();
  return out;
}

}  // namespace perfbench
