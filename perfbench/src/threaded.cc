// copy-threaded: libcopier clients served by a real Copier service thread.
// One issuing host thread drives four clients (one process each). Each wave
// submits 1024 outstanding 1-16 KiB copies per client, interleaved across
// the clients, RAW chains included, while the service thread is stopped:
// every client is queued on the sharded scheduler's run queue before the
// first pick, as in bench/bench_sched.cc. The service thread is then started
// and serves the wave, picking the clients off the run queue; the issuing
// thread waits on the host until every copy has landed, stops the service
// thread, and csyncs every destination in submission order. Each client's
// final arena must equal an in-order host model.
//
// Why this shape: with the service thread running while the wave is
// submitted, how far it got before each csync — and so the modelled clocks,
// and with two service threads which engine served which client — depends
// on how the host interleaved the threads, and every figure, host or
// modelled, moved with the shared host's load (by 13-59% between runs).
// Queued up front and served by one thread, the wave's modelled timeline
// repeats to within about 1% per op between passes (a few charges still
// follow the thread's host timing), and the driver checks only the outputs
// exactly. The threads still run for real, so the scheduler's pick, wakeup
// and re-queue paths do their work.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = copier::core;
using copier::kKiB;
using copier::apps::AppProcess;
using copier::apps::Mode;

namespace {

constexpr size_t kClients = 4;
constexpr size_t kServiceThreads = 1;
constexpr size_t kOpsPerClient = 1024;             // per wave
constexpr size_t kSourceBytes = 1 * copier::kMiB;  // per client, never written
constexpr size_t kWorkBytes = 6 * copier::kMiB;    // per client
constexpr uint64_t kLandTimeoutNs = 10'000'000'000;

bool Overlaps(uint64_t a, size_t an, uint64_t b, size_t bn) { return a < b + bn && b < a + an; }

}  // namespace

ThreadedInputs MakeThreadedInputs(uint64_t seed, size_t waves) {
  static const uint32_t kSizes[] = {1 * kKiB, 2 * kKiB, 4 * kKiB, 8 * kKiB, 16 * kKiB};
  ThreadedInputs in;
  in.clients = kClients;
  in.arena_bytes = kSourceBytes + kWorkBytes;
  copier::Rng rng(seed);
  for (size_t w = 0; w < waves; ++w) {
    std::vector<ThreadedOp> wave;
    std::vector<std::vector<ThreadedOp>> recent(kClients);  // RAW-chain feeders
    for (size_t i = 0; i < kOpsPerClient * kClients; ++i) {
      ThreadedOp op;
      op.client = static_cast<uint32_t>(i % kClients);
      op.length = kSizes[rng.Next() % 5];
      std::vector<ThreadedOp>& feeders = recent[op.client];
      if (i % 16 == 5 && !feeders.empty()) {
        const ThreadedOp& feeder = feeders[rng.Next() % feeders.size()];
        op.src = feeder.dst;
        op.length = std::min(op.length, feeder.length);
      } else {
        op.src = rng.Next() % (kSourceBytes - op.length);
      }
      do {
        op.dst = kSourceBytes + (rng.Next() % (kWorkBytes - op.length)) / 64 * 64;
      } while (Overlaps(op.dst, op.length, op.src, op.length));
      wave.push_back(op);
      feeders.push_back(op);
      if (feeders.size() > 8) {
        feeders.erase(feeders.begin());
      }
    }
    in.waves.push_back(std::move(wave));
  }
  return in;
}

PassOutput RunThreadedPass(const ThreadedInputs& in, Tracer* tracer) {
  PassOutput out;
  const uint64_t host_start = HostNowNs();
  Stack stack(true, kServiceThreads, nullptr);

  // Per client: an arena, pattern-filled and faulted in; the models start
  // from the same images.
  std::vector<AppProcess*> apps;
  std::vector<uint64_t> bases;
  std::vector<std::vector<uint8_t>> models;
  for (size_t c = 0; c < in.clients; ++c) {
    apps.push_back(stack.NewApp(Mode::kCopier, "copy-" + std::to_string(c)));
    bases.push_back(apps.back()->Map(in.arena_bytes, "arena"));
    std::vector<uint8_t> model(in.arena_bytes);
    copier::Rng fill(in.arena_bytes ^ (0x5eed + c));
    for (size_t i = 0; i < model.size(); i += 8) {
      const uint64_t v = fill.Next();
      std::memcpy(model.data() + i, &v, 8);
    }
    if (!apps.back()->proc()->mem().WriteBytes(bases.back(), model.data(), model.size()).ok()) {
      ++out.failed;
    }
    models.push_back(std::move(model));
  }
  core::CopierService* service = stack.service.get();
  service->Stop();  // started once the copies are queued
  std::vector<core::Client*> clients;
  for (AppProcess* app : apps) {
    clients.push_back(service->ClientById(app->proc()->copier_client_id()));
  }
  // Starts the service thread, waits on the host until every queued copy
  // has landed and the thread has retired everything and gone idle (so the
  // wave's picks do not depend on when it is stopped), and stops it.
  // Bounded: work still queued after it is left to csync's slow path.
  auto serve_queued = [&](const std::vector<core::Descriptor*>& descriptors,
                          const std::vector<uint32_t>& lengths) {
    service->Start();
    const uint64_t wait_from = HostNowNs();
    auto waiting = [&] { return HostNowNs() - wait_from < kLandTimeoutNs; };
    for (size_t i = 0; i < descriptors.size(); ++i) {
      while (descriptors[i] != nullptr && !descriptors[i]->RangeReady(0, lengths[i]) &&
             waiting()) {
        std::this_thread::yield();
      }
    }
    for (const core::Client* client : clients) {
      while ((client->HasQueuedWork() || client->runnable.load() || client->serving.load()) &&
             waiting()) {
        std::this_thread::yield();
      }
    }
    service->Stop();
  };
  // The run queue orders clients by the bytes they have copied and breaks
  // ties by client address, which differs between passes. One warm-up copy
  // of a distinct length under 1 KiB per client keeps the keys distinct for
  // the whole pass: every later copy is a whole number of KiB.
  {
    std::vector<core::Descriptor*> descriptors;
    std::vector<uint32_t> lengths;
    for (size_t c = 0; c < in.clients; ++c) {
      lengths.push_back(static_cast<uint32_t>(64 * (c + 1)));
      descriptors.push_back(apps[c]->lib()->_amemcpy(bases[c] + kSourceBytes, bases[c],
                                                     lengths.back(), copier::lib::AmemcpyOptions{},
                                                     &apps[c]->ctx()));
      std::memmove(models[c].data() + kSourceBytes, models[c].data(), lengths.back());
    }
    serve_queued(descriptors, lengths);
    for (size_t c = 0; c < in.clients; ++c) {
      out.failed += apps[c]->lib()->csync(bases[c] + kSourceBytes, lengths[c], &apps[c]->ctx()).ok()
                        ? 0
                        : 1;
    }
  }
  out.setup_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  out.begin = stack.Snapshot();
  const uint64_t timed_start = HostNowNs();
  auto latest_clock = [&] {
    copier::Cycles latest = 0;
    for (AppProcess* app : apps) {
      latest = std::max(latest, app->ctx().now());
    }
    return latest;
  };
  const copier::Cycles virtual_start = latest_clock();

  // A wave is the traced request, on the latest of the clients' clocks.
  for (size_t w = 0; w < in.waves.size(); ++w) {
    const std::vector<ThreadedOp>& wave = in.waves[w];
    if (tracer != nullptr) {
      tracer->BeginRequest(static_cast<uint32_t>(w), latest_clock());
    }
    std::vector<copier::Cycles> submitted(wave.size());
    std::vector<core::Descriptor*> descriptors(wave.size());
    std::vector<uint32_t> lengths(wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      const ThreadedOp& op = wave[i];
      const uint64_t base = bases[op.client];
      copier::ExecContext* ctx = &apps[op.client]->ctx();
      ++out.attempted;
      submitted[i] = ctx->now();
      {
        ScopedSpan span(tracer, "libcopier.submit", Layer::kLibcopier, ctx);
        descriptors[i] = apps[op.client]->lib()->_amemcpy(base + op.dst, base + op.src, op.length,
                                                          copier::lib::AmemcpyOptions{}, ctx);
      }
      lengths[i] = op.length;
      std::vector<uint8_t>& model = models[op.client];
      std::memmove(model.data() + op.dst, model.data() + op.src, op.length);
      out.payload_bytes += op.length;
    }
    {
      ScopedSpan span(tracer, "service.serve_wave", Layer::kService, nullptr);
      serve_queued(descriptors, lengths);
    }
    for (size_t i = 0; i < wave.size(); ++i) {
      const ThreadedOp& op = wave[i];
      copier::ExecContext* ctx = &apps[op.client]->ctx();
      bool synced = false;
      {
        ScopedSpan span(tracer, "libcopier.csync", Layer::kLibcopier, ctx);
        synced = apps[op.client]->lib()->csync(bases[op.client] + op.dst, op.length, ctx).ok();
      }
      out.failed += synced ? 0 : 1;
      out.latency_us.push_back(CyclesToUs(static_cast<double>(ctx->now() - submitted[i])));
    }
    if (tracer != nullptr) {
      tracer->EndRequest(latest_clock());
    }
  }
  for (AppProcess* app : apps) {
    out.failed += app->lib()->csync_all(&app->ctx()).ok() ? 0 : 1;
  }
  out.timed_s = static_cast<double>(HostNowNs() - timed_start) / 1e9;
  out.span_us = CyclesToUs(static_cast<double>(latest_clock() - virtual_start));
  out.end = stack.Snapshot();

  // Final arenas against the in-order models.
  uint64_t hash = 1469598103934665603ull;
  std::vector<uint8_t> image(in.arena_bytes);
  for (size_t c = 0; c < in.clients; ++c) {
    ++out.attempted;
    const bool read_ok = apps[c]->proc()->mem().ReadBytes(bases[c], image.data(), image.size()).ok();
    if (!read_ok || image != models[c]) {
      ++out.failed;
      std::fprintf(stderr, "MISMATCH: copy-threaded arena of client %zu differs from the model\n",
                   c);
    }
    hash = Fnv(image.data(), image.size(), hash);
  }
  out.output_hash = hash;
  return out;
}

}  // namespace perfbench
