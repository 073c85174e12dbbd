// deep-queue: one libcopier client in a closed loop. Each wave submits ~4k
// outstanding 1-16 KiB copies through a shared working region — RAW chains
// (absorption), lazy copies, UFUNC handlers, aborts and promotes included —
// then csyncs every destination in submission order; the next wave starts
// after the last csync. The final arena must equal an in-order host model
// of the non-aborted copies.
#include <algorithm>
#include <cstring>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = copier::core;
using copier::Cycles;
using copier::kKiB;
using copier::apps::AppProcess;
using copier::apps::Mode;

namespace {

constexpr size_t kWaveOps = 4096;
constexpr size_t kSourceBytes = 1 * copier::kMiB;   // read-only source pool
constexpr size_t kWorkBytes = 24 * copier::kMiB;    // shared working region
constexpr size_t kAbortsPerWave = 8;
constexpr size_t kAbortSlot = 16 * kKiB;
constexpr size_t kPromotesPerWave = 4;
constexpr size_t kIngestEvery = 512;  // ingest before the 4096-entry ring fills

bool Overlaps(uint64_t a, size_t an, uint64_t b, size_t bn) { return a < b + bn && b < a + an; }

}  // namespace

DeepInputs MakeDeepInputs(uint64_t seed, size_t waves) {
  static const uint32_t kSizes[] = {1 * kKiB, 2 * kKiB, 4 * kKiB, 8 * kKiB, 16 * kKiB};
  DeepInputs in;
  in.source_bytes = kSourceBytes;
  const uint64_t work = kSourceBytes;
  const uint64_t aborts = work + kWorkBytes;
  in.arena_bytes = aborts + kAbortsPerWave * kAbortSlot;
  copier::Rng rng(seed);
  for (size_t w = 0; w < waves; ++w) {
    DeepWave wave;
    std::vector<DeepOp> recent;  // RAW-chain feeders
    for (size_t i = 0; i < kWaveOps; ++i) {
      DeepOp op;
      op.length = kSizes[rng.Next() % 5];
      if (i % (kWaveOps / kAbortsPerWave) == kWaveOps / kAbortsPerWave - 1) {
        // Abort victim: writes its own slot, aborted while still queued.
        op.kind = DeepOp::Kind::kAbort;
        op.dst = aborts + (i / (kWaveOps / kAbortsPerWave)) * kAbortSlot;
        op.src = rng.Next() % (kSourceBytes - op.length);
        wave.ops.push_back(op);
        continue;
      }
      const bool chain = i % 16 == 5 && !recent.empty();
      if (chain) {
        const DeepOp& feeder = recent[rng.Next() % recent.size()];
        op.src = feeder.dst;
        op.length = std::min<uint32_t>(op.length, feeder.length);
      } else {
        op.src = rng.Next() % (kSourceBytes - op.length);
      }
      do {
        op.dst = work + (rng.Next() % (kWorkBytes - op.length)) / 64 * 64;
      } while (Overlaps(op.dst, op.length, op.src, op.length));
      op.kind = i % 32 == 7    ? DeepOp::Kind::kLazy
                : i % 64 == 13 ? DeepOp::Kind::kHandler
                               : DeepOp::Kind::kCopy;
      wave.ops.push_back(op);
      recent.push_back(op);
      if (recent.size() > 8) {
        recent.erase(recent.begin());
      }
    }
    for (size_t p = 0; p < kPromotesPerWave; ++p) {
      wave.promotes.emplace_back(work + rng.Next() % (kWorkBytes - 64 * kKiB), 64 * kKiB);
    }
    in.waves.push_back(std::move(wave));
  }
  return in;
}

PassOutput RunDeepPass(const DeepInputs& in, Tracer* tracer) {
  PassOutput out;
  const uint64_t host_start = HostNowNs();
  Stack stack(false, 0, tracer);
  core::CopierService* service = stack.service.get();
  AppProcess* app = stack.NewApp(Mode::kCopier, "deep-queue");
  copier::lib::CopierLib& lib = *app->lib();
  core::Client* client = service->ClientById(app->proc()->copier_client_id());
  copier::ExecContext& ctx = app->ctx();

  // Arena: pattern-filled and faulted in; the model starts from the same image.
  const uint64_t base = app->Map(in.arena_bytes, "arena");
  std::vector<uint8_t> model(in.arena_bytes);
  copier::Rng fill(in.arena_bytes ^ 0x5eed);
  for (size_t i = 0; i < model.size(); i += 8) {
    const uint64_t v = fill.Next();
    std::memcpy(model.data() + i, &v, 8);
  }
  if (!app->proc()->mem().WriteBytes(base, model.data(), model.size()).ok()) {
    ++out.failed;
  }
  out.setup_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  out.begin = stack.Snapshot();
  const uint64_t timed_start = HostNowNs();
  const Cycles virtual_start = ctx.now();

  auto serve_ingest = [&] {
    const uint64_t served = ServiceCall(tracer, stack, "service.serve",
                                        [&] { return service->Serve(*client, 0); });
    if (tracer != nullptr) {
      tracer->Count("service.serve.calls");
      tracer->Count("service.serve.idle", served == 0 ? 1 : 0);
    }
  };

  std::vector<uint64_t> handler_order;
  uint64_t expected_handlers = 0;
  for (size_t w = 0; w < in.waves.size(); ++w) {
    const DeepWave& wave = in.waves[w];
    // Ops of a wave overlap in time, so a wave is the traced request.
    if (tracer != nullptr) {
      tracer->BeginRequest(static_cast<uint32_t>(w), ctx.now());
    }
    std::vector<Cycles> submitted(wave.ops.size());
    for (size_t i = 0; i < wave.ops.size(); ++i) {
      const DeepOp& op = wave.ops[i];
      ++out.attempted;
      copier::lib::AmemcpyOptions opts;
      opts.lazy = op.kind == DeepOp::Kind::kLazy;
      if (op.kind == DeepOp::Kind::kHandler) {
        const uint64_t id = expected_handlers++;
        opts.ufunc = [&handler_order, id](Cycles) { handler_order.push_back(id); };
      }
      submitted[i] = ctx.now();
      const core::Descriptor* d = TracedCall(
          tracer, stack, "libcopier.submit", Layer::kLibcopier, &ctx,
          [&] { return lib._amemcpy(base + op.dst, base + op.src, op.length, opts, &ctx); });
      if (tracer != nullptr) {
        tracer->Count("libcopier.submits");
        tracer->Count("libcopier.sync_fallbacks", d == nullptr ? 1 : 0);
      }
      if (op.kind != DeepOp::Kind::kAbort) {
        std::memmove(model.data() + op.dst, model.data() + op.src, op.length);
        out.payload_bytes += op.length;
      }
      if ((i + 1) % kIngestEvery == 0) {
        serve_ingest();
      }
    }
    // Ingest the rest of the wave without executing it, then queue the
    // aborts and promotes ahead of any execution.
    while (!client->default_pair().user.copy_q.Empty()) {
      serve_ingest();
    }
    for (const DeepOp& op : wave.ops) {
      if (op.kind == DeepOp::Kind::kAbort) {
        core::SyncTask sync;
        sync.kind = core::SyncTask::Kind::kAbort;
        sync.addr = core::MemRef::User(client->space(), base + op.dst);
        sync.length = op.length;
        client->default_pair().user.sync_q.TryPush(std::move(sync));
      }
    }
    for (const auto& [offset, length] : wave.promotes) {
      core::SyncTask sync;
      sync.kind = core::SyncTask::Kind::kPromote;
      sync.addr = core::MemRef::User(client->space(), base + offset);
      sync.length = length;
      client->default_pair().user.sync_q.TryPush(std::move(sync));
    }
    // csync every destination in submission order.
    for (size_t i = 0; i < wave.ops.size(); ++i) {
      const DeepOp& op = wave.ops[i];
      if (op.kind == DeepOp::Kind::kAbort) {
        continue;
      }
      const bool synced = TracedCall(tracer, stack, "libcopier.csync", Layer::kLibcopier, &ctx,
                                     [&] { return lib.csync(base + op.dst, op.length, &ctx).ok(); });
      out.failed += synced ? 0 : 1;
      out.latency_us.push_back(CyclesToUs(static_cast<double>(ctx.now() - submitted[i])));
    }
    TracedCall(tracer, stack, "libcopier.post_handlers", Layer::kLibcopier, &ctx,
               [&] { return lib.post_handlers(&ctx); });
    if (tracer != nullptr) {
      tracer->EndRequest(ctx.now());
    }
  }
  {
    const uint64_t t0 = HostNowNs();
    ServiceCall(tracer, stack, "service.drain", [&] {
      service->DrainAll();
      return 0;
    });
    if (tracer != nullptr) {
      tracer->Count("service.drain.ns", static_cast<double>(HostNowNs() - t0));
    }
  }
  TracedCall(tracer, stack, "libcopier.post_handlers", Layer::kLibcopier, &ctx,
             [&] { return lib.post_handlers(&ctx); });
  out.timed_s = static_cast<double>(HostNowNs() - timed_start) / 1e9;
  out.span_us = CyclesToUs(static_cast<double>(ctx.now() - virtual_start));

  // Handlers: every one ran, in submission order.
  ++out.attempted;
  bool handlers_ok = handler_order.size() == expected_handlers;
  for (size_t i = 0; handlers_ok && i < handler_order.size(); ++i) {
    handlers_ok = handler_order[i] == i;
  }
  out.failed += handlers_ok ? 0 : 1;

  // Final arena image against the in-order model.
  ++out.attempted;
  std::vector<uint8_t> image(in.arena_bytes);
  const bool read_ok = app->proc()->mem().ReadBytes(base, image.data(), image.size()).ok();
  if (!read_ok || image != model) {
    ++out.failed;
    size_t diff = 0;
    while (diff < image.size() && image[diff] == model[diff]) {
      ++diff;
    }
    std::fprintf(stderr, "MISMATCH: deep-queue arena differs from the model at offset %zu\n",
                 diff);
  }
  out.output_hash = Fnv(image.data(), image.size());
  out.end = stack.Snapshot();
  return out;
}

}  // namespace perfbench
