// Figure 13: frameworks and libraries.
//   (a) Protobuf-like serde: recv + deserialize latency (expected −4..−33%)
//   (b) OpenSSL-like SSL_read (ChaCha20): latency (expected −1.4..−8.4%,
//       flat above the 16 KiB record cap)
//   (c) Avcodec-like decode pipeline (expected −3..−10% per frame; Copier
//       runs under scenario-driven polling on the phone)
#include "bench/bench_util.h"

#include "src/apps/avcodec.h"
#include "src/apps/cipher.h"
#include "src/apps/serde.h"

namespace copier::bench {
namespace {

double SerdeLatencyUs(const hw::TimingModel& t, size_t msg_bytes, apps::Mode mode) {
  BenchStack stack(&t, {}, mode);
  apps::AppProcess* app = mode == apps::Mode::kCopier ? stack.NewApp("serde")
                                                      : stack.NewSyncApp("serde");
  apps::AppProcess* sender = stack.NewSyncApp("sender");
  apps::Serde serde(app, std::max<size_t>(msg_bytes * 2, kMiB));
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  // Message: 8 length-delimited fields.
  std::vector<apps::Serde::FieldSpec> fields;
  for (uint32_t tag = 1; tag <= 8; ++tag) {
    fields.push_back({tag, std::vector<uint8_t>(msg_bytes / 8, static_cast<uint8_t>(tag))});
  }
  const auto wire = apps::Serde::Serialize(fields);
  const uint64_t sbuf = sender->Map(AlignUp(wire.size(), kPageSize), "sbuf");
  sender->io().Write(sbuf, wire.data(), wire.size(), nullptr);

  Histogram lat;
  core::Client* client = mode == apps::Mode::kCopier
                             ? stack.service->ClientById(app->proc()->copier_client_id())
                             : nullptr;
  for (int i = 0; i < 10; ++i) {
    COPIER_CHECK(stack.kernel->Send(*sender->proc(), tx, sbuf, wire.size(), nullptr).ok());
    const Cycles start = app->ctx().now();
    auto parsed = serde.RecvAndParse(rx, &app->ctx());
    COPIER_CHECK(parsed.ok()) << parsed.status().ToString();
    // Deserialization done; for a fair end point, the object must be usable:
    // sync the last field (the app would touch it next).
    if (mode == apps::Mode::kCopier) {
      COPIER_CHECK_OK(app->lib()->csync(parsed->back().va, parsed->back().length,
                                        &app->ctx()));
    }
    lat.Add(Us(app->ctx().now() - start));
    if (client != nullptr) {
      stack.service->DrainAll();
    }
  }
  return lat.Mean();
}

double CipherLatencyUs(const hw::TimingModel& t, size_t msg_bytes, apps::Mode mode) {
  BenchStack stack(&t, {}, mode);
  apps::AppProcess* rx_app = mode == apps::Mode::kCopier ? stack.NewApp("ssl-rx")
                                                         : stack.NewSyncApp("ssl-rx");
  apps::AppProcess* tx_app = stack.NewSyncApp("ssl-tx");
  std::array<uint8_t, 32> key{};
  key[3] = 7;
  apps::SecureChannel rx_chan(rx_app, key);
  apps::SecureChannel tx_chan(tx_app, key);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const std::vector<uint8_t> plaintext(msg_bytes, 0x61);
  Histogram lat;
  for (int i = 0; i < 8; ++i) {
    COPIER_CHECK(tx_chan.SendEncrypted(tx, plaintext, nullptr).ok());
    const Cycles start = rx_app->ctx().now();
    size_t got = 0;
    while (got < msg_bytes) {  // records are capped at 16 KiB
      auto result = rx_chan.ReadDecrypted(rx, &rx_app->ctx());
      COPIER_CHECK(result.ok()) << result.status().ToString();
      got += result->length;
    }
    lat.Add(Us(rx_app->ctx().now() - start));
    stack.service->DrainAll();
  }
  return lat.Mean();
}

double AvcodecFrameUs(const hw::TimingModel& t, apps::Mode mode, double* copier_busy_frac) {
  BenchStack stack(&t, {}, mode);
  apps::AppProcess* app =
      mode == apps::Mode::kCopier ? stack.NewApp("avc") : stack.NewSyncApp("avc");
  apps::Avcodec codec(app, 512 * kKiB);  // ~a 720p NV12 slice per frame
  const std::vector<uint8_t> bitstream(64 * kKiB, 0x35);

  // Scenario-driven polling (§5.3): the service is active only inside the
  // playback scenario.
  stack.service->ScenarioBegin();
  Histogram lat;
  const Cycles engine_start = stack.service->engine_ctx().now();
  for (int frame = 0; frame < 10; ++frame) {
    const auto stats = codec.DecodeFrame(bitstream, &app->ctx());
    lat.Add(Us(stats.total_cycles));
  }
  stack.service->DrainAll();
  stack.service->ScenarioEnd();
  if (copier_busy_frac != nullptr && app->ctx().now() > 0) {
    *copier_busy_frac = static_cast<double>(stack.service->engine_ctx().now() - engine_start) /
                        app->ctx().now();
  }
  return lat.Mean();
}

void Run(const hw::TimingModel& t) {
  {
    PrintBanner("Figure 13-a: Protobuf-like recv+deserialize latency (us)");
    TextTable table({"message", "baseline", "Copier", "reduction"});
    for (size_t size : StandardSizes()) {
      const double base = SerdeLatencyUs(t, size, apps::Mode::kSync);
      const double copier = SerdeLatencyUs(t, size, apps::Mode::kCopier);
      table.AddRow({TextTable::Bytes(size), TextTable::Num(base), TextTable::Num(copier),
                    TextTable::Num((1 - copier / base) * 100, 1) + "%"});
    }
    table.Print();
  }
  {
    PrintBanner("Figure 13-b: OpenSSL-like SSL_read (ChaCha20) latency (us)");
    TextTable table({"message", "baseline", "Copier", "reduction"});
    for (size_t size : {size_t{1 * kKiB}, size_t{4 * kKiB}, size_t{16 * kKiB},
                        size_t{32 * kKiB}, size_t{64 * kKiB}}) {
      const double base = CipherLatencyUs(t, size, apps::Mode::kSync);
      const double copier = CipherLatencyUs(t, size, apps::Mode::kCopier);
      table.AddRow({TextTable::Bytes(size), TextTable::Num(base), TextTable::Num(copier),
                    TextTable::Num((1 - copier / base) * 100, 1) + "%"});
    }
    table.Print();
  }
  {
    PrintBanner("Figure 13-c: Avcodec-like decode latency per frame (us, scenario-driven)");
    double busy = 0;
    const double base = AvcodecFrameUs(t, apps::Mode::kSync, nullptr);
    const double copier = AvcodecFrameUs(t, apps::Mode::kCopier, &busy);
    TextTable table({"metric", "baseline", "Copier", "delta"});
    table.AddRow({"frame latency (us)", TextTable::Num(base), TextTable::Num(copier),
                  TextTable::Pct((copier / base - 1) * 100)});
    table.AddRow({"copier-core busy fraction (energy proxy)", "0", TextTable::Num(busy, 3),
                  "+" + TextTable::Num(busy * 100, 2) + "% of a core"});
    table.Print();
  }
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv));
  return 0;
}
