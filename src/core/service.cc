#include "src/core/service.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::core {

namespace {

// Clients this thread currently holds a serving claim on, outermost first: the
// normal serve plus every victim of a nested cross-engine settle. A settle
// targeting a client already on the stack runs reentrantly instead of
// spinning on its own claim (SettleForeign).
thread_local std::vector<const Client*> t_serve_stack;

bool ServeStackHolds(const Client& client) {
  return std::find(t_serve_stack.begin(), t_serve_stack.end(), &client) != t_serve_stack.end();
}

// Invokes fn(domain, start, length) for every contiguous piece of the chosen
// side of `t` (the whole side, or one call per segment of a scatter-gather
// side) — the ledger's unit of registration.
template <typename Fn>
void ForEachSidePiece(const CopyTask& t, bool dst_side, Fn&& fn) {
  if (t.length == 0) {
    return;
  }
  if (t.sg == nullptr || t.sg->kernel_is_dst != dst_side) {
    const MemRef& side = dst_side ? t.dst : t.src;
    fn(side.domain(), side.start(), t.length);
    return;
  }
  for (const SgSegment& seg : t.sg->segs) {
    if (seg.length > 0) {
      fn(uint64_t{0}, reinterpret_cast<uint64_t>(seg.kernel), seg.length);
    }
  }
}

}  // namespace

CopierService::CopierService(Options options)
    : options_(std::move(options)),
      timing_(options_.timing != nullptr ? options_.timing : &hw::TimingModel::Default()) {
  // Engine-pool sizing (DESIGN.md §10): explicit engine_count wins; auto (0)
  // means one engine per service thread in threaded mode and a single engine
  // in manual mode (manual callers drive additional engines explicitly via
  // RunOnce(i)).
  const CopierConfig& config = options_.config;
  size_t pool = config.engine_count != 0
                    ? config.engine_count
                    : (options_.mode == Mode::kThreaded ? std::max<size_t>(1, config.max_threads)
                                                        : 1);
  if (options_.mode == Mode::kThreaded) {
    // Threaded mode runs one thread per engine, so max_threads caps the
    // pool too: an explicit engine_count above it must not spawn more
    // service threads than the configured ceiling.
    pool = std::min(pool, std::max<size_t>(1, config.max_threads));
  }
  // One service-owned channel pool carved into disjoint per-engine slices:
  // channel state stays single-threaded, aggregate channel count scales with
  // the pool.
  const size_t channels_per_engine = std::max<size_t>(1, config.dma_channel_count);
  dma_pool_ = std::make_unique<hw::DmaChannelPool>(timing_, pool * channels_per_engine,
                                                   config.dma_ring_slots);
  for (size_t i = 0; i < pool; ++i) {
    engine_ctxs_.push_back(std::make_unique<ExecContext>("copier-" + std::to_string(i)));
    engines_.push_back(std::make_unique<Engine>(
        options_.config, timing_, engine_ctxs_.back().get(),
        hw::DmaChannelSlice(dma_pool_.get(), i * channels_per_engine, channels_per_engine),
        &overload_signals_, this));
    shards_.push_back(std::make_unique<Shard>());
  }
  cgroups_.push_back(std::make_unique<Cgroup>("root", kDefaultCopierShares));
  root_cgroup_ = cgroups_.back().get();
}

CopierService::~CopierService() {
  Stop();
  // Clients never detached still hold ATCache listeners on their (externally
  // owned, service-outliving) address spaces — unhook before the engines die.
  for (auto& client : clients_) {
    RemoveSpaceListeners(*client);
  }
}

void CopierService::RemoveSpaceListeners(Client& client) {
  if (client.space() == nullptr) {
    return;
  }
  for (int token : client.atcache_tokens) {
    client.space()->RemoveInvalidationListener(token);
  }
  client.atcache_tokens.clear();
  // Without the listener no later mapping change reaches the engines, so
  // their translations (and warm ranges) for this space go now: a reattached
  // client must not copy through frames the space no longer maps.
  for (auto& engine : engines_) {
    engine->atcache().Invalidate(client.space()->asid(), 0, SIZE_MAX);
  }
}

Client* CopierService::AttachProcess(simos::Process* process, Cgroup* cgroup) {
  std::lock_guard<std::mutex> lock(mu_);
  clients_.push_back(std::make_unique<Client>(next_client_id_++, process, options_.config));
  Client* client = clients_.back().get();
  client->cgroup = cgroup != nullptr ? cgroup : root_cgroup_;
  // Stable home shard: independent of the active thread count, so auto-scaling
  // never reshuffles where a client's runnable marks land.
  client->home_shard = client->id() % shards_.size();
  client_index_.emplace(client->id(), client);
  if (process != nullptr) {
    process->set_copier_client_id(client->id());
    // CoW breaks on a registered space (fork CoW) copy with the engine's
    // accelerated page-copy path charged through the timing model, not the
    // default ERMS cost.
    // (AccelerateCow may later swap in the service-submitting variant.)
    const hw::TimingModel* timing = timing_;
    process->mem().SetCowCopyFn(
        [timing](void* dst, const void* src, size_t len, ExecContext* ctx) {
          hw::AvxCopy(dst, src, len);
          ChargeCtx(ctx, timing->CpuCopyCycles(hw::CopyUnitKind::kAvx, len));
        });
    // Keep every engine's ATCache coherent with this space's mapping changes:
    // unmaps and CoW breaks re-point PTEs while translations may be cached.
    for (auto& engine : engines_) {
      client->atcache_tokens.push_back(engine->atcache().Attach(process->mem()));
    }
    // Ledger owner map: a foreign client probing this process's address space
    // settles against the owner's pending tasks too (including private ones
    // accepted before the domain turned shared).
    std::lock_guard<std::mutex> ledger_lock(ledger_mu_);
    domain_owner_[process->mem().asid()] = client;
  }
  return client;
}

Client* CopierService::AttachKernelClient(const std::string& name, Cgroup* cgroup) {
  (void)name;
  return AttachProcess(nullptr, cgroup);
}

Client* CopierService::ClientById(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = client_index_.find(id);
  return it != client_index_.end() ? it->second : nullptr;
}

void CopierService::DetachClient(Client& client) {
  client.detached.store(true, std::memory_order_release);
  {
    // After this critical section no sharded picker can return the client: it
    // is out of its home queue, and any earlier pop already holds `serving`
    // (pop and serving-CAS are atomic under the shard lock).
    Shard& shard = *shards_[client.home_shard];
    std::lock_guard<std::mutex> lock(shard.queue.mu);
    if (client.runnable.load(std::memory_order_relaxed)) {
      shard.queue.Remove(client);
      client.runnable.store(false, std::memory_order_relaxed);
    }
  }
  // Take ownership out of the service BEFORE waiting out `serving`: the
  // manual-mode linear picker scans clients_ and CASes `serving` under mu_,
  // so once this erase lands no scheduler path can reach the client,
  // and any pick that already happened shows up in `serving` below.
  std::unique_ptr<Client> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    client_index_.erase(client.id());
    const auto it = std::find_if(
        clients_.begin(), clients_.end(),
        [&client](const std::unique_ptr<Client>& c) { return c.get() == &client; });
    if (it != clients_.end()) {
      owned = std::move(*it);
      clients_.erase(it);
    }
  }
  // Drop the client's ledger footprint before waiting out `serving`:
  // SettleForeign claims victims under ledger_mu_ from pointers it reads
  // there, so once this critical section ends no settle can still reach the
  // client, and one already holding it shows up in `serving` below.
  {
    std::lock_guard<std::mutex> ledger_lock(ledger_mu_);
    for (auto it = ledger_.begin(); it != ledger_.end();) {
      auto& entries = it->second;
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&client](const LedgerEntry& e) {
                                     return e.client == &client;
                                   }),
                    entries.end());
      it = entries.empty() ? ledger_.erase(it) : std::next(it);
    }
    for (auto it = domain_owner_.begin(); it != domain_owner_.end();) {
      it = it->second == &client ? domain_owner_.erase(it) : std::next(it);
    }
  }
  // Wait out an in-flight serve (home thread, a thief, or a csync pump).
  // FinishServe sees `detached` and will not re-queue.
  while (client.serving.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // The space outlives the service: its invalidation listeners must not keep
  // pointing at engine ATCaches once the client is gone.
  RemoveSpaceListeners(client);
  // Drain the rings' abandoned entries and retire their submission stamps:
  // those tasks will never be ingested, and a stamped sequence left
  // outstanding would hold back tombstone pruning service-wide forever. Safe
  // now — no server or picker can reach the client anymore.
  for (size_t fd = 0; fd < client.pair_count(); ++fd) {
    QueuePair& pair = client.pair(static_cast<int>(fd));
    while (auto entry = pair.user.copy_q.TryPop()) {
      RetireGlobalSeq(entry->task.gseq);
    }
    while (auto entry = pair.kernel.copy_q.TryPop()) {
      RetireGlobalSeq(entry->task.gseq);
    }
  }
  // `owned` destructs here: the client is freed only after the last server
  // released it.
}

Cgroup* CopierService::CreateCgroup(const std::string& name, uint64_t shares) {
  std::lock_guard<std::mutex> lock(mu_);
  cgroups_.push_back(std::make_unique<Cgroup>(name, shares));
  return cgroups_.back().get();
}

// ---------------------------------------------------------------------------
// Overload admission control (DESIGN.md §13)
// ---------------------------------------------------------------------------

CopierService::Admission CopierService::AdmitRequest(Client& client, uint64_t bytes,
                                                     Cycles now) {
  Admission result;
  const CopierConfig& config = options_.config;
  Cgroup* group = client.cgroup != nullptr ? client.cgroup : root_cgroup_;
  if (config.overload_policy == CopierConfig::OverloadPolicy::kNone) {
    group->NoteAdmitted();
    group->AdmissionOpen(bytes);
    return result;
  }

  // Fold fresh engine saturation events (DMA ring-full doorbell bounces) into
  // a back-off window covering the next admission_ring_backoff decisions. The
  // CAS makes each event batch arm exactly one window under concurrency.
  const uint64_t ring_now = overload_signals_.ring_full_events;
  uint64_t seen = ring_seen_.load(std::memory_order_relaxed);
  if (ring_now > seen &&
      ring_seen_.compare_exchange_strong(seen, ring_now, std::memory_order_relaxed)) {
    ring_backoff_credits_.store(config.admission_ring_backoff, std::memory_order_relaxed);
    ++ring_backoff_events_;
  }

  uint64_t inflight_bytes = 0;
  uint64_t inflight_requests = 0;
  group->AdmissionInflight(now, &inflight_bytes, &inflight_requests);
  bool overloaded = inflight_bytes + bytes > config.admission_max_inflight_bytes ||
                    inflight_requests >= config.admission_max_inflight_requests;
  const uint64_t credits = ring_backoff_credits_.load(std::memory_order_relaxed);
  if (credits > 0) {
    ring_backoff_credits_.store(credits - 1, std::memory_order_relaxed);
    overloaded = true;
  }
  if (!overloaded) {
    group->NoteAdmitted();
    group->AdmissionOpen(bytes);
    return result;
  }

  switch (config.overload_policy) {
    case CopierConfig::OverloadPolicy::kShed:
      group->NoteShed();
      result.verdict = AdmissionVerdict::kShed;
      return result;
    case CopierConfig::OverloadPolicy::kDefer:
      group->NoteDeferred();
      result.verdict = AdmissionVerdict::kDefer;
      result.wait_cycles = config.admission_defer_cycles;
      return result;
    case CopierConfig::OverloadPolicy::kThrottle: {
      // Backpressure: admit, but make the submitter wait until the inflight
      // window has drained enough for this request to fit (plus a pacing
      // floor when the overload came purely from ring feedback).
      const uint64_t byte_room = config.admission_max_inflight_bytes > bytes
                                     ? config.admission_max_inflight_bytes - bytes
                                     : 0;
      const uint64_t request_room = config.admission_max_inflight_requests > 0
                                        ? config.admission_max_inflight_requests - 1
                                        : 0;
      const Cycles target = group->AdmissionDrainTarget(now, byte_room, request_room);
      result.wait_cycles =
          target > now ? target - now : config.admission_defer_cycles;
      result.verdict = AdmissionVerdict::kThrottle;
      group->NoteThrottled(result.wait_cycles);
      group->NoteAdmitted();
      group->AdmissionOpen(bytes);
      return result;
    }
    case CopierConfig::OverloadPolicy::kNone:
      break;  // unreachable: handled above
  }
  return result;
}

void CopierService::FinishRequest(Client& client, uint64_t bytes, Cycles completion) {
  Cgroup* group = client.cgroup != nullptr ? client.cgroup : root_cgroup_;
  group->AdmissionFinish(bytes, completion);
}

void CopierService::AbandonRequest(Client& client) {
  Cgroup* group = client.cgroup != nullptr ? client.cgroup : root_cgroup_;
  group->NoteShed();
}

// ---------------------------------------------------------------------------
// Scheduling (§4.5.3)
// ---------------------------------------------------------------------------

Client* CopierService::PickClient(size_t index) {
  ++sched_stats_.pick_calls;
  const Cycles t0 = RealCycleClock::ReadTsc();
  Client* picked = options_.mode == Mode::kThreaded ? PickClientSharded(index)
                                                    : PickClientLinear(index);
  sched_stats_.pick_tsc_cycles += RealCycleClock::ReadTsc() - t0;
  if (picked != nullptr) {
    ++sched_stats_.picks;
  }
  return picked;
}

Client* CopierService::PickClientSharded(size_t index) {
  // Shard coverage: thread i owns shards {i, i+active, i+2·active, ...}, so
  // every shard keeps an owner while auto-scaling moves the active count.
  const size_t active = std::max<size_t>(1, active_threads_.load(std::memory_order_acquire));
  for (size_t s = index; s < shards_.size(); s += active) {
    Shard& shard = *shards_[s];
    if (shard.queue.Empty()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(shard.queue.mu);
    while (Client* client = shard.queue.PopMin()) {
      client->runnable.store(false, std::memory_order_release);
      ++sched_stats_.pick_attempts;
      bool expected = false;
      if (client->serving.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
        ChargeCtx(engine_ctxs_[index].get(), timing_->schedule_pick_cycles);
        return client;
      }
      // Mid-serve elsewhere (a thief or a csync pump): drop the mark. The
      // server's FinishServe re-queues the client if work remains, so no
      // work is lost.
    }
  }
  return nullptr;
}

Client* CopierService::PickClientLinear(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t scanned = 0;
  // Pass 1: among cgroups with runnable clients homed on this engine, pick
  // the minimum-vruntime cgroup. Home-engine affinity: RunOnce(i) serves
  // shard i's clients (with one engine, every client is homed on engine 0).
  Cgroup* best_group = nullptr;
  for (auto& client : clients_) {
    ++scanned;
    if (client->home_shard != index || client->detached.load(std::memory_order_acquire) ||
        !client->HasQueuedWork()) {
      continue;
    }
    if (best_group == nullptr || client->cgroup->vruntime() < best_group->vruntime()) {
      best_group = client->cgroup;
    }
  }
  Client* best = nullptr;
  if (best_group != nullptr) {
    // Pass 2: within the cgroup, minimum total copy length (CFS analogue).
    for (auto& client : clients_) {
      ++scanned;
      if (client->home_shard != index || client->cgroup != best_group ||
          client->detached.load(std::memory_order_acquire) || !client->HasQueuedWork()) {
        continue;
      }
      if (best == nullptr || client->total_copy_length < best->total_copy_length) {
        best = client.get();
      }
    }
  }
  // Honest virtual cost: the global double scan examines every client, and
  // that O(clients) shape is exactly what the sharded run queues remove.
  sched_stats_.clients_scanned += scanned;
  ChargeCtx(engine_ctxs_[index].get(),
            timing_->schedule_pick_cycles + scanned * timing_->schedule_scan_cycles_per_client);
  if (best != nullptr) {
    ++sched_stats_.pick_attempts;
    bool expected = false;
    if (!best->serving.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
      return nullptr;  // another thread is mid-serve on this client
    }
  }
  return best;
}

Client* CopierService::StealClient(size_t index) {
  ++sched_stats_.steal_attempts;
  const size_t active = std::max<size_t>(1, active_threads_.load(std::memory_order_acquire));
  // Victim: the fullest shard not already covered by this thread.
  size_t victim = shards_.size();
  size_t victim_size = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s % active == index % active) {
      continue;
    }
    const size_t size = shards_[s]->queue.ApproxSize();
    if (size > victim_size) {
      victim = s;
      victim_size = size;
    }
  }
  if (victim == shards_.size()) {
    return nullptr;
  }
  Shard& shard = *shards_[victim];
  std::lock_guard<std::mutex> lock(shard.queue.mu);
  while (Client* client = shard.queue.PopMaxBacklog()) {
    client->runnable.store(false, std::memory_order_release);
    bool expected = false;
    if (client->serving.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
      ++sched_stats_.steals;
      ++shards_[index]->steals_in;
      ++shard.steals_out;
      return client;
    }
  }
  return nullptr;
}

void CopierService::ReconcileRunnable() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& client : clients_) {
    if (client->detached.load(std::memory_order_acquire) ||
        client->runnable.load(std::memory_order_acquire) ||
        client->serving.load(std::memory_order_acquire) || !client->HasQueuedWork()) {
      continue;
    }
    ++sched_stats_.reconcile_marks;
    NotifyRunnable(*client);
  }
}

void CopierService::AccountService(Client& client, uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  client.cgroup->Account(bytes);
  client.cgroup->AccountRaw(bytes);
  client.cgroup->NoteServed(bytes);
}

void CopierService::FinishServe(Client& client) {
  if (options_.mode != Mode::kThreaded) {
    client.serving.store(false, std::memory_order_release);
    return;
  }
  // Re-queue and release atomically under the home shard's lock: a picker
  // that popped this client and lost the serving-CAS dropped its runnable
  // mark, and this is the covering re-notify. Doing both under the lock also
  // lets DetachClient free the client the moment `serving` clears — after
  // its own locked removal, no path here may touch the client again, which is
  // why `home` is captured before the store that makes the client freeable.
  const size_t home = client.home_shard;
  Shard& shard = *shards_[home];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(shard.queue.mu);
    if (!client.detached.load(std::memory_order_relaxed) &&
        !client.runnable.load(std::memory_order_relaxed) && client.HasQueuedWork()) {
      client.runnable.store(true, std::memory_order_relaxed);
      shard.queue.Insert(client);
      wake = true;
      // A re-queue while DMA bytes are still in flight is the parked round's
      // ride back to a reaping serve (DESIGN.md §9): no poll thread watches
      // the channels, so this is what guarantees the completions get observed.
      if (client.dma_inflight_bytes.load(std::memory_order_relaxed) > 0) {
        ++sched_stats_.dma_reap_requeues;
      }
    }
    client.serving.store(false, std::memory_order_release);
  }
  if (wake) {
    WakeShard(home);
  }
}

uint64_t CopierService::ServePicked(size_t index, Client& client, uint64_t max_bytes) {
  // Track the claim for cross-engine settle reentrancy: a settle this serve
  // triggers that targets `client` itself must run inline, not spin on the
  // claim we already hold.
  t_serve_stack.push_back(&client);
  const uint64_t served = engines_[index]->ServeClient(client, max_bytes);
  t_serve_stack.pop_back();
  AccountService(client, served);
  client.served_bytes.fetch_add(served, std::memory_order_relaxed);
  // Wake drain waiters (SyncKernel's bounded condition-wait) while `serving`
  // is still held, so the client cannot be detached and freed between the
  // check and the notify. The empty lock/unlock pairs with the waiter's
  // predicate check under drain_mu (no lost wakeup).
  if (!client.HasQueuedWork()) {
    { std::lock_guard<std::mutex> lock(client.drain_mu); }
    client.drain_cv.notify_all();
  }
  FinishServe(client);
  return served;
}

uint64_t CopierService::RunOnce(size_t engine_index) {
  Client* client = PickClient(engine_index);
  if (client == nullptr) {
    return 0;
  }
  return ServePicked(engine_index, *client, options_.config.copy_slice_bytes);
}

uint64_t CopierService::Serve(Client& client, uint64_t max_bytes) {
  bool expected = false;
  while (!client.serving.compare_exchange_weak(expected, true, std::memory_order_acquire)) {
    expected = false;
    std::this_thread::yield();
  }
  return ServePicked(EngineIndexFor(client), client, max_bytes);
}

void CopierService::DrainAll() {
  for (int spin = 0; spin < 1 << 20; ++spin) {
    bool any = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& client : clients_) {
        if (client->HasQueuedWork()) {
          any = true;
          break;
        }
      }
    }
    if (!any) {
      return;
    }
    if (options_.mode == Mode::kManual) {
      uint64_t served = 0;
      for (size_t e = 0; e < engines_.size(); ++e) {
        served += RunOnce(e);
      }
      if (served == 0) {
        // Work queued but nothing runnable from any engine — serve directly,
        // each client on its home engine.
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& client : clients_) {
          if (client->HasQueuedWork()) {
            engines_[EngineIndexFor(*client)]->DrainClient(*client);
          }
        }
      }
    } else {
      // Callers may have pushed work to rings without a NotifyRunnable.
      ReconcileRunnable();
      Awaken();
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------------------
// Threaded mode (§4.5.1)
// ---------------------------------------------------------------------------

void CopierService::Start() {
  if (options_.mode != Mode::kThreaded || running_.load()) {
    return;
  }
  running_.store(true);
  // One thread per engine: the pool size (not max_threads) bounds thread
  // count, so an explicit engine_count clamps both.
  active_threads_.store(
      std::min<size_t>(std::max<size_t>(1, options_.config.min_threads), engines_.size()));
  for (size_t i = 0; i < engines_.size(); ++i) {
    threads_.emplace_back([this, i] { ThreadMain(i); });
  }
}

void CopierService::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  Awaken();
  for (auto& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
}

void CopierService::Awaken() {
  ++sched_stats_.broadcast_wakeups;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->wake_mu);
      shard->wake_seq.fetch_add(1, std::memory_order_release);
    }
    shard->wake_cv.notify_all();
  }
}

void CopierService::NotifyRunnable(Client& client, uint64_t bytes_hint) {
  ++notify_calls_;  // doorbell count: the vectored path's headline metric
  if (bytes_hint != 0) {
    client.submitted_bytes.fetch_add(bytes_hint, std::memory_order_relaxed);
    client.cgroup->NoteSubmitted(bytes_hint);
  }
  if (options_.mode != Mode::kThreaded) {
    return;  // manual mode: the caller drives the engine directly
  }
  if (client.detached.load(std::memory_order_acquire) ||
      client.runnable.load(std::memory_order_acquire)) {
    return;  // already queued (dedup fast path) or tearing down
  }
  // Capture the home shard before the insert: once the client is queued it
  // can be picked, served to completion, and freed by a concurrent
  // DetachClient, so nothing after the critical section may dereference it.
  const size_t home = client.home_shard;
  Shard& shard = *shards_[home];
  {
    std::lock_guard<std::mutex> lock(shard.queue.mu);
    if (client.detached.load(std::memory_order_relaxed) ||
        client.runnable.load(std::memory_order_relaxed)) {
      return;
    }
    client.runnable.store(true, std::memory_order_relaxed);
    shard.queue.Insert(client);
  }
  WakeShard(home);
}

void CopierService::WakeShard(size_t shard_index) {
  // Redirect to the owning thread's wakeup channel (thread i sleeps on
  // shards_[i]): shard s >= active is covered by thread s % active.
  const size_t active = std::max<size_t>(1, active_threads_.load(std::memory_order_acquire));
  const size_t owner = shard_index < active ? shard_index : shard_index % active;
  ++sched_stats_.targeted_wakeups;
  Shard& shard = *shards_[owner];
  {
    std::lock_guard<std::mutex> lock(shard.wake_mu);
    shard.wake_seq.fetch_add(1, std::memory_order_release);
  }
  shard.wake_cv.notify_one();
}

void CopierService::ScenarioBegin() {
  scenario_depth_.fetch_add(1, std::memory_order_acq_rel);
  Awaken();
}

void CopierService::ScenarioEnd() { scenario_depth_.fetch_sub(1, std::memory_order_acq_rel); }

void CopierService::ThreadMain(size_t index) {
  // Auto-scaling: threads above active_threads_ park until load raises the
  // count; thread 0 owns the load measurement.
  Shard& my_shard = *shards_[index];
  size_t idle_spins = 0;
  uint64_t busy_polls = 0;
  uint64_t total_polls = 0;
  while (running_.load(std::memory_order_acquire)) {
    const bool scenario_mode = options_.config.poll_mode == CopierConfig::PollMode::kScenarioDriven;
    const bool parked = index >= active_threads_.load(std::memory_order_acquire) ||
                        (scenario_mode && !scenario_active());
    if (parked) {
      const uint64_t seen = my_shard.wake_seq.load(std::memory_order_acquire);
      {
        std::unique_lock<std::mutex> lock(my_shard.wake_mu);
        my_shard.wake_cv.wait_for(lock, std::chrono::milliseconds(5), [&] {
          return my_shard.wake_seq.load(std::memory_order_acquire) != seen ||
                 !running_.load(std::memory_order_acquire);
        });
      }
      // A targeted wakeup can race with a scale-down and land here after this
      // thread parked. Forward it: WakeShard(index) re-resolves the owner
      // against the *current* active count, notifying the thread that now
      // covers this shard (index % active != index while parked, so this
      // never self-notifies). Guarded on index >= active so scenario-parked
      // owners do not spin on their own queue.
      if (index >= active_threads_.load(std::memory_order_acquire) &&
          !my_shard.queue.Empty()) {
        WakeShard(index);
      }
      continue;
    }

    // Capture the wakeup sequence BEFORE looking for work: a notification
    // that lands between the failed pick and the sleep bumps the sequence,
    // so the wait predicate fires immediately — no lost wakeup.
    const uint64_t seen = my_shard.wake_seq.load(std::memory_order_acquire);
    Client* client = PickClient(index);
    ++total_polls;
    if (client != nullptr) {
      ServePicked(index, *client, options_.config.copy_slice_bytes);
      idle_spins = 0;
      ++busy_polls;
    } else {
      ++idle_spins;
      if (idle_spins >= options_.config.idle_spins_before_sleep) {
        idle_spins = 0;
        // Before sleeping: rescue unnotified work, then try to steal from
        // the fullest foreign shard.
        ReconcileRunnable();
        Client* rescued = PickClient(index);
        if (rescued == nullptr && options_.config.enable_work_stealing) {
          rescued = StealClient(index);
        }
        if (rescued != nullptr) {
          ServePicked(index, *rescued, options_.config.copy_slice_bytes);
          ++busy_polls;
        } else {
          // NAPI-style back-off: sleep until awakened or timeout.
          std::unique_lock<std::mutex> lock(my_shard.wake_mu);
          my_shard.wake_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return my_shard.wake_seq.load(std::memory_order_acquire) != seen ||
                   !running_.load(std::memory_order_acquire);
          });
        }
      }
    }

    // Auto-scaling decision, evaluated by thread 0 every 1024 polls.
    if (index == 0 && total_polls % 1024 == 0 && total_polls > 0) {
      const double load = static_cast<double>(busy_polls) / 1024.0;
      busy_polls = 0;
      size_t active = active_threads_.load(std::memory_order_acquire);
      if (load > options_.config.high_load && active < engines_.size()) {
        active_threads_.store(active + 1, std::memory_order_release);
        Awaken();
      } else if (load < options_.config.low_load &&
                 active > std::min<size_t>(std::max<size_t>(1, options_.config.min_threads),
                                           engines_.size())) {
        active_threads_.store(active - 1, std::memory_order_release);
        // A targeted wakeup computed against the old count may have landed on
        // the thread that just parked; broadcast so the threads now covering
        // its shards recheck instead of waiting for a timeout poll.
        Awaken();
      }
    }
  }
}

Engine::Stats CopierService::TotalStats() const {
  Engine::Stats total;
  for (const auto& engine : engines_) {
    const Engine::Stats s = engine->stats();
#define COPIER_SUM_COUNTER(name) total.name += s.name;
    COPIER_ENGINE_COUNTERS(COPIER_SUM_COUNTER)
#undef COPIER_SUM_COUNTER
    total.last_kfunc_cycles = std::max(total.last_kfunc_cycles, s.last_kfunc_cycles);
  }
  total.notify_calls = notify_calls_;
  total.fuse_fallbacks = ipc_fuse_stats().fallbacks();
  // Admission decisions live on the cgroups (per-cgroup accounting); the
  // aggregate view rides the engine-stats snapshot like notify_calls does.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& group : cgroups_) {
      total.admission_admitted += group->requests_admitted();
      total.admission_shed += group->requests_shed();
      total.admission_deferred += group->requests_deferred();
      total.admission_throttled += group->requests_throttled();
      total.admission_throttle_cycles += group->throttle_wait_cycles();
    }
  }
  total.overload_ring_backoffs = ring_backoff_events_;
  return total;
}

void CopierService::NoteIpcFuseEvent(simos::FuseEvent event) {
  // The list names every event once, so the events fill slots 0..count-1.
#define COPIER_IPC_FUSE_BIT(event, name) | (1u << static_cast<unsigned>(simos::FuseEvent::event))
  static_assert((0u COPIER_IPC_FUSE_COUNTERS(COPIER_IPC_FUSE_BIT)) == (1u << kFuseEventCount) - 1,
                "COPIER_IPC_FUSE_COUNTERS must list each FuseEvent exactly once");
#undef COPIER_IPC_FUSE_BIT
  const size_t index = static_cast<size_t>(event);
  COPIER_DCHECK(index < kFuseEventCount);
  ++fuse_events_[index];
}

CopierService::IpcFuseStats CopierService::ipc_fuse_stats() const {
  IpcFuseStats stats;
#define COPIER_LOAD_FUSE_COUNTER(event, name) \
  stats.name = fuse_events_[static_cast<size_t>(simos::FuseEvent::event)];
  COPIER_IPC_FUSE_COUNTERS(COPIER_LOAD_FUSE_COUNTER)
#undef COPIER_LOAD_FUSE_COUNTER
  return stats;
}

CopierService::EngineUtil CopierService::engine_util(size_t i) const {
  EngineUtil util;
  util.stats = engines_[i]->stats();
  util.steals_in = shards_[i]->steals_in;
  util.steals_out = shards_[i]->steals_out;
  util.now = engine_ctxs_[i]->now();
  return util;
}

// ---------------------------------------------------------------------------
// Cross-engine coordination (CrossEngineHooks, DESIGN.md §10)
// ---------------------------------------------------------------------------

uint64_t CopierService::NextGlobalSeq() {
  const uint64_t gseq = next_gseq_.fetch_add(1, std::memory_order_relaxed);
  // Outstanding until registered or retired: a tombstone above this gseq
  // must survive until the stamped task has had its chance to probe.
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stamped_live_.insert(gseq);
  return gseq;
}

void CopierService::RetireGlobalSeq(uint64_t gseq) {
  if (gseq == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stamped_live_.erase(gseq);
}

uint64_t CopierService::MinOutstandingSeqLocked() const {
  uint64_t min_seq = stamped_live_.empty() ? UINT64_MAX : *stamped_live_.begin();
  for (const auto& [domain, entries] : ledger_) {
    for (const LedgerEntry& e : entries) {
      if (!e.landed) {
        min_seq = std::min(min_seq, e.gseq);
      }
    }
  }
  return min_seq;
}

bool CopierService::LandedWriteStillNeeded(uint64_t domain, uint64_t gseq) {
  (void)domain;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  // Not gated on the domain being shared *yet*: the lower-gseq prober that
  // needs this entry may be the very task whose registration first turns the
  // domain shared — while its stamp is outstanding, the entry must survive.
  return MinOutstandingSeqLocked() < gseq;
}

bool CopierService::DomainShared(uint64_t domain, const Client& self) {
  (void)self;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return shared_domains_.count(domain) != 0;
}

void CopierService::RegisterShared(Client& client, PendingTask& task) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  // The stamp attaches here: from now on the task's live ledger entries keep
  // the pruning bound, not the stamped-but-unattached set.
  stamped_live_.erase(task.gseq);
  const auto add = [&](bool is_write) {
    return [&, is_write](uint64_t domain, uint64_t start, size_t length) {
      if (domain != 0) {
        // Sticky sharing: a foreign client naming this address space makes
        // the owner's subsequent own-space tasks shared-visible too.
        const auto owner = domain_owner_.find(domain);
        if (owner != domain_owner_.end() && owner->second != &client) {
          shared_domains_.insert(domain);
        }
      }
      ledger_[domain].push_back({&client, &task, task.gseq, start, length, is_write, false});
    };
  };
  ForEachSidePiece(task.task, /*dst_side=*/true, add(true));
  ForEachSidePiece(task.task, /*dst_side=*/false, add(false));
}

void CopierService::UnregisterShared(Client& client, PendingTask& task) {
  (void)client;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  // Landed (non-aborted) writes become tombstones: a lower-gseq foreign
  // writer probing the range later must still see — and be suppressed by —
  // this write. Everything else just leaves.
  const bool landed_write = !task.aborted;
  for (auto& [domain, entries] : ledger_) {
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](LedgerEntry& e) {
                                   if (e.task != &task) {
                                     return false;
                                   }
                                   if (e.is_write && landed_write) {
                                     e.task = nullptr;
                                     e.landed = true;
                                     return false;
                                   }
                                   return true;
                                 }),
                  entries.end());
  }
  // A tombstone at gseq g matters only while some task ordered before it
  // (gseq < g) could still execute or probe. Live ledger entries are not the
  // whole story: a conflicting task stamped at submission may still be in a
  // ring, un-ingested — the stamped-but-unattached set covers that window,
  // so the bound is the service-wide minimum outstanding sequence.
  const uint64_t min_live = MinOutstandingSeqLocked();
  for (auto it = ledger_.begin(); it != ledger_.end();) {
    auto& entries = it->second;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [min_live](const LedgerEntry& e) {
                                   return e.landed && e.gseq <= min_live;
                                 }),
                  entries.end());
    it = entries.empty() ? ledger_.erase(it) : std::next(it);
  }
}

Status CopierService::SettleForeign(Engine& thief, Client& client, PendingTask& task,
                                    uint64_t domain, uint64_t start, size_t length,
                                    bool writes) {
  // Phase 1 (under ledger_mu_): collect the foreign work this window orders
  // against, and claim every victim with a single CAS each — no spinning
  // under the mutex, so a victim's owner blocked on ledger_mu_ never
  // deadlocks against us. Any failed claim defers the whole probe
  // (kUnavailable): the prober's engine retries on a later pass.
  struct Settle {
    Client* victim = nullptr;
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool claimed = false;    // this call took `serving` (vs. reentrant hold)
    bool owner_log = false;  // domain owner: also probe its completed-write log
  };
  std::vector<Settle> settles;
  std::vector<LandedWriteLog::Write> imports;
  const uint64_t end = start + length;
  bool defer = false;
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    const auto it = ledger_.find(domain);
    if (it != ledger_.end()) {
      for (const LedgerEntry& e : it->second) {
        if (e.client == &client) {
          continue;  // own-client order is the engine's normal dependency path
        }
        const uint64_t lo = std::max(start, e.start);
        const uint64_t hi = std::min(end, e.start + e.length);
        if (lo >= hi) {
          continue;
        }
        if (e.landed) {
          // Dead-write import (WAW): their landed write is ordered after us —
          // our write to these bytes must be suppressed, exactly like a local
          // completed write with a higher gseq.
          if (writes && e.gseq > task.gseq) {
            imports.push_back({e.gseq, domain, lo, static_cast<size_t>(hi - lo)});
          }
          continue;
        }
        // Live foreign conflict ordered before us: WAW/WAR when we write,
        // RAW when we read their pending write. RAR never conflicts.
        if (e.gseq >= task.gseq || (!writes && !e.is_write)) {
          continue;
        }
        settles.push_back({e.client, lo, hi, false});
      }
    }
    if (domain != 0) {
      // Owner-domain promotion: the space's owner may hold conflicting
      // *private* tasks the ledger never saw (accepted before the domain
      // turned shared). Its own engine orders them among themselves; we only
      // need the ones below our gseq landed, which SettleSharedRange bounds.
      const auto owner = domain_owner_.find(domain);
      if (owner != domain_owner_.end() && owner->second != &client) {
        settles.push_back({owner->second, start, end, false, true});
      }
    }
    std::vector<Client*> claimed;
    for (Settle& settle : settles) {
      if (ServeStackHolds(*settle.victim) ||
          std::find(claimed.begin(), claimed.end(), settle.victim) != claimed.end()) {
        continue;  // already held by this thread (outer serve or this batch)
      }
      bool expected = false;
      if (!settle.victim->serving.compare_exchange_strong(expected, true,
                                                          std::memory_order_acquire)) {
        defer = true;
        break;
      }
      settle.claimed = true;
      claimed.push_back(settle.victim);
    }
    if (defer) {
      for (Settle& settle : settles) {
        if (settle.claimed) {
          settle.victim->serving.store(false, std::memory_order_release);
          settle.claimed = false;
        }
      }
    }
  }
  if (defer) {
    return Unavailable("foreign client mid-serve; cross-engine settle deferred");
  }
  // Private->shared transition gap: an owner's own-space write that landed
  // *before* the domain turned shared never registered, so no tombstone
  // exists — but its completed-write log still records it. With the owner's
  // claim held (taken above, or by an outer frame on this thread), probe the
  // log for higher-gseq landed writes overlapping our window and import
  // them like tombstones, so our lower-gseq write is suppressed.
  if (writes) {
    for (const Settle& settle : settles) {
      if (!settle.owner_log) {
        continue;
      }
      settle.victim->completed_writes.ForEachLaterOverlap(
          domain, start, length, task.gseq, [&](const LandedWriteLog::Write& w) {
            const uint64_t lo = std::max(start, w.start);
            const uint64_t hi = std::min(end, w.start + w.length);
            imports.push_back({w.gseq, domain, lo, static_cast<size_t>(hi - lo)});
            return true;
          });
    }
  }
  // Imports need no lock beyond the prober's own claim (its serving thread is
  // us). The log drops duplicates: the same tombstone is seen once per probe
  // of the window.
  for (const LandedWriteLog::Write& import : imports) {
    client.completed_writes.Insert(import);
  }
  // Phase 2 (no ledger lock): run the settles on the thief engine. A nested
  // defer unwinds the whole probe. Claims are NOT released as we go: the
  // same victim commonly appears in several windows (one per overlapping
  // ledger entry plus the owner-domain promotion) with the claim carried by
  // its first entry only — releasing early would let the victim's home
  // thread serve (or DetachClient free) it while later windows still settle.
  Status status = OkStatus();
  for (Settle& settle : settles) {
    if (!status.ok()) {
      break;
    }
    if (settle.victim->detached.load(std::memory_order_acquire)) {
      continue;
    }
    t_serve_stack.push_back(settle.victim);
    status = thief.SettleSharedRange(*settle.victim, domain, settle.lo,
                                     settle.hi - settle.lo, task.gseq);
    t_serve_stack.pop_back();
  }
  // Release every claim only after the last window touching its victim.
  for (Settle& settle : settles) {
    if (settle.claimed) {
      FinishServe(*settle.victim);
      settle.claimed = false;
    }
  }
  return status;
}

CopierService::SchedStats CopierService::sched_stats() const {
  SchedStats s;
#define COPIER_LOAD_SCHED_COUNTER(name) s.name = sched_stats_.name;
  COPIER_SCHED_COUNTERS(COPIER_LOAD_SCHED_COUNTER)
#undef COPIER_LOAD_SCHED_COUNTER
  return s;
}

}  // namespace copier::core
