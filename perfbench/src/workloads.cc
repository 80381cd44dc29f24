#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <latch>
#include <sched.h>
#include <thread>

#include "server/client.h"
#include "server/server.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace perfbench {
namespace {

using cc::core::ChunkCacheManager;
using cc::core::ChunkManagerOptions;
using cc::server::ChunkClient;
using cc::server::ChunkServer;

/// How a workload is driven. Sized for a 4-core machine: one load
/// generating process, at most 4 load threads and 2 connections.
struct Spec {
  const char* name;
  bool served;     ///< Through ChunkServer over loopback TCP.
  bool open_loop;  ///< Sends on a fixed schedule instead of on reply.
  uint64_t cache_bytes;
  uint32_t shards;
  uint32_t tier_workers;
  uint32_t server_workers;
  /// Open loop: total offered rate and the session tenant's share of it.
  double rate_qps;
  double session_share;
  /// Fixed latency limit a completion must meet to count as goodput.
  double limit_ms;
  /// Untimed warm-up: queries per connection (closed loop) or seconds of
  /// schedule (open loop).
  uint64_t warm_queries;
  double warm_seconds;
  /// Runs the process on kCpus CPUs (see ConfineCpus). mixed-open runs on
  /// all of them: its rate was set against the unconfined capacity.
  bool confine;
};

constexpr uint64_t kMiB = 1ull << 20;

// session-served: the whole working set fits the 128 MiB budget, so the
// hit path (framing, serialization, probe, assembly) dominates.
// zipf-direct: the paper's serial path with the 30 MB cache smaller than the
// working set, so backend scans and admission/eviction dominate; the server
// is bypassed. mixed-open: two tenants on a fixed schedule against a shared
// 30 MB cache, the only workload that queues in the server.
const Spec kSpecs[] = {
    {"session-served", true, false, 128 * kMiB, 8, 2, 2, 0, 0, 50, 3000, 0,
     true},
    {"zipf-direct", false, false, 30 * kMiB, 1, 1, 1, 0, 0, 1000, 0, 0, true},
    {"mixed-open", true, true, 30 * kMiB, 8, 2, 2, 110, 0.5, 250, 0, 8, false},
};

constexpr uint32_t kConnections = 2;
/// CPUs the whole process runs on; see ConfineCpus.
constexpr size_t kCpus = 2;
/// Closed-loop rate per connection the request records are reserved for.
constexpr double kReserveQpsPerConn = 20000;
constexpr int kSetupReps = 9;
constexpr uint32_t kTraceCapacity = 1u << 17;
/// Queries per zipf-direct pass. Pass i runs zipfian sub-stream i from
/// a cold tier and a cold buffer pool, so its counts repeat exactly across
/// runs; a run makes one pass per kZipfSecondsPerPass of --seconds (at
/// least two), a fixed amount of work whatever the program's speed.
constexpr uint64_t kZipfPassQueries = 1000;
constexpr double kZipfSecondsPerPass = 10;
constexpr uint64_t kStreamHashQueries = 1000;
constexpr uint32_t kSampleOneIn = 16;
constexpr size_t kSampleCap = 24;
/// An open-loop run whose sends lag the schedule by more than this at p99
/// measured the generator, not the system: it is reported invalid.
constexpr double kMaxLateP99Ms = 25.0;
/// Stated reconciliation bound: the traced ledger's layer self times must
/// sum to the client-observed mean latency within this share.
constexpr double kReconcileBound = 0.05;

/// Confines the process to the last kCpus CPUs it may use; every thread
/// started later inherits the mask. On a virtual machine, handing a request
/// to a thread on an idle vCPU costs a wake-up through the hypervisor whose
/// price follows the host's load: unconfined on a 4-vCPU VM, session-served's
/// p50 doubled between runs minutes apart. On two CPUs the load generator,
/// server and tier threads mostly hand off to a CPU that is running, so the
/// figures measure the program. Returns the CPUs used, or "all".
std::string ConfineCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() <= kCpus) return "all";
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string list;
  for (size_t i = cpus.size() - kCpus; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &set);
    list += (list.empty() ? "" : ",") + std::to_string(cpus[i]);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? list : "all";
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// The query streams are fixed per workload; --seed picks the fact data.
// Their per-query cost is heavy-tailed (in zipf-direct the slowest 5 % of
// queries take half the time), so streams drawn per seed would make the
// figures vary with the draw far more than with the program. Fixed streams
// also make the printed stream hash a constant of the workload.
cc::workload::SessionOptions SessionStream(uint32_t conn) {
  cc::workload::SessionOptions o;
  o.seed = 11 + conn;
  return o;
}

cc::workload::WorkloadOptions ZipfStream(uint32_t sub = 0) {
  return cc::workload::ZipfianStream(21 + sub);
}

template <typename Gen>
uint64_t StreamHash(Gen gen, uint64_t n) {
  uint64_t h = 0;
  for (uint64_t i = 0; i < n; ++i) h = cc::workload::HashQuery(gen.Next(), h);
  return h;
}

Outcome Classify(const cc::server::QueryResponse& resp) {
  if (resp.status.ok()) return Outcome::kOk;
  if (resp.shed) return Outcome::kShed;
  if (resp.status.code() == cc::StatusCode::kCorruption) return Outcome::kWrong;
  return Outcome::kError;
}

/// Everything one measured phase produced.
struct Phase {
  uint64_t window_start_ns = 0;
  double window_s = 0;
  std::vector<Request> requests;
  std::vector<TierCall> calls;
  std::vector<cc::QueryTrace> traces;
  Deltas deltas;
  /// zipf-direct: per pass, its sub-stream and {pages, tuples,
  /// chunks.requested, cache.insertions, cache.evictions}.
  std::vector<std::pair<uint32_t, std::array<uint64_t, 5>>> pass_counts;

  /// Trace ids the tier assigned (each tier numbers its traces from 1).
  uint64_t traces_recorded = 0;

  /// Merges a later pass; its trace ids are shifted past this phase's so
  /// the call-to-trace join stays unambiguous.
  void Append(Phase&& o) {
    window_s += o.window_s;
    requests.insert(requests.end(), o.requests.begin(), o.requests.end());
    for (TierCall& c : o.calls) {
      c.trace_lo += traces_recorded;
      c.trace_hi += traces_recorded;
      calls.push_back(std::move(c));
    }
    for (cc::QueryTrace& t : o.traces) {
      t.id += traces_recorded;
      traces.push_back(std::move(t));
    }
    traces_recorded += o.traces_recorded;
    for (const auto& [k, v] : o.deltas) deltas[k] += v;
    pass_counts.insert(pass_counts.end(), o.pass_counts.begin(),
                       o.pass_counts.end());
  }
};

ChunkManagerOptions TierOptions(const Spec& spec, bool traced,
                                cc::MetricsRegistry* registry) {
  ChunkManagerOptions o;
  o.cache_bytes = spec.cache_bytes;
  o.cache_shards = spec.shards;
  o.num_workers = spec.tier_workers;
  o.trace_capacity = traced ? kTraceCapacity : 0;
  o.metrics = registry;
  return o;
}

/// A served stack: tier, timing decorator, server and the client
/// connections. Members are destroyed clients first, tier last.
struct Served {
  std::unique_ptr<cc::MetricsRegistry> registry;
  std::unique_ptr<ChunkCacheManager> tier;
  std::unique_ptr<TimedTier> timed;
  std::unique_ptr<ChunkServer> server;
  std::vector<std::unique_ptr<ChunkClient>> clients;
};

Result<std::unique_ptr<Served>> StartServed(System& sys, const Spec& spec,
                                            bool traced) {
  auto s = std::make_unique<Served>();
  s->registry = std::make_unique<cc::MetricsRegistry>();
  s->tier = std::make_unique<ChunkCacheManager>(
      &sys.engine(), TierOptions(spec, traced, s->registry.get()));
  s->timed = std::make_unique<TimedTier>(s->tier.get());
  cc::server::ServerOptions so;
  so.num_workers = spec.server_workers;
  so.metrics = s->registry.get();
  if (spec.open_loop) {
    // Quotas sit well above the offered rate: admission runs on every
    // query but sheds none in a healthy run.
    so.admission.default_quota.rate_qps = 2 * spec.rate_qps;
    so.admission.default_quota.burst = spec.rate_qps;
    so.admission.default_quota.max_inflight = 64;
    so.admission.global_max_inflight = 128;
  }
  s->server = std::make_unique<ChunkServer>(s->timed.get(), so);
  CHUNKCACHE_RETURN_IF_ERROR(s->server->Start());
  for (uint32_t c = 0; c < kConnections; ++c) {
    cc::server::ClientOptions co;
    co.port = s->server->port();
    co.tenant_id = c + 1;
    co.recv_timeout_ms = 60000;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<ChunkClient> client,
                                ChunkClient::Connect(co));
    s->clients.push_back(std::move(client));
  }
  return s;
}

void CollectTraces(ChunkCacheManager& tier, Phase* ph) {
  if (cc::TraceRecorder* ring = tier.trace_recorder()) {
    ph->traces = ring->Latest(ring->capacity());
    ph->traces_recorded = ring->recorded();
  }
}

/// session-served: closed loop, each connection sends its next query when
/// the previous reply arrived.
Result<Phase> RunClosedServed(System& sys, const Spec& spec, bool traced,
                              double seconds, Sampler* sampler) {
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<Served> served,
                              StartServed(sys, spec, traced));
  std::latch warmed(kConnections);
  std::latch go(1);
  // The connections warm up one after another, so the cold stream (and
  // the paper's cost metrics taken over it) does not depend on how the two
  // interleave: run to run, concurrent warm-ups moved modeled_ms_per_query
  // between about 9.6 and 13.3 ms.
  std::atomic<uint32_t> warm_turn{0};
  std::atomic<uint64_t> end_ns{0};
  std::atomic<bool> transport_failed{false};
  std::vector<std::vector<Request>> per_conn(kConnections);
  std::vector<std::thread> threads;
  for (uint32_t conn = 0; conn < kConnections; ++conn) {
    threads.emplace_back([&, conn] {
      cc::workload::SessionGenerator gen(&sys.schema(),
                                         SessionStream(conn));
      ChunkClient& client = *served->clients[conn];
      std::vector<Request>& reqs = per_conn[conn];
      // Reserved, not touched: resident memory then grows with the count
      // of requests, without the jumps of a doubling vector in peak_rss_mb.
      reqs.reserve(spec.warm_queries +
                   static_cast<size_t>(seconds * kReserveQpsPerConn));
      uint64_t seq = 0;
      auto one = [&](bool window) {
        const Query q = gen.Next();
        Request r;
        r.conn = conn;
        r.seq = seq++;
        r.query_hash = cc::workload::HashQuery(q, 0);
        r.in_window = window;
        r.due_ns = r.send_ns = NowNs();
        auto resp = client.Execute(q);
        r.done_ns = NowNs();
        if (!resp.ok()) {
          transport_failed.store(true);
          return false;
        }
        r.outcome = Classify(*resp);
        if (window && r.outcome == Outcome::kOk && sampler->Want(conn, r.seq)) {
          sampler->Add(q, resp->rows);
        }
        reqs.push_back(r);
        return true;
      };
      for (uint32_t t = warm_turn.load(); t != conn; t = warm_turn.load()) {
        warm_turn.wait(t);
      }
      for (uint64_t i = 0; i < spec.warm_queries && one(false); ++i) {
      }
      warm_turn.store(conn + 1);
      warm_turn.notify_all();
      warmed.count_down();
      go.wait();
      const uint64_t end = end_ns.load();
      while (!transport_failed.load() && NowNs() < end && one(true)) {
      }
    });
  }
  warmed.wait();
  Phase ph;
  const auto s0 = served->registry->TakeSnapshot();
  const BackendSnapshot b0 = TakeBackendSnapshot(sys);
  // Untraced, only the warm-up's calls are needed (the cold-stream cost
  // metrics); the window's latencies come from the client side.
  served->timed->set_recording(traced);
  ph.window_start_ns = NowNs();
  end_ns.store(ph.window_start_ns + static_cast<uint64_t>(seconds * 1e9));
  go.count_down();
  for (auto& t : threads) t.join();
  ph.window_s = static_cast<double>(NowNs() - ph.window_start_ns) / 1e9;
  if (transport_failed.load()) return Status::Internal("connection failed");
  AddDeltas(s0, served->registry->TakeSnapshot(), &ph.deltas);
  AddBackendDeltas(b0, TakeBackendSnapshot(sys), &ph.deltas);
  ph.calls = served->timed->TakeCalls();
  CollectTraces(*served->tier, &ph);
  for (auto& reqs : per_conn) {
    ph.requests.insert(ph.requests.end(), reqs.begin(), reqs.end());
  }
  return ph;
}

/// mixed-open: per tenant one connection; a sender thread sends on the
/// fixed schedule while the tenant thread drains replies in order.
Result<Phase> RunOpenServed(System& sys, const Spec& spec, bool traced,
                            double seconds, Sampler* sampler) {
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<Served> served,
                              StartServed(sys, spec, traced));
  const double shares[kConnections] = {spec.session_share,
                                       1 - spec.session_share};
  const uint64_t warm_ns = static_cast<uint64_t>(spec.warm_seconds * 1e9);
  const uint64_t span_ns = warm_ns + static_cast<uint64_t>(seconds * 1e9);

  // Inputs are generated before the schedule starts.
  std::vector<std::vector<Query>> queries(kConnections);
  std::vector<std::vector<Request>> reqs(kConnections);
  std::vector<uint64_t> interval(kConnections);
  for (uint32_t c = 0; c < kConnections; ++c) {
    interval[c] = static_cast<uint64_t>(1e9 / (spec.rate_qps * shares[c]));
    const uint64_t n = span_ns / interval[c];
    if (c == 0) {
      cc::workload::SessionGenerator gen(&sys.schema(), SessionStream(c));
      for (uint64_t i = 0; i < n; ++i) queries[c].push_back(gen.Next());
    } else {
      cc::workload::QueryGenerator gen(&sys.schema(), ZipfStream());
      for (uint64_t i = 0; i < n; ++i) queries[c].push_back(gen.Next());
    }
    reqs[c].resize(n);
  }
  const uint64_t t0 = NowNs() + 20'000'000;
  const uint64_t warm_end = t0 + warm_ns;
  const uint64_t end = t0 + span_ns;

  std::atomic<bool> transport_failed{false};
  std::vector<std::thread> tenants;
  for (uint32_t c = 0; c < kConnections; ++c) {
    tenants.emplace_back([&, c] {
      ChunkClient& client = *served->clients[c];
      std::vector<Request>& rs = reqs[c];
      std::atomic<uint64_t> sent{0};
      std::atomic<bool> sender_done{false};
      std::thread sender([&] {
        for (uint64_t i = 0; i < rs.size() && !transport_failed.load(); ++i) {
          const uint64_t due = t0 + i * interval[c];
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          Request& r = rs[i];
          r.conn = c;
          r.seq = i;
          r.query_hash = cc::workload::HashQuery(queries[c][i], 0);
          r.due_ns = due;
          r.in_window = due >= warm_end && due < end;
          r.send_ns = NowNs();
          if (!client.SendQuery(queries[c][i]).ok()) {
            transport_failed.store(true);
            break;
          }
          sent.store(i + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
      });
      // Request ids are sequential from 1 on a fresh connection.
      uint64_t next = 0;
      while (true) {
        const bool done = sender_done.load(std::memory_order_acquire);
        if (next >= sent.load(std::memory_order_acquire)) {
          if (done || transport_failed.load()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        auto resp = client.WaitResponse(next + 1);
        Request& r = rs[next];
        r.done_ns = NowNs();
        if (!resp.ok()) {
          transport_failed.store(true);
          break;
        }
        r.outcome = Classify(*resp);
        if (r.in_window && r.outcome == Outcome::kOk &&
            sampler->Want(c, r.seq)) {
          sampler->Add(queries[c][next], resp->rows);
        }
        ++next;
      }
      sender.join();
    });
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(warm_end)));
  Phase ph;
  const auto s0 = served->registry->TakeSnapshot();
  const BackendSnapshot b0 = TakeBackendSnapshot(sys);
  for (auto& t : tenants) t.join();
  if (transport_failed.load()) return Status::Internal("connection failed");
  // Throughput is taken over the time the window's requests took to
  // complete, so a backlog that drains late lowers it.
  ph.window_start_ns = warm_end;
  uint64_t last_done = warm_end;
  for (const auto& rs : reqs) {
    for (const Request& r : rs) {
      if (r.in_window) last_done = std::max(last_done, r.done_ns);
    }
  }
  ph.window_s = static_cast<double>(last_done - warm_end) / 1e9;
  AddDeltas(s0, served->registry->TakeSnapshot(), &ph.deltas);
  AddBackendDeltas(b0, TakeBackendSnapshot(sys), &ph.deltas);
  ph.calls = served->timed->TakeCalls();
  CollectTraces(*served->tier, &ph);
  for (auto& rs : reqs) {
    ph.requests.insert(ph.requests.end(), rs.begin(), rs.end());
  }
  return ph;
}

/// zipf-direct: one pass of sub-stream `sub` from a cold tier and a cold
/// buffer pool, one in-process caller on the serial paper path.
Result<Phase> RunZipfPass(System& sys, const Spec& spec, bool traced,
                          uint32_t sub, Sampler* sampler) {
  CHUNKCACHE_RETURN_IF_ERROR(sys.ResetBackend());
  cc::MetricsRegistry registry;
  ChunkCacheManager tier(&sys.engine(), TierOptions(spec, traced, &registry));
  TimedTier timed(&tier);
  cc::workload::QueryGenerator gen(&sys.schema(), ZipfStream(sub));
  Phase ph;
  const auto s0 = registry.TakeSnapshot();
  const BackendSnapshot b0 = TakeBackendSnapshot(sys);
  ph.window_start_ns = NowNs();
  uint64_t pages = 0, tuples = 0;
  for (uint64_t i = 0; i < kZipfPassQueries; ++i) {
    const Query q = gen.Next();
    Request r;
    r.conn = sub;
    r.seq = i;
    r.query_hash = cc::workload::HashQuery(q, 0);
    r.in_window = true;
    cc::core::QueryStats stats;
    r.due_ns = r.send_ns = NowNs();
    auto rows = timed.Execute(q, &stats);
    r.done_ns = NowNs();
    r.outcome = rows.ok() ? Outcome::kOk : Outcome::kError;
    if (rows.ok() && sampler != nullptr && sampler->Want(sub, i)) {
      sampler->Add(q, *rows);
    }
    pages += stats.backend_work.pages_read;
    tuples += stats.backend_work.tuples_processed;
    ph.requests.push_back(r);
  }
  ph.window_s = static_cast<double>(NowNs() - ph.window_start_ns) / 1e9;
  std::printf("pass over sub-stream %u%s: %llu queries in %.3f s\n", sub,
              traced ? " (traced)" : "",
              static_cast<unsigned long long>(kZipfPassQueries), ph.window_s);
  const auto s1 = registry.TakeSnapshot();
  AddDeltas(s0, s1, &ph.deltas);
  AddBackendDeltas(b0, TakeBackendSnapshot(sys), &ph.deltas);
  ph.pass_counts.push_back(
      {sub,
       {pages, tuples, s1.counter("chunks.requested"),
        s1.counter("cache.insertions"), s1.counter("cache.evictions")}});
  ph.calls = timed.TakeCalls();
  CollectTraces(tier, &ph);
  return ph;
}

/// Builds the system and starts the tier (and server) `reps` times; the
/// median is the run's setup_s. Returns the last system built.
Result<std::unique_ptr<System>> Setup(const Spec& spec, uint64_t data_seed,
                                      int reps, std::vector<double>* times) {
  std::unique_ptr<System> sys;
  for (int i = 0; i < reps; ++i) {
    sys.reset();
    const uint64_t t0 = NowNs();
    cc::bench::ExperimentConfig config;  // 500k tuples, the paper's setup
    config.data_seed = data_seed;
    CHUNKCACHE_ASSIGN_OR_RETURN(sys, System::Build(config));
    if (spec.served) {
      CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<Served> served,
                                  StartServed(*sys, spec, false));
    } else {
      cc::MetricsRegistry registry;
      ChunkCacheManager tier(&sys->engine(),
                             TierOptions(spec, false, &registry));
    }
    times->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("setup:");
  for (double t : *times) std::printf(" %.3f", t);
  std::printf(" s\n");
  return sys;
}

/// Runs one served phase: a warm-up, then a `seconds` window.
Result<Phase> RunServedPhase(System& sys, const Spec& spec, bool traced,
                             double seconds, Sampler* sampler) {
  return spec.open_loop
             ? RunOpenServed(sys, spec, traced, seconds, sampler)
             : RunClosedServed(sys, spec, traced, seconds, sampler);
}

/// Hash of the run's query streams (workload::HashQuery chained), printed
/// so a latency change can be told apart from workload drift.
uint64_t RunStreamHash(System& sys, const Spec& spec, uint32_t passes) {
  using cc::workload::QueryGenerator;
  using cc::workload::SessionGenerator;
  if (!spec.served) {
    uint64_t h = 0;
    for (uint32_t sub = 0; sub < passes; ++sub) {
      h = Mix(h) ^ StreamHash(QueryGenerator(&sys.schema(),
                                             ZipfStream(sub)),
                              kZipfPassQueries);
    }
    return h;
  }
  const uint64_t h0 = StreamHash(
      SessionGenerator(&sys.schema(), SessionStream(0)),
      kStreamHashQueries);
  const uint64_t h1 =
      spec.open_loop
          ? StreamHash(QueryGenerator(&sys.schema(), ZipfStream()),
                       kStreamHashQueries)
          : StreamHash(SessionGenerator(&sys.schema(), SessionStream(1)),
                       kStreamHashQueries);
  return Mix(h0) ^ h1;
}

/// Client-observed figures of a phase's measurement window.
struct WindowStats {
  uint64_t ok = 0;
  uint64_t within_limit = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double late_p99_ms = 0;
  double throughput_qps = 0;
  double goodput_qps = 0;
};

WindowStats Window(const Spec& spec, const Phase& ph) {
  WindowStats w;
  std::vector<double> lat, late;
  double sum = 0;
  for (const Request& r : ph.requests) {
    if (!r.in_window) continue;
    late.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
    if (r.outcome != Outcome::kOk) continue;
    const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
    lat.push_back(ms);
    sum += ms;
    ++w.ok;
    if (ms <= spec.limit_ms) ++w.within_limit;
  }
  w.mean_ms = w.ok == 0 ? 0 : sum / static_cast<double>(w.ok);
  w.p50_ms = Quantile(&lat, 0.50);
  w.p99_ms = Quantile(&lat, 0.99);
  w.late_p99_ms = Quantile(&late, 0.99);
  w.throughput_qps = static_cast<double>(w.ok) / ph.window_s;
  w.goodput_qps = static_cast<double>(w.within_limit) / ph.window_s;
  return w;
}

/// Tier calls that belong to the measurement window.
std::vector<const TierCall*> WindowCalls(const Phase& ph) {
  std::vector<const TierCall*> out;
  for (const TierCall& c : ph.calls) {
    if (c.ok && c.start_ns >= ph.window_start_ns) out.push_back(&c);
  }
  return out;
}

/// The fixed-length query stream from a cold cache that the paper's cost
/// metrics are taken over: every zipf-direct pass, the session-served
/// warm-up, the whole mixed-open schedule. A fixed count keeps the cold
/// misses' share independent of how fast the window ran.
std::vector<const TierCall*> ColdStreamCalls(const Spec& spec,
                                             const Phase& ph) {
  std::vector<const TierCall*> out;
  const bool warm_only = spec.served && !spec.open_loop;
  for (const TierCall& c : ph.calls) {
    if (c.ok && (!warm_only || c.start_ns < ph.window_start_ns)) {
      out.push_back(&c);
    }
  }
  return out;
}

void EndToEnd(const Spec& spec, const Phase& ph,
              std::vector<double> setup_times, RunResult* out) {
  const WindowStats w = Window(spec, ph);
  double modeled = 0, cost = 0, saved = 0;
  const auto calls = ColdStreamCalls(spec, ph);
  for (const TierCall* c : calls) {
    modeled += c->stats.modeled_ms;
    cost += c->stats.cost_estimate;
    saved += c->stats.cost_estimate * c->stats.saved_fraction;
  }
  Report& r = out->report;
  r.Add("setup_s", Quantile(&setup_times, 0.5), "s");
  r.Add("latency_p50_ms", w.p50_ms, "ms");
  r.Add("latency_p99_ms", w.p99_ms, "ms");
  r.Add("throughput_qps", w.throughput_qps, "1/s");
  r.Add("goodput_qps", w.goodput_qps, "1/s");
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  r.Add("modeled_ms_per_query",
        calls.empty() ? 0 : modeled / static_cast<double>(calls.size()), "ms");
  r.Add("csr", cost == 0 ? 0 : saved / cost, "ratio");
  std::printf("window: %.2f s, %llu answered, %llu within %.0f ms\n",
              ph.window_s, static_cast<unsigned long long>(w.ok),
              static_cast<unsigned long long>(w.within_limit), spec.limit_ms);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer ledger of the traced phase `t`; `u` is the untraced phase of
/// the same run, for the tracing overhead.
void PerLayer(const Spec& spec, const Args& a, const Phase& t, const Phase& u,
              RunResult* out) {
  const WindowStats wt = Window(spec, t);
  const WindowStats wu = Window(spec, u);
  const Deltas& d = t.deltas;
  const double queries = Get(d, "query.executions");

  Ledger ledger;
  const std::string dump =
      a.trace_dir.empty() ? ""
                          : a.trace_dir + "/" + spec.name + "-seed" +
                                std::to_string(a.seed) + ".jsonl";
  JoinAndAttribute(t.requests, t.calls, t.traces, &ledger, dump, 2000);
  const double joined = static_cast<double>(ledger.joined);
  auto line_ms = [&](const std::string& key) {
    auto it = ledger.ns.find(key);
    return it == ledger.ns.end() || joined == 0 ? 0.0
                                                 : it->second / joined / 1e6;
  };

  std::vector<double> call_ms;
  double call_sum = 0, pages = 0, tuples = 0;
  for (const TierCall* c : WindowCalls(t)) {
    const double ms = static_cast<double>(c->end_ns - c->start_ns) / 1e6;
    call_ms.push_back(ms);
    call_sum += ms;
    pages += static_cast<double>(c->stats.backend_work.pages_read);
    tuples += static_cast<double>(c->stats.backend_work.tuples_processed);
  }
  const double ncalls = static_cast<double>(call_ms.size());

  // Outside the tier: wire + server queue (served) or the direct caller's
  // own loop. The server's admission-to-reply histogram splits it.
  const double outside_ms = line_ms("outside_tier");
  const double queue_ms =
      spec.served ? Ratio(Get(d, "server.query.latency_ns.sum"),
                          Get(d, "server.query.latency_ns.count")) / 1e6 -
                        Ratio(call_sum, ncalls)
                  : 0;
  const double wire_ms = spec.served ? outside_ms - queue_ms : 0;
  const double caller_ms = spec.served ? 0 : outside_ms;

  double other_ns = 0;
  for (const auto& [key, ns] : ledger.ns) {
    if (key.rfind("span.", 0) != 0) continue;
    static const char* kNamed[] = {"span.execute", "span.rollup",
                                   "span.decompose", "span.cache_probe",
                                   "span.miss_pipeline", "span.scan_aggregate",
                                   "span.wait_coalesced"};
    if (std::find_if(std::begin(kNamed), std::end(kNamed), [&](const char* n) {
          return key == n;
        }) == std::end(kNamed)) {
      other_ns += ns;
    }
  }
  const double other_ms = joined == 0 ? 0 : other_ns / joined / 1e6;

  Report& r = out->report;
  r.Add("server.wire_ms", wire_ms, "ms");
  r.Add("server.queue_ms", queue_ms, "ms");
  r.Add("server.bytes_per_row",
        Ratio(Get(d, "server.bytes.written"), Get(d, "server.result.rows")),
        "B/row");
  r.Add("server.shed_frac",
        Ratio(Get(d, "server.queries.shed"), Get(d, "server.queries.offered")),
        "ratio");
  r.Add("core.execute_ms", Ratio(call_sum, ncalls), "ms");
  r.Add("core.execute_p99_ms", Quantile(&call_ms, 0.99), "ms");
  r.Add("core.decompose_ms", line_ms("span.decompose"), "ms");
  r.Add("core.probe_ms", line_ms("span.cache_probe"), "ms");
  r.Add("core.assemble_ms", line_ms("span.execute") + line_ms("span.rollup"),
        "ms");
  r.Add("core.miss_self_ms", line_ms("span.miss_pipeline"), "ms");
  r.Add("core.coalesced_wait_ms", line_ms("span.wait_coalesced"), "ms");
  r.Add("core.other_ms", other_ms, "ms");
  r.Add("chunks.per_query", Ratio(Get(d, "chunks.requested"), queries),
        "count");
  r.Add("cache.hit_ratio",
        Ratio(Get(d, "chunks.from_cache") + Get(d, "chunks.from_aggregation"),
              Get(d, "chunks.requested")),
        "ratio");
  r.Add("cache.evictions_per_insert",
        Ratio(Get(d, "cache.evictions"), Get(d, "cache.insertions")), "ratio");
  r.Add("cache.lock_wait_ms",
        Ratio(Get(d, "cache.lock_wait_ns.sum"), queries) / 1e6, "ms");
  r.Add("backend.scan_ms", line_ms("span.scan_aggregate"), "ms");
  r.Add("backend.sched_scan_ms",
        Ratio(Get(d, "scheduler.scan_ns.sum"), queries) / 1e6, "ms");
  r.Add("backend.pages_per_query", Ratio(pages, ncalls), "count");
  r.Add("backend.tuples_per_query", Ratio(tuples, ncalls), "count");
  r.Add("backend.dense_frac",
        Ratio(Get(d, "kernels.dense"),
              Get(d, "kernels.dense") + Get(d, "kernels.hash")),
        "ratio");
  r.Add("backend.merge_frac",
        Ratio(Get(d, "scheduler.merged_requests"), Get(d, "scheduler.requests")),
        "ratio");
  r.Add("storage.pool_hit_ratio",
        Ratio(Get(d, "pool.hits"), Get(d, "pool.hits") + Get(d, "pool.misses")),
        "ratio");
  r.Add("storage.disk_reads_per_query", Ratio(Get(d, "disk.reads"), queries),
        "count");

  // Reconciliation: the ledger lines (generator lateness, wire, queue,
  // decorator gap, every span's self time) of the joined requests must sum
  // to the mean latency every answered request in the window observed.
  double ledger_ms = 0;
  for (const auto& [key, ns] : ledger.ns) {
    if (key != "client.rtt") ledger_ms += ns;
  }
  ledger_ms = joined == 0 ? 0 : ledger_ms / joined / 1e6;
  const double reconcile = Ratio(std::fabs(ledger_ms - wt.mean_ms), wt.mean_ms);
  const double tput_t = spec.open_loop ? wt.goodput_qps : wt.throughput_qps;
  const double tput_u = spec.open_loop ? wu.goodput_qps : wu.throughput_qps;
  r.Add("harness.caller_ms", caller_ms, "ms");
  r.Add("harness.call_gap_ms", line_ms("call_gap"), "ms");
  r.Add("harness.gen_late_ms", line_ms("client.late"), "ms");
  r.Add("harness.gen_late_p99_ms", spec.open_loop ? wt.late_p99_ms : 0, "ms");
  r.Add("harness.client_mean_ms", wt.mean_ms, "ms");
  r.Add("harness.ledger_sum_ms", ledger_ms, "ms");
  r.Add("harness.reconcile_err_frac", reconcile, "ratio");
  r.Add("harness.reconcile_bound_frac", kReconcileBound, "ratio");
  r.Add("harness.join_frac", Ratio(joined, static_cast<double>(wt.ok)),
        "ratio");
  r.Add("harness.trace_overhead_frac", 1 - Ratio(tput_t, tput_u), "ratio");
  r.Add("harness.samples", static_cast<double>(wt.ok), "count");
  if (reconcile > kReconcileBound) {
    out->invalid = "traced ledger does not reconcile: sum " +
                   std::to_string(ledger_ms) + " ms vs client mean " +
                   std::to_string(wt.mean_ms) + " ms";
  }
}

/// Counts every request, flags failures, and checks the exact-count
/// invariant of zipf-direct passes.
void Account(const Phase& ph, RunResult* out) {
  for (const Request& r : ph.requests) {
    ++out->attempted;
    if (r.outcome != Outcome::kOk) ++out->failed;
    if (r.outcome == Outcome::kWrong) out->correct = false;
  }
  // One line per pass; run.py compares them with earlier runs of the same
  // binary at the same seed. Within a run, passes over the same sub-stream
  // (the traced run's untraced and traced pass) must agree too.
  for (const auto& [sub, pc] : ph.pass_counts) {
    std::printf("exact-counts: {\"stream\": %u, \"pages\": %llu, "
                "\"tuples\": %llu, \"chunks_requested\": %llu, "
                "\"insertions\": %llu, \"evictions\": %llu}\n",
                sub, static_cast<unsigned long long>(pc[0]),
                static_cast<unsigned long long>(pc[1]),
                static_cast<unsigned long long>(pc[2]),
                static_cast<unsigned long long>(pc[3]),
                static_cast<unsigned long long>(pc[4]));
    for (const auto& [sub2, pc2] : ph.pass_counts) {
      if (sub2 == sub && pc2 != pc) {
        std::fprintf(stderr,
                     "harness fault: zipf-direct passes over sub-stream %u "
                     "differ in pages/tuples/chunks/insertions/evictions\n",
                     sub);
        out->correct = false;
      }
    }
  }
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

Result<RunResult> RunWorkload(const Args& a) {
  const Spec& spec = *FindSpec(a.workload);
  const std::string cpus = spec.confine ? ConfineCpus() : "all";
  RunResult out;
  std::vector<double> setup_times;
  CHUNKCACHE_ASSIGN_OR_RETURN(
      std::unique_ptr<System> sys,
      Setup(spec, a.seed, a.trace ? 1 : kSetupReps, &setup_times));

  const uint32_t passes = static_cast<uint32_t>(
      std::max(2.0, std::floor(a.seconds / kZipfSecondsPerPass)));
  std::printf(
      "workload %s: %s loop, %s, %llu tuples, cache %llu MiB, %u shard(s), "
      "%u tier worker(s), %u server worker(s), CPUs %s, stream hash %016llx, "
      "data seed %llu\n",
      spec.name, spec.open_loop ? "open" : "closed",
      spec.served ? (spec.open_loop ? "2 tenants x 1 connection, 55 + 55 q/s"
                                    : "2 connections")
                  : "1 in-process client",
      static_cast<unsigned long long>(sys->config().num_tuples),
      static_cast<unsigned long long>(spec.cache_bytes / kMiB), spec.shards,
      spec.tier_workers, spec.served ? spec.server_workers : 0, cpus.c_str(),
      static_cast<unsigned long long>(RunStreamHash(*sys, spec, passes)),
      static_cast<unsigned long long>(a.seed));
  std::fflush(stdout);

  Sampler sampler(a.seed, kSampleOneIn, kSampleCap);
  if (!a.trace) {
    Phase ph;
    if (spec.served) {
      CHUNKCACHE_ASSIGN_OR_RETURN(
          ph, RunServedPhase(*sys, spec, false, a.seconds, &sampler));
    } else {
      for (uint32_t sub = 0; sub < passes; ++sub) {
        CHUNKCACHE_ASSIGN_OR_RETURN(
            Phase p, RunZipfPass(*sys, spec, false, sub, &sampler));
        ph.Append(std::move(p));
      }
    }
    Account(ph, &out);
    EndToEnd(spec, ph, setup_times, &out);
    const WindowStats w = Window(spec, ph);
    if (spec.open_loop && w.late_p99_ms > kMaxLateP99Ms) {
      out.invalid = "open-loop generator ran late: p99 " +
                    std::to_string(w.late_p99_ms) + " ms > bound " +
                    std::to_string(kMaxLateP99Ms) + " ms";
    }
  } else {
    // Untraced and traced phases of equal length; zipf-direct runs each
    // sub-stream once untraced and once traced.
    Phase u, t;
    if (spec.served) {
      CHUNKCACHE_ASSIGN_OR_RETURN(
          u, RunServedPhase(*sys, spec, false, a.seconds / 2, &sampler));
      CHUNKCACHE_ASSIGN_OR_RETURN(
          t, RunServedPhase(*sys, spec, true, a.seconds / 2, &sampler));
    } else {
      for (uint32_t sub = 0; sub < passes / 2; ++sub) {
        CHUNKCACHE_ASSIGN_OR_RETURN(
            Phase pu, RunZipfPass(*sys, spec, false, sub, &sampler));
        u.Append(std::move(pu));
        CHUNKCACHE_ASSIGN_OR_RETURN(
            Phase pt, RunZipfPass(*sys, spec, true, sub, nullptr));
        t.Append(std::move(pt));
      }
    }
    Phase both;
    both.pass_counts = u.pass_counts;
    both.pass_counts.insert(both.pass_counts.end(), t.pass_counts.begin(),
                            t.pass_counts.end());
    both.requests = u.requests;
    both.requests.insert(both.requests.end(), t.requests.begin(),
                         t.requests.end());
    Account(both, &out);
    PerLayer(spec, a, t, u, &out);
  }

  // Answer check outside the timed window.
  const std::vector<Sample> samples = sampler.Take();
  CHUNKCACHE_ASSIGN_OR_RETURN(uint64_t mismatches,
                              CheckSamples(&sys->engine(), samples));
  std::printf("answer check: %zu sampled queries re-run on NoCacheManager, "
              "%llu mismatched\n",
              samples.size(), static_cast<unsigned long long>(mismatches));
  if (mismatches != 0) {
    out.correct = false;
    out.failed += mismatches;
  }
  if (a.trace) {
    out.report.Add("harness.failed_frac",
                   Ratio(static_cast<double>(out.failed),
                         static_cast<double>(out.attempted)),
                   "ratio");
  }
  return out;
}

}  // namespace perfbench
