// Shared pieces of the canonical benchmark: the paper's system, the timed
// MiddleTier decorator, client-side request records, the NoCacheManager
// answer check, trace self-time attribution and the metric report.
//
// Everything here measures the program from outside: it times calls into
// public functions and reads counters the program already keeps.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/experiment.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"

namespace perfbench {

namespace cc = chunkcache;
using cc::Result;
using cc::Status;
using Query = cc::backend::StarJoinQuery;
using Row = cc::backend::ResultRow;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix(uint64_t x);

/// The paper's Section 6.1.1 system (Table-1 schema, chunk ranges at 10 %
/// of each level, an 8 MiB buffer pool over an in-memory raw device), as
/// every bench/ experiment builds it.
using System = cc::bench::System;

/// One call into the tier, timed by TimedTier.
struct TierCall {
  uint64_t query_hash = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Trace ids recorded by the tier during the call lie in (lo, hi].
  uint64_t trace_lo = 0;
  uint64_t trace_hi = 0;
  bool ok = false;
  cc::core::QueryStats stats;
};

/// MiddleTier decorator placed between the caller (ChunkServer or the
/// direct caller) and ChunkCacheManager. Times every call and keeps its
/// QueryStats; the tier itself is untouched.
class TimedTier final : public cc::core::MiddleTier {
 public:
  explicit TimedTier(cc::core::ChunkCacheManager* inner) : inner_(inner) {}

  Result<std::vector<Row>> Execute(const Query& query,
                                   cc::core::QueryStats* stats) override;
  Result<std::vector<Row>> ExecuteWithControl(
      const Query& query, cc::core::QueryStats* stats,
      const cc::ExecControl& ctrl) override;
  std::string name() const override { return "timed:" + inner_->name(); }

  /// Calls recorded so far (the record is cleared).
  std::vector<TierCall> TakeCalls();

  /// Stops or resumes recording calls. The untraced session-served window
  /// needs no per-call records; keeping them would make the process's peak
  /// RSS grow with throughput.
  void set_recording(bool on) { recording_.store(on); }

 private:
  template <typename F>
  Result<std::vector<Row>> Timed(const Query& query,
                                 cc::core::QueryStats* stats, F&& call);

  cc::core::ChunkCacheManager* inner_;
  std::atomic<bool> recording_{true};
  std::mutex mu_;
  std::vector<TierCall> calls_;
};

enum class Outcome : uint8_t { kOk, kShed, kError, kWrong };

/// One request as the load generator saw it. For open-loop workloads
/// `due_ns` is the scheduled send time; closed-loop requests are due when
/// sent.
struct Request {
  uint32_t conn = 0;
  uint64_t seq = 0;
  uint64_t query_hash = 0;
  uint64_t due_ns = 0;
  uint64_t send_ns = 0;
  uint64_t done_ns = 0;
  Outcome outcome = Outcome::kOk;
  bool in_window = false;
};

/// A seeded sample of answered queries kept for the NoCacheManager check.
struct Sample {
  Query query;
  std::vector<Row> rows;
};

/// Seeded choice of which requests to keep for the answer check.
class Sampler {
 public:
  Sampler(uint64_t seed, uint32_t one_in, size_t cap)
      : seed_(seed), one_in_(one_in), cap_(cap) {}
  /// True when request (conn, seq) is in the sample and room is left.
  bool Want(uint32_t conn, uint64_t seq);
  void Add(const Query& q, const std::vector<Row>& rows);
  std::vector<Sample> Take();

 private:
  uint64_t seed_;
  uint32_t one_in_;
  size_t cap_;
  std::mutex mu_;
  size_t taken_ = 0;
  std::vector<Sample> samples_;
};

/// Re-runs every sample on NoCacheManager (a fresh backend scan) and
/// compares: coordinates, COUNT, MIN and MAX exactly, SUM within 1e-6
/// relative. Returns how many samples mismatched.
Result<uint64_t> CheckSamples(cc::backend::BackendEngine* engine,
                              const std::vector<Sample>& samples);

/// Registry counters and histogram sums/counts, as differences between two
/// snapshots, accumulated over phases: counter `x` -> "x", histogram `h`
/// -> "h.sum" and "h.count".
using Deltas = std::map<std::string, double>;
void AddDeltas(const cc::MetricsRegistry::Snapshot& a,
               const cc::MetricsRegistry::Snapshot& b, Deltas* acc);
inline double Get(const Deltas& d, const std::string& key) {
  auto it = d.find(key);
  return it == d.end() ? 0.0 : it->second;
}

/// Backend-side statistics outside the registry (buffer pool, disk,
/// aggregation kernels), folded into Deltas under "pool.*", "disk.*",
/// "kernels.*".
struct BackendSnapshot {
  cc::storage::BufferPoolStats pool;
  cc::storage::DiskStats disk;
  cc::backend::AggKernelStats kernels;
};
BackendSnapshot TakeBackendSnapshot(System& system);
void AddBackendDeltas(const BackendSnapshot& a, const BackendSnapshot& b,
                      Deltas* acc);

/// Per-request ledger rows, summed over requests whose client span, tier
/// call and tier trace were joined. Values are nanoseconds.
struct Ledger {
  uint64_t joined = 0;
  std::map<std::string, double> ns;  ///< ledger line -> summed ns
};

/// Joins answered window requests to tier calls (by query hash and time
/// containment), and tier calls to tier traces (by trace-id window, chunk
/// count and root duration); adds each joined request's ledger lines to
/// `ledger`: generator lateness, time outside the tier, the decorator's gap
/// around the root span, and every span's self time. Writes at most
/// `dump_cap` joined requests as JSON lines to `dump` (empty path: none).
void JoinAndAttribute(const std::vector<Request>& requests,
                      const std::vector<TierCall>& calls,
                      const std::vector<cc::QueryTrace>& traces,
                      Ledger* ledger, const std::string& dump,
                      size_t dump_cap);

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);

/// Ordered metric list printed as the result's "metrics" object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string MetricsJson() const;
  void PrintTable() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
