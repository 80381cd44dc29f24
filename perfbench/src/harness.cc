#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "core/query_cache_manager.h"
#include "workload/session_generator.h"

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename F>
Result<std::vector<Row>> TimedTier::Timed(const Query& query,
                                          cc::core::QueryStats* stats,
                                          F&& call) {
  cc::TraceRecorder* ring = inner_->trace_recorder();
  TierCall c;
  c.trace_lo = ring != nullptr ? ring->recorded() : 0;
  c.start_ns = NowNs();
  Result<std::vector<Row>> out = call();
  c.end_ns = NowNs();
  c.trace_hi = ring != nullptr ? ring->recorded() : 0;
  if (!recording_.load()) return out;
  c.query_hash = cc::workload::HashQuery(query, 0);
  c.ok = out.ok();
  c.stats = *stats;
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(std::move(c));
  return out;
}

Result<std::vector<Row>> TimedTier::Execute(const Query& query,
                                            cc::core::QueryStats* stats) {
  return Timed(query, stats, [&] { return inner_->Execute(query, stats); });
}

Result<std::vector<Row>> TimedTier::ExecuteWithControl(
    const Query& query, cc::core::QueryStats* stats,
    const cc::ExecControl& ctrl) {
  return Timed(query, stats, [&] {
    return inner_->ExecuteWithControl(query, stats, ctrl);
  });
}

std::vector<TierCall> TimedTier::TakeCalls() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

bool Sampler::Want(uint32_t conn, uint64_t seq) {
  if (Mix(seed_ ^ (uint64_t{conn} << 48) ^ seq) % one_in_ != 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (taken_ >= cap_) return false;
  ++taken_;
  return true;
}

void Sampler::Add(const Query& q, const std::vector<Row>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(Sample{q, rows});
}

std::vector<Sample> Sampler::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(samples_, {});
}

namespace {

bool SameRows(const std::vector<Row>& got, const std::vector<Row>& want,
              uint32_t num_dims) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const Row& a = got[i];
    const Row& b = want[i];
    for (uint32_t d = 0; d < num_dims; ++d) {
      if (a.coords[d] != b.coords[d]) return false;
    }
    if (a.count != b.count || a.min_v != b.min_v || a.max_v != b.max_v) {
      return false;
    }
    const double scale = std::max({1.0, std::fabs(a.sum), std::fabs(b.sum)});
    if (!(std::fabs(a.sum - b.sum) <= 1e-6 * scale)) return false;
  }
  return true;
}

}  // namespace

Result<uint64_t> CheckSamples(cc::backend::BackendEngine* engine,
                              const std::vector<Sample>& samples) {
  cc::core::NoCacheManager oracle(engine);
  uint64_t mismatches = 0;
  for (const Sample& s : samples) {
    cc::core::QueryStats stats;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<Row> want,
                                oracle.Execute(s.query, &stats));
    if (!SameRows(s.rows, want, s.query.group_by.num_dims)) {
      ++mismatches;
      std::fprintf(stderr, "answer mismatch vs NoCacheManager: %s\n",
                   s.query.ToString().c_str());
    }
  }
  return mismatches;
}

void AddDeltas(const cc::MetricsRegistry::Snapshot& a,
               const cc::MetricsRegistry::Snapshot& b, Deltas* acc) {
  for (const auto& [name, v] : b.counters) {
    (*acc)[name] += static_cast<double>(v - a.counter(name));
  }
  for (const auto& [name, h] : b.histograms) {
    auto it = a.histograms.find(name);
    const uint64_t sum0 = it == a.histograms.end() ? 0 : it->second.sum;
    const uint64_t count0 = it == a.histograms.end() ? 0 : it->second.count;
    (*acc)[name + ".sum"] += static_cast<double>(h.sum - sum0);
    (*acc)[name + ".count"] += static_cast<double>(h.count - count0);
  }
}

BackendSnapshot TakeBackendSnapshot(System& system) {
  return BackendSnapshot{system.pool().stats(), system.disk().stats(),
                         system.engine().kernel_stats()};
}

void AddBackendDeltas(const BackendSnapshot& a, const BackendSnapshot& b,
                      Deltas* acc) {
  auto add = [acc](const char* name, uint64_t x0, uint64_t x1) {
    (*acc)[name] += static_cast<double>(x1 - x0);
  };
  add("pool.hits", a.pool.hits, b.pool.hits);
  add("pool.misses", a.pool.misses, b.pool.misses);
  add("disk.reads", a.disk.reads, b.disk.reads);
  add("kernels.dense", a.kernels.dense_kernels, b.kernels.dense_kernels);
  add("kernels.hash", a.kernels.hash_kernels, b.kernels.hash_kernels);
}

namespace {

std::string TagOf(const cc::TraceSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.tags) {
    if (k == key) return v;
  }
  return {};
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
std::vector<uint64_t> SelfTimes(const cc::QueryTrace& t) {
  const size_t n = t.spans.size();
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(n);
  for (const cc::TraceSpan& s : t.spans) {
    if (s.parent != cc::kNoParentSpan && s.parent < n) {
      kids[s.parent].emplace_back(s.start_ns, s.start_ns + s.duration_ns);
    }
  }
  std::vector<uint64_t> self(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lo = t.spans[i].start_ns;
    const uint64_t hi = lo + t.spans[i].duration_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = t.spans[i].duration_ns - std::min(covered,
                                                t.spans[i].duration_ns);
  }
  return self;
}

}  // namespace

void JoinAndAttribute(const std::vector<Request>& requests,
                      const std::vector<TierCall>& calls,
                      const std::vector<cc::QueryTrace>& traces,
                      Ledger* ledger, const std::string& dump,
                      size_t dump_cap) {
  std::unordered_map<uint64_t, std::vector<size_t>> calls_by_hash;
  for (size_t i = 0; i < calls.size(); ++i) {
    if (calls[i].ok) calls_by_hash[calls[i].query_hash].push_back(i);
  }
  std::vector<uint8_t> call_used(calls.size(), 0);
  std::unordered_map<uint64_t, size_t> trace_by_id;
  for (size_t i = 0; i < traces.size(); ++i) trace_by_id[traces[i].id] = i;
  std::vector<uint8_t> trace_used(traces.size(), 0);

  std::vector<const Request*> order;
  for (const Request& r : requests) {
    if (r.in_window && r.outcome == Outcome::kOk) order.push_back(&r);
  }
  std::sort(order.begin(), order.end(), [](const Request* a, const Request* b) {
    return a->send_ns < b->send_ns;
  });

  std::ofstream out;
  if (!dump.empty()) out.open(dump);
  size_t dumped = 0;
  for (const Request* r : order) {
    auto hit = calls_by_hash.find(r->query_hash);
    if (hit == calls_by_hash.end()) continue;
    const TierCall* call = nullptr;
    for (size_t ci : hit->second) {
      const TierCall& c = calls[ci];
      if (call_used[ci] || c.start_ns < r->send_ns || c.end_ns > r->done_ns) {
        continue;
      }
      call_used[ci] = 1;
      call = &c;
      break;
    }
    if (call == nullptr) continue;
    const uint64_t call_ns = call->end_ns - call->start_ns;
    // The tier records a query's trace before Execute returns, so its id
    // lies in the call's (lo, hi] window; concurrent calls can share a
    // window, so also match the root's chunk count and duration.
    const cc::QueryTrace* trace = nullptr;
    size_t trace_idx = 0;
    uint64_t best_gap = ~uint64_t{0};
    const std::string chunks = std::to_string(call->stats.chunks_needed);
    for (uint64_t id = call->trace_lo + 1; id <= call->trace_hi; ++id) {
      auto it = trace_by_id.find(id);
      if (it == trace_by_id.end() || trace_used[it->second]) continue;
      const cc::QueryTrace& t = traces[it->second];
      if (t.spans.empty() || TagOf(t.spans[0], "chunks_needed") != chunks) {
        continue;
      }
      const uint64_t root_ns = t.spans[0].duration_ns;
      if (root_ns > call_ns) continue;
      if (call_ns - root_ns < best_gap) {
        best_gap = call_ns - root_ns;
        trace = &t;
        trace_idx = it->second;
      }
    }
    if (trace == nullptr) continue;
    trace_used[trace_idx] = 1;

    ++ledger->joined;
    const uint64_t rtt = r->done_ns - r->send_ns;
    ledger->ns["client.rtt"] += static_cast<double>(rtt);
    ledger->ns["client.late"] += static_cast<double>(r->send_ns - r->due_ns);
    ledger->ns["outside_tier"] += static_cast<double>(rtt - call_ns);
    ledger->ns["call_gap"] += static_cast<double>(best_gap);
    const std::vector<uint64_t> self = SelfTimes(*trace);
    for (size_t i = 0; i < self.size(); ++i) {
      ledger->ns["span." + trace->spans[i].name] +=
          static_cast<double>(self[i]);
    }
    if (out.is_open() && dumped < dump_cap) {
      ++dumped;
      out << "{\"request\": \"" << r->conn << ":" << r->seq
          << "\", \"trace\": " << trace->id << ", \"late_ns\": "
          << (r->send_ns - r->due_ns) << ", \"rtt_ns\": " << rtt
          << ", \"tier_call_ns\": " << call_ns << ", \"self_ns\": {";
      for (size_t i = 0; i < self.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "\"" << trace->spans[i].name
            << "\": " << self[i];
      }
      out << "}}\n";
    }
  }
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  m_.push_back({name, {value, unit}});
}

std::string Report::MetricsJson() const {
  std::string s = "{";
  char buf[64];
  for (size_t i = 0; i < m_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.12g", m_[i].second.first);
    s += (i == 0 ? "\"" : ", \"") + m_[i].first + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m_[i].second.second + "\"}";
  }
  return s + "}";
}

void Report::PrintTable() const {
  for (const auto& [name, vu] : m_) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
