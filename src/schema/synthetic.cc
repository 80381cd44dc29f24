#include "schema/synthetic.h"

#include <cmath>

namespace chunkcache::schema {

Result<Dimension> BuildSyntheticDimension(
    const std::string& name, const std::vector<uint32_t>& level_cards) {
  if (level_cards.empty()) {
    return Status::InvalidArgument("dimension needs at least one level");
  }
  for (size_t i = 1; i < level_cards.size(); ++i) {
    if (level_cards[i] < level_cards[i - 1]) {
      return Status::InvalidArgument(
          "level cardinalities must be non-decreasing toward the base");
    }
  }
  HierarchyBuilder builder;
  for (size_t li = 0; li < level_cards.size(); ++li) {
    // Plain "L<k>" level names keep SQL attribute references unambiguous
    // ("D0.L2" = dimension D0, level L2).
    std::string level_name = "L";
    level_name += std::to_string(li + 1);
    builder.AddLevel(level_name);
    const uint32_t card = level_cards[li];
    if (li == 0) {
      for (uint32_t i = 0; i < card; ++i) {
        CHUNKCACHE_RETURN_IF_ERROR(
            builder.AddMember(name + ".1." + std::to_string(i)).status());
      }
      continue;
    }
    // Distribute `card` children evenly over the `parents` of the level
    // above: the first (card % parents) parents get one extra child.
    const uint32_t parents = level_cards[li - 1];
    const uint32_t base_fanout = card / parents;
    const uint32_t extra = card % parents;
    if (base_fanout == 0) {
      return Status::InvalidArgument("a parent level has more members than "
                                     "its child level");
    }
    uint32_t child = 0;
    for (uint32_t p = 0; p < parents; ++p) {
      const uint32_t fanout = base_fanout + (p < extra ? 1 : 0);
      for (uint32_t c = 0; c < fanout; ++c, ++child) {
        CHUNKCACHE_RETURN_IF_ERROR(
            builder
                .AddMember(name + "." + std::to_string(li + 1) + "." +
                               std::to_string(child),
                           p)
                .status());
      }
    }
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(Hierarchy h, builder.Build());
  return Dimension{name, std::move(h)};
}

Result<StarSchema> BuildPaperSchema() {
  std::vector<Dimension> dims;
  struct Spec {
    const char* name;
    std::vector<uint32_t> cards;
  };
  const Spec specs[] = {
      {"D0", {25, 50, 100}},
      {"D1", {25, 50}},
      {"D2", {5, 25, 50}},
      {"D3", {10, 50}},
  };
  for (const auto& s : specs) {
    CHUNKCACHE_ASSIGN_OR_RETURN(Dimension d,
                                BuildSyntheticDimension(s.name, s.cards));
    dims.push_back(std::move(d));
  }
  return StarSchema("Sales", std::move(dims), "dollar_sales");
}

namespace {

/// Draws from a Zipf(theta) distribution over [0, n) using the standard
/// inverse-CDF rejection-free approximation (Gray et al.'s method would be
/// overkill; a cached harmonic table is exact and fast for our n <= 100).
class ZipfDraw {
 public:
  ZipfDraw(uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  uint32_t Draw(Random& rng) const {
    const double u = rng.NextDouble();
    // Binary search for the first cdf >= u.
    uint32_t lo = 0, hi = static_cast<uint32_t>(cdf_.size() - 1);
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<storage::Tuple> GenerateFactTuples(const StarSchema& schema,
                                               const FactGenOptions& opts) {
  Random rng(opts.seed);
  const uint32_t num_dims = schema.num_dims();
  std::vector<uint32_t> base_cards(num_dims);
  std::vector<ZipfDraw> zipfs;
  for (uint32_t d = 0; d < num_dims; ++d) {
    const auto& h = schema.dimension(d).hierarchy;
    base_cards[d] = h.LevelCardinality(h.depth());
    if (opts.zipf_theta > 0) zipfs.emplace_back(base_cards[d], opts.zipf_theta);
  }
  std::vector<storage::Tuple> tuples(opts.num_tuples);
  for (auto& t : tuples) {
    for (uint32_t d = 0; d < num_dims; ++d) {
      t.keys[d] = opts.zipf_theta > 0
                      ? zipfs[d].Draw(rng)
                      : static_cast<uint32_t>(rng.Uniform(base_cards[d]));
    }
    t.measure = opts.measure_min +
                rng.NextDouble() * (opts.measure_max - opts.measure_min);
  }
  return tuples;
}

}  // namespace chunkcache::schema
