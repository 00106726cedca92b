#include "pgm/bic_score.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace guardrail {
namespace pgm {

BicScorer::BicScorer(const EncodedData* data) : data_(data) {
  GUARDRAIL_CHECK(data != nullptr);
}

double BicScorer::FamilyScore(int32_t v,
                              const std::vector<int32_t>& parents) const {
  GUARDRAIL_CHECK(std::is_sorted(parents.begin(), parents.end()));
  auto key = std::make_pair(v, parents);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;

  const int32_t card_v = data_->cardinalities[static_cast<size_t>(v)];
  const auto& col_v = data_->columns[static_cast<size_t>(v)];

  // Counts per (parent configuration, value): hash-keyed sparse tables.
  struct Config {
    std::vector<int64_t> counts;
    int64_t total = 0;
  };
  std::unordered_map<uint64_t, Config> configs;
  double parent_space = 1.0;
  for (int32_t p : parents) {
    parent_space *= static_cast<double>(
        data_->cardinalities[static_cast<size_t>(p)]);
  }

  for (int64_t r = 0; r < data_->num_rows; ++r) {
    ValueId value = col_v[static_cast<size_t>(r)];
    if (value == kNullValue) continue;
    uint64_t config_key = kFnvShortOffset;
    bool has_null = false;
    for (int32_t p : parents) {
      ValueId pv = data_->columns[static_cast<size_t>(p)][static_cast<size_t>(r)];
      if (pv == kNullValue) {
        has_null = true;
        break;
      }
      config_key = FnvMix(config_key, static_cast<uint64_t>(pv + 1));
    }
    if (has_null) continue;
    Config& config = configs[config_key];
    if (config.counts.empty()) {
      config.counts.assign(static_cast<size_t>(card_v), 0);
    }
    ++config.counts[static_cast<size_t>(value)];
    ++config.total;
  }

  double loglik = 0.0;
  int64_t n = 0;
  for (const auto& [key2, config] : configs) {
    (void)key2;
    n += config.total;
    for (int64_t c : config.counts) {
      if (c > 0) {
        loglik += static_cast<double>(c) *
                  std::log(static_cast<double>(c) /
                           static_cast<double>(config.total));
      }
    }
  }
  double params = static_cast<double>(card_v - 1) * parent_space;
  double penalty =
      n > 1 ? 0.5 * std::log(static_cast<double>(n)) * params : params;
  double score = loglik - penalty;
  cache_.emplace(std::move(key), score);
  return score;
}

double BicScorer::Score(const Dag& dag) const {
  double total = 0.0;
  for (int32_t v = 0; v < dag.num_nodes(); ++v) {
    std::vector<int32_t> parents = dag.parents(v);
    std::sort(parents.begin(), parents.end());
    total += FamilyScore(v, parents);
  }
  return total;
}

}  // namespace pgm
}  // namespace guardrail
