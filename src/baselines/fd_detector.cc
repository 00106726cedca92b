#include "baselines/fd_detector.h"

#include <algorithm>

#include "common/hash.h"

namespace guardrail {
namespace baselines {

uint64_t FdDetector::HashCombo(const Table& table, RowIndex row,
                               const std::vector<AttrIndex>& attrs,
                               bool* has_null) {
  uint64_t key = kFnvShortOffset;
  *has_null = false;
  for (AttrIndex a : attrs) {
    ValueId v = table.Get(row, a);
    if (v == kNullValue) {
      *has_null = true;
      return 0;
    }
    key = FnvMix(key, static_cast<uint64_t>(v + 1));
    key = FnvMix(key, static_cast<uint64_t>(a + 1));
  }
  return key;
}

void FdDetector::Fit(const Table& train) {
  mappings_.clear();
  for (const Fd& fd : fds_) {
    FdMapping mapping;
    mapping.fd = fd;
    // Histogram of RHS values per LHS combination.
    std::unordered_map<uint64_t, std::unordered_map<ValueId, int64_t>> hist;
    for (RowIndex r = 0; r < train.num_rows(); ++r) {
      bool has_null = false;
      uint64_t key = HashCombo(train, r, fd.lhs, &has_null);
      if (has_null) continue;
      ValueId v = train.Get(r, fd.rhs);
      if (v == kNullValue) continue;
      ++hist[key][v];
    }
    for (const auto& [key, values] : hist) {
      ValueId mode = kNullValue;
      int64_t mode_count = 0, total = 0;
      for (const auto& [v, c] : values) {
        total += c;
        if (c > mode_count || (c == mode_count && v < mode)) {
          mode = v;
          mode_count = c;
        }
      }
      if (total < options_.min_support) continue;
      if (static_cast<double>(mode_count) <
          options_.min_confidence * static_cast<double>(total)) {
        continue;
      }
      mapping.expected.emplace(key, mode);
    }
    if (!mapping.expected.empty()) mappings_.push_back(std::move(mapping));
  }
}

std::vector<bool> FdDetector::Detect(const Table& test) const {
  std::vector<bool> flags(static_cast<size_t>(test.num_rows()), false);
  for (const auto& mapping : mappings_) {
    for (RowIndex r = 0; r < test.num_rows(); ++r) {
      if (flags[static_cast<size_t>(r)]) continue;
      bool has_null = false;
      uint64_t key = HashCombo(test, r, mapping.fd.lhs, &has_null);
      if (has_null) continue;
      auto it = mapping.expected.find(key);
      if (it == mapping.expected.end()) continue;
      ValueId v = test.Get(r, mapping.fd.rhs);
      if (v != kNullValue && v != it->second) {
        flags[static_cast<size_t>(r)] = true;
      }
    }
  }
  return flags;
}

int64_t FdDetector::num_mappings() const {
  int64_t total = 0;
  for (const auto& mapping : mappings_) {
    total += static_cast<int64_t>(mapping.expected.size());
  }
  return total;
}

std::vector<bool> CfdDetector::Detect(const Table& test) const {
  std::vector<bool> flags(static_cast<size_t>(test.num_rows()), false);
  for (RowIndex r = 0; r < test.num_rows(); ++r) {
    for (const auto& cfd : cfds_) {
      bool matches = true;
      for (size_t i = 0; i < cfd.lhs.size(); ++i) {
        if (test.Get(r, cfd.lhs[i]) != cfd.lhs_values[i]) {
          matches = false;
          break;
        }
      }
      if (!matches) continue;
      ValueId v = test.Get(r, cfd.rhs);
      if (v != kNullValue && v != cfd.rhs_value) {
        flags[static_cast<size_t>(r)] = true;
        break;
      }
    }
  }
  return flags;
}

}  // namespace baselines
}  // namespace guardrail
