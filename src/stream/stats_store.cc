#include "stream/stats_store.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace guardrail {
namespace stream {

void StatsStore::Reset(int32_t num_attributes) {
  GUARDRAIL_CHECK_GE(num_attributes, 0);
  num_attributes_ = num_attributes;
  num_rows_ = 0;
  const size_t n = static_cast<size_t>(num_attributes);
  pairs_.assign(n * (n - (n > 0 ? 1 : 0)) / 2, PairTable());
  marginals_.assign(n, {});
}

void StatsStore::GrowPair(PairTable* table, int32_t card_x, int32_t card_y) {
  if (card_x <= table->card_x && card_y <= table->card_y) return;
  const int32_t new_x = std::max(card_x, table->card_x);
  const int32_t new_y = std::max(card_y, table->card_y);
  std::vector<int64_t> grown(static_cast<size_t>(new_x) *
                                 static_cast<size_t>(new_y),
                             0);
  for (int32_t vx = 0; vx < table->card_x; ++vx) {
    for (int32_t vy = 0; vy < table->card_y; ++vy) {
      grown[static_cast<size_t>(vx) * static_cast<size_t>(new_y) +
            static_cast<size_t>(vy)] =
          table->counts[static_cast<size_t>(vx) *
                            static_cast<size_t>(table->card_y) +
                        static_cast<size_t>(vy)];
    }
  }
  table->card_x = new_x;
  table->card_y = new_y;
  table->counts = std::move(grown);
}

void StatsStore::IngestBatch(const ColumnBatch& batch) {
  const int32_t n = num_attributes_;
  GUARDRAIL_CHECK_GE(batch.width(), n);
  const int64_t rows = batch.num_rows();
  if (rows == 0 || n == 0) {
    num_rows_ += rows;
    return;
  }

  // One pass per attribute: the batch's max code bounds the dimension growth
  // so the counting loops below never range-check.
  std::vector<int32_t> max_card(static_cast<size_t>(n), 0);
  for (AttrIndex a = 0; a < n; ++a) {
    const ValueId* col = batch.column(a);
    GUARDRAIL_CHECK(col != nullptr)
        << "StatsStore needs every column materialized (attr " << a << ")";
    ValueId max_code = -1;
    for (int64_t r = 0; r < rows; ++r) {
      if (col[r] != kNullValue && col[r] > max_code) max_code = col[r];
    }
    max_card[static_cast<size_t>(a)] = static_cast<int32_t>(max_code + 1);
    auto& marginal = marginals_[static_cast<size_t>(a)];
    if (static_cast<int32_t>(marginal.size()) < max_code + 1) {
      marginal.resize(static_cast<size_t>(max_code + 1), 0);
    }
    for (int64_t r = 0; r < rows; ++r) {
      if (col[r] != kNullValue) ++marginal[static_cast<size_t>(col[r])];
    }
  }

  for (AttrIndex x = 0; x < n; ++x) {
    const ValueId* cx = batch.column(x);
    for (AttrIndex y = x + 1; y < n; ++y) {
      const ValueId* cy = batch.column(y);
      PairTable& table = pairs_[PairIndex(x, y)];
      GrowPair(&table, max_card[static_cast<size_t>(x)],
               max_card[static_cast<size_t>(y)]);
      const size_t stride = static_cast<size_t>(table.card_y);
      int64_t* counts = table.counts.data();
      int64_t counted = 0;
      for (int64_t r = 0; r < rows; ++r) {
        const ValueId vx = cx[r];
        const ValueId vy = cy[r];
        if (vx == kNullValue || vy == kNullValue) continue;
        ++counts[static_cast<size_t>(vx) * stride + static_cast<size_t>(vy)];
        ++counted;
      }
      table.total += counted;
    }
  }
  num_rows_ += rows;
}

void StatsStore::IngestTable(const Table& table, int64_t begin,
                             int64_t count) {
  if (num_attributes_ == 0 && table.num_columns() > 0) {
    Reset(table.num_columns());
  }
  if (count < 0) count = table.num_rows() - begin;
  if (count <= 0) return;
  IngestBatch(ColumnBatch::FromTable(table, begin, count));
}

void StatsStore::Merge(const StatsStore& other) {
  GUARDRAIL_CHECK_EQ(num_attributes_, other.num_attributes_);
  const int32_t n = num_attributes_;
  for (AttrIndex a = 0; a < n; ++a) {
    const auto& theirs = other.marginals_[static_cast<size_t>(a)];
    auto& ours = marginals_[static_cast<size_t>(a)];
    if (ours.size() < theirs.size()) ours.resize(theirs.size(), 0);
    for (size_t v = 0; v < theirs.size(); ++v) ours[v] += theirs[v];
  }
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const PairTable& theirs = other.pairs_[i];
    if (theirs.total == 0 && theirs.card_x == 0) continue;
    PairTable& ours = pairs_[i];
    GrowPair(&ours, theirs.card_x, theirs.card_y);
    for (int32_t vx = 0; vx < theirs.card_x; ++vx) {
      for (int32_t vy = 0; vy < theirs.card_y; ++vy) {
        ours.counts[static_cast<size_t>(vx) *
                        static_cast<size_t>(ours.card_y) +
                    static_cast<size_t>(vy)] +=
            theirs.counts[static_cast<size_t>(vx) *
                              static_cast<size_t>(theirs.card_y) +
                          static_cast<size_t>(vy)];
      }
    }
    ours.total += theirs.total;
  }
  num_rows_ += other.num_rows_;
}

const StatsStore::PairTable& StatsStore::pair(AttrIndex x, AttrIndex y) const {
  GUARDRAIL_CHECK_LT(x, y);
  GUARDRAIL_CHECK_LT(y, num_attributes_);
  return pairs_[PairIndex(x, y)];
}

uint64_t StatsStore::ContentHash() const {
  uint64_t h = kFnvOffset;
  auto mix = [&h](uint64_t v) { h = FnvMix(h, v); };
  mix(static_cast<uint64_t>(num_attributes_));
  mix(static_cast<uint64_t>(num_rows_));
  for (const auto& marginal : marginals_) {
    // Trailing zero counts from dimension growth must not perturb the hash:
    // hash only up to the last non-zero entry.
    size_t last = marginal.size();
    while (last > 0 && marginal[last - 1] == 0) --last;
    mix(last);
    for (size_t v = 0; v < last; ++v) {
      mix(static_cast<uint64_t>(marginal[v]));
    }
  }
  for (const PairTable& table : pairs_) {
    mix(static_cast<uint64_t>(table.total));
    for (int32_t vx = 0; vx < table.card_x; ++vx) {
      for (int32_t vy = 0; vy < table.card_y; ++vy) {
        int64_t c = table.Count(vx, vy);
        if (c != 0) {
          mix(static_cast<uint64_t>(vx));
          mix(static_cast<uint64_t>(vy));
          mix(static_cast<uint64_t>(c));
        }
      }
    }
  }
  return h;
}

}  // namespace stream
}  // namespace guardrail
