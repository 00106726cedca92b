#ifndef GUARDRAIL_SERVE_DECODE_H_
#define GUARDRAIL_SERVE_DECODE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "table/column_batch.h"
#include "table/schema.h"

namespace guardrail {
namespace serve {

/// A request's rows decoded from the wire payload straight into
/// dictionary-coded columns, resolved against an immutable base schema (a
/// published snapshot's, or a stream's). Labels the base has never seen
/// live in a request-local overlay instead of a copy of the schema: the
/// k-th unseen label of an attribute, in first-appearance order, gets code
/// `base.attribute(a).domain_size() + k`, the code GetOrInsert on a copy of
/// the base would mint. The compiled evaluator treats those codes as "no
/// branch fires", exactly as it treats fresh codes on a copy.
///
/// The base schema must outlive this object, and Label() assumes its
/// domains have not changed since the decode.
class DecodedColumns {
 public:
  explicit DecodedColumns(const Schema* base);

  int32_t num_attributes() const {
    return static_cast<int32_t>(columns_.size());
  }
  int64_t num_rows() const { return num_rows_; }

  /// Zero-copy view of rows [begin, begin + count) for
  /// core::CompiledProgram::Evaluate.
  ColumnBatch View(int64_t begin, int64_t count) const;

  /// One row, every attribute in schema order.
  Row MaterializeRow(int64_t row) const;

  /// Label of `code` (not kNullValue) under `attr`: the base schema's, or
  /// the overlay's for a code past the base domain.
  const std::string& Label(AttrIndex attr, ValueId code) const;

  /// Labels of `attr` the base schema lacks, in first-appearance order.
  const std::vector<std::string>& overlay(AttrIndex attr) const {
    return overlay_[static_cast<size_t>(attr)].labels();
  }

 private:
  friend class ColumnWriter;

  /// Code for `label` under `attr`, adding it to the overlay when unseen.
  ValueId Resolve(AttrIndex attr, std::string_view label);

  const Schema* base_;
  std::vector<std::vector<ValueId>> columns_;
  std::vector<LabelDictionary> overlay_;
  int64_t num_rows_ = 0;
};

/// Decodes request rows (labels, per RowFormat) into columns over `base`.
/// A CSV header must name the base's attributes in schema order; a JSON
/// row must carry every attribute exactly once (null for a missing cell).
/// Errors are InvalidArgument. When a payload has several faults the one
/// reported is, in order: the first syntax fault (CSV grammar, JSON syntax
/// or an unknown JSON attribute), a batch over `max_rows`, then the first
/// header mismatch or repeated/missing JSON attribute.
Result<DecodedColumns> DecodeColumns(RowFormat format,
                                     std::string_view payload,
                                     const Schema& base, int64_t max_rows);

/// DecodeColumns against `*schema`, materialized as rows. Only a batch that
/// decodes whole extends `*schema`'s domains with its unseen labels (as the
/// offline CSV path would); a rejected batch leaves `*schema` unchanged.
Result<std::vector<Row>> DecodeRows(RowFormat format,
                                    const std::string& payload,
                                    Schema* schema, int64_t max_rows);

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_SERVE_DECODE_H_
