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
/// Only the attributes the decode was asked to resolve get codes (and
/// overlay labels). Every other cell keeps its text: a view into the
/// payload, or, for a CSV field with "" escapes and for a JSON string, a
/// copy in a per-request arena. Those attributes have no code column.
///
/// The base schema and the payload must outlive this object, and Label()
/// assumes the base's domains have not changed since the decode.
class DecodedColumns {
 public:
  /// No rows yet. `resolve` lists the attributes to resolve (nullptr: all);
  /// the others keep their text, viewed in `payload` where it lies there.
  DecodedColumns(const Schema* base, std::string_view payload,
                 const std::vector<AttrIndex>* resolve);

  int32_t num_attributes() const {
    return static_cast<int32_t>(columns_.size());
  }
  int64_t num_rows() const { return num_rows_; }

  /// Whether `attr`'s cells were resolved to codes.
  bool resolved(AttrIndex attr) const {
    return text_slot_[static_cast<size_t>(attr)] < 0;
  }

  /// Zero-copy view of rows [begin, begin + count) for
  /// core::CompiledProgram::Evaluate; unresolved attributes read as absent
  /// columns (nullptr).
  ColumnBatch View(int64_t begin, int64_t count) const;

  /// One row, every attribute in schema order; an unresolved attribute's
  /// cell reads kNullValue.
  Row MaterializeRow(int64_t row) const;

  /// Label of `code` (not kNullValue) under resolved `attr`: the base
  /// schema's, or the overlay's for a code past the base domain.
  const std::string& Label(AttrIndex attr, ValueId code) const;

  /// Text of cell (`attr`, `row`) of an unresolved attribute: its label as
  /// decoded, empty for a JSON null.
  std::string_view Text(AttrIndex attr, int64_t row) const {
    const TextRef ref =
        texts_[static_cast<size_t>(row) * text_slots_ +
               static_cast<size_t>(text_slot_[static_cast<size_t>(attr)])];
    const char* source =
        (ref.begin & kArenaBit) != 0 ? arena_.data() : payload_.data();
    return std::string_view(source + (ref.begin & ~kArenaBit), ref.size);
  }

  /// Labels of `attr` the base schema lacks, in first-appearance order;
  /// always empty for an unresolved attribute.
  const std::vector<std::string>& overlay(AttrIndex attr) const {
    return overlay_[static_cast<size_t>(attr)].labels();
  }

 private:
  friend class ColumnWriter;

  /// An unresolved cell's text: `size` bytes at `begin` in the payload, or
  /// in the arena when `begin` carries kArenaBit.
  struct TextRef {
    uint32_t begin;
    uint32_t size;
  };
  static constexpr uint32_t kArenaBit = uint32_t{1} << 31;

  /// Code for `label` under `attr`, adding it to the overlay when unseen.
  ValueId Resolve(AttrIndex attr, std::string_view label);

  /// Where `label` lies: in the payload, or copied into the arena.
  TextRef KeepText(std::string_view label);

  const Schema* base_;
  std::string_view payload_;
  /// Per attribute: -1 when resolved, else its slot among the unresolved
  /// attributes' texts.
  std::vector<int32_t> text_slot_;
  size_t text_slots_ = 0;
  /// Codes of the resolved attributes; empty for the others.
  std::vector<std::vector<ValueId>> columns_;
  /// Unresolved cells' text, row-major: row r's slot s at
  /// r * text_slots_ + s.
  std::vector<TextRef> texts_;
  std::string arena_;
  std::vector<LabelDictionary> overlay_;
  int64_t num_rows_ = 0;
};

/// Decodes request rows (labels, per RowFormat) into columns over `base`,
/// resolving the attributes listed in `resolve` (every attribute when
/// nullptr; a payload of 2 GiB or more always resolves every attribute).
/// A CSV header must name the base's attributes in schema order; a JSON
/// row must carry every attribute exactly once (null for a missing cell).
/// Errors are InvalidArgument, the same whatever `resolve` holds. When a
/// payload has several faults the one reported is, in order: the first
/// syntax fault (CSV grammar, JSON syntax or an unknown JSON attribute), a
/// batch over `max_rows`, then the first header mismatch or
/// repeated/missing JSON attribute.
Result<DecodedColumns> DecodeColumns(
    RowFormat format, std::string_view payload, const Schema& base,
    int64_t max_rows, const std::vector<AttrIndex>* resolve = nullptr);

/// DecodeColumns against `*schema`, materialized as rows. Only a batch that
/// decodes whole extends `*schema`'s domains with its unseen labels (as the
/// offline CSV path would); a rejected batch leaves `*schema` unchanged.
Result<std::vector<Row>> DecodeRows(RowFormat format,
                                    const std::string& payload,
                                    Schema* schema, int64_t max_rows);

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_SERVE_DECODE_H_
