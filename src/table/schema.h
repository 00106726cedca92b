#ifndef GUARDRAIL_TABLE_SCHEMA_H_
#define GUARDRAIL_TABLE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace guardrail {

/// An append-only dictionary of distinct labels, coded densely 0, 1, ... in
/// insertion order. Its open-addressed hash index answers std::string_view
/// probes in place, so decoders resolve a field without building a
/// std::string, and it stores each label once (the index holds only hashes
/// and codes).
class LabelDictionary {
 public:
  int32_t size() const { return static_cast<int32_t>(labels_.size()); }
  const std::vector<std::string>& labels() const { return labels_; }

  /// Code of `label`, or kNullValue when absent.
  ValueId Find(std::string_view label) const;

  /// Code of `label`, appending it when absent.
  ValueId Insert(std::string_view label);

 private:
  /// Find with the label's hash precomputed; needs a non-empty table.
  ValueId Find(std::string_view label, uint32_t hash) const;
  void Place(uint64_t slot);

  std::vector<std::string> labels_;
  /// Power-of-two table at most half full: (32-bit label hash << 32) |
  /// (code + 1), 0 = empty. Linear probing.
  std::vector<uint64_t> slots_;
};

/// A categorical attribute: a name plus an ordered domain of distinct value
/// labels. Cell values are stored as dense indexes (ValueId) into the domain.
class Attribute {
 public:
  explicit Attribute(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Number of distinct values (the attribute's cardinality).
  int32_t domain_size() const { return domain_.size(); }

  /// Label for a code; `code` must be a valid index (not kNullValue).
  const std::string& label(ValueId code) const;

  /// Code for a label, or kNullValue if the label is not in the domain.
  ValueId Lookup(std::string_view label) const;

  /// Code for a label, inserting it into the domain if absent.
  ValueId GetOrInsert(std::string_view label);

  const std::vector<std::string>& domain() const { return domain_.labels(); }

 private:
  std::string name_;
  LabelDictionary domain_;
};

/// An ordered collection of attributes with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  int32_t num_attributes() const {
    return static_cast<int32_t>(attributes_.size());
  }

  const Attribute& attribute(AttrIndex i) const;
  Attribute& attribute(AttrIndex i);

  /// Index of the attribute with this name, or -1 if absent.
  AttrIndex FindAttribute(const std::string& name) const;

  /// Appends a new attribute; the name must be unique.
  Status AddAttribute(Attribute attribute);

  std::vector<std::string> AttributeNames() const;

 private:
  std::vector<Attribute> attributes_;
  std::unordered_map<std::string, AttrIndex> by_name_;
};

}  // namespace guardrail

#endif  // GUARDRAIL_TABLE_SCHEMA_H_
