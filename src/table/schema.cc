#include "table/schema.h"

#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace guardrail {

namespace {

// 32-bit hash of a label: 64-bit multiply-xorshift mixing over 8-byte
// words, with overlapping loads for the tail so no byte loop runs.
uint32_t HashLabel(std::string_view label) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = label.data();
  const size_t n = label.size();
  auto load64 = [](const char* at) {
    uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    return word;
  };
  auto load32 = [](const char* at) {
    uint32_t word;
    std::memcpy(&word, at, sizeof(word));
    return uint64_t{word};
  };
  auto mix = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  uint64_t h = (n + 1) * kMul;
  if (n >= 8) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) h = mix(h, load64(p + i));
    if (i < n) h = mix(h, load64(p + n - 8));
  } else if (n >= 4) {
    h = mix(h, (load32(p) << 32) | load32(p + n - 4));
  } else if (n > 0) {
    h = mix(h, (uint64_t{static_cast<unsigned char>(p[0])} << 16) |
                   (uint64_t{static_cast<unsigned char>(p[n / 2])} << 8) |
                   static_cast<unsigned char>(p[n - 1]));
  }
  h = (h ^ (h >> 29)) * kMul;
  return static_cast<uint32_t>(h >> 32);
}

}  // namespace

ValueId LabelDictionary::Find(std::string_view label) const {
  return slots_.empty() ? kNullValue : Find(label, HashLabel(label));
}

ValueId LabelDictionary::Find(std::string_view label, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return kNullValue;
    if (static_cast<uint32_t>(slot >> 32) == hash) {
      const ValueId code = static_cast<ValueId>(static_cast<uint32_t>(slot)) - 1;
      if (labels_[static_cast<size_t>(code)] == label) return code;
    }
  }
}

ValueId LabelDictionary::Insert(std::string_view label) {
  const uint32_t hash = HashLabel(label);
  ValueId code = slots_.empty() ? kNullValue : Find(label, hash);
  if (code != kNullValue) return code;
  code = size();
  labels_.emplace_back(label);
  if (2 * labels_.size() > slots_.size()) {
    // Grow to keep the table at most half full; slots carry their hashes,
    // so no label is rehashed.
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), 0);
    for (uint64_t slot : old) {
      if (slot != 0) Place(slot);
    }
  }
  Place((uint64_t{hash} << 32) | static_cast<uint32_t>(code + 1));
  return code;
}

void LabelDictionary::Place(uint64_t slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(slot >> 32) & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = slot;
}

const std::string& Attribute::label(ValueId code) const {
  GUARDRAIL_CHECK_GE(code, 0);
  GUARDRAIL_CHECK_LT(code, domain_size());
  return domain_.labels()[static_cast<size_t>(code)];
}

ValueId Attribute::Lookup(std::string_view label) const {
  return domain_.Find(label);
}

ValueId Attribute::GetOrInsert(std::string_view label) {
  return domain_.Insert(label);
}

Schema::Schema(std::vector<Attribute> attributes) {
  for (auto& attr : attributes) {
    GUARDRAIL_CHECK_OK(AddAttribute(std::move(attr)));
  }
}

const Attribute& Schema::attribute(AttrIndex i) const {
  GUARDRAIL_CHECK_GE(i, 0);
  GUARDRAIL_CHECK_LT(i, num_attributes());
  return attributes_[static_cast<size_t>(i)];
}

Attribute& Schema::attribute(AttrIndex i) {
  GUARDRAIL_CHECK_GE(i, 0);
  GUARDRAIL_CHECK_LT(i, num_attributes());
  return attributes_[static_cast<size_t>(i)];
}

AttrIndex Schema::FindAttribute(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

Status Schema::AddAttribute(Attribute attribute) {
  if (by_name_.count(attribute.name()) > 0) {
    return Status::AlreadyExists("attribute " + attribute.name());
  }
  by_name_.emplace(attribute.name(), num_attributes());
  attributes_.push_back(std::move(attribute));
  return Status::OK();
}

std::vector<std::string> Schema::AttributeNames() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const auto& attr : attributes_) names.push_back(attr.name());
  return names;
}

}  // namespace guardrail
