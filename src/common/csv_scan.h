#ifndef GUARDRAIL_COMMON_CSV_SCAN_H_
#define GUARDRAIL_COMMON_CSV_SCAN_H_

// The body of ScanCsv (common/csv.h) as a template over the sink, so hot
// decoders can scan without a virtual call per field. Everything else
// should call ScanCsv.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/status.h"

namespace guardrail {
namespace csv_internal {

// Where a 64-byte block's field ends and careful bytes lie: bit k of
// `ends` is set when block[k] is ',' or '\n', bit k of `careful` when it is
// '"', '\r' or NUL (bytes only the per-field code may judge).
struct BlockMasks {
  uint64_t ends;
  uint64_t careful;
};

inline constexpr size_t kBlockBytes = 64;

// Classifies text[0, 64). Four 16-byte SSE2 steps where available (the
// block-bitmask technique of Langdale & Lemire, "Parsing Gigabytes of JSON
// per Second"); the byte loop gives the same masks elsewhere.
inline BlockMasks ClassifyBlock(const char* text) {
  BlockMasks masks{0, 0};
#if defined(__SSE2__)
  const __m128i comma = _mm_set1_epi8(',');
  const __m128i lf = _mm_set1_epi8('\n');
  const __m128i cr = _mm_set1_epi8('\r');
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i nul = _mm_setzero_si128();
  for (size_t k = 0; k < 4; ++k) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(text + 16 * k));
    const __m128i ends =
        _mm_or_si128(_mm_cmpeq_epi8(chunk, comma), _mm_cmpeq_epi8(chunk, lf));
    const __m128i careful = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(chunk, cr), _mm_cmpeq_epi8(chunk, quote)),
        _mm_cmpeq_epi8(chunk, nul));
    masks.ends |= static_cast<uint64_t>(static_cast<uint16_t>(
                      _mm_movemask_epi8(ends)))
                  << (16 * k);
    masks.careful |= static_cast<uint64_t>(static_cast<uint16_t>(
                         _mm_movemask_epi8(careful)))
                     << (16 * k);
  }
#else
  for (size_t k = 0; k < kBlockBytes; ++k) {
    const char c = text[k];
    if (c == ',' || c == '\n') masks.ends |= uint64_t{1} << k;
    if (c == '"' || c == '\r' || c == '\0') masks.careful |= uint64_t{1} << k;
  }
#endif
  return masks;
}

// Bytes that end an unquoted field's text (or, for '"' and NUL, reject it).
inline bool IsDelimiterOrQuote(char c) {
  return c == ',' || c == '\n' || c == '\r' || c == '"' || c == '\0';
}

// Index of the first IsDelimiterOrQuote byte in text[from, limit), or
// `limit` when there is none: a block at a time, then a byte loop for the
// last partial block.
inline size_t FindDelimiter(std::string_view text, size_t from,
                            size_t limit) {
  size_t j = from;
  for (; limit - j >= kBlockBytes; j += kBlockBytes) {
    const BlockMasks masks = ClassifyBlock(text.data() + j);
    const uint64_t hits = masks.ends | masks.careful;
    if (hits != 0) return j + static_cast<size_t>(std::countr_zero(hits));
  }
  while (j < limit && !IsDelimiterOrQuote(text[j])) ++j;
  return j;
}

// "row R, column C" with 1-based positions (row 1 is the header).
inline std::string At(size_t row, size_t column) {
  return "row " + std::to_string(row) + ", column " + std::to_string(column);
}

/// ScanCsv's grammar over any sink with CsvSink's Field/EndRecord members.
/// ScanCsv instantiates it with the virtual CsvSink; a decoder that passes
/// its own final sink class gets the per-field calls inlined into the
/// scan loop.
template <typename Sink>
Status ScanCsvWith(std::string_view text, Sink* sink) {
  GUARDRAIL_FAILPOINT("csv.parse");
  const size_t n = text.size();
  // 1-based positions for error context. `row` counts records (header = 1);
  // `column` counts fields within the current record.
  size_t row = 1;
  size_t column = 1;
  size_t header_fields = 0;  // 0 until the header record is complete.
  std::string scratch;  // Unescaped text of a quoted field with "" escapes.

  auto end_record = [&]() -> Status {
    const size_t fields = column - 1;
    if (header_fields == 0) {
      header_fields = fields;
    } else if (fields != header_fields) {
      return Status::InvalidArgument(
          "CSV row has " + std::to_string(fields) +
          " field(s) but the header has " + std::to_string(header_fields) +
          " (row " + std::to_string(row) + ")");
    }
    sink->EndRecord();
    ++row;
    column = 1;
    return Status::OK();
  };
  auto nul_byte = [&]() {
    return Status::InvalidArgument("CSV contains a NUL byte at " +
                                   At(row, column));
  };
  auto too_long = [&]() {
    return Status::InvalidArgument("CSV field exceeds " +
                                   std::to_string(kMaxCsvFieldBytes) +
                                   " bytes at " + At(row, column));
  };

  size_t i = 0;  // Start of the current field.
  while (i < n) {
    // Fast path: walk the field ends of whole 64-byte blocks that start at
    // the current field. Fields that end before the block's first careful
    // byte are plain unquoted text shorter than a block, so they need no
    // per-byte checks; the field holding that byte, a field longer than a
    // block and the input's last partial block take the per-field path
    // below, one field at a time.
    while (n - i >= kBlockBytes) {
      const BlockMasks masks = ClassifyBlock(text.data() + i);
      uint64_t ends = masks.ends;
      if (masks.careful != 0) {
        ends &= (uint64_t{1} << std::countr_zero(masks.careful)) - 1;
      }
      if (ends == 0) break;
      const size_t block = i;
      for (; ends != 0; ends &= ends - 1) {
        const size_t j = block + static_cast<size_t>(std::countr_zero(ends));
        const bool lf = text[j] == '\n';
        if (lf && column == 1 && j == i) {  // A blank line.
          i = j + 1;
          continue;
        }
        sink->Field(std::string_view(text.data() + i, j - i));
        ++column;
        i = j + 1;
        if (lf) GUARDRAIL_RETURN_NOT_OK(end_record());
      }
      if (masks.careful != 0) break;
    }
    if (i >= n) break;
    const char c = text[i];
    // A line break before a record's first field is a blank line; after a
    // comma it ends the record with an empty last field.
    if (column == 1 && (c == '\n' || c == '\r')) {
      i += c == '\r' && i + 1 < n && text[i + 1] == '\n' ? 2 : 1;
      continue;
    }
    std::string_view value;
    size_t j;  // The delimiter after the field, or n.
    if (c == '"') {
      bool escaped = false;
      size_t len = 0;  // Unescaped bytes so far.
      j = i + 1;
      while (true) {
        if (j >= n) {
          return Status::InvalidArgument("unterminated quoted CSV field at " +
                                         At(row, column));
        }
        const char q = text[j];
        if (q == '\0') return nul_byte();
        // A field already at the cap fails on its next byte, the closing
        // quote included.
        if (len >= kMaxCsvFieldBytes) return too_long();
        if (q == '"') {
          if (j + 1 < n && text[j + 1] == '"') {
            if (!escaped) {
              scratch.assign(text.substr(i + 1, j - i - 1));
              escaped = true;
            }
            scratch += '"';
            ++len;
            j += 2;
            continue;
          }
          ++j;
          break;
        }
        if (escaped) scratch += q;
        ++len;
        ++j;
      }
      value = escaped ? std::string_view(scratch) : text.substr(i + 1, len);
      if (j < n) {
        const char d = text[j];
        if (d == '\0') return nul_byte();
        if (d != ',' && d != '\n' && d != '\r') {
          return Status::InvalidArgument(
              "characters after closing quote in CSV field at " +
              At(row, column));
        }
      }
    } else {
      const size_t limit = std::min(n, i + kMaxCsvFieldBytes);
      j = FindDelimiter(text, i, limit);
      if (j < n) {
        const char d = text[j];
        if (d == '\0') return nul_byte();
        if (j - i >= kMaxCsvFieldBytes) return too_long();
        if (d == '"') {
          // RFC 4180: a quote may only open a field or escape inside one.
          // `ab"cd` would silently mis-parse; reject instead.
          return Status::InvalidArgument(
              "misplaced quote inside unquoted CSV field at " +
              At(row, column));
        }
      }
      value = text.substr(i, j - i);
    }
    sink->Field(value);
    ++column;
    // Past the delimiter; the '\n' of a CRLF then reads as a blank line.
    i = j + 1;
    if (j == n || text[j] != ',') GUARDRAIL_RETURN_NOT_OK(end_record());
  }
  if (column > 1) {  // A trailing comma leaves one last, empty field.
    sink->Field(std::string_view());
    ++column;
    GUARDRAIL_RETURN_NOT_OK(end_record());
  }
  if (header_fields == 0) return Status::InvalidArgument("empty CSV input");
  return Status::OK();
}


}  // namespace csv_internal
}  // namespace guardrail

#endif  // GUARDRAIL_COMMON_CSV_SCAN_H_
