// Packed row images: the storage form of one row under a Schema, as one
// contiguous run of bytes (the MVCC row store keeps each version's image in
// the same allocation as its stamps).
//
// Layout, for a schema of n columns:
//
//   [ n 8-byte slots ][ null bitmap, ceil(n/8) bytes ][ string bytes ]
//
// An INT64 slot holds the value, a DOUBLE slot the IEEE-754 bits (an INT64
// cell in a DOUBLE column is stored widened), a STRING slot the string's
// offset from the image start and its length (two uint32s). A NULL cell sets
// its bitmap bit and leaves a zero slot. String bytes follow the bitmap in
// column order, unterminated. Slots are read and written with memcpy, so an
// image needs no particular alignment.

#ifndef HTAP_TYPES_ROW_IMAGE_H_
#define HTAP_TYPES_ROW_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// The image layout of one schema. Encode requires a row that passes
/// CheckRow against that schema and whose EncodedSize is at most
/// kMaxImageBytes.
class RowImageLayout {
 public:
  /// String offsets are 32-bit, so an image ends within 4 GiB.
  static constexpr size_t kMaxImageBytes = UINT32_MAX;

  explicit RowImageLayout(const Schema& schema);

  /// Bytes Encode(row) writes.
  size_t EncodedSize(const Row& row) const;

  /// Writes the image of `row` to `out`, which holds EncodedSize(row) bytes.
  void Encode(const Row& row, uint8_t* out) const;

  /// Size of an encoded image: what EncodedSize returned for its row.
  size_t ImageSize(const uint8_t* image) const;

  /// Decodes `image` into *out, reusing its cells (a string cell keeps its
  /// buffer), so one Row can serve as a scan's scratch.
  void Decode(const uint8_t* image, Row* out) const;

 private:
  std::vector<Type> types_;
  std::vector<size_t> string_cols_;
  size_t fixed_bytes_;  // slots + null bitmap
};

}  // namespace htap

#endif  // HTAP_TYPES_ROW_IMAGE_H_
