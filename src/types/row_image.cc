#include "types/row_image.h"

#include <cassert>
#include <cstring>
#include <string>

namespace htap {

namespace {

constexpr size_t kSlotBytes = 8;

const uint8_t* Slot(const uint8_t* image, size_t col) {
  return image + col * kSlotBytes;
}

// A string slot: offset of the bytes from the image start, then length.
void StringRef(const uint8_t* image, size_t col, uint32_t* offset,
               uint32_t* length) {
  std::memcpy(offset, Slot(image, col), 4);
  std::memcpy(length, Slot(image, col) + 4, 4);
}

}  // namespace

RowImageLayout::RowImageLayout(const Schema& schema) {
  const size_t n = schema.num_columns();
  types_.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    types_.push_back(schema.column(c).type);
    if (types_.back() == Type::kString) string_cols_.push_back(c);
  }
  fixed_bytes_ = n * kSlotBytes + (n + 7) / 8;
}

size_t RowImageLayout::EncodedSize(const Row& row) const {
  size_t bytes = fixed_bytes_;
  for (size_t c : string_cols_) {
    const Value& v = row.Get(c);
    if (!v.is_null()) bytes += v.AsString().size();
  }
  return bytes;
}

void RowImageLayout::Encode(const Row& row, uint8_t* out) const {
  assert(row.size() == types_.size());
  const size_t n = types_.size();
  uint8_t* nulls = out + n * kSlotBytes;
  std::memset(nulls, 0, fixed_bytes_ - n * kSlotBytes);
  size_t tail = fixed_bytes_;
  for (size_t c = 0; c < n; ++c) {
    const Value& v = row.Get(c);
    uint8_t* slot = out + c * kSlotBytes;
    if (v.is_null()) {
      nulls[c / 8] |= static_cast<uint8_t>(1u << (c % 8));
      std::memset(slot, 0, kSlotBytes);
      continue;
    }
    switch (types_[c]) {
      case Type::kInt64: {
        const int64_t x = v.AsInt64();
        std::memcpy(slot, &x, kSlotBytes);
        break;
      }
      case Type::kDouble: {
        const double x = v.AsDouble();  // widens an INT64 cell
        std::memcpy(slot, &x, kSlotBytes);
        break;
      }
      case Type::kString: {
        const std::string& s = v.AsString();
        assert(tail + s.size() <= kMaxImageBytes);
        const auto offset = static_cast<uint32_t>(tail);
        const auto length = static_cast<uint32_t>(s.size());
        std::memcpy(slot, &offset, 4);
        std::memcpy(slot + 4, &length, 4);
        if (!s.empty()) std::memcpy(out + tail, s.data(), s.size());
        tail += s.size();
        break;
      }
    }
  }
}

size_t RowImageLayout::ImageSize(const uint8_t* image) const {
  // NULL string slots are zero, so they add no length.
  size_t bytes = fixed_bytes_;
  for (size_t c : string_cols_) {
    uint32_t offset = 0, length = 0;
    StringRef(image, c, &offset, &length);
    bytes += length;
  }
  return bytes;
}

void RowImageLayout::Decode(const uint8_t* image, Row* out) const {
  const size_t n = types_.size();
  if (out->size() != n) *out = Row(std::vector<Value>(n));
  const uint8_t* nulls = image + n * kSlotBytes;
  for (size_t c = 0; c < n; ++c) {
    Value& cell = out->Mutable(c);
    if ((nulls[c / 8] >> (c % 8)) & 1u) {
      cell = Value();
      continue;
    }
    switch (types_[c]) {
      case Type::kInt64: {
        int64_t x = 0;
        std::memcpy(&x, Slot(image, c), kSlotBytes);
        cell = Value(x);
        break;
      }
      case Type::kDouble: {
        double x = 0;
        std::memcpy(&x, Slot(image, c), kSlotBytes);
        cell = Value(x);
        break;
      }
      case Type::kString: {
        uint32_t offset = 0, length = 0;
        StringRef(image, c, &offset, &length);
        cell.AssignString(
            std::string_view(reinterpret_cast<const char*>(image) + offset,
                             length));
        break;
      }
    }
  }
}

}  // namespace htap
