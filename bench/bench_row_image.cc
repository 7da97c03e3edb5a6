// Allocation probe: resident bytes per MVCC row version, stored boxed (a
// header plus a `Row`, the row store's former version layout) or packed (a
// header plus a RowImageLayout image in one allocation, the current one).
// All-INT64 rows of 6 and 10 columns; RSS is read from /proc/self/statm
// before and after allocating 200,000 versions. Their pointers go to one
// array made resident before the first measurement, and no version is
// freed, so each measurement starts on fresh memory.
//
//   ./bench_row_image

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "types/row.h"
#include "types/row_image.h"

namespace {

using htap::Row;

struct Boxed {
  std::atomic<uint64_t> begin{0}, end{0};
  Row data;
  Boxed* older = nullptr;
};

struct Packed {
  std::atomic<uint64_t> begin{0}, end{0};
  Packed* older = nullptr;
};

long RssBytes() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * 4096;
}

constexpr size_t kVersions = 200000;

double BytesPerVersion(size_t cols, bool packed, void** versions) {
  std::vector<htap::ColumnDef> defs;
  std::vector<htap::Value> cells;
  for (size_t c = 0; c < cols; ++c) {
    defs.emplace_back(std::to_string(c), htap::Type::kInt64);
    cells.emplace_back(static_cast<int64_t>(c * 1000));
  }
  const htap::RowImageLayout layout{htap::Schema(defs)};
  const Row row(cells);
  const long before = RssBytes();
  for (size_t i = 0; i < kVersions; ++i) {
    if (packed) {
      const size_t bytes = sizeof(Packed) + layout.EncodedSize(row);
      auto* v = new (::operator new(bytes)) Packed();
      layout.Encode(row, reinterpret_cast<uint8_t*>(v + 1));
      versions[i] = v;
    } else {
      auto* v = new Boxed();
      v->data = row;
      versions[i] = v;
    }
  }
  return static_cast<double>(RssBytes() - before) / kVersions;
}

}  // namespace

int main() {
  std::vector<void*> slots(4 * kVersions, nullptr);
  void** next = slots.data();
  std::printf("%-8s %14s %14s\n", "columns", "boxed B/ver", "packed B/ver");
  for (size_t cols : {6, 10}) {
    const double boxed = BytesPerVersion(cols, false, next);
    next += kVersions;
    const double packed = BytesPerVersion(cols, true, next);
    next += kVersions;
    std::printf("%-8zu %14.1f %14.1f\n", cols, boxed, packed);
  }
  return 0;
}
