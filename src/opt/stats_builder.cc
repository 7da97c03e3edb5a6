#include "opt/stats_builder.h"

#include <algorithm>

namespace htap {

void KmvSketch::Add(uint64_t hash) {
  if (mins_.size() >= k_ && hash >= *mins_.rbegin()) return;
  if (mins_.insert(hash).second && mins_.size() > k_)
    mins_.erase(std::prev(mins_.end()));
}

double KmvSketch::Estimate() const {
  if (mins_.size() < k_) return static_cast<double>(mins_.size());
  const double kth = static_cast<double>(*mins_.rbegin());
  if (kth <= 0) return static_cast<double>(mins_.size());
  constexpr double kHashSpace = 18446744073709551616.0;  // 2^64
  return (static_cast<double>(k_) - 1.0) * kHashSpace / kth;
}

TableStatsBuilder::TableStatsBuilder(size_t num_columns, size_t kmv_k)
    : kmv_k_(kmv_k) {
  cols_.resize(num_columns);
  for (ColumnAcc& c : cols_) c.sketch = KmvSketch(kmv_k_);
}

void TableStatsBuilder::Reset() {
  for (ColumnAcc& c : cols_) {
    c.min = Value();
    c.max = Value();
    c.has_bounds = false;
    c.sketch.Reset();
    c.values = 0;
    c.nulls = 0;
    c.width_sum = 0;
  }
  deletes_since_recompute_ = 0;
}

namespace {

bool AsTyped(const Value& v, int64_t* out) {
  if (!v.is_int64()) return false;
  *out = v.AsInt64();
  return true;
}
bool AsTyped(const Value& v, double* out) {
  if (!v.is_double()) return false;
  *out = v.AsDouble();
  return true;
}
bool AsTyped(const Value& v, std::string* out) {
  if (!v.is_string()) return false;
  *out = v.AsString();
  return true;
}

uint64_t TypedHash(int64_t v) { return HashInt64(v); }
uint64_t TypedHash(double v) { return HashDouble(v); }
uint64_t TypedHash(const std::string& v) { return HashString(v); }

double TypedWidth(int64_t) { return 8.0; }
double TypedWidth(double) { return 8.0; }
double TypedWidth(const std::string& v) {
  return static_cast<double>(v.size());
}

/// One typed pass of a column into its accumulator fields. The bounds run
/// typed from the stored ones when those have this type, which keeps the
/// first of equal extremes exactly as Value ordering row by row would.
template <typename T, typename Acc, typename Keep>
void Accumulate(Acc* acc, const ColumnVector& v, const std::vector<T>& vals,
                Keep keep) {
  T mn{}, mx{};
  const bool seeded =
      acc->has_bounds && AsTyped(acc->min, &mn) && AsTyped(acc->max, &mx);
  bool has = seeded;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (!keep(i)) continue;
    if (v.IsNull(i)) {
      ++acc->nulls;
      continue;
    }
    const T& x = vals[i];
    acc->sketch.Add(TypedHash(x));
    acc->width_sum += TypedWidth(x);
    ++acc->values;
    if (!has) {
      mn = x;
      mx = x;
      has = true;
    } else {
      if (x < mn) mn = x;
      if (mx < x) mx = x;
    }
  }
  if (!has) return;
  if (seeded || !acc->has_bounds) {
    acc->min = Value(mn);
    acc->max = Value(mx);
    acc->has_bounds = true;
  } else {
    // Stored bounds of another type: merge through Value ordering.
    if (Value(mn) < acc->min) acc->min = Value(mn);
    if (acc->max < Value(mx)) acc->max = Value(mx);
  }
}

}  // namespace

template <typename Keep>
void TableStatsBuilder::AddColumn(size_t c, const ColumnVector& v,
                                  Keep keep) {
  ColumnAcc* acc = &cols_[c];
  switch (v.type()) {
    case Type::kInt64: Accumulate(acc, v, v.ints(), keep); break;
    case Type::kDouble: Accumulate(acc, v, v.doubles(), keep); break;
    case Type::kString: Accumulate(acc, v, v.strings(), keep); break;
  }
}

void TableStatsBuilder::ApplyChunks(const std::vector<DeltaChunk>& chunks) {
  for (const DeltaChunk& chunk : chunks) {
    for (ChangeOp op : chunk.ops)
      if (op == ChangeOp::kDelete) ++deletes_since_recompute_;
    const size_t n = std::min(cols_.size(), chunk.columns.size());
    for (size_t c = 0; c < n; ++c)
      AddColumn(c, chunk.columns[c], [&](size_t i) {
        return chunk.ops[i] != ChangeOp::kDelete;
      });
  }
}

void TableStatsBuilder::RecomputeFromColumnTable(const ColumnTable& table) {
  Reset();
  ReadGuard rg(table.latch());
  for (size_t g = 0; g < table.num_groups_unlocked(); ++g) {
    const RowGroup* group = table.group_unlocked(g);
    const size_t n = std::min(cols_.size(), group->columns.size());
    for (size_t c = 0; c < n; ++c)
      AddColumn(c, group->columns[c].Decode(),
                [&](size_t i) { return !group->deleted.Test(i); });
  }
}

void TableStatsBuilder::RecomputeFromColumns(
    const std::vector<ColumnVector>& columns) {
  Reset();
  const size_t n = std::min(cols_.size(), columns.size());
  for (size_t c = 0; c < n; ++c)
    AddColumn(c, columns[c], [](size_t) { return true; });
}

TableStats TableStatsBuilder::Snapshot(size_t row_count) const {
  TableStats st;
  st.row_count = row_count;
  st.columns.resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    const ColumnAcc& acc = cols_[c];
    ColumnStats& cs = st.columns[c];
    if (acc.has_bounds) {
      cs.min = acc.min;
      cs.max = acc.max;
    }
    cs.ndv = std::max(1.0, acc.sketch.Estimate());
    const size_t seen = acc.values + acc.nulls;
    cs.null_frac = seen == 0 ? 0 : static_cast<double>(acc.nulls) / seen;
    cs.avg_width =
        acc.values == 0 ? 8 : acc.width_sum / static_cast<double>(acc.values);
  }
  return st;
}

}  // namespace htap
