#include "columnar/column_table.h"

#include "columnar/compression_advisor.h"

namespace htap {

void ColumnTable::EnableCompressionAdvisor(bool on) {
  WriteGuard g(latch_);
  advise_encodings_ = on;
}

std::vector<ColumnVector> RowsToColumns(const Schema& schema,
                                        const std::vector<Row>& rows) {
  std::vector<ColumnVector> columns;
  columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnVector& col = columns.emplace_back(schema.column(c).type);
    col.Reserve(rows.size());
    for (const Row& r : rows) col.AppendValue(r.Get(c));
  }
  return columns;
}

void ColumnTable::AppendBatch(const std::vector<Row>& rows, CSN up_to_csn) {
  if (!rows.empty()) {
    WriteGuard g(latch_);
    AppendColumnsLocked(RowsToColumns(schema_, rows));
  }
  // order: release — freshness probes read merged_csn_ with acquire outside
  // the latch; the merged rows must be visible before the watermark.
  merged_csn_.store(up_to_csn, std::memory_order_release);
}

void ColumnTable::AppendColumnsLocked(
    const std::vector<ColumnVector>& columns) {
  const size_t n = columns.empty() ? 0 : columns[0].size();
  if (n == 0) return;
  const std::vector<int64_t>& keys =
      columns[static_cast<size_t>(schema_.pk_index())].ints();
  // Updates: delete-mark existing positions first.
  for (size_t i = 0; i < n; ++i) {
    const auto it = key_index_.find(keys[i]);
    if (it != key_index_.end()) {
      groups_[it->second.first]->deleted.Set(it->second.second);
    }
  }

  auto group = std::make_unique<RowGroup>();
  group->num_rows = n;
  group->keys.assign(keys.begin(), keys.begin() + static_cast<long>(n));
  group->deleted.Resize(n);

  group->columns.reserve(columns.size());
  for (const ColumnVector& vec : columns) {
    group->columns.push_back(
        advise_encodings_
            ? Segment::BuildWithEncoding(vec, AdviseEncoding(vec).chosen)
            : Segment::Build(vec));
  }

  // A key repeated within the batch is an update of its earlier copy.
  const uint32_t gidx = static_cast<uint32_t>(groups_.size());
  for (size_t i = 0; i < n; ++i) {
    const auto pos = std::make_pair(gidx, static_cast<uint32_t>(i));
    const auto [it, fresh] = key_index_.try_emplace(group->keys[i], pos);
    if (!fresh) {
      if (it->second.first == gidx) group->deleted.Set(it->second.second);
      it->second = pos;
    }
  }
  groups_.push_back(std::move(group));
}

bool ColumnTable::DeleteKey(Key key, CSN csn) {
  WriteGuard g(latch_);
  const bool found = DeleteKeyLocked(key);
  if (csn > merged_csn_.load(std::memory_order_relaxed))
    // order: release — as AppendBatch: the delete must be visible before
    // the watermark that advertises it.
    merged_csn_.store(csn, std::memory_order_release);
  return found;
}

bool ColumnTable::DeleteKeyLocked(Key key) {
  const auto it = key_index_.find(key);
  if (it == key_index_.end()) return false;
  groups_[it->second.first]->deleted.Set(it->second.second);
  key_index_.erase(it);
  return true;
}

void ColumnTable::ApplyLocked(const std::vector<Key>& deletes,
                              const std::vector<ColumnVector>& columns,
                              CSN up_to_csn) {
  for (Key k : deletes) DeleteKeyLocked(k);
  AppendColumnsLocked(columns);
  // order: release — as AppendBatch.
  merged_csn_.store(up_to_csn, std::memory_order_release);
}

void ColumnTable::Clear() {
  WriteGuard g(latch_);
  ClearLocked();
}

void ColumnTable::ClearLocked() {
  groups_.clear();
  key_index_.clear();
  // order: release — the reset store must not reorder before the clears.
  merged_csn_.store(0, std::memory_order_release);
}

size_t ColumnTable::Compact() {
  WriteGuard g(latch_);
  size_t before = 0, after = 0;
  for (auto& gp : groups_) before += gp->MemoryBytes();
  CompactFromLocked(0);
  for (auto& gp : groups_) after += gp->MemoryBytes();
  return before > after ? before - after : 0;
}

bool ColumnTable::CompactSmallTail(size_t below_rows, size_t max_small) {
  WriteGuard g(latch_);
  size_t first = groups_.size();
  while (first > 0 && groups_[first - 1]->num_rows < below_rows) --first;
  if (groups_.size() - first <= max_small) return false;
  CompactFromLocked(first);
  return true;
}

void ColumnTable::CompactFromLocked(size_t first) {
  // Gather the live cells column by column; their keys leave the index and
  // come back at their new positions.
  std::vector<ColumnVector> live;
  for (size_t c = 0; c < schema_.num_columns(); ++c)
    live.emplace_back(schema_.column(c).type);
  if (first == 0) key_index_.clear();
  for (size_t j = first; j < groups_.size(); ++j) {
    const RowGroup& gp = *groups_[j];
    if (first != 0)
      for (size_t i = 0; i < gp.num_rows; ++i)
        if (!gp.deleted.Test(i)) key_index_.erase(gp.keys[i]);
    for (size_t c = 0; c < gp.columns.size(); ++c) {
      const ColumnVector decoded = gp.columns[c].Decode();
      for (size_t i = 0; i < gp.num_rows; ++i)
        if (!gp.deleted.Test(i)) live[c].AppendFrom(decoded, i);
    }
  }
  groups_.resize(first);
  AppendColumnsLocked(live);
}

size_t ColumnTable::num_groups() const {
  ReadGuard g(latch_);
  return groups_.size();
}

const RowGroup* ColumnTable::group(size_t i) const {
  ReadGuard g(latch_);
  return groups_[i].get();
}

Row ColumnTable::MaterializeRow(const RowGroup& g, size_t offset) const {
  Row r;
  for (const auto& col : g.columns) r.Append(col.Get(offset));
  return r;
}

bool ColumnTable::FindKey(Key key, size_t* group_idx, size_t* offset) const {
  ReadGuard g(latch_);
  const auto it = key_index_.find(key);
  if (it == key_index_.end()) return false;
  if (groups_[it->second.first]->deleted.Test(it->second.second)) return false;
  *group_idx = it->second.first;
  *offset = it->second.second;
  return true;
}

size_t ColumnTable::live_rows() const {
  ReadGuard g(latch_);
  size_t n = 0;
  for (const auto& gp : groups_) n += gp->num_rows - gp->deleted.Count();
  return n;
}

size_t ColumnTable::dead_rows() const {
  ReadGuard g(latch_);
  size_t n = 0;
  for (const auto& gp : groups_) n += gp->deleted.Count();
  return n;
}

size_t ColumnTable::MemoryBytes() const {
  ReadGuard g(latch_);
  size_t b = sizeof(*this) + key_index_.size() * 24;
  for (const auto& gp : groups_) b += gp->MemoryBytes();
  return b;
}

EncodingBreakdown ColumnTable::EncodingStats() const {
  ReadGuard g(latch_);
  EncodingBreakdown out;
  for (const auto& gp : groups_) {
    for (const Segment& seg : gp->columns) {
      const auto e = static_cast<size_t>(seg.encoded().encoding);
      ++out.segments[e];
      out.bytes[e] += seg.MemoryBytes();
    }
  }
  return out;
}

}  // namespace htap
