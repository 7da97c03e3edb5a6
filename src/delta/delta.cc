#include "delta/delta.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace htap {

namespace {

std::vector<Type> SchemaTypes(const Schema& schema) {
  std::vector<Type> types;
  for (size_t c = 0; c < schema.num_columns(); ++c)
    types.push_back(schema.column(c).type);
  return types;
}

Status MisfitRow(Key key) {
  return Status::InvalidArgument("row image for key " + std::to_string(key) +
                                 " does not fit the delta schema");
}

/// Index of the first change newer than `csn` (size() if none).
size_t FirstNewer(const DeltaChunk& c, CSN csn) {
  if (c.max_csn() <= csn) return c.size();
  return static_cast<size_t>(
      std::find_if(c.csns.begin(), c.csns.end(),
                   [csn](CSN x) { return x > csn; }) -
      c.csns.begin());
}

DeltaSlice WholeSlice(const DeltaChunk& c, size_t end) {
  DeltaSlice s{&c, 0, end, {}};
  s.columns.reserve(c.columns.size());
  for (const ColumnVector& col : c.columns) s.columns.push_back(&col);
  return s;
}

// ---- The log-delta file format: one chunk, column by column --------------

void PutRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void EncodeChunk(const DeltaChunk& c, std::string* out) {
  const size_t n = c.size();
  Value(static_cast<int64_t>(n)).EncodeTo(out);
  Value(static_cast<int64_t>(c.columns.size())).EncodeTo(out);
  PutRaw(out, c.ops.data(), n * sizeof(ChangeOp));
  PutRaw(out, c.keys.data(), n * sizeof(Key));
  PutRaw(out, c.csns.data(), n * sizeof(CSN));
  for (const ColumnVector& col : c.columns) {
    out->push_back(static_cast<char>(col.type()));
    for (size_t i = 0; i < n; ++i) col.GetValue(i).EncodeTo(out);
  }
}

/// Decodes into `out`, whose columns already carry the store's types.
bool DecodeChunk(const std::string& in, DeltaChunk* out) {
  size_t pos = 0;
  const auto take = [&](void* dst, size_t bytes) {
    if (pos + bytes > in.size()) return false;
    std::memcpy(dst, in.data() + pos, bytes);
    pos += bytes;
    return true;
  };
  Value n, ncols;
  if (!Value::DecodeFrom(in, &pos, &n) || !n.is_int64() ||
      !Value::DecodeFrom(in, &pos, &ncols) || !ncols.is_int64() ||
      static_cast<size_t>(ncols.AsInt64()) != out->columns.size())
    return false;
  const auto rows = static_cast<size_t>(n.AsInt64());
  out->ops.resize(rows);
  out->keys.resize(rows);
  out->csns.resize(rows);
  if (!take(out->ops.data(), rows * sizeof(ChangeOp)) ||
      !take(out->keys.data(), rows * sizeof(Key)) ||
      !take(out->csns.data(), rows * sizeof(CSN)))
    return false;
  for (ColumnVector& col : out->columns) {
    uint8_t type;
    if (!take(&type, 1) || static_cast<Type>(type) != col.type()) return false;
    col.Reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      Value v;
      if (!Value::DecodeFrom(in, &pos, &v)) return false;
      col.AppendValue(v);
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeltaChunk
// ---------------------------------------------------------------------------

DeltaChunk::DeltaChunk(const std::vector<Type>& types) {
  columns.reserve(types.size());
  for (Type t : types) columns.emplace_back(t);
}

bool DeltaChunk::Append(ChangeOp op, Key key, CSN csn, const Row& row) {
  if (op != ChangeOp::kDelete) {
    // Check every cell first, so a misfit leaves no column a cell short.
    if (row.size() != columns.size()) return false;
    for (size_t c = 0; c < columns.size(); ++c)
      if (!FitsColumn(columns[c].type(), row.Get(c))) return false;
  }
  ops.push_back(op);
  keys.push_back(key);
  csns.push_back(csn);
  if (op == ChangeOp::kDelete) {
    for (ColumnVector& col : columns) col.AppendNull();
  } else {
    for (size_t c = 0; c < columns.size(); ++c)
      columns[c].AppendValue(row.Get(c));
  }
  return true;
}

DeltaChunk DeltaChunk::SplitAt(size_t n) {
  std::vector<Type> types;
  for (const ColumnVector& col : columns) types.push_back(col.type());
  DeltaChunk rest(types);
  const auto from = static_cast<std::ptrdiff_t>(n);
  rest.ops.assign(ops.begin() + from, ops.end());
  rest.keys.assign(keys.begin() + from, keys.end());
  rest.csns.assign(csns.begin() + from, csns.end());
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnVector& col = columns[c];
    ColumnVector& r = rest.columns[c];
    r.Reserve(col.size() - n);
    for (size_t i = n; i < col.size(); ++i) r.AppendFrom(col, i);
    col.Truncate(n);
  }
  ops.resize(n);
  keys.resize(n);
  csns.resize(n);
  return rest;
}

DeltaEntry DeltaChunk::EntryAt(size_t i) const {
  DeltaEntry e;
  e.op = ops[i];
  e.key = keys[i];
  e.csn = csns[i];
  if (e.op != ChangeOp::kDelete)
    for (const ColumnVector& col : columns) e.row.Append(col.GetValue(i));
  return e;
}

size_t DeltaChunk::MemoryBytes() const {
  size_t b = sizeof(*this) + ops.capacity() * sizeof(ChangeOp) +
             keys.capacity() * sizeof(Key) + csns.capacity() * sizeof(CSN);
  for (const ColumnVector& col : columns) b += col.MemoryBytes();
  return b;
}

void ForEachTableBatch(
    const std::vector<ChangeEvent>& events,
    const std::function<void(uint32_t table_id, TableEvents)>& visit) {
  std::vector<const ChangeEvent*> order;
  order.reserve(events.size());
  for (const ChangeEvent& ev : events) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const ChangeEvent* a, const ChangeEvent* b) {
                     return a->table_id < b->table_id;
                   });
  for (size_t lo = 0; lo < order.size();) {
    size_t hi = lo + 1;
    while (hi < order.size() && order[hi]->table_id == order[lo]->table_id)
      ++hi;
    visit(order[lo]->table_id, TableEvents(order.data() + lo, hi - lo));
    lo = hi;
  }
}

// ---------------------------------------------------------------------------
// InMemoryDeltaStore (and L1L2DeltaStore, which is one)
// ---------------------------------------------------------------------------

InMemoryDeltaStore::InMemoryDeltaStore(const Schema& schema,
                                       size_t chunk_rows)
    : types_(SchemaTypes(schema)),
      chunk_rows_(std::max<size_t>(1, chunk_rows)) {}

Status InMemoryDeltaStore::AppendLocked(ChangeOp op, Key key, CSN csn,
                                        const Row& row) {
  if (!tail_open_) {
    chunks_.emplace_back(types_);
    tail_open_ = true;
  }
  DeltaChunk& tail = chunks_.back();
  if (!tail.Append(op, key, csn, row)) {
    if (tail.empty()) {
      chunks_.pop_back();
      tail_open_ = false;
    }
    return MisfitRow(key);
  }
  ++entries_;
  if (tail.size() >= chunk_rows_) tail_open_ = false;
  return Status::OK();
}

Status InMemoryDeltaStore::Append(const DeltaEntry& e) {
  MutexLock lk(&mu_);
  return AppendLocked(e.op, e.key, e.csn, e.row);
}

Status InMemoryDeltaStore::AppendBatch(TableEvents events) {
  MutexLock lk(&mu_);
  Status first;
  for (const ChangeEvent* ev : events) {
    Status st = AppendLocked(ev->op, ev->key, ev->csn, ev->row);
    if (first.ok()) first = std::move(st);
  }
  return first;
}

void InMemoryDeltaStore::Seal() {
  MutexLock lk(&mu_);
  tail_open_ = false;
}

void InMemoryDeltaStore::ScanVisible(CSN snapshot,
                                     const DeltaSliceVisitor& visit) const {
  MutexLock lk(&mu_);
  for (const DeltaChunk& c : chunks_) {
    const size_t end = FirstNewer(c, snapshot);
    if (end > 0) visit(WholeSlice(c, end));
    if (end < c.size()) return;  // commit order: everything after is newer
  }
}

size_t InMemoryDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  return entries_;
}

size_t InMemoryDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = 0;
  for (const DeltaChunk& c : chunks_) b += c.MemoryBytes();
  return b;
}

std::vector<DeltaChunk> InMemoryDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  std::vector<DeltaChunk> out;
  while (!chunks_.empty() && chunks_.front().max_csn() <= csn) {
    if (chunks_.size() == 1) tail_open_ = false;  // the tail moves out
    entries_ -= chunks_.front().size();
    out.push_back(std::move(chunks_.front()));
    chunks_.pop_front();
  }
  if (!chunks_.empty()) {
    // Only the chunk that straddles `csn` is split; its newer rest stays.
    DeltaChunk& c = chunks_.front();
    const size_t n = FirstNewer(c, csn);
    if (n > 0) {
      DeltaChunk rest = c.SplitAt(n);
      entries_ -= n;
      out.push_back(std::move(c));
      c = std::move(rest);
    }
  }
  return out;
}

CSN InMemoryDeltaStore::max_csn() const {
  MutexLock lk(&mu_);
  return chunks_.empty() ? 0 : chunks_.back().max_csn();
}

size_t InMemoryDeltaStore::open_entries() const {
  MutexLock lk(&mu_);
  return tail_open_ ? chunks_.back().size() : 0;
}

// ---------------------------------------------------------------------------
// LogDeltaStore
// ---------------------------------------------------------------------------

LogDeltaStore::LogDeltaStore(const Schema& schema)
    : types_(SchemaTypes(schema)) {}

DeltaChunk LogDeltaStore::DecodeFile(const DeltaFile& f) const {
  DeltaChunk c(types_);
  const bool ok = DecodeChunk(f.blob, &c);
  assert(ok && "delta file written by this store");
  (void)ok;
  return c;
}

void LogDeltaStore::AppendChunk(const DeltaChunk& chunk) {
  if (chunk.empty()) return;
  DeltaFile f;
  f.count = chunk.size();
  f.min_csn = *std::min_element(chunk.csns.begin(), chunk.csns.end());
  f.max_csn = *std::max_element(chunk.csns.begin(), chunk.csns.end());
  EncodeChunk(chunk, &f.blob);
  MutexLock lk(&mu_);
  const uint64_t seq = file_seq_base_ + files_.size();
  files_.push_back(std::move(f));
  for (size_t i = 0; i < chunk.size(); ++i)
    key_index_.Insert(chunk.keys[i], (seq << 32) | i);
}

Status LogDeltaStore::AppendFile(const std::vector<DeltaEntry>& entries) {
  DeltaChunk chunk(types_);
  Status first;
  for (const DeltaEntry& e : entries)
    if (!chunk.Append(e.op, e.key, e.csn, e.row) && first.ok())
      first = MisfitRow(e.key);
  AppendChunk(chunk);
  return first;
}

Status LogDeltaStore::AppendBatch(TableEvents events) {
  DeltaChunk chunk(types_);
  Status first;
  for (const ChangeEvent* ev : events)
    if (!chunk.Append(ev->op, ev->key, ev->csn, ev->row) && first.ok())
      first = MisfitRow(ev->key);
  AppendChunk(chunk);
  return first;
}

void LogDeltaStore::ScanVisible(CSN snapshot,
                                const DeltaSliceVisitor& visit) const {
  MutexLock lk(&mu_);
  for (const auto& f : files_) {
    if (f.min_csn > snapshot) break;
    // Reads must decode the file — the cost the survey flags for this design.
    bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
    const DeltaChunk c = DecodeFile(f);
    const size_t end = FirstNewer(c, snapshot);
    if (end > 0) visit(WholeSlice(c, end));
    if (end < c.size()) return;
  }
}

size_t LogDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& f : files_) n += f.count;
  return n;
}

size_t LogDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = key_index_.MemoryBytes();
  for (const auto& f : files_) b += f.blob.capacity() + sizeof(DeltaFile);
  return b;
}

bool LogDeltaStore::LookupLatest(Key key, DeltaEntry* out) const {
  MutexLock lk(&mu_);
  uint64_t payload;
  if (!key_index_.Lookup(key, &payload)) return false;
  const uint64_t seq = payload >> 32;
  const uint32_t idx = static_cast<uint32_t>(payload & 0xffffffffu);
  if (seq < file_seq_base_) return false;  // stale index entry: file merged
  const DeltaFile& f = files_[seq - file_seq_base_];
  if (idx < f.first) return false;  // stale: drained from a split file
  bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
  const DeltaChunk c = DecodeFile(f);
  if (idx - f.first >= c.size()) return false;
  *out = c.EntryAt(idx - f.first);
  return true;
}

std::vector<DeltaChunk> LogDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  std::vector<DeltaChunk> out;
  while (!files_.empty() && files_.front().max_csn <= csn) {
    out.push_back(DecodeFile(files_.front()));
    files_.pop_front();
    ++file_seq_base_;
  }
  if (!files_.empty() && files_.front().min_csn <= csn) {
    // Only the file that straddles `csn` is split: its older entries drain,
    // its newer rest is re-encoded in place under the same sequence number.
    DeltaFile& f = files_.front();
    DeltaChunk c = DecodeFile(f);
    const size_t n = FirstNewer(c, csn);
    DeltaChunk rest = c.SplitAt(n);
    f.blob.clear();
    EncodeChunk(rest, &f.blob);
    f.count = rest.size();
    f.first += n;
    f.min_csn = *std::min_element(rest.csns.begin(), rest.csns.end());
    out.push_back(std::move(c));
  }
  return out;
}

size_t LogDeltaStore::num_files() const {
  MutexLock lk(&mu_);
  return files_.size();
}

}  // namespace htap
