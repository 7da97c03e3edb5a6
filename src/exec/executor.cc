#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/key_slot_map.h"
#include "common/mutex.h"
#include "common/status.h"
#include "exec/segment_filter.h"
#include "storage/spill_file.h"

namespace htap {

namespace {

/// Computes one row group's surviving selection: positions neither
/// deleted nor `hidden` (the main positions of keys the delta overrides;
/// an empty bitmap hides nothing) that pass the predicate. Comparison
/// conjuncts evaluate directly on the encoded segments
/// (exec/segment_filter.h) — code-space dictionary compares, per-run RLE,
/// zone-map-pruned FOR — and anything non-conjunctive falls back to
/// row-at-a-time EvalColumns over the survivors. Returns false when zone
/// maps skip the whole group.
bool ComputeGroupSelection(const RowGroup& g, const Bitmap& hidden,
                           const Predicate& pred, std::vector<uint32_t>* sel,
                           ScanStats* st) {
  if (pred.CanSkipGroup(g.columns)) {
    ++st->groups_skipped;
    return false;
  }
  // Initial selection: a word-at-a-time pass over deleted | hidden.
  sel->clear();
  sel->reserve(g.num_rows);
  const std::vector<uint64_t>& del = g.deleted.words();
  const std::vector<uint64_t>& hid = hidden.words();
  for (size_t w = 0; w * 64 < g.num_rows; ++w) {
    uint64_t live = ~((w < del.size() ? del[w] : 0) |
                      (w < hid.size() ? hid[w] : 0));
    const size_t rest = g.num_rows - w * 64;
    if (rest < 64) live &= (uint64_t{1} << rest) - 1;
    for (; live != 0; live &= live - 1)
      sel->push_back(static_cast<uint32_t>(w * 64) +
                     static_cast<uint32_t>(std::countr_zero(live)));
  }
  st->rows_considered += sel->size();
  // Apply conjuncts column-at-a-time; non-conjunctive parts row-at-a-time.
  bool generic_needed = false;
  for (const Predicate* conj : pred.Conjuncts()) {
    if (conj->kind() == Predicate::Kind::kCompare) {
      const auto col = static_cast<size_t>(conj->column());
      FilterSegmentSelection(g.columns[col], conj->op(), conj->literal(),
                             sel);
    } else {
      generic_needed = true;
    }
  }
  if (generic_needed) {
    size_t o = 0;
    for (uint32_t i : *sel)
      if (pred.EvalColumns(g.columns, i)) (*sel)[o++] = i;
    sel->resize(o);
  }
  return true;
}

/// Source column of output column `k` under `projection` (empty = all).
size_t ColumnAt(const std::vector<int>& projection, size_t k) {
  return projection.empty() ? k : static_cast<size_t>(projection[k]);
}

/// Scans one row group (one morsel) into compacted batches of at most
/// `batch_rows` rows (0 = whole group): the survivors gather through typed
/// per-encoding gathers, no Value boxing.
void ScanGroup(const RowGroup& g, const Bitmap& hidden, const Predicate& pred,
               const std::vector<int>& projection, size_t batch_rows,
               std::vector<ColumnBatch>* out, ScanStats* st) {
  std::vector<uint32_t> sel;
  if (!ComputeGroupSelection(g, hidden, pred, &sel, st)) return;
  const size_t bsz = batch_rows == 0 ? sel.size() : batch_rows;
  const size_t width =
      projection.empty() ? g.columns.size() : projection.size();
  for (size_t lo = 0; lo < sel.size(); lo += bsz) {
    const size_t n = std::min(bsz, sel.size() - lo);
    const std::vector<uint32_t> slice(
        sel.begin() + static_cast<long>(lo),
        sel.begin() + static_cast<long>(lo + n));
    ColumnBatch b;
    b.columns.reserve(width);
    for (size_t k = 0; k < width; ++k) {
      const Segment& seg = g.columns[ColumnAt(projection, k)];
      b.columns.emplace_back(seg.type());
      b.columns.back().Reserve(n);
      GatherSegment(seg, slice, &b.columns.back());
    }
    st->main_rows_emitted += n;
    out->push_back(std::move(b));
  }
}

}  // namespace

/// Under the table's shared latch, one DeltaReader::ScanVisible pass over
/// the delta's chunk ranges keeps the latest visible entry per key and
/// stages each surviving, predicate-passing one straight into typed delta
/// batches — the predicate runs on the typed chunk columns; an entry
/// replaced by a later one for the same key is marked superseded. Each
/// overridden key then resolves once, through the table's key index, to
/// the main position it hides. The group morsels (one per row group,
/// merged in group order) test that hidden bitmap beside the delete
/// bitmap — no hashing per main row — and the delta rows follow the main
/// groups in the commit order of each key's latest entry. Serial and
/// parallel output are byte-identical.
std::vector<ColumnBatch> ScanHtapBatches(const ColumnTable& table,
                                         const DeltaReader* delta,
                                         CSN snapshot, const Predicate& pred,
                                         const std::vector<int>& projection,
                                         const ExecContext& exec,
                                         ScanStats* stats) {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  // Hold the scan latch for the whole pass: Compact() cannot invalidate
  // group pointers mid-scan, and a merge drains the delta and applies it to
  // the main under the write latch, so the delta and the main read here
  // are one consistent state.
  ReadGuard table_guard(table.latch());
  const size_t ngroups = table.num_groups_unlocked();
  st->groups_total = ngroups;
  std::vector<const RowGroup*> groups(ngroups);
  for (size_t gi = 0; gi < ngroups; ++gi)
    groups[gi] = table.group_unlocked(gi);

  // 1. The delta pass and the position resolve.
  Stopwatch delta_sw;
  std::vector<Bitmap> hidden(ngroups);
  std::vector<ColumnBatch> staged;  // delta rows, typed, in commit order
  std::vector<uint8_t> superseded;  // per staged delta slot
  if (delta != nullptr) {
    KeySlotMap keys(delta->EntryCount());  // sized for every staged entry
    size_t entries_read = 0, emitted = 0;
    delta->ScanVisible(snapshot, [&](const DeltaSlice& s) {
      const DeltaChunk& c = *s.chunk;
      entries_read += s.end - s.begin;
      for (size_t i = s.begin; i < s.end; ++i) {
        uint32_t& slot = keys.Upsert(c.keys[i]);
        if (slot != KeySlotMap::kNoSlot) {
          superseded[slot] = 1;
          --emitted;
        }
        slot = KeySlotMap::kNoSlot;
        if (c.ops[i] == ChangeOp::kDelete || !pred.EvalVectors(s.columns, i))
          continue;
        slot = static_cast<uint32_t>(superseded.size());
        superseded.push_back(0);
        if (staged.empty() || (exec.batch_rows != 0 &&
                               staged.back().rows() >= exec.batch_rows))
          staged.push_back(
              MakeBatch(table.schema(), projection, exec.batch_rows));
        std::vector<ColumnVector>& cols = staged.back().columns;
        for (size_t k = 0; k < cols.size(); ++k)
          cols[k].AppendFrom(*s.columns[ColumnAt(projection, k)], i);
        ++emitted;
      }
    });
    st->delta_entries_read = entries_read;
    st->delta_rows_emitted += emitted;
    for (Key k : keys.keys()) {
      size_t gi, off;
      if (!table.LocateKey(k, &gi, &off)) continue;
      if (hidden[gi].size() == 0) hidden[gi].Resize(groups[gi]->num_rows);
      hidden[gi].Set(off);
    }
  }
  st->delta_seconds += delta_sw.ElapsedSeconds();

  // 2. The main groups, one morsel each, merged in group order.
  Stopwatch main_sw;
  std::vector<ColumnBatch> out;
  const size_t workers =
      exec.parallel() && ngroups > 1 ? std::min(exec.max_parallelism, ngroups)
                                     : 1;
  if (workers <= 1) {
    for (size_t gi = 0; gi < ngroups; ++gi)
      ScanGroup(*groups[gi], hidden[gi], pred, projection, exec.batch_rows,
                &out, st);
  } else {
    // Workers claim group morsels through a shared cursor; per-group output
    // vectors keep the merge order-deterministic regardless of which worker
    // scanned which group.
    std::vector<std::vector<ColumnBatch>> partial(ngroups);
    std::vector<ScanStats> wstats(workers);
    std::atomic<size_t> next{0};
    {
      TaskGroup tg(exec.pool);
      for (size_t w = 0; w < workers; ++w) {
        tg.Run([&, w] {
          for (size_t gi = next.fetch_add(1, std::memory_order_relaxed);
               gi < ngroups;
               gi = next.fetch_add(1, std::memory_order_relaxed))
            ScanGroup(*groups[gi], hidden[gi], pred, projection,
                      exec.batch_rows, &partial[gi], &wstats[w]);
        });
      }
    }
    for (const ScanStats& ws : wstats) {
      st->groups_skipped += ws.groups_skipped;
      st->main_rows_emitted += ws.main_rows_emitted;
      st->rows_considered += ws.rows_considered;
    }
    size_t total = 0;
    for (const auto& p : partial) total += p.size();
    out.reserve(total);
    for (auto& p : partial)
      for (ColumnBatch& b : p) out.push_back(std::move(b));
  }
  st->main_seconds += main_sw.ElapsedSeconds();

  // 3. The delta rows after the main groups; superseded slots drop out
  // through the selection vector.
  size_t base = 0;
  for (ColumnBatch& b : staged) {
    const size_t n = b.rows();
    for (size_t i = 0; i < n; ++i)
      if (!superseded[base + i]) b.sel.push_back(static_cast<uint32_t>(i));
    base += n;
    b.filtered = b.sel.size() < n;
    if (!b.filtered) b.sel.clear();  // all active: stay compacted
    if (b.active() > 0) out.push_back(std::move(b));
  }
  return out;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string s;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) s += " | ";
    s += schema.column(i).name;
  }
  s += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i) s += " | ";
      s += rows[r].Get(i).ToString();
    }
    s += "\n";
  }
  if (rows.size() > max_rows)
    s += "... (" + std::to_string(rows.size()) + " rows total)\n";
  return s;
}

std::vector<ColumnBatch> ScanRowStore(const MvccRowStore& store,
                                      const Snapshot& snap,
                                      const Predicate& pred,
                                      const std::vector<int>& projection,
                                      const ExecContext& exec) {
  const auto scan = [&](const std::pair<Key, Key>* range) {
    BatchBuilder out(store.schema(), projection, exec.batch_rows);
    const auto visit = [&](Key, const Row& row) {
      if (pred.Eval(row)) out.Add(row);
      return true;
    };
    if (range == nullptr)
      store.Scan(snap, visit);
    else
      store.ScanRange(snap, range->first, range->second, visit);
    return out.Finish();
  };
  const std::vector<std::pair<Key, Key>> ranges =
      exec.parallel() ? store.SplitKeyRanges(exec.max_parallelism)
                      : std::vector<std::pair<Key, Key>>{};
  if (ranges.size() <= 1) return scan(nullptr);

  std::vector<std::vector<ColumnBatch>> partial(ranges.size());
  {
    TaskGroup tg(exec.pool);
    for (size_t i = 0; i < ranges.size(); ++i)
      tg.Run([&, i] { partial[i] = scan(&ranges[i]); });
  }
  std::vector<ColumnBatch> out;
  for (auto& p : partial)
    for (ColumnBatch& b : p) out.push_back(std::move(b));
  return out;
}

// ---------------------------------------------------------------------------
// Hash join. Three regimes share one pair-emitting core (DESIGN.md §§8–9):
// serial single-table, radix-partitioned parallel, and the grace
// (out-of-core) path that spills oversized partitions to temporary runs.
// ---------------------------------------------------------------------------

namespace {

/// Chained hash table over one radix partition of the build side. Chains
/// preserve build-input order per hash, so probing emits matches exactly in
/// nested-loop order — the property the serial/parallel byte-identity of
/// the join rests on.
class JoinPartitionTable {
 public:
  void Reserve(size_t rows) {
    slots_.reserve(rows);
    entries_.reserve(rows);
  }

  void Insert(uint64_t hash, uint32_t row) {
    const auto e = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{row, kEnd});
    auto [it, fresh] = slots_.try_emplace(hash, Chain{e, e});
    if (!fresh) {
      entries_[it->second.tail].next = e;
      it->second.tail = e;
    }
  }

  template <typename Fn>
  void ForEachHashMatch(uint64_t hash, const Fn& fn) const {
    const auto it = slots_.find(hash);
    if (it == slots_.end()) return;
    for (uint32_t e = it->second.head; e != kEnd; e = entries_[e].next)
      fn(entries_[e].row);
  }

 private:
  static constexpr uint32_t kEnd = 0xffffffffu;
  struct Chain {
    uint32_t head;
    uint32_t tail;
  };
  struct Entry {
    uint32_t row;
    uint32_t next;
  };
  std::unordered_map<uint64_t, Chain> slots_;
  std::vector<Entry> entries_;
};

/// Probes key slots [lo, hi) against the partition tables, emitting
/// (probe, build) index pairs. Two passes: a hash-match pre-count sizes the
/// output reservation (overcounting only on hash collisions between unequal
/// keys), then the emit pass confirms key equality — typed, through
/// JoinKeyEquals, no Value boxing.
void ProbePairsRangeKeys(const JoinKeyColumn& probe, size_t lo, size_t hi,
                         const JoinKeyColumn& build,
                         const std::vector<JoinPartitionTable>& parts,
                         uint64_t part_mask, uint64_t hash_mask,
                         JoinPairs* out) {
  size_t estimate = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    parts[h & part_mask].ForEachHashMatch(h, [&](uint32_t) { ++estimate; });
  }
  out->reserve(out->size() + estimate);
  for (size_t i = lo; i < hi; ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    parts[h & part_mask].ForEachHashMatch(h, [&](uint32_t r) {
      if (!JoinKeyEquals(probe, i, build, r)) return;  // hash collision
      out->emplace_back(static_cast<uint32_t>(i), r);
    });
  }
}

/// Partition count: ~4 independent build morsels per worker for load
/// balance, power of two for mask addressing, capped at 64 so small builds
/// aren't shredded into allocation overhead.
size_t JoinPartitionCount(size_t workers) {
  size_t k = 16;
  while (k < workers * 4 && k < 64) k <<= 1;
  return k;
}

/// Below these sizes a scatter chunk / probe morsel isn't worth a task.
constexpr size_t kMinScatterRowsPerChunk = 8192;
constexpr size_t kMinProbeRowsPerMorsel = 4096;

/// The probe pass driver: chunks of [0, n) are morsels claimed through a
/// shared cursor by at most `workers` tasks. Each task calls make_task()
/// once for its morsel function fn(lo, hi, out); per-morsel pair buffers
/// concatenate in morsel order, so the pairs keep probe input order.
template <typename MakeTask>
JoinPairs ProbeMorsels(size_t n, size_t workers, const ExecContext& exec,
                       const MakeTask& make_task) {
  const size_t nprobe =
      n == 0 ? 0
             : std::clamp<size_t>(n / kMinProbeRowsPerMorsel, 1, workers * 4);
  std::vector<JoinPairs> partial(nprobe);
  if (nprobe > 0) {
    const size_t per = (n + nprobe - 1) / nprobe;
    std::atomic<size_t> next{0};
    TaskGroup tg(exec.pool);
    for (size_t w = 0; w < std::min(workers, nprobe); ++w) {
      tg.Run([&] {
        auto morsel = make_task();
        for (size_t m = next.fetch_add(1, std::memory_order_relaxed);
             m < nprobe; m = next.fetch_add(1, std::memory_order_relaxed))
          morsel(m * per, std::min(n, m * per + per), &partial[m]);
      });
    }
  }
  JoinPairs pairs;
  size_t total = 0;
  for (const auto& m : partial) total += m.size();
  pairs.reserve(total);
  for (const auto& m : partial) pairs.insert(pairs.end(), m.begin(), m.end());
  return pairs;
}

/// Radix buckets of (masked hash, build slot), [chunk][partition].
using ScatterBuckets =
    std::vector<std::vector<std::vector<std::pair<uint64_t, uint32_t>>>>;

/// Partition pass: contiguous build chunks (one task each, at most
/// `workers`) scatter their valid slots into per-chunk partition buckets —
/// workers never share a buffer. With `weights`, also sums them per
/// partition into `*part_bytes` (the grace classifier's input).
ScatterBuckets ScatterBuild(const JoinKeyColumn& build, size_t nparts,
                            size_t workers, const ExecContext& exec,
                            const std::vector<size_t>* weights,
                            std::vector<size_t>* part_bytes) {
  const uint64_t part_mask = nparts - 1;
  const size_t nchunks =
      std::clamp<size_t>(build.size() / kMinScatterRowsPerChunk, 1, workers);
  const size_t chunk_rows = (build.size() + nchunks - 1) / nchunks;
  ScatterBuckets scatter(nchunks);
  std::vector<std::vector<size_t>> chunk_bytes(nchunks);
  {
    TaskGroup tg(exec.pool);
    for (size_t c = 0; c < nchunks; ++c) {
      tg.Run([&, c] {
        auto& buckets = scatter[c];
        buckets.resize(nparts);
        if (weights != nullptr) chunk_bytes[c].assign(nparts, 0);
        const size_t hi = std::min(build.size(), (c + 1) * chunk_rows);
        for (size_t i = c * chunk_rows; i < hi; ++i) {
          if (!build.valid[i]) continue;
          const uint64_t h = build.hashes[i] & exec.join_hash_mask;
          const size_t p = h & part_mask;
          buckets[p].emplace_back(h, static_cast<uint32_t>(i));
          if (weights != nullptr) chunk_bytes[c][p] += (*weights)[i];
        }
      });
    }
  }
  if (weights != nullptr) {
    part_bytes->assign(nparts, 0);
    for (const auto& bytes : chunk_bytes)
      for (size_t p = 0; p < nparts; ++p) (*part_bytes)[p] += bytes[p];
  }
  return scatter;
}

/// Build pass: each partition's table (only those with `resident[p]` set,
/// when given) is an independent morsel. Chunk buffers merge in chunk
/// order, so per-hash chains hold build rows in input order exactly as the
/// serial build does.
std::vector<JoinPartitionTable> BuildPartitions(
    const ScatterBuckets& scatter, size_t nparts, const ExecContext& exec,
    const std::vector<uint8_t>* resident = nullptr) {
  std::vector<JoinPartitionTable> parts(nparts);
  TaskGroup tg(exec.pool);
  for (size_t p = 0; p < nparts; ++p) {
    if (resident != nullptr && !(*resident)[p]) continue;
    tg.Run([&, p] {
      size_t total = 0;
      for (const auto& buckets : scatter) total += buckets[p].size();
      parts[p].Reserve(total);
      for (const auto& buckets : scatter)
        for (const auto& [h, idx] : buckets[p]) parts[p].Insert(h, idx);
    });
  }
  tg.Wait();
  return parts;
}

// ---- grace (out-of-core) path ---------------------------------------------

/// Re-partition fan-out per recursion level: 4 radix bits.
constexpr size_t kSpillSubBits = 4;
constexpr size_t kSpillSubParts = size_t{1} << kSpillSubBits;

/// A partition that never shrinks (one hot key) bottoms out here and is
/// built in memory anyway — correctness over the budget.
constexpr size_t kMaxSpillRecursion = 4;

/// Top-level grace partition cap. Keeps the radix at <= 8 bits, which the
/// join_hash_mask test seam relies on (masking the low 8 bits funnels every
/// row into partition 0 to force recursion).
constexpr size_t kMaxGracePartitions = 256;

/// Spill runs are appended in ~256 KiB slabs, not per record.
constexpr size_t kSpillFlushBytes = 256 * 1024;

/// Top-level grace partition count: the parallel join's partition floor,
/// grown toward 2x the build/budget ratio so a typical partition fits the
/// budget with headroom.
size_t GracePartitionCount(size_t est_bytes, size_t budget, size_t workers) {
  size_t k = JoinPartitionCount(workers);
  const size_t want = 2 * (est_bytes / std::max<size_t>(budget, 1));
  while (k < want && k < kMaxGracePartitions) k <<= 1;
  return k;
}

/// Counters accumulated across the grace write path (concurrent probe
/// morsels append) and the serial read-back/recursion path.
struct SpillCounters {
  std::atomic<size_t> rows_written{0};
  std::atomic<size_t> bytes_written{0};
  std::atomic<size_t> pages_written{0};
  size_t bytes_read = 0;  // serial only
  size_t pages_read = 0;  // serial only
  size_t max_depth = 0;   // serial only

  void AddWritten(size_t rows, size_t pages, size_t bytes) {
    rows_written.fetch_add(rows, std::memory_order_relaxed);
    pages_written.fetch_add(pages, std::memory_order_relaxed);
    bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  }
};

/// Accumulates (input index, key) slots from one key column into a
/// SpillPage, encoding into its buffer whenever the page's approximate
/// footprint reaches kSpillFlushBytes. The caller writes buf() to disk,
/// reads the rows()/pages() tallies, then Reset()s.
class SpillPageWriter {
 public:
  explicit SpillPageWriter(const JoinKeyColumn* keys) : keys_(keys) {
    ResetPage();
  }

  void Add(uint32_t idx, size_t slot) {
    page_.idx.push_back(idx);
    approx_ += sizeof(uint32_t);
    switch (keys_->type) {
      case Type::kInt64:
        page_.ints.push_back(keys_->ints[slot]);
        approx_ += sizeof(int64_t);
        break;
      case Type::kDouble:
        page_.doubles.push_back(keys_->doubles[slot]);
        approx_ += sizeof(double);
        break;
      case Type::kString:
        page_.strs.push_back(keys_->strs[slot]);
        approx_ += sizeof(uint32_t) + page_.strs.back().size();
        break;
    }
    ++rows_;
    if (approx_ >= kSpillFlushBytes) Flush();
  }

  /// Encodes any buffered slots into the buffer as one page.
  void Flush() {
    if (page_.idx.empty()) return;
    EncodeSpillPage(page_, &buf_);
    ++pages_;
    ResetPage();
  }

  std::string& buf() { return buf_; }
  size_t rows() const { return rows_; }
  size_t pages() const { return pages_; }
  /// Empties the buffer and zeroes the tallies.
  void Reset() {
    buf_.clear();
    rows_ = 0;
    pages_ = 0;
  }

 private:
  void ResetPage() {
    page_ = SpillPage{};
    page_.type = keys_->type;
    approx_ = 0;
  }

  const JoinKeyColumn* keys_;
  std::string buf_;
  SpillPage page_;
  size_t approx_ = 0;
  size_t rows_ = 0;
  size_t pages_ = 0;
};

/// A spilled partition rehydrated into batch form: a dense all-valid key
/// column (hashes recomputed through the Value::Hash-consistent typed
/// primitives) plus each slot's index in the original join input.
struct SpilledKeys {
  JoinKeyColumn keys;
  std::vector<uint32_t> idx;
};

/// Reads a whole run of key pages back. A never-opened run (no rows reached
/// it) reads as empty.
Result<SpilledKeys> ReadSpillPages(SpillRun* run, SpillCounters* sc) {
  SpilledKeys out;
  if (!run->is_open()) return out;
  HTAP_ASSIGN_OR_RETURN(const std::string data, run->ReadAll());
  sc->bytes_read += data.size();
  size_t pos = 0;
  while (pos < data.size()) {
    SpillPage page;
    if (!DecodeSpillPage(data, &pos, &page))
      return Status::Corruption("malformed spill page in " + run->path());
    ++sc->pages_read;
    out.keys.type = page.type;  // every page of a run has the key's type
    for (size_t r = 0; r < page.rows(); ++r) {
      out.idx.push_back(page.idx[r]);
      out.keys.valid.push_back(1);  // NULL keys never spill
      switch (page.type) {
        case Type::kInt64:
          out.keys.hashes.push_back(HashInt64(page.ints[r]));
          out.keys.ints.push_back(page.ints[r]);
          break;
        case Type::kDouble:
          out.keys.hashes.push_back(HashDouble(page.doubles[r]));
          out.keys.doubles.push_back(page.doubles[r]);
          break;
        case Type::kString:
          out.keys.hashes.push_back(HashString(page.strs[r]));
          out.keys.strs.push_back(std::move(page.strs[r]));
          break;
      }
    }
  }
  return out;
}

/// Correctness backstop: recomputes one radix partition's pairs straight
/// from the in-memory key columns (which outlive the whole join). Used when
/// the disk fails mid-partition; O(probe + build) per call but always right.
void JoinPartitionInMemoryKeys(const JoinKeyColumn& probe,
                               const JoinKeyColumn& build, uint64_t hash_mask,
                               uint64_t part_mask, size_t part,
                               JoinPairs* out) {
  JoinPartitionTable table;
  for (size_t j = 0; j < build.size(); ++j) {
    if (!build.valid[j]) continue;
    const uint64_t h = build.hashes[j] & hash_mask;
    if ((h & part_mask) != part) continue;
    table.Insert(h, static_cast<uint32_t>(j));
  }
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!probe.valid[i]) continue;
    const uint64_t h = probe.hashes[i] & hash_mask;
    if ((h & part_mask) != part) continue;
    table.ForEachHashMatch(h, [&](uint32_t j) {
      if (!JoinKeyEquals(probe, i, build, j)) return;
      out->emplace_back(static_cast<uint32_t>(i), j);
    });
  }
}

/// Re-partitions spilled keys on the hash bits above `bit_shift` into
/// kSpillSubParts runs named `prefix`<depth+1>, marking in `*seen` the
/// sub-partitions that received rows (the only ones given a run). With
/// `only`, slots of unmarked sub-partitions are dropped — a probe row with
/// no build rows in its sub-partition cannot match.
Status SplitSpilled(const SpilledKeys& in, const ExecContext& exec,
                    const std::string& dir, const char* prefix,
                    size_t bit_shift, size_t depth,
                    const std::array<uint8_t, kSpillSubParts>* only,
                    std::array<uint8_t, kSpillSubParts>* seen,
                    std::array<SpillRun, kSpillSubParts>* runs,
                    SpillCounters* sc) {
  std::vector<SpillPageWriter> writers(kSpillSubParts,
                                       SpillPageWriter(&in.keys));
  for (size_t slot = 0; slot < in.keys.size(); ++slot) {
    const uint64_t h = in.keys.hashes[slot] & exec.join_hash_mask;
    const size_t s = (h >> bit_shift) & (kSpillSubParts - 1);
    if (only != nullptr && !(*only)[s]) continue;
    writers[s].Add(in.idx[slot], slot);
    (*seen)[s] = 1;
  }
  for (size_t s = 0; s < kSpillSubParts; ++s) {
    if (!(*seen)[s]) continue;
    writers[s].Flush();
    HTAP_RETURN_NOT_OK(
        (*runs)[s].Open(dir, prefix + std::to_string(depth + 1)));
    HTAP_RETURN_NOT_OK((*runs)[s].Append(writers[s].buf()));
    sc->AddWritten(writers[s].rows(), writers[s].pages(),
                   writers[s].buf().size());
  }
  return Status::OK();
}

/// Joins one spilled partition, partition-at-a-time. Partition weight is
/// measured through `build_weights` — the per-slot payload footprints of
/// the ORIGINAL build input (spilled records carry their input index, so a
/// partition weighs what its rows would occupy materialized, not the few
/// key bytes on disk). If that weight still exceeds the budget, both runs
/// re-partition on the next kSpillSubBits hash bits (`bit_shift` counts
/// bits already consumed) and recurse; at kMaxSpillRecursion the partition
/// is built regardless. Emits pairs in arbitrary order — the grace driver
/// sorts the full pair set at the end.
Status JoinSpilledPartition(SpillRun build_run, SpillRun probe_run,
                            const std::vector<size_t>& build_weights,
                            const ExecContext& exec, const std::string& dir,
                            size_t bit_shift, size_t depth, SpillCounters* sc,
                            JoinPairs* out) {
  const uint64_t hash_mask = exec.join_hash_mask;

  HTAP_ASSIGN_OR_RETURN(SpilledKeys build, ReadSpillPages(&build_run, sc));
  build_run.Discard();
  size_t build_bytes = 0;
  for (uint32_t idx : build.idx) build_bytes += build_weights[idx];

  if (build_bytes > exec.join_spill_budget_bytes &&
      depth < kMaxSpillRecursion) {
    std::array<SpillRun, kSpillSubParts> bsub;
    std::array<SpillRun, kSpillSubParts> psub;
    std::array<uint8_t, kSpillSubParts> has_build{};
    std::array<uint8_t, kSpillSubParts> has_probe{};
    HTAP_RETURN_NOT_OK(SplitSpilled(build, exec, dir, "b", bit_shift, depth,
                                    nullptr, &has_build, &bsub, sc));
    build = SpilledKeys{};
    {
      HTAP_ASSIGN_OR_RETURN(SpilledKeys probe, ReadSpillPages(&probe_run, sc));
      probe_run.Discard();
      HTAP_RETURN_NOT_OK(SplitSpilled(probe, exec, dir, "p", bit_shift, depth,
                                      &has_build, &has_probe, &psub, sc));
    }
    for (size_t s = 0; s < kSpillSubParts; ++s) {
      if (!has_build[s]) continue;
      HTAP_RETURN_NOT_OK(JoinSpilledPartition(
          std::move(bsub[s]), std::move(psub[s]), build_weights, exec, dir,
          bit_shift + kSpillSubBits, depth + 1, sc, out));
    }
    return Status::OK();
  }

  sc->max_depth = std::max(sc->max_depth, depth);
  JoinPartitionTable table;
  table.Reserve(build.keys.size());
  for (size_t j = 0; j < build.keys.size(); ++j)
    table.Insert(build.keys.hashes[j] & hash_mask, static_cast<uint32_t>(j));
  HTAP_ASSIGN_OR_RETURN(const SpilledKeys probe,
                        ReadSpillPages(&probe_run, sc));
  probe_run.Discard();
  for (size_t i = 0; i < probe.keys.size(); ++i) {
    const uint64_t h = probe.keys.hashes[i] & hash_mask;
    table.ForEachHashMatch(h, [&](uint32_t j) {
      if (!JoinKeyEquals(probe.keys, i, build.keys, j)) return;
      out->emplace_back(probe.idx[i], build.idx[j]);
    });
  }
  return Status::OK();
}

/// The grace driver (DESIGN.md §§9, 13): radix-scatter the build side, keep
/// a budget's worth of partitions resident, spill the rest (both sides, as
/// columnar key pages — payloads stay in memory and materialize after the
/// join), then join spilled partitions one at a time. Output order is
/// restored by a final sort of the pair set — valid because (probe, build)
/// pairs are unique and nested-loop order is exactly ascending (probe,
/// build). Runs even without a pool: TaskGroup degrades to inline calls.
JoinPairs GraceJoinPairsKeys(const JoinKeyColumn& probe,
                             const JoinKeyColumn& build,
                             const std::vector<size_t>& weights,
                             const ExecContext& exec, size_t est_build_bytes,
                             JoinStats* js) {
  const size_t budget = exec.join_spill_budget_bytes;
  const std::string& dir = exec.join_spill_dir;  // "" -> DefaultSpillDir()
  const size_t workers = exec.parallel() ? exec.max_parallelism : 1;
  const size_t nparts = GracePartitionCount(est_build_bytes, budget, workers);
  const uint64_t part_mask = nparts - 1;
  const uint64_t hash_mask = exec.join_hash_mask;
  size_t base_bits = 0;
  while ((size_t{1} << base_bits) < nparts) ++base_bits;
  SpillCounters sc;

  // 1. Scatter, as in the radix join, but also tallying per-partition
  // build footprint (payload weights, not key bytes) so the classifier
  // below can pick residents.
  std::vector<size_t> part_bytes;
  ScatterBuckets scatter =
      ScatterBuild(build, nparts, workers, exec, &weights, &part_bytes);

  // 2. Classify: walk partitions in index order, keeping them resident
  // while the running total fits the budget. Deterministic, and at least
  // one partition spills whenever the build side exceeds the budget.
  std::vector<uint8_t> resident(nparts, 0);
  size_t resident_bytes = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (resident_bytes + part_bytes[p] <= budget) {
      resident[p] = 1;
      resident_bytes += part_bytes[p];
    }
  }

  // 3. Write spilled partitions' build runs — one task per partition, in
  // chunk order so each run holds its rows in build-input order. Only the
  // (index, key) column pages go to disk. A write failure (unwritable dir,
  // disk full) reclassifies the partition as resident: the scatter buffers
  // are only released on success, so correctness never depends on the disk.
  std::vector<SpillRun> build_runs(nparts);
  std::vector<SpillRun> probe_runs(nparts);
  std::vector<uint8_t> spill_ok(nparts, 0);
  {
    TaskGroup tg(exec.pool);
    for (size_t p = 0; p < nparts; ++p) {
      if (resident[p]) continue;
      tg.Run([&, p] {
        Status st = build_runs[p].Open(dir, "b" + std::to_string(p));
        SpillPageWriter writer(&build);
        std::string& buf = writer.buf();
        size_t wbytes = 0;
        for (const auto& buckets : scatter) {
          if (!st.ok()) break;
          for (const auto& [h, idx] : buckets[p]) {
            (void)h;
            writer.Add(idx, idx);
            if (buf.size() >= kSpillFlushBytes) {
              wbytes += buf.size();
              st = build_runs[p].Append(buf);
              buf.clear();
              if (!st.ok()) break;
            }
          }
        }
        if (st.ok()) {
          writer.Flush();
          wbytes += buf.size();
          st = build_runs[p].Append(buf);
        }
        if (st.ok()) {
          spill_ok[p] = 1;
          sc.AddWritten(writer.rows(), writer.pages(), wbytes);
        } else {
          build_runs[p].Discard();
        }
      });
    }
  }
  for (size_t p = 0; p < nparts; ++p) {
    if (resident[p]) continue;
    if (spill_ok[p]) {
      for (auto& buckets : scatter)
        std::vector<std::pair<uint64_t, uint32_t>>().swap(buckets[p]);
    } else {
      resident[p] = 1;
    }
  }

  // 4. Build the resident partitions' tables (chunk order, as ever).
  const std::vector<JoinPartitionTable> parts =
      BuildPartitions(scatter, nparts, exec, &resident);

  // 5. Probe, streaming: rows hitting a resident partition emit pairs into
  // per-morsel buffers; rows hitting a spilled partition accumulate into
  // per-morsel key pages, flushed to the partition's probe run under a
  // per-partition mutex. Run write order is irrelevant — page slots carry
  // their probe index and the final sort restores order.
  std::vector<uint8_t> probe_spill_ok(nparts, 1);
  // Leaf locks: workers hold nothing else while flushing a spill buffer.
  const std::unique_ptr<Mutex[]> part_mu(new Mutex[nparts]);
  JoinPairs pairs = ProbeMorsels(probe.size(), workers, exec, [&] {
    return [&, writers = std::vector<SpillPageWriter>(
                   nparts, SpillPageWriter(&probe))](
               size_t lo, size_t hi, JoinPairs* pout) mutable {
      for (size_t i = lo; i < hi; ++i) {
        if (!probe.valid[i]) continue;
        const uint64_t h = probe.hashes[i] & hash_mask;
        const size_t p = h & part_mask;
        if (resident[p]) {
          parts[p].ForEachHashMatch(h, [&](uint32_t r) {
            if (!JoinKeyEquals(probe, i, build, r)) return;
            pout->emplace_back(static_cast<uint32_t>(i), r);
          });
        } else {
          writers[p].Add(static_cast<uint32_t>(i), i);
        }
      }
      for (size_t p = 0; p < nparts; ++p) {
        SpillPageWriter& wr = writers[p];
        wr.Flush();
        if (wr.buf().empty()) continue;
        MutexLock lock(&part_mu[p]);
        Status st;
        if (!probe_runs[p].is_open())
          st = probe_runs[p].Open(dir, "p" + std::to_string(p));
        if (st.ok()) st = probe_runs[p].Append(wr.buf());
        if (st.ok())
          sc.AddWritten(wr.rows(), wr.pages(), wr.buf().size());
        else
          probe_spill_ok[p] = 0;  // guarded by part_mu[p]
        wr.Reset();
      }
    };
  });

  // 6. Join the spilled partitions one at a time (index order). Any I/O
  // failure — including a probe flush that failed above — falls back to
  // recomputing that partition from the in-memory inputs.
  size_t spilled = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (resident[p]) continue;
    ++spilled;
    JoinPairs part_pairs;
    Status st;
    if (probe_spill_ok[p]) {
      st = JoinSpilledPartition(std::move(build_runs[p]),
                                std::move(probe_runs[p]), weights, exec, dir,
                                base_bits, 0, &sc, &part_pairs);
    } else {
      st = Status::IOError("probe-side spill failed");
      build_runs[p].Discard();
      probe_runs[p].Discard();
    }
    if (st.ok()) {
      pairs.insert(pairs.end(), part_pairs.begin(), part_pairs.end());
    } else {
      std::fprintf(stderr,
                   "htapdb: grace join partition %zu recomputed in memory "
                   "(%s)\n",
                   p, st.ToString().c_str());
      JoinPartitionInMemoryKeys(probe, build, hash_mask, part_mask, p,
                                &pairs);
    }
  }

  // 7. Restore nested-loop order: pairs are unique, so the (probe, build)
  // lexicographic sort is a total order identical to the serial join's.
  std::sort(pairs.begin(), pairs.end());

  js->partitions = nparts;
  js->parallel = exec.parallel();
  js->partitions_spilled = spilled;
  js->spill_rows_written = sc.rows_written.load(std::memory_order_relaxed);
  js->spill_bytes_written = sc.bytes_written.load(std::memory_order_relaxed);
  js->spill_bytes_read = sc.bytes_read;
  js->spill_pages_written = sc.pages_written.load(std::memory_order_relaxed);
  js->spill_pages_read = sc.pages_read;
  js->spill_max_recursion = sc.max_depth;
  return pairs;
}

}  // namespace

std::vector<size_t> EstimateBatchRowBytes(
    const std::vector<ColumnBatch>& batches) {
  std::vector<size_t> out;
  out.reserve(TotalActiveRows(batches));
  for (const ColumnBatch& b : batches) {
    b.ForEachActive([&](size_t i) {
      // The materialized image of this row: the Row shell, one Value per
      // column, and string heap payloads.
      size_t bytes = sizeof(Row) + b.columns.size() * sizeof(Value);
      for (const ColumnVector& cv : b.columns)
        if (cv.type() == Type::kString && !cv.IsNull(i))
          bytes += cv.GetString(i).capacity();
      out.push_back(bytes);
    });
  }
  return out;
}

Value JoinKeyColumn::GetValue(size_t i) const {
  if (!valid[i]) return Value::Null();
  switch (type) {
    case Type::kInt64: return Value(ints[i]);
    case Type::kDouble: return Value(doubles[i]);
    case Type::kString: return Value(strs[i]);
  }
  return Value::Null();
}

bool JoinKeyEquals(const JoinKeyColumn& a, size_t i, const JoinKeyColumn& b,
                   size_t j) {
  if (a.type == b.type) {
    switch (a.type) {
      case Type::kInt64: return a.ints[i] == b.ints[j];
      case Type::kDouble: return a.doubles[i] == b.doubles[j];
      case Type::kString: return a.strs[i] == b.strs[j];
    }
    return false;
  }
  // Cross-type: numeric pairs compare as doubles; numeric never equals a
  // string (Value::Compare semantics).
  if (a.type == Type::kString || b.type == Type::kString) return false;
  const double av =
      a.type == Type::kInt64 ? static_cast<double>(a.ints[i]) : a.doubles[i];
  const double bv =
      b.type == Type::kInt64 ? static_cast<double>(b.ints[j]) : b.doubles[j];
  return av == bv;
}

JoinKeyColumn ExtractJoinKeys(const std::vector<ColumnBatch>& batches,
                              int col) {
  JoinKeyColumn k;
  const auto c = static_cast<size_t>(col);
  const size_t n = TotalActiveRows(batches);
  k.valid.assign(n, 0);
  k.hashes.assign(n, 0);
  for (const ColumnBatch& b : batches) {
    if (b.rows() > 0) {
      k.type = b.columns[c].type();
      break;
    }
  }
  switch (k.type) {
    case Type::kInt64: k.ints.assign(n, 0); break;
    case Type::kDouble: k.doubles.assign(n, 0); break;
    case Type::kString: k.strs.resize(n); break;
  }
  size_t o = 0;
  for (const ColumnBatch& b : batches) {
    const ColumnVector& cv = b.columns[c];
    b.ForEachActive([&](size_t i) {
      if (!cv.IsNull(i)) {
        switch (k.type) {
          case Type::kInt64: {
            const int64_t x = cv.GetInt64(i);
            k.ints[o] = x;
            k.hashes[o] = HashInt64(x);
            break;
          }
          case Type::kDouble: {
            const double x = cv.GetDouble(i);
            k.doubles[o] = x;
            k.hashes[o] = HashDouble(x);
            break;
          }
          case Type::kString:
            k.strs[o] = cv.GetString(i);
            k.hashes[o] = HashString(k.strs[o]);
            break;
        }
        k.valid[o] = 1;
      }
      ++o;
    });
  }
  return k;
}

namespace {

/// Grace-budget weights when the caller supplies none: the key column's own
/// per-slot footprint (all that would spill anyway).
std::vector<size_t> KeySlotBytes(const JoinKeyColumn& k) {
  std::vector<size_t> w(k.size(), sizeof(uint32_t) + sizeof(int64_t));
  if (k.type == Type::kString)
    for (size_t i = 0; i < k.size(); ++i) w[i] += k.strs[i].capacity();
  return w;
}

}  // namespace

JoinPairs HashJoinPairsKeys(const JoinKeyColumn& probe,
                            const JoinKeyColumn& build,
                            const ExecContext& exec, JoinStats* stats,
                            const std::vector<size_t>* build_weights) {
  const Stopwatch sw;
  JoinStats local;
  JoinStats* js = stats != nullptr ? stats : &local;
  js->build_rows = build.size();
  js->probe_rows = probe.size();
  const uint64_t hash_mask = exec.join_hash_mask;
  JoinPairs pairs;

  const size_t budget = exec.join_spill_budget_bytes;
  if (budget > 0) {
    std::vector<size_t> key_weights;
    if (build_weights == nullptr) {
      key_weights = KeySlotBytes(build);
      build_weights = &key_weights;
    }
    size_t est = 0;
    for (size_t w : *build_weights) est += w;
    if (est > budget) {
      // Grace regime: the build side does not fit the configured budget.
      // Checked before the serial fallback — spilling must trigger at any
      // thread count.
      pairs = GraceJoinPairsKeys(probe, build, *build_weights, exec, est, js);
      js->output_rows = pairs.size();
      js->seconds = sw.ElapsedSeconds();
      return pairs;
    }
  }

  if (!exec.parallel() || build.size() < exec.min_parallel_join_build) {
    // Serial regime: one partition, built and probed inline.
    std::vector<JoinPartitionTable> parts(1);
    parts[0].Reserve(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      if (!build.valid[i]) continue;
      parts[0].Insert(build.hashes[i] & hash_mask, static_cast<uint32_t>(i));
    }
    ProbePairsRangeKeys(probe, 0, probe.size(), build, parts,
                        /*part_mask=*/0, hash_mask, &pairs);
    js->partitions = 1;
    js->parallel = false;
  } else {
    // Radix-partitioned parallel regime (DESIGN.md §8).
    const size_t workers = exec.max_parallelism;
    const size_t nparts = JoinPartitionCount(workers);
    const uint64_t part_mask = nparts - 1;

    // 1–2. Partition, then build each partition's table as a morsel.
    const std::vector<JoinPartitionTable> parts = BuildPartitions(
        ScatterBuild(build, nparts, workers, exec, nullptr, nullptr), nparts,
        exec);

    // 3. Probe pass: per-morsel pairs concatenate in probe input order —
    // byte-identical to the serial join.
    pairs = ProbeMorsels(probe.size(), workers, exec, [&] {
      return [&](size_t lo, size_t hi, JoinPairs* out) {
        ProbePairsRangeKeys(probe, lo, hi, build, parts, part_mask, hash_mask,
                            out);
      };
    });
    js->partitions = nparts;
    js->parallel = true;
  }

  js->output_rows = pairs.size();
  js->seconds = sw.ElapsedSeconds();
  return pairs;
}

void SortLimit(std::vector<Row>* rows, int col, bool desc, size_t limit) {
  auto cmp = [col, desc](const Row& a, const Row& b) {
    const int c = a.Get(static_cast<size_t>(col))
                      .Compare(b.Get(static_cast<size_t>(col)));
    return desc ? c > 0 : c < 0;
  };
  if (limit != 0 && limit < rows->size()) {
    std::partial_sort(rows->begin(),
                      rows->begin() + static_cast<long>(limit), rows->end(),
                      cmp);
    rows->resize(limit);
  } else {
    std::stable_sort(rows->begin(), rows->end(), cmp);
  }
}

}  // namespace htap
