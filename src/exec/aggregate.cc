// Hash aggregation (DESIGN.md §§7, 12): one typed group table absorbs
// column batches directly.

#include <algorithm>
#include <bit>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "exec/executor.h"

namespace htap {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint32_t kNoGroup = ~0u;

/// Below this many input rows per worker the fan-out overhead beats the win.
constexpr size_t kMinRowsPerAggWorker = 2048;

/// The active positions of a batch: its selection vector, or 0..n-1.
struct Positions {
  const uint32_t* sel = nullptr;
  size_t n = 0;
  size_t operator[](size_t j) const { return sel != nullptr ? sel[j] : j; }
};

Positions ActivePositions(const ColumnBatch& b) {
  return b.all_active() ? Positions{nullptr, b.rows()}
                        : Positions{b.sel.data(), b.sel.size()};
}

/// Calls fn(gids[j], value) for every active j whose input cell is not
/// NULL, with one tight loop for the common unfiltered, NULL-free batch.
template <typename T, typename Fn>
void ForEachNonNull(const ColumnVector& cv, const T* vals, Positions pos,
                    const uint32_t* gids, const Fn& fn) {
  const bool nulls = cv.nulls().AnySet();
  if (pos.sel == nullptr && !nulls) {
    for (size_t j = 0; j < pos.n; ++j) fn(gids[j], vals[j]);
    return;
  }
  for (size_t j = 0; j < pos.n; ++j) {
    const size_t i = pos[j];
    if (!nulls || !cv.IsNull(i)) fn(gids[j], vals[i]);
  }
}

/// Folds one column's cells into the running FNV combine of each active
/// row. Each cell hashes as Value::Hash() would (NULLs alike, ±0.0 alike).
void HashKeyColumn(const ColumnVector& cv, Positions pos, uint64_t* h) {
  const bool nulls = cv.nulls().AnySet();
  const auto fold = [&](const auto& vals, const auto& hash_one) {
    for (size_t j = 0; j < pos.n; ++j) {
      const size_t i = pos[j];
      h[j] = h[j] * kFnvPrime ^
             (nulls && cv.IsNull(i) ? HashNullValue() : hash_one(vals[i]));
    }
  };
  switch (cv.type()) {
    case Type::kInt64:
      fold(cv.ints(), [](int64_t v) { return HashInt64(v); });
      break;
    case Type::kDouble:
      fold(cv.doubles(), [](double v) { return HashDouble(v); });
      break;
    case Type::kString:
      fold(cv.strings(), [](const std::string& v) { return HashString(v); });
      break;
  }
}

/// Value::Compare equality between two cells of one type, NULL equal to
/// NULL (group keys bucket NULLs together) and 0.0 equal to -0.0.
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j) {
  const bool an = a.IsNull(i);
  if (an || b.IsNull(j)) return an && b.IsNull(j);
  switch (a.type()) {
    case Type::kInt64: return a.GetInt64(i) == b.GetInt64(j);
    case Type::kDouble: {
      const double x = a.GetDouble(i), y = b.GetDouble(j);
      return !(x < y) && !(y < x);
    }
    case Type::kString: return a.GetString(i) == b.GetString(j);
  }
  return false;
}

/// The typed value array of `cv` (const or not) for element type T.
template <typename T, typename CV>
auto& Data(CV& cv) {
  if constexpr (std::is_same_v<T, int64_t>) return cv.ints();
  else if constexpr (std::is_same_v<T, double>) return cv.doubles();
  else return cv.strings();
}

void AppendCell(ColumnVector* dst, const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case Type::kInt64: dst->AppendInt64(src.GetInt64(i)); break;
    case Type::kDouble: dst->AppendDouble(src.GetDouble(i)); break;
    case Type::kString: dst->AppendString(src.GetString(i)); break;
  }
}

/// The group table. Open addressing maps a key hash to a dense group id;
/// group ids are assigned in first-seen order, and every per-group array
/// below is indexed by them:
///   - keys_: one typed ColumnVector per group column (NULL bits included);
///   - per aggregate: a count (rows for COUNT(*), non-NULL inputs
///     otherwise), a double sum, and for MIN/MAX the running extreme in a
///     vector typed like the input column.
/// A batch is absorbed in two passes: group ids for every active row, then
/// one typed loop per aggregate over (group id, value). No Value is boxed
/// per row, and a new group costs one slot per array.
class AggTable {
 public:
  /// `types[c]` is the type of input column c.
  AggTable(const std::vector<Type>& types, const std::vector<int>& group_cols,
           const std::vector<AggSpec>& aggs)
      : group_cols_(group_cols) {
    keys_.reserve(group_cols.size());
    for (int c : group_cols) keys_.emplace_back(types[static_cast<size_t>(c)]);
    states_.reserve(aggs.size());
    for (const AggSpec& a : aggs) {
      const Type t = a.column < 0 ? Type::kInt64
                                  : types[static_cast<size_t>(a.column)];
      states_.push_back(AggColumn{a.fn, a.column, ColumnVector(t), {}, {}});
    }
    Grow();
  }

  size_t groups() const { return hashes_.size(); }

  /// Absorbs rows `pos` of `columns` (the input layout).
  void Absorb(const std::vector<ColumnVector>& columns, Positions pos) {
    if (pos.n == 0) return;
    gids_.resize(pos.n);
    if (keys_.empty()) {  // a global aggregate: every row is the one group
      const uint32_t g =
          FindOrAdd(kFnvOffset, [](uint32_t) { return true; }, [] {});
      std::fill(gids_.begin(), gids_.end(), g);
    } else {
      scratch_hashes_.assign(pos.n, kFnvOffset);
      for (int c : group_cols_)
        HashKeyColumn(columns[static_cast<size_t>(c)], pos,
                      scratch_hashes_.data());
      for (size_t j = 0; j < pos.n; ++j) {
        const size_t i = pos[j];
        gids_[j] = FindOrAdd(
            scratch_hashes_[j],
            [&](uint32_t g) {
              for (size_t k = 0; k < keys_.size(); ++k)
                if (!CellsEqual(keys_[k], g,
                                columns[static_cast<size_t>(group_cols_[k])],
                                i))
                  return false;
              return true;
            },
            [&] {
              for (size_t k = 0; k < keys_.size(); ++k)
                AppendCell(&keys_[k],
                           columns[static_cast<size_t>(group_cols_[k])], i);
            });
      }
    }
    for (AggColumn& a : states_) {
      if (a.column < 0) {  // COUNT(*)
        int64_t* count = a.count.data();
        for (size_t j = 0; j < pos.n; ++j) ++count[gids_[j]];
        continue;
      }
      const ColumnVector& cv = columns[static_cast<size_t>(a.column)];
      switch (cv.type()) {
        case Type::kInt64: Update(&a, cv, cv.ints().data(), pos); break;
        case Type::kDouble: Update(&a, cv, cv.doubles().data(), pos); break;
        case Type::kString: Update(&a, cv, cv.strings().data(), pos); break;
      }
    }
  }

  /// Folds a partial table over a later input range into this one. Groups
  /// new to this table append in `other`'s first-seen order, so merging
  /// partials in input order keeps global first-seen order.
  void MergeFrom(const AggTable& other) {
    for (uint32_t og = 0; og < other.groups(); ++og) {
      const uint32_t g = FindOrAdd(
          other.hashes_[og],
          [&](uint32_t mine) {
            for (size_t k = 0; k < keys_.size(); ++k)
              if (!CellsEqual(keys_[k], mine, other.keys_[k], og))
                return false;
            return true;
          },
          [&] {
            for (size_t k = 0; k < keys_.size(); ++k)
              AppendCell(&keys_[k], other.keys_[k], og);
          });
      for (size_t a = 0; a < states_.size(); ++a)
        states_[a].MergeFrom(g, other.states_[a], og);
    }
  }

  std::vector<Row> Finalize() const {
    std::vector<Row> out;
    if (groups() == 0 && keys_.empty()) {
      // Global aggregate over zero rows: COUNT=0, others NULL.
      Row r;
      for (const AggColumn& a : states_)
        r.Append(a.fn == AggSpec::Fn::kCount ? Value(int64_t{0})
                                             : Value::Null());
      out.push_back(std::move(r));
      return out;
    }
    out.reserve(groups());
    for (uint32_t g = 0; g < groups(); ++g) {
      std::vector<Value> vals;
      vals.reserve(keys_.size() + states_.size());
      for (const ColumnVector& k : keys_) vals.push_back(k.GetValue(g));
      for (const AggColumn& a : states_) vals.push_back(a.Result(g));
      out.emplace_back(std::move(vals));
    }
    return out;
  }

 private:
  struct AggColumn {
    AggSpec::Fn fn;
    int column;
    ColumnVector ext;            // kMin / kMax: the running extreme
    std::vector<int64_t> count;  // rows for COUNT(*), else non-NULL inputs
    std::vector<double> sum;     // kSum, kAvg

    bool is_extreme() const {
      return fn == AggSpec::Fn::kMin || fn == AggSpec::Fn::kMax;
    }

    void AddGroup() {
      count.push_back(0);
      sum.push_back(0);
      if (!is_extreme()) return;
      switch (ext.type()) {
        case Type::kInt64: ext.AppendInt64(0); break;
        case Type::kDouble: ext.AppendDouble(0); break;
        case Type::kString: ext.AppendString({}); break;
      }
    }

    template <typename T>
    void MergeExtreme(uint32_t g, const AggColumn& o, uint32_t og) {
      std::vector<T>& m = Data<T>(ext);
      const T& x = Data<T>(o.ext)[og];
      if (count[g] == 0 || (fn == AggSpec::Fn::kMin ? x < m[g] : m[g] < x))
        m[g] = x;
    }

    void MergeFrom(uint32_t g, const AggColumn& o, uint32_t og) {
      if (o.count[og] > 0 && is_extreme()) {
        switch (ext.type()) {
          case Type::kInt64: MergeExtreme<int64_t>(g, o, og); break;
          case Type::kDouble: MergeExtreme<double>(g, o, og); break;
          case Type::kString: MergeExtreme<std::string>(g, o, og); break;
        }
      }
      count[g] += o.count[og];
      sum[g] += o.sum[og];
    }

    Value Result(uint32_t g) const {
      if (fn == AggSpec::Fn::kCount) return Value(count[g]);
      if (count[g] == 0) return Value::Null();
      switch (fn) {
        case AggSpec::Fn::kSum: return Value(sum[g]);
        case AggSpec::Fn::kAvg:
          return Value(sum[g] / static_cast<double>(count[g]));
        default: return ext.GetValue(g);
      }
    }
  };

  struct Slot {
    uint64_t hash;
    uint32_t gid;
  };

  /// Pass 2 for one aggregate over one typed input column. NULL inputs are
  /// skipped by every function; SUM/AVG over strings count the input but
  /// add nothing (the boxed operator's historical semantics).
  template <typename T>
  void Update(AggColumn* a, const ColumnVector& cv, const T* vals,
              Positions pos) {
    const uint32_t* gids = gids_.data();
    int64_t* count = a->count.data();
    double* sum = a->sum.data();
    T* m = a->is_extreme() ? Data<T>(a->ext).data() : nullptr;
    const auto extreme = [&](auto better) {
      ForEachNonNull(cv, vals, pos, gids,
                     [m, count, better](uint32_t g, const T& x) {
                       if (count[g] == 0 || better(x, m[g])) m[g] = x;
                       ++count[g];
                     });
    };
    switch (a->fn) {
      case AggSpec::Fn::kCount:
        ForEachNonNull(cv, vals, pos, gids,
                       [count](uint32_t g, const T&) { ++count[g]; });
        break;
      case AggSpec::Fn::kSum:
      case AggSpec::Fn::kAvg:
        ForEachNonNull(cv, vals, pos, gids,
                       [sum, count](uint32_t g, const T& x) {
                         if constexpr (std::is_arithmetic_v<T>)
                           sum[g] += static_cast<double>(x);
                         ++count[g];
                       });
        break;
      case AggSpec::Fn::kMin:
        extreme([](const T& x, const T& cur) { return x < cur; });
        break;
      case AggSpec::Fn::kMax:
        extreme([](const T& x, const T& cur) { return cur < x; });
        break;
    }
  }

  size_t SlotOf(uint64_t h) const {
    // Fibonacci hashing: the high bits of the product index the table.
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  uint32_t AddGroup(uint64_t h) {
    const auto g = static_cast<uint32_t>(groups());
    hashes_.push_back(h);
    for (AggColumn& a : states_) a.AddGroup();
    return g;
  }

  /// Returns the group whose hash is `h` and for which equal(gid) holds,
  /// adding one (append_keys() stores its key cells) when none does.
  template <typename EqualFn, typename AppendFn>
  uint32_t FindOrAdd(uint64_t h, const EqualFn& equal,
                     const AppendFn& append_keys) {
    Slot* slots = slots_.data();
    const size_t mask = slots_.size() - 1;
    for (size_t s = SlotOf(h);; s = (s + 1) & mask) {
      if (slots[s].gid == kNoGroup) {
        const uint32_t g = AddGroup(h);
        slots[s] = {h, g};
        append_keys();
        if (2 * groups() > slots_.size()) Grow();
        return g;
      }
      if (slots[s].hash == h && equal(slots[s].gid)) return slots[s].gid;
    }
  }

  /// Doubles the slot array (the load factor stays at most 1/2) and
  /// reinserts every group from its stored hash.
  void Grow() {
    const size_t cap = std::max<size_t>(64, slots_.size() * 2);
    shift_ = 64 - std::countr_zero(cap);
    slots_.assign(cap, Slot{0, kNoGroup});
    const size_t mask = cap - 1;
    for (uint32_t g = 0; g < groups(); ++g) {
      size_t s = SlotOf(hashes_[g]);
      while (slots_[s].gid != kNoGroup) s = (s + 1) & mask;
      slots_[s] = {hashes_[g], g};
    }
  }

  std::vector<int> group_cols_;
  std::vector<ColumnVector> keys_;
  std::vector<AggColumn> states_;
  std::vector<uint64_t> hashes_;  // per group
  std::vector<Slot> slots_;
  int shift_ = 64;
  // Per-batch scratch: row hashes (pass 1) and group ids (passes 1 and 2).
  std::vector<uint64_t> scratch_hashes_;
  std::vector<uint32_t> gids_;
};

size_t AggWorkers(const ExecContext& exec, size_t rows, size_t batches) {
  if (!exec.parallel()) return 1;
  return std::min({exec.max_parallelism,
                   std::max<size_t>(rows / kMinRowsPerAggWorker, 1),
                   std::max<size_t>(batches, 1)});
}

}  // namespace

std::vector<Row> HashAggregate(const std::vector<ColumnBatch>& batches,
                               const std::vector<int>& group_cols,
                               const std::vector<AggSpec>& aggs,
                               const ExecContext& exec, AggStats* stats) {
  Stopwatch sw;
  // Each input column's type, from the first batch (all batches of one
  // input share a layout); an empty input is never read, so any type does.
  int width = 0;
  for (int c : group_cols) width = std::max(width, c + 1);
  for (const AggSpec& a : aggs) width = std::max(width, a.column + 1);
  std::vector<Type> types(static_cast<size_t>(width), Type::kInt64);
  if (!batches.empty())
    for (size_t c = 0; c < types.size(); ++c)
      types[c] = batches.front().columns[c].type();

  // Serially one table; in parallel one partial table per contiguous range
  // of batches, merged in range order, so groups keep first-seen order.
  const size_t total = TotalActiveRows(batches);
  const size_t workers = AggWorkers(exec, total, batches.size());
  std::vector<AggTable> tables(workers, AggTable(types, group_cols, aggs));
  const auto absorb = [&](AggTable* t, size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b)
      t->Absorb(batches[b].columns, ActivePositions(batches[b]));
  };
  if (workers == 1) {
    absorb(&tables[0], 0, batches.size());
  } else {
    const size_t chunk = (batches.size() + workers - 1) / workers;
    TaskGroup tg(exec.pool);
    for (size_t w = 0; w < workers; ++w) {
      tg.Run([&, w] {
        const size_t lo = std::min(batches.size(), w * chunk);
        absorb(&tables[w], lo, std::min(batches.size(), lo + chunk));
      });
    }
    tg.Wait();
    for (size_t w = 1; w < workers; ++w) tables[0].MergeFrom(tables[w]);
  }
  std::vector<Row> out = tables[0].Finalize();
  if (stats != nullptr) {
    stats->rows_in = total;
    stats->groups_out = tables[0].groups();
    stats->workers = workers;
    stats->seconds = sw.ElapsedSeconds();
  }
  return out;
}

}  // namespace htap
