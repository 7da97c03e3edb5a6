#include "columnar/compression_advisor.h"

#include <algorithm>
#include <string_view>

namespace htap {

namespace {

/// Bits needed for `range` distinct frame offsets (0 when all values are
/// equal — the base alone reconstructs them). Mirrors the FOR encoder.
uint8_t BitsFor(uint64_t range) {
  uint8_t w = 0;
  while (range > 0) {
    ++w;
    range >>= 1;
  }
  return w;
}

template <typename T>
size_t CountRuns(const std::vector<T>& vals) {
  if (vals.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < vals.size(); ++i)
    if (!(vals[i] == vals[i - 1])) ++runs;
  return runs;
}

}  // namespace

SegmentValueStats CollectSegmentStats(const ColumnVector& values) {
  SegmentValueStats st;
  st.rows = values.size();
  for (size_t i = 0; i < st.rows; ++i)
    if (values.IsNull(i)) ++st.nulls;

  // Distinct counts sort a copy and count the boundaries between equal
  // runs — no per-value hash-set nodes.
  switch (values.type()) {
    case Type::kInt64: {
      const auto& v = values.ints();
      st.runs = CountRuns(v);
      std::vector<int64_t> sorted(v);
      std::sort(sorted.begin(), sorted.end());
      st.distinct = CountRuns(sorted);
      if (!v.empty()) {
        st.int_min = sorted.front();
        st.int_max = sorted.back();
      }
      break;
    }
    case Type::kDouble: {
      const auto& v = values.doubles();
      st.runs = CountRuns(v);
      // NaN equals nothing, itself included: each one is distinct. The
      // rest sort with -0.0 beside 0.0, which compare equal.
      std::vector<double> sorted;
      sorted.reserve(v.size());
      size_t nans = 0;
      for (double d : v) {
        if (d != d)
          ++nans;
        else
          sorted.push_back(d);
      }
      std::sort(sorted.begin(), sorted.end());
      st.distinct = CountRuns(sorted) + nans;
      break;
    }
    case Type::kString: {
      const auto& v = values.strings();
      st.runs = CountRuns(v);
      std::vector<std::string_view> sorted;
      sorted.reserve(v.size());
      for (const auto& s : v) {
        st.string_bytes += s.size();
        sorted.emplace_back(s);
      }
      std::sort(sorted.begin(), sorted.end());
      for (size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0 && sorted[i] == sorted[i - 1]) continue;
        ++st.distinct;
        st.distinct_string_bytes += sorted[i].size();
      }
      break;
    }
  }
  return st;
}

CompressionAdvice AdviseEncoding(const ColumnVector& values) {
  const SegmentValueStats st = CollectSegmentStats(values);
  const size_t n = st.rows;
  const Type type = values.type();

  // Payload-byte estimates per encoding, mirroring the shapes the encoders
  // emit (EncodedColumn::MemoryBytes counts the same vectors). The null
  // bitmap is identical across encodings, so it cancels out of the choice
  // and is left out of every estimate.
  const size_t value_bytes =
      type == Type::kString
          ? sizeof(std::string)  // per-slot header; payload added explicitly
          : 8;

  CompressionAdvice advice;
  auto& cand = advice.candidates;
  for (size_t e = 0; e < kNumEncodings; ++e)
    cand[e].encoding = static_cast<EncodingType>(e);

  const auto idx = [](EncodingType t) { return static_cast<size_t>(t); };

  // PLAIN: the raw slots.
  cand[idx(EncodingType::kPlain)].applicable = true;
  cand[idx(EncodingType::kPlain)].bytes = n * value_bytes + st.string_bytes;

  // DICTIONARY: one 4-byte code per slot plus the distinct entries.
  if (type != Type::kDouble) {
    auto& c = cand[idx(EncodingType::kDictionary)];
    c.applicable = true;
    c.bytes = n * 4 + st.distinct * value_bytes + st.distinct_string_bytes;
  }

  // RLE: one value and one 4-byte end offset per run. Run payloads are
  // approximated with the column's mean string length.
  {
    auto& c = cand[idx(EncodingType::kRle)];
    c.applicable = true;
    const size_t avg_len = n == 0 ? 0 : st.string_bytes / n;
    c.bytes = st.runs * (value_bytes + 4 + avg_len);
  }

  // FOR-BITPACK: the frame base plus bit_width bits per slot. Inapplicable
  // off INT64 or when the range overflows the encoder's 2^62 guard.
  if (type == Type::kInt64) {
    const uint64_t range = static_cast<uint64_t>(st.int_max) -
                           static_cast<uint64_t>(st.int_min);
    if (n == 0 || range <= (1ULL << 62)) {
      auto& c = cand[idx(EncodingType::kForBitPack)];
      c.applicable = true;
      c.bytes = 8 + (n * BitsFor(range) + 7) / 8;
    }
  }

  // Pick the smallest estimate, but only leave PLAIN for a compressed
  // encoding that wins by at least 1/8 of PLAIN's footprint — decode
  // overhead is not worth marginal savings. Ties keep the earlier encoding
  // in enum order (deterministic).
  const size_t plain = cand[idx(EncodingType::kPlain)].bytes;
  size_t best = plain - plain / 8;
  advice.chosen = EncodingType::kPlain;
  for (const EncodingType t : {EncodingType::kDictionary, EncodingType::kRle,
                               EncodingType::kForBitPack}) {
    const auto& c = cand[idx(t)];
    if (c.applicable && c.bytes < best) {
      advice.chosen = t;
      best = c.bytes;
    }
  }
  return advice;
}

}  // namespace htap
