// The benchmark's own seeded TPC-C transaction generator and executor.
//
// Inputs are generated up front from a seed, with the same mix, key choices
// and NURand parameters as benchlib::ChTransactions, and handed to the
// executor as plain data. An aborted transaction is retried with the same
// inputs up to a fixed budget, and each abort is attributed to the DbTxn
// call that returned the error.

#ifndef HTAPBENCH_TPCC_H_
#define HTAPBENCH_TPCC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "benchlib/chbench.h"
#include "core/database.h"

namespace htapbench {

enum class TxnType : uint8_t { kNewOrder, kPayment, kDelivery, kOrderStatus };
inline constexpr int kNumTxnTypes = 4;
const char* TxnTypeName(TxnType t);

struct OrderLineInput {
  int64_t item = 0;
  int64_t quantity = 0;
};

/// Everything one transaction needs; no random choice is left to execution.
struct TxnInput {
  TxnType type = TxnType::kNewOrder;
  int64_t w = 0, d = 0, c = 0;
  std::vector<OrderLineInput> lines;  // NewOrder
  double amount = 0;                  // Payment
  uint64_t order_pick = 0;  // Delivery: o_id = 1 + pick % (d_next_o_id - 1)
  int64_t carrier = 0;      // Delivery
  int64_t stamp = 0;        // NewOrder o_entry_d; Delivery ol_delivery_d base
};

/// Generates `count` inputs for client `client` of `clients`. Like a TPC-C
/// terminal, a client works on its home warehouses only: those with
/// (w - 1) % clients == client. `clients` must divide the warehouse count.
/// Equal arguments give equal inputs.
std::vector<TxnInput> GenerateInputs(const htap::bench::ChConfig& config,
                                     uint64_t seed, int client, int clients,
                                     size_t count);

/// Which DbTxn call returned the error that aborted an attempt.
enum class AbortSite : uint8_t { kRead, kWrite, kCommit };
inline constexpr int kNumStatusCodes =
    static_cast<int>(htap::Status::Code::kInternal) + 1;

const char* StatusCodeName(int code);

/// Per-client accounting; merge after the clients join.
struct TxnCounters {
  uint64_t requests = 0;  // transactions started
  uint64_t attempts = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;  // not committed within the retry budget
  uint64_t new_orders = 0;
  std::array<uint64_t, 3> aborts_at{};  // by AbortSite
  std::array<uint64_t, kNumStatusCodes> abort_codes{};

  void Merge(const TxnCounters& o);
};

/// Attempts per transaction before it counts as failed. A retry waits
/// 20 us, doubling up to 5 ms, so the transaction it conflicted with can
/// finish; the whole budget spans about 0.25 s.
inline constexpr int kRetryBudget = 56;

/// Runs one transaction with retries. Returns true when it committed.
bool ExecuteTxn(htap::Database* db, const TxnInput& in, TxnCounters* counters);

}  // namespace htapbench

#endif  // HTAPBENCH_TPCC_H_
