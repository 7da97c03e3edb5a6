#include "tpcc.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "benchlib/keys.h"
#include "common/random.h"
#include "trace.h"

namespace htapbench {

using htap::Database;
using htap::DbTxn;
using htap::Row;
using htap::Status;
using htap::Value;
using namespace htap::bench;  // key packing

namespace {

// Column positions of the CH schema (benchlib's CreateChTables).
constexpr size_t kWarehouseYtd = 3;
constexpr size_t kDistrictYtd = 4, kDistrictNextOId = 5;
constexpr size_t kCustomerBalance = 6, kCustomerYtdPayment = 7,
                 kCustomerPaymentCnt = 8;
constexpr size_t kItemPrice = 2;
constexpr size_t kStockQuantity = 3, kStockYtd = 4, kStockOrderCnt = 5;
constexpr size_t kOrdersCarrierId = 6, kOrdersOlCnt = 7;
constexpr size_t kOrderLineDeliveryD = 9;

int64_t Pick(htap::Random& rng, int n) {
  return 1 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
}

/// One attempt. Every DbTxn call goes through here so it is traced and, on
/// error, attributed.
class Attempt {
 public:
  explicit Attempt(Database* db) {
    Span s(SpanName::kBegin);
    txn_ = db->Begin();
  }

  Status Get(const char* table, htap::Key key, Row* out) {
    Span s(SpanName::kGet);
    return txn_->Get(table, key, out);
  }
  Status Insert(const char* table, const Row& row) {
    Span s(SpanName::kInsert);
    return txn_->Insert(table, row);
  }
  Status Update(const char* table, const Row& row) {
    Span s(SpanName::kUpdate);
    return txn_->Update(table, row);
  }
  Status Commit() {
    Span s(SpanName::kCommit);
    return txn_->Commit();
  }
  void Abort() {
    Span s(SpanName::kAbort);
    txn_->Abort();
  }

  AbortSite site = AbortSite::kCommit;

 private:
  std::unique_ptr<DbTxn> txn_;
};

#define HTAPBENCH_TRY(a, where, expr) \
  do {                                \
    Status st_ = (expr);              \
    if (!st_.ok()) {                  \
      (a).site = (where);             \
      return st_;                     \
    }                                 \
  } while (0)

Status NewOrder(Attempt& a, const TxnInput& in) {
  Row dist;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("district", DistrictKey(in.w, in.d), &dist));
  const int64_t o_id = dist.Get(kDistrictNextOId).AsInt64();
  dist.Set(kDistrictNextOId, Value(o_id + 1));
  HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("district", dist));

  const auto ol_cnt = static_cast<int64_t>(in.lines.size());
  HTAPBENCH_TRY(
      a, AbortSite::kWrite,
      a.Insert("orders",
               Row{Value(OrderKey(in.w, in.d, o_id)), Value(in.w),
                   Value(in.d), Value(o_id),
                   Value(CustomerKey(in.w, in.d, in.c)), Value(in.stamp),
                   Value(int64_t{0}), Value(ol_cnt)}));
  for (int64_t l = 1; l <= ol_cnt; ++l) {
    const OrderLineInput& line = in.lines[static_cast<size_t>(l - 1)];
    Row item_row;
    HTAPBENCH_TRY(a, AbortSite::kRead, a.Get("item", line.item, &item_row));
    const double price = item_row.Get(kItemPrice).AsDouble();

    Row stock_row;
    HTAPBENCH_TRY(a, AbortSite::kRead,
                  a.Get("stock", StockKey(in.w, line.item), &stock_row));
    int64_t s_qty = stock_row.Get(kStockQuantity).AsInt64();
    s_qty = s_qty - line.quantity >= 10 ? s_qty - line.quantity
                                        : s_qty - line.quantity + 91;
    stock_row.Set(kStockQuantity, Value(s_qty));
    stock_row.Set(kStockYtd,
                  Value(stock_row.Get(kStockYtd).AsInt64() + line.quantity));
    stock_row.Set(kStockOrderCnt,
                  Value(stock_row.Get(kStockOrderCnt).AsInt64() + 1));
    HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("stock", stock_row));

    HTAPBENCH_TRY(
        a, AbortSite::kWrite,
        a.Insert("orderline",
                 Row{Value(OrderLineKey(in.w, in.d, o_id, l)),
                     Value(OrderKey(in.w, in.d, o_id)), Value(in.w),
                     Value(in.d), Value(o_id), Value(l), Value(line.item),
                     Value(line.quantity),
                     Value(static_cast<double>(line.quantity) * price),
                     Value(int64_t{0})}));
  }
  HTAPBENCH_TRY(a, AbortSite::kCommit, a.Commit());
  return Status::OK();
}

Status Payment(Attempt& a, const TxnInput& in) {
  Row wh;
  HTAPBENCH_TRY(a, AbortSite::kRead, a.Get("warehouse", in.w, &wh));
  wh.Set(kWarehouseYtd, Value(wh.Get(kWarehouseYtd).AsDouble() + in.amount));
  HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("warehouse", wh));

  Row dist;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("district", DistrictKey(in.w, in.d), &dist));
  dist.Set(kDistrictYtd, Value(dist.Get(kDistrictYtd).AsDouble() + in.amount));
  HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("district", dist));

  Row cust;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("customer", CustomerKey(in.w, in.d, in.c), &cust));
  cust.Set(kCustomerBalance,
           Value(cust.Get(kCustomerBalance).AsDouble() - in.amount));
  cust.Set(kCustomerYtdPayment,
           Value(cust.Get(kCustomerYtdPayment).AsDouble() + in.amount));
  cust.Set(kCustomerPaymentCnt,
           Value(cust.Get(kCustomerPaymentCnt).AsInt64() + 1));
  HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("customer", cust));
  HTAPBENCH_TRY(a, AbortSite::kCommit, a.Commit());
  return Status::OK();
}

Status Delivery(Attempt& a, const TxnInput& in) {
  Row dist;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("district", DistrictKey(in.w, in.d), &dist));
  const int64_t next = dist.Get(kDistrictNextOId).AsInt64();
  if (next > 1) {
    const int64_t o_id =
        1 + static_cast<int64_t>(in.order_pick %
                                 static_cast<uint64_t>(next - 1));
    Row order;
    const Status found = a.Get("orders", OrderKey(in.w, in.d, o_id), &order);
    if (found.ok()) {
      order.Set(kOrdersCarrierId, Value(in.carrier));
      HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("orders", order));
      const int64_t ol_cnt = order.Get(kOrdersOlCnt).AsInt64();
      for (int64_t l = 1; l <= ol_cnt; ++l) {
        Row ol;
        if (!a.Get("orderline", OrderLineKey(in.w, in.d, o_id, l), &ol).ok())
          continue;
        ol.Set(kOrderLineDeliveryD, Value(in.stamp + l));
        HTAPBENCH_TRY(a, AbortSite::kWrite, a.Update("orderline", ol));
      }
    } else if (!found.IsNotFound()) {
      a.site = AbortSite::kRead;
      return found;
    }
  }
  HTAPBENCH_TRY(a, AbortSite::kCommit, a.Commit());
  return Status::OK();
}

Status OrderStatus(Attempt& a, const TxnInput& in) {
  Row cust;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("customer", CustomerKey(in.w, in.d, in.c), &cust));
  Row dist;
  HTAPBENCH_TRY(a, AbortSite::kRead,
                a.Get("district", DistrictKey(in.w, in.d), &dist));
  const int64_t last = dist.Get(kDistrictNextOId).AsInt64() - 1;
  Row order;
  const Status found = a.Get("orders", OrderKey(in.w, in.d, last), &order);
  if (!found.ok() && !found.IsNotFound()) {
    a.site = AbortSite::kRead;
    return found;
  }
  HTAPBENCH_TRY(a, AbortSite::kCommit, a.Commit());
  return Status::OK();
}

#undef HTAPBENCH_TRY

}  // namespace

const char* TxnTypeName(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder: return "neworder";
    case TxnType::kPayment: return "payment";
    case TxnType::kDelivery: return "delivery";
    case TxnType::kOrderStatus: return "orderstatus";
  }
  return "?";
}

std::vector<TxnInput> GenerateInputs(const ChConfig& cfg, uint64_t seed,
                                     int client, int clients, size_t count) {
  const int homes = cfg.warehouses / clients;
  const auto stream = static_cast<uint64_t>(client);
  htap::Random rng(seed * 0x9E3779B97F4A7C15ULL + stream + 1);
  int64_t stamp = 1'000'000 + static_cast<int64_t>(stream) * 100'000'000;
  // The mix of benchlib::ChTransactions::RunOne, 45/43/4/8, dealt from a
  // shuffled deck of 100 cards (TPC-C 5.2.4.2), so every seed runs it
  // exactly and only the order varies.
  std::vector<uint64_t> deck(100);
  for (uint64_t i = 0; i < deck.size(); ++i) deck[i] = i;
  std::vector<TxnInput> out(count);
  for (size_t n = 0; n < count; ++n) {
    if (n % deck.size() == 0)
      for (size_t i = deck.size() - 1; i > 0; --i)
        std::swap(deck[i], deck[rng.Uniform(i + 1)]);
    TxnInput& in = out[n];
    const uint64_t pick = deck[n % deck.size()];
    in.w = client + 1 + clients * (Pick(rng, homes) - 1);
    in.d = Pick(rng, cfg.districts_per_warehouse);
    if (pick < 45) {
      in.type = TxnType::kNewOrder;
      in.c = Pick(rng, cfg.customers_per_district);
      const int ol_cnt = 5 + static_cast<int>(rng.Uniform(11));
      in.lines.resize(static_cast<size_t>(ol_cnt));
      for (OrderLineInput& line : in.lines) {
        line.item = rng.NURand(8191, 1, cfg.items);
        line.quantity = Pick(rng, 10);
      }
      in.stamp = ++stamp;
    } else if (pick < 88) {
      in.type = TxnType::kPayment;
      in.c = rng.NURand(1023, 1, cfg.customers_per_district);
      in.amount = 1.0 + rng.NextDouble() * 4999.0;
    } else if (pick < 92) {
      in.type = TxnType::kDelivery;
      in.order_pick = rng.Next64();
      in.carrier = Pick(rng, 10);
      in.stamp = stamp;
      stamp += 16;
    } else {
      in.type = TxnType::kOrderStatus;
      in.c = Pick(rng, cfg.customers_per_district);
    }
  }
  return out;
}

const char* StatusCodeName(int code) {
  static const char* kNames[kNumStatusCodes] = {
      "OK",          "NotFound", "AlreadyExists", "InvalidArgument",
      "Conflict",    "Aborted",  "IOError",       "Corruption",
      "NotSupported", "Timeout", "ResourceExhausted", "Internal"};
  return code >= 0 && code < kNumStatusCodes ? kNames[code] : "?";
}

void TxnCounters::Merge(const TxnCounters& o) {
  requests += o.requests;
  attempts += o.attempts;
  committed += o.committed;
  failed += o.failed;
  new_orders += o.new_orders;
  for (size_t i = 0; i < aborts_at.size(); ++i) aborts_at[i] += o.aborts_at[i];
  for (size_t i = 0; i < abort_codes.size(); ++i)
    abort_codes[i] += o.abort_codes[i];
}

bool ExecuteTxn(Database* db, const TxnInput& in, TxnCounters* counters) {
  Span request(SpanName::kTpRequest);
  ++counters->requests;
  for (int attempt = 0; attempt < kRetryBudget; ++attempt) {
    Span span(SpanName::kTpAttempt);
    ++counters->attempts;
    Attempt a(db);
    Status st;
    switch (in.type) {
      case TxnType::kNewOrder: st = NewOrder(a, in); break;
      case TxnType::kPayment: st = Payment(a, in); break;
      case TxnType::kDelivery: st = Delivery(a, in); break;
      case TxnType::kOrderStatus: st = OrderStatus(a, in); break;
    }
    if (st.ok()) {
      ++counters->committed;
      if (in.type == TxnType::kNewOrder) ++counters->new_orders;
      return true;
    }
    ++counters->aborts_at[static_cast<size_t>(a.site)];
    ++counters->abort_codes[static_cast<size_t>(st.code())];
    if (a.site != AbortSite::kCommit) a.Abort();
    std::this_thread::sleep_for(
        std::chrono::microseconds(20 << std::min(attempt, 8)));
  }
  ++counters->failed;
  return false;
}

}  // namespace htapbench
