#include "storage/mvcc_row_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>

#include "txn/txn_manager.h"

namespace htap {

MvccRowStore::MvccRowStore(uint32_t table_id, Schema schema,
                           TransactionManager* txn_mgr, WalWriter* wal)
    : table_id_(table_id),
      schema_(std::move(schema)),
      layout_(schema_),
      txn_mgr_(txn_mgr),
      wal_(wal) {}

MvccRowStore::~MvccRowStore() {
  for (ChainStripe& s : stripes_) {
    for (auto& chain : s.chains) {
      RowVersion* v = chain->latest;
      while (v != nullptr) {
        RowVersion* older = v->older;
        FreeVersion(v);
        v = older;
      }
    }
  }
}

RowVersion* MvccRowStore::NewVersion(const Row& row, size_t image_bytes,
                                     uint64_t begin, RowVersion* older) {
  const size_t bytes = sizeof(RowVersion) + image_bytes;
  auto* v = new (::operator new(bytes)) RowVersion();
  layout_.Encode(row, v->image());
  v->older = older;
  // order: release so a latch-free stamp reader that acquires this stamp
  // also sees the version's image and links written above.
  v->begin.store(begin, std::memory_order_release);
  versions_.fetch_add(1, std::memory_order_relaxed);
  mem_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return v;
}

void MvccRowStore::FreeVersion(RowVersion* v) {
  const size_t bytes = sizeof(RowVersion) + layout_.ImageSize(v->image());
  versions_.fetch_sub(1, std::memory_order_relaxed);
  mem_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  v->~RowVersion();
  ::operator delete(v, bytes);
}

Status MvccRowStore::SizeImage(const Row& row, size_t* image_bytes) const {
  HTAP_RETURN_NOT_OK(CheckRow(schema_, row));
  *image_bytes = layout_.EncodedSize(row);
  if (*image_bytes > RowImageLayout::kMaxImageBytes)
    return Status::InvalidArgument("row image over 4 GiB");
  return Status::OK();
}

VersionChain* MvccRowStore::GetOrCreateChain(Key key) {
  uint64_t payload;
  if (index_.Lookup(key, &payload))
    return reinterpret_cast<VersionChain*>(payload);
  ChainStripe& s = stripe(key);
  SpinGuard g(s.latch);
  // Double-check under the stripe latch: a same-key writer hashes to the
  // same stripe, so another creation attempt is either visible in the index
  // by now or serialized behind us.
  if (index_.Lookup(key, &payload))
    return reinterpret_cast<VersionChain*>(payload);
  s.chains.push_back(std::unique_ptr<VersionChain>(new VersionChain{key}));
  VersionChain* chain = s.chains.back().get();
  index_.Insert(key, reinterpret_cast<uint64_t>(chain));
  mem_bytes_.fetch_add(sizeof(VersionChain), std::memory_order_relaxed);
  return chain;
}

VersionChain* MvccRowStore::FindChain(Key key) const {
  uint64_t payload;
  if (!index_.Lookup(key, &payload)) return nullptr;
  return reinterpret_cast<VersionChain*>(payload);
}

bool MvccRowStore::Visible(const RowVersion* v, const Snapshot& snap) const {
  // Resolve the begin stamp.
  while (true) {
    // order: acquire pairs with the release stores that stamp begin (writer
    // publish in Insert/Update, CSN re-stamp in TransactionManager::Commit)
    // so the version's image/older fields written before the stamp are
    // visible.
    const uint64_t raw_b = v->begin.load(std::memory_order_acquire);
    if (IsTxnId(raw_b)) {
      if (raw_b == snap.txn_id) break;  // our own write
      CSN csn;
      TxnState state;
      if (!txn_mgr_->GetCommitInfo(raw_b, &csn, &state)) continue;  // re-read
      if (state == TxnState::kCommitted && csn != 0 && csn <= snap.begin_csn)
        break;
      return false;  // active, aborted, or committed after our snapshot
    }
    if (raw_b > snap.begin_csn) return false;
    break;
  }
  // Resolve the end stamp.
  while (true) {
    // order: acquire pairs with the release end-stamp stores (delete/update
    // claim, commit re-stamp) — same publication edge as begin above.
    const uint64_t raw_e = v->end.load(std::memory_order_acquire);
    if (raw_e == kMaxCSN) return true;
    if (IsTxnId(raw_e)) {
      if (raw_e == snap.txn_id) return false;  // we superseded/deleted it
      CSN csn;
      TxnState state;
      if (!txn_mgr_->GetCommitInfo(raw_e, &csn, &state)) continue;  // re-read
      if (state == TxnState::kCommitted && csn != 0)
        return csn > snap.begin_csn;
      return true;  // deleter still in flight or aborted: visible to us
    }
    return raw_e > snap.begin_csn;
  }
}

void MvccRowStore::LogDml(Transaction* txn, WalRecordType type, Key key,
                          const Row& row) {
  if (wal_ == nullptr) return;
  WalRecord rec;
  rec.type = type;
  rec.txn_id = txn->id();
  rec.table_id = table_id_;
  rec.key = key;
  rec.row = row;
  wal_->Append(rec);
}

Status MvccRowStore::Insert(Transaction* txn, const Row& row) {
  size_t image_bytes = 0;
  HTAP_RETURN_NOT_OK(SizeImage(row, &image_bytes));
  const Key key = row.GetKey(schema_);
  VersionChain* chain = GetOrCreateChain(key);
  SpinGuard g(chain->latch);

  RowVersion* latest = chain->latest;
  if (latest != nullptr) {
    // order: acquire pairs with the commit-time release re-stamp
    // (TransactionManager::Commit), which runs without the chain latch.
    const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
    const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^
    if (raw_e == kMaxCSN) {
      // A live version exists (or is being created).
      if (IsTxnId(raw_b) && raw_b != txn->id()) {
        txn_mgr_->RecordConflict();
        return Status::Conflict("uncommitted insert by another txn");
      }
      return Status::AlreadyExists("key exists: " + std::to_string(key));
    }
    if (IsTxnId(raw_e) && raw_e != txn->id()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("uncommitted delete by another txn");
    }
    if (!IsTxnId(raw_e) && raw_e > txn->begin_csn()) {
      // Deleted after our snapshot began: write-write conflict under SI.
      txn_mgr_->RecordConflict();
      return Status::Conflict("key deleted after snapshot");
    }
  }

  RowVersion* v = NewVersion(row, image_bytes, txn->id(), latest);
  chain->latest = v;

  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kInsert, this, chain, v, nullptr});
  txn->changes().push_back(
      ChangeEvent{table_id_, ChangeOp::kInsert, key, row, 0});
  LogDml(txn, WalRecordType::kInsert, key, row);
  return Status::OK();
}

Status MvccRowStore::Update(Transaction* txn, const Row& row) {
  size_t image_bytes = 0;
  HTAP_RETURN_NOT_OK(SizeImage(row, &image_bytes));
  const Key key = row.GetKey(schema_);
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  SpinGuard g(chain->latch);

  RowVersion* latest = chain->latest;
  if (latest == nullptr) return Status::NotFound("no such key");
  // order: acquire pairs with the commit-time release re-stamp
  // (TransactionManager::Commit), which runs without the chain latch.
  const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
  const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^

  if (raw_e != kMaxCSN) {
    if (IsTxnId(raw_e)) {
      if (raw_e == txn->id()) return Status::NotFound("deleted by this txn");
      txn_mgr_->RecordConflict();
      return Status::Conflict("row claimed by another txn");
    }
    if (raw_e > txn->begin_csn()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("row deleted after snapshot");
    }
    return Status::NotFound("row deleted");
  }
  if (IsTxnId(raw_b)) {
    if (raw_b != txn->id()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("uncommitted insert by another txn");
    }
    // Updating our own uncommitted version. Readers reach a version only
    // under this chain latch, so an image of the same size is rewritten in
    // place; otherwise a new allocation takes the old one's place in the
    // chain and in the undo entry that created it.
    if (image_bytes == layout_.ImageSize(latest->image())) {
      layout_.Encode(row, latest->image());
    } else {
      RowVersion* v = NewVersion(row, image_bytes, raw_b, latest->older);
      chain->latest = v;
      const auto undo = std::find_if(
          txn->undo().rbegin(), txn->undo().rend(),
          [&](const UndoEntry& u) { return u.new_version == latest; });
      assert(undo != txn->undo().rend());
      undo->new_version = v;
      FreeVersion(latest);
    }
    txn->changes().push_back(
        ChangeEvent{table_id_, ChangeOp::kUpdate, key, row, 0});
    LogDml(txn, WalRecordType::kUpdate, key, row);
    return Status::OK();
  }
  if (raw_b > txn->begin_csn()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("row written after snapshot");
  }

  RowVersion* v = NewVersion(row, image_bytes, txn->id(), latest);
  // order: release so the end claim is never reordered before the new
  // version's publication in NewVersion.
  latest->end.store(txn->id(), std::memory_order_release);
  chain->latest = v;

  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kUpdate, this, chain, v, latest});
  txn->changes().push_back(
      ChangeEvent{table_id_, ChangeOp::kUpdate, key, row, 0});
  LogDml(txn, WalRecordType::kUpdate, key, row);
  return Status::OK();
}

Status MvccRowStore::Delete(Transaction* txn, Key key) {
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  SpinGuard g(chain->latch);

  RowVersion* latest = chain->latest;
  if (latest == nullptr) return Status::NotFound("no such key");
  // order: acquire pairs with the commit-time release re-stamp
  // (TransactionManager::Commit), which runs without the chain latch.
  const uint64_t raw_b = latest->begin.load(std::memory_order_acquire);
  const uint64_t raw_e = latest->end.load(std::memory_order_acquire);  // order: ^

  if (raw_e != kMaxCSN) {
    if (IsTxnId(raw_e)) {
      if (raw_e == txn->id()) return Status::NotFound("already deleted");
      txn_mgr_->RecordConflict();
      return Status::Conflict("row claimed by another txn");
    }
    if (raw_e > txn->begin_csn()) {
      txn_mgr_->RecordConflict();
      return Status::Conflict("row deleted after snapshot");
    }
    return Status::NotFound("row deleted");
  }
  if (IsTxnId(raw_b) && raw_b != txn->id()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("uncommitted insert by another txn");
  }
  if (!IsTxnId(raw_b) && raw_b > txn->begin_csn()) {
    txn_mgr_->RecordConflict();
    return Status::Conflict("row written after snapshot");
  }

  // order: release so a latch-free Visible() that acquires this claim also
  // sees everything this txn wrote before it.
  latest->end.store(txn->id(), std::memory_order_release);
  txn->undo().push_back(
      UndoEntry{UndoEntry::Kind::kDelete, this, chain, nullptr, latest});
  txn->changes().push_back(
      ChangeEvent{table_id_, ChangeOp::kDelete, key, Row{}, 0});
  LogDml(txn, WalRecordType::kDelete, key, Row{});
  return Status::OK();
}

Status MvccRowStore::Get(const Snapshot& snap, Key key, Row* out) const {
  VersionChain* chain = FindChain(key);
  if (chain == nullptr) return Status::NotFound("no such key");
  SpinGuard g(chain->latch);
  for (const RowVersion* v = chain->latest; v != nullptr; v = v->older) {
    if (Visible(v, snap)) {
      layout_.Decode(v->image(), out);
      return Status::OK();
    }
  }
  return Status::NotFound("no visible version");
}

void MvccRowStore::Scan(
    const Snapshot& snap,
    const std::function<bool(Key, const Row&)>& visit) const {
  ScanRange(snap, std::numeric_limits<Key>::min(),
            std::numeric_limits<Key>::max(), visit);
}

void MvccRowStore::ScanRange(
    const Snapshot& snap, Key lo, Key hi,
    const std::function<bool(Key, const Row&)>& visit) const {
  Row scratch;  // each visible row is decoded into it, its cells reused
  index_.Scan(lo, hi, [&](Key key, uint64_t payload) {
    auto* chain = reinterpret_cast<VersionChain*>(payload);
    SpinGuard g(chain->latch);
    for (const RowVersion* v = chain->latest; v != nullptr; v = v->older) {
      if (Visible(v, snap)) {
        layout_.Decode(v->image(), &scratch);
        return visit(key, scratch);
      }
    }
    return true;  // no visible version for this key; keep scanning
  });
}

std::vector<std::pair<Key, Key>> MvccRowStore::SplitKeyRanges(size_t n) const {
  constexpr Key kLo = std::numeric_limits<Key>::min();
  constexpr Key kHi = std::numeric_limits<Key>::max();
  std::vector<std::pair<Key, Key>> ranges;
  const size_t total = index_.size();
  if (n <= 1 || total < 2 * n) {
    ranges.emplace_back(kLo, kHi);
    return ranges;
  }
  // One index pass collecting every stride-th key as a partition boundary.
  const size_t stride = (total + n - 1) / n;
  std::vector<Key> bounds;
  bounds.reserve(n);
  size_t i = 0;
  index_.ScanAll([&](Key k, uint64_t) {
    if (i != 0 && i % stride == 0) bounds.push_back(k);
    ++i;
    return true;
  });
  Key lo = kLo;
  for (Key b : bounds) {
    // b follows at least one smaller indexed key, so b > kLo and b-1 is safe.
    ranges.emplace_back(lo, b - 1);
    lo = b;
  }
  ranges.emplace_back(lo, kHi);
  return ranges;
}

Status MvccRowStore::ApplyCommitted(ChangeOp op, Key key, const Row& row,
                                    CSN csn) {
  size_t image_bytes = 0;
  if (op != ChangeOp::kDelete)
    HTAP_RETURN_NOT_OK(SizeImage(row, &image_bytes));
  VersionChain* chain = GetOrCreateChain(key);
  SpinGuard g(chain->latch);
  switch (op) {
    case ChangeOp::kInsert:
    case ChangeOp::kUpdate: {
      RowVersion* v = NewVersion(row, image_bytes, csn, chain->latest);
      // order: release/acquire — same begin/end publication edges as the
      // transactional DML paths; concurrent snapshot readers resolve these
      // stamps latch-free in Visible().
      if (chain->latest != nullptr &&
          chain->latest->end.load(std::memory_order_acquire) ==  // order: ^
              kMaxCSN) {
        chain->latest->end.store(csn, std::memory_order_release);  // order: ^
      } else if (chain->latest == nullptr || op == ChangeOp::kInsert) {
        live_rows_.fetch_add(1, std::memory_order_relaxed);
      }
      chain->latest = v;
      break;
    }
    case ChangeOp::kDelete: {
      if (chain->latest != nullptr &&
          chain->latest->end.load(std::memory_order_acquire) ==  // order: ^
              kMaxCSN) {
        chain->latest->end.store(csn, std::memory_order_release);  // order: ^
        live_rows_.fetch_sub(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  return Status::OK();
}

void MvccRowStore::AccountCommittedEntry(const UndoEntry& u) {
  switch (u.kind) {
    case UndoEntry::Kind::kInsert:
      live_rows_.fetch_add(1, std::memory_order_relaxed);
      break;
    case UndoEntry::Kind::kDelete:
      live_rows_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case UndoEntry::Kind::kUpdate:
      break;
  }
}

void MvccRowStore::RollbackEntry(const UndoEntry& u) {
  SpinGuard g(u.chain->latch);
  switch (u.kind) {
    case UndoEntry::Kind::kInsert: {
      assert(u.chain->latest == u.new_version);
      u.chain->latest = u.new_version->older;
      FreeVersion(u.new_version);
      break;
    }
    case UndoEntry::Kind::kUpdate: {
      assert(u.chain->latest == u.new_version);
      u.chain->latest = u.old_version;
      // order: release — resurrecting the old version is a publication a
      // latch-free stamp reader may consume with its acquire load.
      u.old_version->end.store(kMaxCSN, std::memory_order_release);
      FreeVersion(u.new_version);
      break;
    }
    case UndoEntry::Kind::kDelete: {
      u.old_version->end.store(kMaxCSN, std::memory_order_release);  // order: ^
      break;
    }
  }
}

size_t MvccRowStore::Vacuum(CSN watermark) {
  size_t reclaimed = 0;
  for (ChainStripe& s : stripes_) {
    SpinGuard chains_guard(s.latch);
    for (auto& chain_ptr : s.chains) {
      VersionChain* chain = chain_ptr.get();
      SpinGuard g(chain->latch);
      if (chain->latest == nullptr) continue;
      // Keep the latest version; free any older version whose end CSN is at
      // or below the watermark (unreachable by every active or future
      // snapshot).
      RowVersion* keep = chain->latest;
      RowVersion* v = keep->older;
      while (v != nullptr) {
        // order: acquire pairs with the commit-time release re-stamp so a
        // freshly retired CSN is read consistently with the version image.
        const uint64_t raw_e = v->end.load(std::memory_order_acquire);
        if (!IsTxnId(raw_e) && raw_e != kMaxCSN && raw_e <= watermark) {
          // This and everything older is dead.
          keep->older = nullptr;
          while (v != nullptr) {
            RowVersion* older = v->older;
            FreeVersion(v);
            ++reclaimed;
            v = older;
          }
          break;
        }
        keep = v;
        v = v->older;
      }
    }
  }
  return reclaimed;
}

}  // namespace htap
