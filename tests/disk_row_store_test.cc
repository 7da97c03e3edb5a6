// Disk row store tests: heap round trips, upsert/tombstone semantics,
// persistence across reopen, buffer-pool hit/miss/eviction accounting.

#include <gtest/gtest.h>

#include <cstdio>

#include "storage/disk_row_store.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"s", Type::kString}});
}

Row MakeRow(Key id, int64_t v, const std::string& s = "abc") {
  return Row{Value(id), Value(v), Value(s)};
}

class DiskRowStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/htap_heap_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".heap";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskRowStoreTest, PutGetDelete) {
  DiskRowStore store(path_, TestSchema(), 16);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put(MakeRow(1, 10)).ok());
  Row out;
  ASSERT_TRUE(store.Get(1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 10);
  ASSERT_TRUE(store.Delete(1).ok());
  EXPECT_TRUE(store.Get(1, &out).IsNotFound());
  EXPECT_TRUE(store.Delete(1).IsNotFound());
}

TEST_F(DiskRowStoreTest, UpsertKeepsNewestVersion) {
  DiskRowStore store(path_, TestSchema(), 16);
  ASSERT_TRUE(store.Open().ok());
  store.Put(MakeRow(1, 1));
  store.Put(MakeRow(1, 2));
  store.Put(MakeRow(1, 3));
  Row out;
  ASSERT_TRUE(store.Get(1, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 3);
  EXPECT_EQ(store.live_keys(), 1u);
}

TEST_F(DiskRowStoreTest, ScanVisitsLiveKeysOnly) {
  DiskRowStore store(path_, TestSchema(), 16);
  ASSERT_TRUE(store.Open().ok());
  for (Key k = 0; k < 50; ++k) store.Put(MakeRow(k, k));
  for (Key k = 0; k < 50; k += 2) store.Delete(k);
  size_t count = 0;
  int64_t sum = 0;
  ASSERT_TRUE(store.Scan([&](Key, const Row& r) {
                     ++count;
                     sum += r.Get(1).AsInt64();
                     return true;
                   })
                  .ok());
  EXPECT_EQ(count, 25u);
  EXPECT_EQ(sum, 1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19 + 21 + 23 + 25 +
                     27 + 29 + 31 + 33 + 35 + 37 + 39 + 41 + 43 + 45 + 47 +
                     49);
}

TEST_F(DiskRowStoreTest, PersistsAcrossReopen) {
  {
    DiskRowStore store(path_, TestSchema(), 16);
    ASSERT_TRUE(store.Open().ok());
    for (Key k = 0; k < 300; ++k)
      store.Put(MakeRow(k, k * 2, std::string(50, 'p')));
    store.Delete(7);
    store.Put(MakeRow(8, 999));
    ASSERT_TRUE(store.Flush().ok());
  }
  DiskRowStore reopened(path_, TestSchema(), 16);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_keys(), 299u);
  Row out;
  ASSERT_TRUE(reopened.Get(8, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 999);
  EXPECT_TRUE(reopened.Get(7, &out).IsNotFound());
  ASSERT_TRUE(reopened.Get(250, &out).ok());
  EXPECT_EQ(out.Get(1).AsInt64(), 500);
}

TEST_F(DiskRowStoreTest, SpillsAcrossManyPages) {
  DiskRowStore store(path_, TestSchema(), 4);
  ASSERT_TRUE(store.Open().ok());
  // Wide rows: ~900 bytes each, so 8 or 9 per page -> hundreds of pages.
  for (Key k = 0; k < 2000; ++k)
    ASSERT_TRUE(store.Put(MakeRow(k, k, std::string(850, 'x'))).ok());
  EXPECT_GT(store.num_pages(), 100u);
  Row out;
  ASSERT_TRUE(store.Get(0, &out).ok());
  ASSERT_TRUE(store.Get(1999, &out).ok());
}

TEST_F(DiskRowStoreTest, BufferPoolEvictsUnderPressure) {
  DiskRowStore store(path_, TestSchema(), 4);  // tiny pool
  ASSERT_TRUE(store.Open().ok());
  for (Key k = 0; k < 1000; ++k)
    store.Put(MakeRow(k, k, std::string(800, 'y')));
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.pool_stats().evictions, 0u);
  EXPECT_LE(store.pool_stats().cached_pages, 4u);

  // A cold sweep misses; a re-read of one hot key hits.
  const uint64_t misses_before = store.pool_stats().misses;
  Row out;
  store.Get(0, &out);
  EXPECT_GT(store.pool_stats().misses, misses_before);
  const uint64_t hits_before = store.pool_stats().hits;
  store.Get(0, &out);
  EXPECT_GT(store.pool_stats().hits, hits_before);
}

TEST_F(DiskRowStoreTest, InPlaceTailWritesSurviveEvictionAndReopen) {
  {
    // One frame: every read of an older page evicts the dirty tail, and the
    // next append writes into the tail reloaded from the file.
    DiskRowStore store(path_, TestSchema(), 1);
    ASSERT_TRUE(store.Open().ok());
    Row out;
    for (Key k = 0; k < 400; ++k) {
      ASSERT_TRUE(store.Put(MakeRow(k, k, std::string(100, 'z'))).ok());
      ASSERT_TRUE(store.Get(k / 2, &out).ok());
      EXPECT_EQ(out.Get(1).AsInt64(), k / 2);
    }
    EXPECT_GT(store.pool_stats().evictions, 0u);
  }  // the destructor flushes the last dirty frame
  DiskRowStore reopened(path_, TestSchema(), 4);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_keys(), 400u);
  Row out;
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(reopened.Get(k, &out).ok()) << k;
    EXPECT_EQ(out.Get(1).AsInt64(), k);
  }
}

TEST_F(DiskRowStoreTest, RejectsOversizedRow) {
  DiskRowStore store(path_, TestSchema(), 4);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.Put(MakeRow(1, 1, std::string(kDiskPageSize, 'z')))
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace htap
