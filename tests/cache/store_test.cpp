#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "core/cache_stats.hpp"

namespace xts::cache {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory: gtest_discover_tests runs each TEST as its
/// own ctest entry, so sibling tests of this binary may run in parallel
/// processes — the directory name must be test-unique.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "xtsim_store_" + name;
  fs::remove_all(dir);
  return dir;
}

Key key_of(int n) { return Fingerprint().add("n", n).done(); }

std::string entry_path(const std::string& dir, const Key& key) {
  return dir + "/" + key.hex() + ".xtsc";
}

/// Overwrite `count` bytes at `offset` of an existing file.
void stomp(const std::string& path, std::size_t offset, char byte,
           std::size_t count = 1) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  for (std::size_t i = 0; i < count; ++i) f.put(byte);
  ASSERT_TRUE(f.good());
}

std::uint64_t corrupt_count() {
  return scenario_cache_stats().corrupt.load(std::memory_order_relaxed);
}

TEST(Store, MemoOnlyRoundTrip) {
  Store s("");
  std::string got;
  EXPECT_FALSE(s.get(key_of(1), got));
  s.put(key_of(1), "payload-one");
  EXPECT_TRUE(s.get(key_of(1), got));
  EXPECT_EQ(got, "payload-one");
  EXPECT_FALSE(s.get(key_of(2), got));
  EXPECT_EQ(s.memo_entries(), 1u);
}

TEST(Store, InvalidKeyNeverStored) {
  Store s("");
  const Key invalid;  // default key: valid == false
  s.put(invalid, "x");
  std::string got;
  EXPECT_FALSE(s.get(invalid, got));
  EXPECT_EQ(s.memo_entries(), 0u);
}

TEST(Store, DiskRoundTripAcrossInstances) {
  const std::string dir = fresh_dir("roundtrip");
  {
    Store s(dir);
    s.put(key_of(7), std::string("disk-payload\0with-nul", 21));
  }
  EXPECT_TRUE(fs::exists(entry_path(dir, key_of(7))));
  Store fresh(dir);
  EXPECT_EQ(fresh.memo_entries(), 0u);
  std::string got;
  EXPECT_TRUE(fresh.get(key_of(7), got));
  EXPECT_EQ(got, std::string("disk-payload\0with-nul", 21));
  // Disk hit was promoted into the memo map.
  EXPECT_EQ(fresh.memo_entries(), 1u);
}

TEST(Store, NoTempFileLeftovers) {
  const std::string dir = fresh_dir("tmpclean");
  Store s(dir);
  for (int i = 0; i < 8; ++i) s.put(key_of(i), std::to_string(i));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    ++entries;
  }
  EXPECT_EQ(entries, 8u);
}

TEST(Store, TornWriteTruncationIsAMiss) {
  const std::string dir = fresh_dir("torn");
  {
    Store s(dir);
    s.put(key_of(3), std::string(256, 'x'));
  }
  const std::string path = entry_path(dir, key_of(3));
  // Simulate a torn write under the final name: chop the file in the
  // middle of the payload.  (The store's temp+rename protocol prevents
  // this happening for real; the reader must still survive it.)
  fs::resize_file(path, fs::file_size(path) / 2);
  const std::uint64_t before = corrupt_count();
  Store fresh(dir);
  std::string got;
  EXPECT_FALSE(fresh.get(key_of(3), got));
  EXPECT_EQ(corrupt_count(), before + 1);
  // A rerun overwrites the damaged entry and it reads back clean.
  fresh.put(key_of(3), std::string(256, 'x'));
  Store again(dir);
  EXPECT_TRUE(again.get(key_of(3), got));
  EXPECT_EQ(got, std::string(256, 'x'));
}

TEST(Store, BitRotFailsTheChecksum) {
  const std::string dir = fresh_dir("bitrot");
  {
    Store s(dir);
    s.put(key_of(4), std::string(128, 'y'));
  }
  const std::string path = entry_path(dir, key_of(4));
  // Header is 48 bytes; flip one payload byte without changing size.
  stomp(path, 48 + 64, 'Z');
  const std::uint64_t before = corrupt_count();
  Store fresh(dir);
  std::string got;
  EXPECT_FALSE(fresh.get(key_of(4), got));
  EXPECT_EQ(corrupt_count(), before + 1);
}

TEST(Store, StaleSchemaIsAMiss) {
  const std::string dir = fresh_dir("schema");
  {
    Store s(dir);
    s.put(key_of(5), "schema-payload");
  }
  const std::string path = entry_path(dir, key_of(5));
  // The schema version is the u32 at offset 8.  0xFF in its low byte
  // makes it a future schema.
  stomp(path, 8, '\xFF');
  const std::uint64_t before = corrupt_count();
  Store fresh(dir);
  std::string got;
  EXPECT_FALSE(fresh.get(key_of(5), got));
  EXPECT_EQ(corrupt_count(), before + 1);
}

TEST(Store, KeyMismatchIsAMiss) {
  const std::string dir = fresh_dir("keymismatch");
  {
    Store s(dir);
    s.put(key_of(6), "payload-of-6");
  }
  // An intact entry under another key's file name.
  fs::copy_file(entry_path(dir, key_of(6)), entry_path(dir, key_of(7)));
  const std::uint64_t before = corrupt_count();
  Store fresh(dir);
  std::string got;
  EXPECT_FALSE(fresh.get(key_of(7), got));
  EXPECT_EQ(corrupt_count(), before + 1);
  EXPECT_TRUE(fresh.get(key_of(6), got));
  EXPECT_EQ(got, "payload-of-6");
}

TEST(Store, ProcessStoreConfigureAndReset) {
  Store::reset();
  EXPECT_EQ(Store::process(), nullptr);
  EXPECT_FALSE(
      scenario_cache_stats().enabled.load(std::memory_order_relaxed));
  Store& s = Store::configure("");
  EXPECT_EQ(Store::process(), &s);
  EXPECT_TRUE(
      scenario_cache_stats().enabled.load(std::memory_order_relaxed));
  s.put(key_of(20), "via-process");
  std::string got;
  EXPECT_TRUE(Store::process()->get(key_of(20), got));
  EXPECT_EQ(got, "via-process");
  Store::reset();
  EXPECT_EQ(Store::process(), nullptr);
  EXPECT_FALSE(
      scenario_cache_stats().enabled.load(std::memory_order_relaxed));
}

}  // namespace
}  // namespace xts::cache
