#include "cache/store.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "core/bytes.hpp"
#include "core/cache_stats.hpp"
#include "core/error.hpp"
#include "core/report.hpp"

namespace xts::cache {

namespace {

constexpr std::uint32_t kMagic = 0x43535458u;  // "XTSC" little-endian
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 4 * 4 + 4 * 8;

std::uint64_t fnv1a64(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

std::string header_for(const Key& key, const std::string& payload) {
  ByteWriter h;
  h.u32(kMagic);
  h.u32(kFormatVersion);
  h.u32(kSchemaVersion);
  h.u32(0);  // reserved
  h.u64(key.hi);
  h.u64(key.lo);
  h.u64(payload.size());
  h.u64(fnv1a64(payload));
  return h.take();
}

/// Validate a whole entry file for `key`; on success `payload` receives
/// the body.  Wrong magic, format or schema version, a key mismatch,
/// truncation and a bad checksum all return false.
bool parse_entry(const std::string& raw, const Key& key,
                 std::string& payload) {
  if (raw.size() < kHeaderBytes) return false;
  ByteReader r(raw);
  if (r.u32() != kMagic || r.u32() != kFormatVersion ||
      r.u32() != kSchemaVersion)
    return false;
  (void)r.u32();  // reserved
  if (r.u64() != key.hi || r.u64() != key.lo) return false;
  const std::uint64_t size = r.u64();
  const std::uint64_t sum = r.u64();
  if (raw.size() != kHeaderBytes + size) return false;
  payload.assign(raw, kHeaderBytes, static_cast<std::size_t>(size));
  if (fnv1a64(payload) != sum) {
    payload.clear();
    return false;
  }
  return true;
}

bool read_whole_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

std::unique_ptr<Store>& process_slot() {
  static std::unique_ptr<Store> s;
  return s;
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw UsageError("cache: cannot create --cache-dir " + dir_ + ": " +
                     ec.message());
}

std::string Store::path_of(const Key& key) const {
  return dir_ + "/" + key.hex() + ".xtsc";
}

bool Store::read_file(const Key& key, std::string& payload) const {
  std::string raw;
  if (!read_whole_file(path_of(key), raw)) return false;
  if (!parse_entry(raw, key, payload)) {
    // An existing-but-invalid entry is bit rot or a stale schema: count
    // it, treat it as a miss, and let the rerun overwrite it.
    auto& stats = scenario_cache_stats();
    stats.bump(stats.corrupt);
    return false;
  }
  return true;
}

void Store::write_file(const Key& key, const std::string& payload) const {
  // Atomic publish: unique same-directory temp, then rename.  rename(2)
  // within one directory is atomic, so readers only ever see absent or
  // complete files under the final name.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      dir_ + "/.tmp." + key.hex() + "." + std::to_string(getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable cache dir: degrade to the memo map
    const std::string header = header_for(key, payload);
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path_of(key).c_str()) != 0)
    std::remove(tmp.c_str());
}

bool Store::get(const Key& key, std::string& payload) {
  if (!key.valid) return false;
  const std::string hex = key.hex();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(hex);
    if (it != memo_.end()) {
      payload = *it->second;
      return true;
    }
  }
  if (dir_.empty() || !read_file(key, payload)) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(hex, std::make_shared<const std::string>(payload));
  return true;
}

void Store::put(const Key& key, std::string payload) {
  if (!key.valid) return;
  auto blob = std::make_shared<const std::string>(std::move(payload));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    memo_[key.hex()] = blob;
  }
  if (!dir_.empty()) write_file(key, *blob);
}

std::size_t Store::memo_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

Store* Store::process() noexcept { return process_slot().get(); }

Store& Store::configure(std::string dir) {
  process_slot() = std::make_unique<Store>(std::move(dir));
  scenario_cache_stats().enabled.store(true, std::memory_order_relaxed);
  return *process_slot();
}

void Store::reset() noexcept {
  process_slot().reset();
  scenario_cache_stats().enabled.store(false, std::memory_order_relaxed);
}

void arm_cli(const BenchOptions& opt) {
  if (!opt.cache_dir.empty()) Store::configure(opt.cache_dir);
}

}  // namespace xts::cache
