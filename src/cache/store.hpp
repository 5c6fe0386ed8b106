#pragma once

/// \file store.hpp
/// Scenario-result store: in-process memo map plus an optional on-disk
/// content-addressed directory (`--cache-dir=`).
///
/// Each entry is an opaque payload blob addressed by a storage key
/// (scenario fingerprint x obsv variant, cache/fingerprint.hpp).  The
/// sweep runner composes the blob from the point's result bytes and
/// its serialized obsv shard, so a cache hit replays stdout, --metrics
/// and --profile byte-identically to a live run.
///
/// On-disk format (one file per entry, `<32-hex-key>.xtsc`):
///
///   u32 magic 'XTSC'   u32 format version   u32 schema version
///   u32 reserved       u64 key.hi           u64 key.lo
///   u64 payload size   u64 FNV-1a(payload)  payload bytes
///
/// Torn-write hardening: writes go to a unique same-directory temp file
/// and are renamed into place (rename(2) within one directory is
/// atomic), so a killed process never leaves a half-written entry under
/// the final name.  Reads validate every header field and
/// the checksum; any mismatch — wrong magic, stale schema, truncation,
/// bit rot — counts as a miss (ScenarioCacheStats::corrupt), never an
/// error.  docs/CACHING.md documents the layout and invalidation rules.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/fingerprint.hpp"

namespace xts {
struct BenchOptions;
}

namespace xts::cache {

class Store {
 public:
  /// `dir` may be empty (in-process memo only).  A non-empty dir is
  /// created if missing; failure to create throws UsageError.
  explicit Store(std::string dir);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Fetch the payload for `key` (memory first, then disk).  Disk hits
  /// are promoted into the memo map.  Returns false on miss; corrupt
  /// disk entries count as misses and bump ScenarioCacheStats::corrupt.
  bool get(const Key& key, std::string& payload);

  /// Record a payload (memo map + disk when a dir is configured).
  /// Disk write failures are silently dropped — a cache that cannot
  /// persist degrades to the in-process memo, it never fails the run.
  void put(const Key& key, std::string payload);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t memo_entries() const;

  // -- process-wide store (configured from --cache-dir) ----------------

  /// Null until configure() ran; the sweep runner caches only when a
  /// store is armed, so without one every point runs and nothing is
  /// stored.
  [[nodiscard]] static Store* process() noexcept;
  /// Arm the process store on `dir` (replaces any previous store).
  static Store& configure(std::string dir);
  /// Disarm and destroy the process store (tests).
  static void reset() noexcept;

 private:
  [[nodiscard]] std::string path_of(const Key& key) const;
  bool read_file(const Key& key, std::string& payload) const;
  void write_file(const Key& key, const std::string& payload) const;

  std::string dir_;  ///< "" = memory-only
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const std::string>> memo_;
};

/// Bench wiring: arm the process store from `--cache-dir=` (no-op when
/// the flag was not given).  Call next to obsv::arm_cli in drivers.
void arm_cli(const BenchOptions& opt);

}  // namespace xts::cache
