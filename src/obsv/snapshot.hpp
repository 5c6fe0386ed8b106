#pragma once

/// \file snapshot.hpp
/// Exact binary codec for a completed obsv::Shard — the piece that lets
/// the scenario-result cache (src/cache) replay a sweep point's
/// observability byte-identically.
///
/// A sweep point records everything through its thread-confined Shard:
/// registry metrics, world summaries, I/O summaries, profiles.  encode()
/// captures that state after the point ran; decode() rebuilds an
/// equivalent Shard in a later process, which the sweep runner absorbs
/// in the same submission slot — so `--metrics` / `--profile` output
/// from a cache hit is bit-for-bit what the live run printed.
///
/// What is deliberately NOT encoded:
///  - spans (the TraceSink): `--trace` runs bypass the cache entirely —
///    span volume dwarfs everything else and nobody replays traces;
///  - WorldSummary::class_series: the per-class flow series exists only
///    under a tracing session, whose points are never cached.  Dropping
///    it (format version 2) cut the figs 8-11 `--quick --metrics`
///    entries from 5.7 MB to 0.9 MB in total;
///  - WorldObs handles (worlds_): live-World plumbing, dead by the time
///    a shard is absorbed.
///
/// Each record's wire layout is one field list, shared by encode and
/// decode.  Doubles are stored as exact bit patterns (core/bytes.hpp).
/// Every count is checked against the bytes left, with the per-element
/// minimum taken from the encoding of a default element, before any
/// container is sized.  Every decode failure — truncation, bad magic,
/// version skew — returns false so the caller degrades to a cache miss.

#include <string>
#include <string_view>

namespace xts::obsv {

class Shard;

class ShardSnapshot {
 public:
  /// Serialize a completed shard's registry, summaries and profiles.
  [[nodiscard]] static std::string encode(const Shard& shard);

  /// Rebuild `shard` (must be freshly constructed) from encode()'s
  /// output.  Returns false on any malformed input; the shard may be
  /// partially filled and must be discarded.
  [[nodiscard]] static bool decode(Shard& shard, std::string_view data);
};

}  // namespace xts::obsv
