#pragma once

/// \file trace.hpp
/// Span/phase trace sink.
///
/// Instrumented code emits *spans* — closed [t0, t1] intervals of
/// simulated time on a lane (a rank, or a per-world service lane) —
/// into a bounded ring of compact 56-byte records.  The ring keeps
/// full traces bounded at 10k+ ranks: when it wraps, the oldest spans
/// are overwritten and counted in dropped().  The ring's storage grows
/// on demand up to its capacity, so a sink that never receives a span
/// (a metrics- or profile-only session) allocates none.  Span names
/// are interned once; records carry a 32-bit name id plus a
/// correlation id (the message id, for reassembling a message's
/// tx/hops/flow/rx breakdown) and two free-form numeric args (bytes,
/// flops, ...).
///
/// The sink knows nothing about files; exporters (obsv/export.hpp)
/// turn its contents into Chrome-trace JSON or CSV.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/units.hpp"

namespace xts::obsv {

/// Span category — becomes the Chrome trace "cat" field.
enum class Cat : std::uint8_t {
  kMessage = 0,    ///< per-message breakdown (tx/rendezvous/hops/flow/rx)
  kCollective,     ///< whole collective on the calling rank
  kPhase,          ///< application-named phase (cam.dynamics, pop.halo, ...)
  kCompute,        ///< Node::execute work
  kNetwork,        ///< flow-network activity
  kEngine,         ///< engine / whole-world activity
  kIo,             ///< filesystem I/O (MDS ops, stripe transfers)
};

[[nodiscard]] std::string_view cat_name(Cat c) noexcept;

/// Lane number used for per-world (non-rank) spans like world.run.
inline constexpr std::int32_t kWorldLane = -1;

struct TraceEvent {
  SimTime t0 = 0.0;
  SimTime t1 = 0.0;
  std::uint64_t id = 0;    ///< correlation id (message id); 0 = none
  double a0 = 0.0;         ///< arg 0 (bytes, flops, ...)
  double a1 = 0.0;         ///< arg 1
  std::uint32_t name = 0;  ///< interned name id
  std::uint32_t world = 0; ///< world ordinal (Chrome pid)
  std::int32_t lane = 0;   ///< rank, or kWorldLane
  Cat cat = Cat::kEngine;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  /// Intern a span name; stable for the lifetime of the sink.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::string& name(std::uint32_t id) const;
  /// Interned names so far (ids are 0..name_count()-1).
  [[nodiscard]] std::uint32_t name_count() const noexcept {
    return static_cast<std::uint32_t>(names_.size());
  }

  void emit(const TraceEvent& e);

  /// Spans currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Spans overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Account for spans dropped elsewhere (a shard sink that wrapped
  /// before being folded into this one — see obsv::Shard).
  void add_dropped(std::uint64_t n) noexcept { dropped_ += n; }

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Visit retained spans oldest-first without materializing a copy.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i)
      fn(ring_[(head_ + i) % cap_]);
  }

  /// Drop all spans (interned names and grown storage are kept).
  void clear();

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

 private:
  /// Hashes std::string and std::string_view alike, so intern() looks
  /// names up without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::size_t cap_;  ///< most spans retained
  /// Retained spans.  Below cap_ the ring has never wrapped: emit()
  /// appends and head_ stays 0.  At cap_ it wraps in place.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< oldest retained span
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>
      name_ids_;
};

}  // namespace xts::obsv
