#pragma once

/// \file fingerprint.hpp
/// Canonical scenario fingerprint: a stable 128-bit hash over the
/// complete set of inputs that determine a sweep point's output.
///
/// Canonical means two things (ROADMAP item 2's cache contract):
///
///  - **Field-order independent.**  Each (name, value) field is hashed
///    to its own 128-bit digest; done() sorts the per-field digests
///    before folding them, so `add("a",1).add("b",2)` and
///    `add("b",2).add("a",1)` produce the same key.  Callers can build
///    keys from config structs in whatever order is natural.
///  - **Execution-irrelevant by construction.**  The simulator is
///    byte-identical at any --jobs count, so it never enters a key —
///    there is no API to exclude it, it is simply never added.  What IS added: platform
///    constants, NIC/torus/Lustre parameters, exec mode, rank count,
///    the workload descriptor and its config, and the RNG seed.
///
/// A schema-version salt seeds the fold: bump kSchemaVersion whenever
/// any model change can alter a result for the same inputs, and every
/// previously stored entry misses cleanly.
///
/// Hash quality: per-field digests use two independently seeded FNV-1a
/// streams widened by a splitmix64 finalizer; the fold mixes digests
/// sequentially after sorting.  Not cryptographic — collision
/// resistance is "don't collide across bench grids", which the
/// fingerprint_grid test checks across every scenario the drivers emit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xts::cache {

/// Bump on any model/semantics change that can alter results for an
/// unchanged scenario description (timing model edits, new config
/// fields with non-neutral defaults, result-struct layout changes).
inline constexpr std::uint32_t kSchemaVersion = 1;

/// A finished 128-bit scenario key.  Default-constructed keys are
/// invalid and never match anything — the sweep runner treats them as
/// "do not cache this point".
struct Key {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool valid = false;

  /// 32-char lowercase hex (content-addressed file name).
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const Key&, const Key&) = default;
};

class Fingerprint {
 public:
  /// `schema` overrides the salt (tests only; production keys use
  /// kSchemaVersion).
  explicit Fingerprint(std::uint32_t schema = kSchemaVersion) noexcept
      : schema_(schema) {}

  Fingerprint& add(std::string_view field, double v);
  Fingerprint& add(std::string_view field, std::int64_t v);
  Fingerprint& add(std::string_view field, std::uint64_t v);
  Fingerprint& add(std::string_view field, bool v);
  Fingerprint& add(std::string_view field, std::string_view v);
  Fingerprint& add(std::string_view field, const char* v) {
    return add(field, std::string_view(v));
  }
  Fingerprint& add(std::string_view field, int v) {
    return add(field, static_cast<std::int64_t>(v));
  }
  Fingerprint& add(std::string_view field, unsigned v) {
    return add(field, static_cast<std::uint64_t>(v));
  }

  [[nodiscard]] std::size_t fields() const noexcept {
    return digests_.size();
  }

  /// Fold the (sorted) per-field digests under the schema salt.
  [[nodiscard]] Key done() const;

 private:
  void field(std::string_view name, std::uint8_t tag, std::uint64_t bits);

  std::uint32_t schema_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests_;
};

/// Derive the storage key for (scenario, obsv variant): the same
/// scenario stores different payload shapes depending on what the
/// session records (none / metrics / metrics+profile), so the variant
/// is folded into the address rather than the scenario fingerprint.
[[nodiscard]] Key storage_key(const Key& scenario,
                              std::uint32_t variant) noexcept;

}  // namespace xts::cache
