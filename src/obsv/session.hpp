#pragma once

/// \file session.hpp
/// Process-wide observability session.
///
/// Exactly one Session may be active at a time.  While a session is
/// active, each World constructed registers itself and receives a
/// WorldObs* handle; a null handle — the common case, no session — is
/// the entire cost of the instrumentation when observability is off:
/// every instrumented site guards on `if (obs_)`.
///
/// A World pushes a WorldSummary (per-link byte/busy/contention totals,
/// message counts, end time) into the session when it is destroyed, so
/// exporters can report network utilization even though benches build
/// and tear down many Worlds before the process exits.
///
/// Concurrency model (docs/PARALLELISM.md).  The simulator itself is
/// single-threaded per World, but the sweep runner (runner/sweep.hpp)
/// runs independent Worlds on several host threads.  All recording
/// lands in a *Shard* — a TraceSink + Registry + result buffers.  The
/// session owns one shard of its own, which Worlds built outside a sweep
/// record into.  The hot recording paths (span emission, metric updates)
/// are never locked; instead each sweep task gets a thread-confined
/// shard installed via ShardScope, and Worlds built while it is current
/// record exclusively into it.  After the sweep joins, Session::absorb()
/// folds the shards into the session's shard in *sweep-submission
/// order*, remapping interned name ids and world ordinals, so the merged
/// session state is bit-for-bit identical at any --jobs=N.  World
/// registration and record pushes on the session's own shard, and
/// absorb(), are guarded by Session::mu_.
///
/// Lifetime rules: destroy all Worlds registered with a session before
/// calling Session::stop() — WorldObs handles are owned by the shard
/// they were registered through, and absorb() hands them to the
/// session's shard.  Session::start/stop must not be called while a
/// sweep is running.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "obsv/metrics.hpp"
#include "obsv/profile.hpp"
#include "obsv/trace.hpp"

namespace xts::obsv {

struct Options {
  bool tracing = false;    ///< collect spans into the TraceSink
  bool metrics = false;    ///< collect registry metrics
  bool profiling = false;  ///< accumulate per-world profiles (obsv/profile.hpp)
  std::size_t trace_capacity = TraceSink::kDefaultCapacity;
};

/// Torus link classes (matches net::FlowNetwork::link_class).
inline constexpr int kLinkClasses = 8;
inline constexpr std::string_view kLinkClassNames[kLinkClasses] = {
    "x-", "x+", "y-", "y+", "z-", "z+", "inj", "ej"};

/// Per-link usage totals captured from FlowNetwork at World teardown.
struct LinkUsage {
  std::int32_t link = 0;
  std::int32_t cls = 0;  ///< 0..7, see kLinkClassNames
  double bytes = 0.0;
  double busy_time = 0.0;       ///< time with >= 1 flow
  double contended_time = 0.0;  ///< time with >= 2 flows (max-min starvation)
  int peak_load = 0;            ///< max concurrent flows
};

/// One (time, class, load) point of the per-class concurrent-flow
/// series — rendered as Chrome counter tracks.
struct ClassSample {
  SimTime t = 0.0;
  std::int32_t cls = 0;
  std::int32_t load = 0;
};

struct WorldSummary {
  std::uint32_t world = 0;  ///< ordinal assigned by register_world
  int nranks = 0;
  int nodes = 0;
  SimTime end_time = 0.0;
  std::uint64_t messages = 0;
  double bytes_sent = 0.0;
  double net_delivered = 0.0;  ///< FlowNetwork::total_delivered()
  std::size_t peak_flows = 0;
  std::uint64_t engine_events = 0;
  std::vector<LinkUsage> links;  ///< links that carried traffic only
  /// Filled only under a tracing session (the Chrome trace is its one
  /// reader); empty otherwise, and never stored in a cache entry.
  std::vector<ClassSample> class_series;
};

/// Per-OST usage totals captured from a lustre::Filesystem at teardown
/// (mirrors LinkUsage for FlowNetwork links).
struct OstUsage {
  std::int32_t ost = 0;
  std::int32_t oss = 0;  ///< owning OSS index (ost / osts_per_oss)
  double bytes = 0.0;
  double busy_time = 0.0;       ///< disk time with >= 1 chunk in service
  double contended_time = 0.0;  ///< disk time with >= 2 chunks sharing
  int peak_jobs = 0;            ///< max chunks in service at once
  int peak_queue = 0;           ///< max chunks waiting for a request slot
  std::uint64_t chunks = 0;
};

/// Per-OSS-link usage totals (the node's network pipe shared by its OSTs).
struct OssLinkUsage {
  std::int32_t oss = 0;
  double bytes = 0.0;
  double busy_time = 0.0;
  double contended_time = 0.0;
  int peak_jobs = 0;
};

/// Filesystem teardown summary: MDS, per-OST/OSS usage, lock conflicts.
struct IoSummary {
  std::uint32_t world = 0;  ///< ordinal of the observing world
  std::uint64_t mds_ops = 0;
  std::uint64_t creates = 0;
  std::uint64_t commits = 0;
  double mds_busy_time = 0.0;  ///< serialized MDS service seconds
  double mds_wait_time = 0.0;  ///< summed client wait for the MDS grant
  int mds_peak_queue = 0;      ///< max ops queued or in service
  double bytes_written = 0.0;
  double bytes_read = 0.0;
  std::uint64_t lock_conflicts = 0;
  double lock_wait_time = 0.0;
  double stripe_imbalance_max = 0.0;  ///< worst max/mean per-OST split
  std::vector<OstUsage> osts;           ///< OSTs that carried traffic only
  std::vector<OssLinkUsage> oss_links;  ///< OSS links that carried traffic
};

class Session;
class Shard;

/// Per-world handle; a World holds `WorldObs* obs_` (null = disabled).
/// All recording routes through the shard the world was registered
/// with: the current thread's ShardScope shard, else the session's own.
class WorldObs {
 public:
  [[nodiscard]] bool tracing() const noexcept;
  [[nodiscard]] bool metrics() const noexcept;
  [[nodiscard]] bool profiling() const noexcept { return prof_ != nullptr; }
  /// True when span emission sites must fire (tracing or profiling) —
  /// the gate used by World/Comm instrumentation.
  [[nodiscard]] bool spans_enabled() const noexcept;
  [[nodiscard]] std::uint32_t ordinal() const noexcept { return world_; }
  [[nodiscard]] Session& session() noexcept { return *session_; }

  /// Fresh per-message correlation id (never 0).
  [[nodiscard]] std::uint64_t next_msg_id() noexcept { return ++msg_ids_; }

  std::uint32_t intern(std::string_view name);
  /// The sink this world records into (shard-local under a sweep).
  [[nodiscard]] const TraceSink& sink() const noexcept;
  void span(std::int32_t lane, Cat cat, std::uint32_t name, SimTime t0,
            SimTime t1, std::uint64_t id = 0, double a0 = 0.0,
            double a1 = 0.0);
  [[nodiscard]] Registry& registry() noexcept;

  /// Record this world's teardown summary (called by
  /// World::collect_summary); shard-local under a sweep.
  void add_world_summary(WorldSummary s);

  /// Record a filesystem teardown summary (called by the
  /// lustre::Filesystem destructor); shard-local under a sweep.
  void add_io_summary(IoSummary s);

  /// Fold the accumulated profile into the session's results (called
  /// by World::collect_summary).  No-op when profiling is off.
  void finalize_profile(int nranks, const RouteFn& route_fn);

 private:
  friend class Session;
  friend class Shard;
  WorldObs(Session* session, Shard* shard, std::uint32_t world) noexcept
      : session_(session), shard_(shard), world_(world) {}

  [[nodiscard]] TraceSink& sink_mut() noexcept;

  Session* session_;
  Shard* shard_;  ///< the shard this world records into (never null)
  std::uint32_t world_;
  std::uint64_t msg_ids_ = 0;
  std::unique_ptr<WorldProfile> prof_;  ///< null unless Options::profiling
};

/// One container of recorded observability state.  A sweep task's shard
/// is created on the submitting thread, written by exactly one worker
/// thread while a ShardScope is active there, then absorbed into the
/// session (in sweep order) after the pool joins.  The session's own
/// shard takes Worlds registered outside a sweep, under Session::mu_.
class Shard {
 public:
  explicit Shard(Session& session);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The shard the current thread records into, or null.
  [[nodiscard]] static Shard* current() noexcept;

  /// Worlds registered through this shard so far.
  [[nodiscard]] std::uint32_t worlds() const noexcept { return next_world_; }

  /// Append a teardown record (WorldObs forwards the World's and the
  /// filesystem's summaries and the finalized profile here).
  void add(WorldSummary s);
  void add(IoSummary s);
  void add(WorldProfileResult p);

 private:
  friend class Session;
  friend class WorldObs;
  friend class ShardScope;
  friend class ShardSnapshot;  ///< exact-state codec (cache replay)

  WorldObs* register_world();

  Session* session_;
  /// Session::mu_ on the session's own shard; null on a sweep shard,
  /// which only its one thread writes.
  std::mutex* mu_ = nullptr;
  TraceSink sink_;
  Registry registry_;
  std::uint32_t next_world_ = 0;  ///< shard-local ordinals, rebased on absorb
  std::vector<std::unique_ptr<WorldObs>> worlds_;
  std::vector<WorldSummary> summaries_;
  std::vector<IoSummary> io_summaries_;
  std::vector<WorldProfileResult> profiles_;
};

/// RAII: route the current thread's world registration and recording
/// into `shard` (null = no-op).  Nesting restores the previous shard.
class ShardScope {
 public:
  explicit ShardScope(Shard* shard) noexcept;
  ~ShardScope();

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  Shard* prev_;
};

class Session {
 public:
  /// The active session, or nullptr (observability off).
  [[nodiscard]] static Session* active() noexcept;
  /// Start a session (replaces any active one).
  static Session& start(Options opt);
  /// End the active session, discarding its data.  No-op if none.
  static void stop();

  [[nodiscard]] const Options& options() const noexcept { return opt_; }
  [[nodiscard]] bool tracing() const noexcept { return opt_.tracing; }
  [[nodiscard]] bool metrics() const noexcept { return opt_.metrics; }
  [[nodiscard]] bool profiling() const noexcept { return opt_.profiling; }
  [[nodiscard]] TraceSink& sink() noexcept { return root_.sink_; }
  [[nodiscard]] const TraceSink& sink() const noexcept { return root_.sink_; }
  [[nodiscard]] Registry& registry() noexcept { return root_.registry_; }
  [[nodiscard]] const Registry& registry() const noexcept {
    return root_.registry_;
  }

  /// Register a World; the returned handle is owned by the current
  /// thread's shard when one is installed, else by the session's own.
  WorldObs* register_world();
  [[nodiscard]] const std::vector<WorldSummary>& summaries() const noexcept {
    return root_.summaries_;
  }
  [[nodiscard]] const std::vector<IoSummary>& io_summaries() const noexcept {
    return root_.io_summaries_;
  }
  [[nodiscard]] const std::vector<WorldProfileResult>& profiles()
      const noexcept {
    return root_.profiles_;
  }

  /// Fold a completed shard into the session's own: remap its interned
  /// name ids into the session sink, rebase its world ordinals past the
  /// worlds recorded so far, append spans/summaries/profiles, and merge
  /// its registry.  Callers (the sweep runner) absorb shards in sweep
  /// submission order, which makes the merged state deterministic.
  void absorb(Shard&& shard);

  explicit Session(Options opt);

 private:
  Options opt_;
  // Guards the session's own shard against unsharded threads: world
  // registration, record pushes and shard absorption.  Span emission
  // and metric updates are deliberately unguarded: they are
  // thread-confined by the shard design.
  std::mutex mu_;
  Shard root_;
};

}  // namespace xts::obsv
