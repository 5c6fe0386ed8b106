#pragma once

/// \file flow_network.hpp
/// Flow-level network simulation over the torus.
///
/// Each in-flight message is a *flow* holding one unit of load on every
/// link of its route (injection link, torus links, ejection link).  A
/// flow's instantaneous rate is
///     min over links l in path of  capacity(l) / load(l)
/// — the standard fast approximation of max-min fair sharing (each
/// link's capacity is never exceeded; a flow bottlenecked elsewhere may
/// leave some residual capacity unused, which real wormhole routing
/// wastes too).
///
/// Rate allocation follows the change: per-link index sets record
/// which flows traverse each link, so when the flow set changes only the
/// flows sharing a changed link (kMinShare), or the connected component
/// of flows transitively sharing links with the change (kMaxMin), are
/// revisited — O(affected x path) instead of O(all flows x path) per
/// arrival/departure.  Flows are stored in a slot-map (free-list
/// recycled, stable indices, so a recycled slot's route vectors keep
/// their capacity), progress is settled lazily per flow, and
/// completions come from a lazy min-heap of predicted completion
/// times, invalidated by per-flow generation counters.  Changes at the
/// same simulated instant are still coalesced into a single allocation
/// pass, so lock-step collective rounds cost one pass per round rather
/// than one per message.  tests/network/reference_model.hpp re-derives
/// completion times with an independent full recompute per event; the
/// network tests check this class against it.

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "network/route_cache.hpp"
#include "network/torus.hpp"

namespace xts::net {

/// Rate-allocation policy.
///  - kMinShare: rate = min over path of cap/load — fast approximation;
///    never oversubscribes a link but can strand capacity behind a
///    bottleneck (like wormhole head-of-line blocking does).
///  - kMaxMin: exact max-min fairness by progressive filling — flows
///    not limited by the bottleneck pick up the slack.
enum class Fairness { kMinShare, kMaxMin };

/// What FlowNetwork records about link usage.
///  - kOff: nothing; the only cost is a predictable branch in the
///    settle/add/finish paths.
///  - kTotals: per-link totals (bytes, busy/contended time, peak load).
///  - kTotalsAndSeries: the totals plus the per-class concurrent-flow
///    series (class_samples()), which only the Chrome trace renders.
enum class LinkStatsMode { kOff, kTotals, kTotalsAndSeries };

struct NetConfig {
  double link_bw = 0.0;       ///< torus link capacity, unidirectional B/s
  double injection_bw = 0.0;  ///< NIC injection and ejection capacity, B/s
  double per_hop_latency = 0.0;  ///< router hop latency, seconds
  Fairness fairness = Fairness::kMinShare;
  LinkStatsMode link_stats = LinkStatsMode::kOff;
};

class FlowNetwork {
 public:
  FlowNetwork(Engine& engine, Torus3D topo, NetConfig cfg);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Move `bytes` from node `src` to node `dst`: awaiting the returned
  /// handle starts the flow and parks the coroutine in its slot; it
  /// resumes, through the event queue, when the last byte has been
  /// ejected (a zero-byte transfer does not suspend).  The caller
  /// (vmpi) accounts for first-byte latency separately.
  class [[nodiscard]] TransferAwaiter {
   public:
    [[nodiscard]] bool await_ready() const noexcept { return bytes_ == 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      net_->start_flow(src_, dst_, bytes_, h);
    }
    void await_resume() const noexcept {}

   private:
    friend class FlowNetwork;
    TransferAwaiter(FlowNetwork* net, NodeId src, NodeId dst,
                    double bytes) noexcept
        : net_(net), src_(src), dst_(dst), bytes_(bytes) {}

    FlowNetwork* net_;
    NodeId src_;
    NodeId dst_;
    double bytes_;
  };
  [[nodiscard]] TransferAwaiter transfer_flow(NodeId src, NodeId dst,
                                              double bytes);

  /// First-byte latency of the minimal route (hop count x per-hop).
  [[nodiscard]] SimTime route_latency(NodeId src, NodeId dst) const;

  /// Resolve the route src -> dst (injection, torus links, ejection)
  /// through the LRU route cache.  Flows take their links from here, and
  /// so does per-link attribution (obsv critical path); src == dst is a
  /// caller error, as with Torus3D::route_into.
  void route_for(NodeId src, NodeId dst, Route& out);

  [[nodiscard]] const Torus3D& topology() const noexcept { return topo_; }
  [[nodiscard]] const NetConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return active_count_;
  }
  /// Heartbeat progress sink (null => off): while set, flow
  /// add/finish mirror active_flows() into it with a relaxed store so
  /// the telemetry sampler can read in-flight counts out-of-band.
  void set_progress(RunProgress* progress) noexcept {
    progress_ = progress;
  }

  /// High-water mark of concurrent flows (capacity-planning stat).
  [[nodiscard]] std::size_t peak_flows() const noexcept {
    return peak_flows_;
  }
  /// Total bytes fully delivered (conservation checks).  Includes the
  /// progress of still-active flows up to now().
  [[nodiscard]] double total_delivered() const noexcept;
  /// Current load (flow count) on a link — exposed for tests.
  [[nodiscard]] int link_load(LinkId link) const;

  // -- perf/behavior counters (tests, xtbench) ---------------------------

  /// Coalesced rate-allocation passes run so far: all same-instant
  /// arrivals/departures share one pass.
  [[nodiscard]] std::uint64_t recompute_passes() const noexcept {
    return recompute_passes_;
  }
  /// Individual per-flow rate recomputations across all passes.
  [[nodiscard]] std::uint64_t rate_updates() const noexcept {
    return rate_updates_;
  }
  [[nodiscard]] std::uint64_t route_cache_hits() const noexcept {
    return route_cache_.hits();
  }
  [[nodiscard]] std::uint64_t route_cache_misses() const noexcept {
    return route_cache_.misses();
  }
  [[nodiscard]] std::uint64_t route_cache_evictions() const noexcept {
    return route_cache_.evictions();
  }

  // -- per-link usage statistics (NetConfig::link_stats) -----------------

  /// Totals for one link; open busy/contended intervals are closed at
  /// now() by the accessor, so stats can be read mid-simulation.
  struct LinkStats {
    double bytes = 0.0;           ///< bytes served across this link
    double busy_time = 0.0;       ///< time with >= 1 flow
    double contended_time = 0.0;  ///< time with >= 2 flows sharing it
    int peak_load = 0;            ///< max concurrent flows
  };
  /// One point of the per-class concurrent-flow time series
  /// (adaptively decimated so long runs stay bounded); recorded only
  /// under LinkStatsMode::kTotalsAndSeries.
  struct ClassSample {
    SimTime t = 0.0;
    std::int32_t cls = 0;
    std::int32_t load = 0;
  };
  /// Link class: 0..5 = torus x-/x+/y-/y+/z-/z+, 6 = injection,
  /// 7 = ejection.
  static constexpr int kLinkClasses = 8;
  [[nodiscard]] int link_class(LinkId link) const noexcept;
  [[nodiscard]] bool stats_enabled() const noexcept { return stats_on_; }
  [[nodiscard]] LinkStats link_stats(LinkId link) const;
  [[nodiscard]] const std::vector<ClassSample>& class_samples()
      const noexcept {
    return class_samples_;
  }

 private:
  struct Flow {
    double remaining = 0.0;
    double rate = 0.0;
    SimTime last_settle = 0.0;
    std::uint32_t gen = 0;  ///< invalidates completion-heap entries
    bool in_use = false;
    Route links;
    std::vector<std::uint32_t> link_pos;  ///< index in link_flows_[links[i]]
    std::coroutine_handle<> waiter{};     ///< resumed on completion
  };

  /// Back-reference stored in a link's flow set: which flow, and which
  /// position of that flow's route this link occupies (so a swap-erase
  /// can fix the moved entry's link_pos in O(1)).
  struct LinkRef {
    std::uint32_t flow;
    std::uint32_t slot;
  };

  struct CompletionEntry {
    double time;
    std::uint32_t flow;
    std::uint32_t gen;
  };

  [[nodiscard]] double link_capacity(LinkId link) const noexcept;
  [[nodiscard]] double compute_rate(const Flow& f) const noexcept;
  std::uint32_t add_flow(NodeId src, NodeId dst, double bytes);
  void start_flow(NodeId src, NodeId dst, double bytes,
                  std::coroutine_handle<> h);
  void mark_dirty();
  void mark_link_dirty(LinkId link);
  void note_load_inc(LinkId link);
  void note_load_dec(LinkId link);
  void note_class_sample(LinkId link, SimTime now);
  void decimate_samples(SimTime now);
  void settle_flow(Flow& f, SimTime now);
  void finish_flow(std::uint32_t idx);
  void fire_completions();

  static bool pops_after(const CompletionEntry& a,
                         const CompletionEntry& b) noexcept;

  void process();
  void on_timer(std::uint64_t epoch);
  void update_rates_min_share(SimTime now);
  void update_rates_max_min(SimTime now);
  void apply_rate(std::uint32_t idx, Flow& f, double rate, SimTime now);
  void schedule_timer();
  void heap_push(CompletionEntry e);
  void heap_pop();

  Engine& engine_;
  Torus3D topo_;
  NetConfig cfg_;
  RouteCache route_cache_;

  std::vector<Flow> flows_;            ///< slot-map backing store
  std::vector<std::uint32_t> free_;    ///< recycled slots (LIFO)
  std::vector<int> link_load_;
  std::vector<std::vector<LinkRef>> link_flows_;  ///< flows per link

  // Dirty tracking: a link is dirty when its load changed since the
  // last allocation pass; stamps avoid O(links) clearing.
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint32_t> link_stamp_;
  std::vector<std::uint32_t> flow_stamp_;
  std::uint32_t stamp_ = 1;

  std::vector<CompletionEntry> cheap_;  ///< lazy completion min-heap
  std::vector<std::coroutine_handle<>> done_;  ///< scratch: to resume
  std::vector<std::uint32_t> comp_flows_;  ///< scratch: max-min component
  std::vector<double> residual_;           ///< scratch: max-min filling
  std::vector<int> active_share_;          ///< scratch: max-min filling

  // Link-usage statistics (allocated only when cfg_.link_stats is not
  // kOff); the class series is touched only when series_on_.
  struct LinkStatSlot {
    double bytes = 0.0;
    double busy_time = 0.0;
    double contended_time = 0.0;
    int peak_load = 0;
    SimTime busy_since = 0.0;       ///< valid while load >= 1
    SimTime contended_since = 0.0;  ///< valid while load >= 2
  };
  bool stats_on_ = false;
  bool series_on_ = false;
  std::vector<LinkStatSlot> stats_;
  std::array<int, kLinkClasses> class_load_{};
  std::array<SimTime, kLinkClasses> class_sample_t_{};
  std::vector<ClassSample> class_samples_;
  double sample_min_dt_ = 0.0;  ///< doubles when the series overflows

  RunProgress* progress_ = nullptr;
  std::size_t active_count_ = 0;
  std::size_t peak_flows_ = 0;
  std::uint64_t epoch_ = 0;        ///< invalidates scheduled timers
  bool process_pending_ = false;   ///< zero-delay pass already queued
  double settled_delivered_ = 0.0;
  std::uint64_t recompute_passes_ = 0;
  std::uint64_t rate_updates_ = 0;
};

}  // namespace xts::net
