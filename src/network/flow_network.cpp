#include "network/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/hostprof.hpp"

namespace xts::net {

namespace {
// A flow is complete once its residue would be served in under
// max(kTimeEps, 4 ulp(now)) seconds at its current rate: both the
// settle rounding residue and — late in long simulations — the
// clock's own resolution would otherwise livelock the event loop (see
// core/resource.cpp).
constexpr double kTimeEps = 1e-12;

/// Cap on the per-class concurrent-flow series (see decimate_samples).
constexpr std::size_t kMaxClassSamples = std::size_t{1} << 16;

/// LRU route-cache entries, keyed on (src, dst).
constexpr std::size_t kRouteCacheEntries = 4096;

double completion_time_eps(double now) {
  const double ulp =
      std::nextafter(now, std::numeric_limits<double>::infinity()) - now;
  return std::max(kTimeEps, 4.0 * ulp);
}
}  // namespace

// Min-heap ordering for std::push_heap/pop_heap: "a pops after b".
// Ties break on flow index so same-instant completions fire in a
// deterministic order regardless of heap history.
bool FlowNetwork::pops_after(const CompletionEntry& a,
                             const CompletionEntry& b) noexcept {
  if (a.time != b.time) return a.time > b.time;
  if (a.flow != b.flow) return a.flow > b.flow;
  return a.gen > b.gen;
}

FlowNetwork::FlowNetwork(Engine& engine, Torus3D topo, NetConfig cfg)
    : engine_(engine),
      topo_(std::move(topo)),
      cfg_(cfg),
      route_cache_(kRouteCacheEntries) {
  if (cfg_.link_bw <= 0.0 || cfg_.injection_bw <= 0.0)
    throw UsageError("FlowNetwork: link and injection bandwidth required");
  const auto links = static_cast<std::size_t>(topo_.total_link_count());
  link_load_.assign(links, 0);
  link_stamp_.assign(links, 0);
  residual_.assign(links, 0.0);
  active_share_.assign(links, 0);
  link_flows_.resize(links);
  stats_on_ = cfg_.link_stats != LinkStatsMode::kOff;
  series_on_ = cfg_.link_stats == LinkStatsMode::kTotalsAndSeries;
  if (stats_on_) stats_.resize(links);
}

int FlowNetwork::link_class(LinkId link) const noexcept {
  if (topo_.is_torus_link(link)) return static_cast<int>(link % 6);
  return link < topo_.torus_link_count() + topo_.node_count() ? 6 : 7;
}

FlowNetwork::LinkStats FlowNetwork::link_stats(LinkId link) const {
  if (link < 0 || link >= topo_.total_link_count())
    throw UsageError("FlowNetwork::link_stats: bad link id");
  if (!stats_on_)
    throw UsageError("FlowNetwork::link_stats: NetConfig::link_stats off");
  const LinkStatSlot& s = stats_[static_cast<std::size_t>(link)];
  LinkStats out{s.bytes, s.busy_time, s.contended_time, s.peak_load};
  // Close intervals still open at now() without mutating the slot.
  const int load = link_load_[static_cast<std::size_t>(link)];
  const SimTime now = engine_.now();
  if (load >= 1) out.busy_time += now - s.busy_since;
  if (load >= 2) out.contended_time += now - s.contended_since;
  return out;
}

void FlowNetwork::note_class_sample(LinkId link, SimTime now) {
  const auto cls = static_cast<std::size_t>(link_class(link));
  if (!class_samples_.empty() &&
      now - class_sample_t_[cls] < sample_min_dt_)
    return;
  class_samples_.push_back(
      {now, static_cast<std::int32_t>(cls), class_load_[cls]});
  class_sample_t_[cls] = now;
  if (class_samples_.size() >= kMaxClassSamples) decimate_samples(now);
}

// The class-load series is for visualization; when it outgrows its
// budget, halve its resolution (coarser minimum spacing, thin the
// points already recorded) rather than growing without bound.
void FlowNetwork::decimate_samples(SimTime now) {
  sample_min_dt_ = std::max(sample_min_dt_ * 2.0,
                            (now - class_samples_.front().t) /
                                (kMaxClassSamples / 4.0));
  std::array<SimTime, kLinkClasses> last;
  last.fill(-std::numeric_limits<double>::infinity());
  std::size_t kept = 0;
  for (const ClassSample& s : class_samples_) {
    const auto c = static_cast<std::size_t>(s.cls);
    if (s.t - last[c] >= sample_min_dt_) {
      last[c] = s.t;
      class_samples_[kept++] = s;
    }
  }
  class_samples_.resize(kept);
  class_sample_t_ = last;
}

void FlowNetwork::note_load_inc(LinkId link) {
  const auto li = static_cast<std::size_t>(link);
  LinkStatSlot& s = stats_[li];
  const int load = link_load_[li];
  const SimTime now = engine_.now();
  if (load == 1) s.busy_since = now;
  if (load == 2) s.contended_since = now;
  if (load > s.peak_load) s.peak_load = load;
  if (!series_on_) return;
  ++class_load_[static_cast<std::size_t>(link_class(link))];
  note_class_sample(link, now);
}

void FlowNetwork::note_load_dec(LinkId link) {
  const auto li = static_cast<std::size_t>(link);
  LinkStatSlot& s = stats_[li];
  const int load = link_load_[li];
  const SimTime now = engine_.now();
  if (load == 0) s.busy_time += now - s.busy_since;
  if (load == 1) s.contended_time += now - s.contended_since;
  if (!series_on_) return;
  --class_load_[static_cast<std::size_t>(link_class(link))];
  note_class_sample(link, now);
}

double FlowNetwork::link_capacity(LinkId link) const noexcept {
  return topo_.is_torus_link(link) ? cfg_.link_bw : cfg_.injection_bw;
}

double FlowNetwork::compute_rate(const Flow& f) const noexcept {
  double rate = std::numeric_limits<double>::max();
  for (const LinkId l : f.links) {
    const auto load = static_cast<double>(link_load_[static_cast<size_t>(l)]);
    rate = std::min(rate, link_capacity(l) / load);
  }
  return rate;
}

SimTime FlowNetwork::route_latency(NodeId src, NodeId dst) const {
  return static_cast<double>(topo_.hop_count(src, dst)) *
         cfg_.per_hop_latency;
}

void FlowNetwork::route_for(NodeId src, NodeId dst, Route& out) {
  if (route_cache_.lookup(src, dst, out)) return;
  topo_.route_into(src, dst, out);
  route_cache_.insert(src, dst, out);
}

FlowNetwork::TransferAwaiter FlowNetwork::transfer_flow(NodeId src,
                                                        NodeId dst,
                                                        double bytes) {
  if (bytes < 0.0)
    throw UsageError("FlowNetwork::transfer_flow: negative size");
  return TransferAwaiter(this, src, dst, bytes);
}

void FlowNetwork::start_flow(NodeId src, NodeId dst, double bytes,
                             std::coroutine_handle<> h) {
  flows_[add_flow(src, dst, bytes)].waiter = h;
}

std::uint32_t FlowNetwork::add_flow(NodeId src, NodeId dst, double bytes) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    flow_stamp_.push_back(0);
  }
  Flow& f = flows_[idx];
  f.remaining = bytes;
  f.rate = 0.0;
  f.last_settle = engine_.now();
  f.in_use = true;
  route_for(src, dst, f.links);
  f.link_pos.clear();
  for (std::uint32_t s = 0; s < f.links.size(); ++s) {
    const LinkId l = f.links[s];
    const auto li = static_cast<std::size_t>(l);
    ++link_load_[li];
    if (stats_on_) note_load_inc(l);
    mark_link_dirty(l);
    auto& set = link_flows_[li];
    f.link_pos.push_back(static_cast<std::uint32_t>(set.size()));
    set.push_back({idx, s});
  }
  ++active_count_;
  if (progress_ != nullptr)
    progress_->flows.store(active_count_, std::memory_order_relaxed);
  peak_flows_ = std::max(peak_flows_, active_count_);
  mark_dirty();
  return idx;
}

void FlowNetwork::mark_link_dirty(LinkId link) {
  const auto li = static_cast<std::size_t>(link);
  if (link_stamp_[li] == stamp_) return;
  link_stamp_[li] = stamp_;
  dirty_links_.push_back(link);
}

void FlowNetwork::mark_dirty() {
  if (process_pending_) return;
  process_pending_ = true;
  ++epoch_;  // retire any scheduled completion timer; the pass below
             // re-derives the next one after absorbing this change
  const std::uint64_t epoch = epoch_;
  engine_.schedule_after(0.0, [this, epoch] {
    if (epoch != epoch_) return;
    process_pending_ = false;
    process();
  });
}

void FlowNetwork::on_timer(std::uint64_t epoch) {
  if (epoch == epoch_) process();
}

void FlowNetwork::settle_flow(Flow& f, SimTime now) {
  const SimTime dt = now - f.last_settle;
  if (dt > 0.0 && f.rate > 0.0) {
    const double served = std::min(f.remaining, f.rate * dt);
    f.remaining -= served;
    settled_delivered_ += served;
    if (stats_on_) {
      // Every byte a flow moves crosses each link of its route once,
      // so per-link byte attribution is the same `served` everywhere.
      for (const LinkId l : f.links)
        stats_[static_cast<std::size_t>(l)].bytes += served;
    }
  }
  f.last_settle = now;
}

void FlowNetwork::finish_flow(std::uint32_t idx) {
  Flow& f = flows_[idx];
  // The sub-eps residue counts as delivered (conservation).
  settled_delivered_ += f.remaining;
  const double residue = f.remaining;
  f.remaining = 0.0;
  for (std::uint32_t s = 0; s < f.links.size(); ++s) {
    const LinkId l = f.links[s];
    const auto li = static_cast<std::size_t>(l);
    --link_load_[li];
    if (stats_on_) {
      stats_[li].bytes += residue;
      note_load_dec(l);
    }
    mark_link_dirty(l);
    // Swap-erase this flow's entry; the moved entry's back-pointer
    // keeps link_pos consistent.  Routes never repeat a link, so a
    // moved entry naming this flow is the entry being erased itself.
    auto& set = link_flows_[li];
    const std::uint32_t pos = f.link_pos[s];
    const LinkRef moved = set.back();
    set[pos] = moved;
    set.pop_back();
    if (moved.flow != idx) flows_[moved.flow].link_pos[moved.slot] = pos;
  }
  done_.push_back(f.waiter);
  ++f.gen;  // strand any heap entries still naming this slot
  f.waiter = {};
  f.rate = 0.0;
  f.links.clear();
  f.link_pos.clear();
  f.in_use = false;
  free_.push_back(idx);
  --active_count_;
  if (progress_ != nullptr)
    progress_->flows.store(active_count_, std::memory_order_relaxed);
}

void FlowNetwork::fire_completions() {
  for (const std::coroutine_handle<> h : done_)
    engine_.schedule_after(0.0, [h] { h.resume(); });
  done_.clear();
}

void FlowNetwork::heap_push(CompletionEntry e) {
  cheap_.push_back(e);
  std::push_heap(cheap_.begin(), cheap_.end(), pops_after);
}

void FlowNetwork::heap_pop() {
  std::pop_heap(cheap_.begin(), cheap_.end(), pops_after);
  cheap_.pop_back();
}

void FlowNetwork::process() {
  const SimTime now = engine_.now();
  const double teps = completion_time_eps(now);

  // Amortized sweep of invalidated predictions: every rate change
  // strands one entry, so without this the heap tracks rate churn
  // instead of flow count.  xtbench A/B of dropping it (Release, 4-core
  // x86-64 host): a first measurement cost about 8 % of alltoall_1k
  // wall time (3 of 3 pairs) and 5 % of app_mix (2 of 2); 10 pairs
  // each against this code found no difference beyond noise (medians
  // 4.51 -> 4.47 s and 1.97 -> 1.95 s).  It stays until the 2048-rank
  // alltoall, where the heap is largest, settles it.
  if (cheap_.size() >= 64 && cheap_.size() > 4 * active_count_) {
    std::size_t kept = 0;
    for (const CompletionEntry& e : cheap_) {
      const Flow& f = flows_[e.flow];
      if (f.in_use && e.gen == f.gen) cheap_[kept++] = e;
    }
    cheap_.resize(kept);
    std::make_heap(cheap_.begin(), cheap_.end(),
                   pops_after);
  }

  // 1. Retire flows whose predicted completion has arrived.  A stale
  //    prediction (generation mismatch) is simply dropped.  Entries
  //    within teps of now complete in the same wave — near-coincident
  //    completions (e.g. a lock-step round draining) would otherwise
  //    splinter into one full rate pass per ulp-spaced instant.
  while (!cheap_.empty()) {
    const CompletionEntry top = cheap_.front();
    Flow& f = flows_[top.flow];
    if (!f.in_use || top.gen != f.gen) {
      heap_pop();
      continue;
    }
    if (top.time > now + teps) break;
    heap_pop();
    settle_flow(f, now);
    if (f.remaining <= f.rate * teps) {
      finish_flow(top.flow);
    } else {
      // Settle rounding left a residue; predict again.  remaining >
      // rate * teps with teps >= 4 ulp(now) makes the new prediction
      // strictly later than now, so this cannot livelock.
      ++f.gen;
      heap_push({now + f.remaining / f.rate, top.flow, f.gen});
    }
  }

  // 2. Re-allocate rates among the flows affected by the load changes.
  if (!dirty_links_.empty()) {
    ++recompute_passes_;
    if (cfg_.fairness == Fairness::kMaxMin)
      update_rates_max_min(now);
    else
      update_rates_min_share(now);
    dirty_links_.clear();
    ++stamp_;
  }

  schedule_timer();
  fire_completions();
}

void FlowNetwork::apply_rate(std::uint32_t idx, Flow& f, double rate,
                             SimTime now) {
  ++rate_updates_;
  if (rate == f.rate) return;
  settle_flow(f, now);
  f.rate = rate;
  ++f.gen;
  heap_push({now + f.remaining / rate, idx, f.gen});
}

void FlowNetwork::update_rates_min_share(SimTime now) {
  // Host self-profiling (obsv/telemetry): rate allocation is the
  // engine loop's dominant non-app cost; charge it to its own bucket.
  const ScopedHostTimer hosttimer(HostSubsys::kRates);
  // A min-share rate depends only on the loads of the flow's own
  // links, so exactly the flows crossing a dirty link need revisiting.
  for (const LinkId dl : dirty_links_) {
    for (const LinkRef ref : link_flows_[static_cast<std::size_t>(dl)]) {
      if (flow_stamp_[ref.flow] == stamp_) continue;
      flow_stamp_[ref.flow] = stamp_;
      Flow& f = flows_[ref.flow];
      apply_rate(ref.flow, f, compute_rate(f), now);
    }
  }
}

void FlowNetwork::update_rates_max_min(SimTime now) {
  const ScopedHostTimer hosttimer(HostSubsys::kRates);
  // Max-min allocations decompose over connected components of the
  // flow/link sharing graph: a component's rates depend only on its
  // own members.  Expand the dirty links to the full component, then
  // run progressive filling there against fresh link capacities.
  // dirty_links_ doubles as the BFS frontier; every appended link is
  // stamped first, so each link and flow is visited once.
  comp_flows_.clear();
  for (std::size_t i = 0; i < dirty_links_.size(); ++i) {
    const auto dl = static_cast<std::size_t>(dirty_links_[i]);
    for (const LinkRef ref : link_flows_[dl]) {
      if (flow_stamp_[ref.flow] == stamp_) continue;
      flow_stamp_[ref.flow] = stamp_;
      comp_flows_.push_back(ref.flow);
      for (const LinkId l : flows_[ref.flow].links) {
        const auto li = static_cast<std::size_t>(l);
        if (link_stamp_[li] == stamp_) continue;
        link_stamp_[li] = stamp_;
        dirty_links_.push_back(l);
      }
    }
  }
  if (comp_flows_.empty()) return;

  for (const LinkId l : dirty_links_) {
    const auto li = static_cast<std::size_t>(l);
    residual_[li] = link_capacity(l);
    active_share_[li] = 0;
  }
  for (const std::uint32_t fi : comp_flows_) {
    for (const LinkId l : flows_[fi].links)
      ++active_share_[static_cast<std::size_t>(l)];
  }

  // Progressive filling restricted to the component, consuming
  // comp_flows_ in place as flows freeze.
  while (!comp_flows_.empty()) {
    double bottleneck = std::numeric_limits<double>::max();
    for (const LinkId l : dirty_links_) {
      const auto li = static_cast<std::size_t>(l);
      if (active_share_[li] > 0)
        bottleneck = std::min(bottleneck, residual_[li] / active_share_[li]);
    }
    std::size_t kept = 0;
    for (const std::uint32_t fi : comp_flows_) {
      Flow& f = flows_[fi];
      bool frozen = false;
      for (const LinkId l : f.links) {
        const auto li = static_cast<std::size_t>(l);
        if (residual_[li] / active_share_[li] <=
            bottleneck * (1.0 + 1e-12)) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        apply_rate(fi, f, bottleneck, now);
        for (const LinkId l : f.links) {
          const auto li = static_cast<std::size_t>(l);
          residual_[li] -= bottleneck;
          --active_share_[li];
        }
      } else {
        comp_flows_[kept++] = fi;
      }
    }
    if (kept == comp_flows_.size())
      throw InternalError("max-min filling made no progress");
    comp_flows_.resize(kept);
  }
}

void FlowNetwork::schedule_timer() {
  ++epoch_;  // retire whatever timer was scheduled before this pass
  while (!cheap_.empty()) {
    const CompletionEntry& top = cheap_.front();
    const Flow& f = flows_[top.flow];
    if (!f.in_use || top.gen != f.gen) {
      heap_pop();
      continue;
    }
    const std::uint64_t epoch = epoch_;
    engine_.schedule_at(std::max(top.time, engine_.now()),
                        [this, epoch] { on_timer(epoch); });
    return;
  }
}

double FlowNetwork::total_delivered() const noexcept {
  const SimTime now = engine_.now();
  double sum = settled_delivered_;
  for (const Flow& f : flows_) {
    if (!f.in_use) continue;
    const SimTime dt = now - f.last_settle;
    if (dt > 0.0 && f.rate > 0.0) sum += std::min(f.remaining, f.rate * dt);
  }
  return sum;
}

int FlowNetwork::link_load(LinkId link) const {
  if (link < 0 || link >= topo_.total_link_count())
    throw UsageError("FlowNetwork::link_load: bad link id");
  return link_load_[static_cast<size_t>(link)];
}

}  // namespace xts::net
