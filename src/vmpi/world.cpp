#include "vmpi/world.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <string>

#include "core/hostprof.hpp"
#include "obsv/telemetry.hpp"
#include "vmpi/comm.hpp"

namespace xts::vmpi {

using machine::ExecMode;

World::World(WorldConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nranks < 1) throw UsageError("World: need at least one rank");
  if (cfg_.machine.cores_per_node > 255)
    throw UsageError("World: cores_per_node > 255 unsupported (the "
                     "placement table stores cores as uint8)");
  const int cores_active =
      cfg_.mode == ExecMode::kSN ? 1 : cfg_.machine.cores_per_node;
  const int nnodes = (cfg_.nranks + cores_active - 1) / cores_active;

  net::TorusDims dims = cfg_.dims;
  if (dims.count() < nnodes || dims.count() == 1) {
    dims = net::Torus3D::choose_dims(std::max(2, nnodes));
  }

  if (obsv::Session* session = obsv::Session::active()) {
    obs_ = session->register_world();
    obs_session_ = session;
  }

  net::NetConfig ncfg;
  ncfg.link_bw = cfg_.machine.nic.link_bw;
  ncfg.injection_bw = cfg_.machine.nic.injection_bw;
  ncfg.per_hop_latency = cfg_.machine.nic.per_hop_latency;
  ncfg.fairness = cfg_.fairness;
  // Any session reads the per-link totals (WorldSummary::links); only
  // the Chrome trace renders the per-class flow series, so a --metrics
  // or --profile session does not sample it.
  if (obs_ != nullptr)
    ncfg.link_stats = obs_->tracing() ? net::LinkStatsMode::kTotalsAndSeries
                                      : net::LinkStatsMode::kTotals;
  network_ =
      std::make_unique<net::FlowNetwork>(engine_, net::Torus3D(dims), ncfg);

  // Live-heartbeat wiring (obsv/telemetry.hpp): while the telemetry
  // layer is armed, engine and network publish coarse progress into
  // its atomics.  Null when disarmed — zero cost and, either way, no
  // effect on simulated state or output bytes.
  if (RunProgress* progress = obsv::telemetry::progress()) {
    engine_.set_progress(progress);
    network_->set_progress(progress);
  }

  if (obs_ != nullptr) {
    if (obs_->spans_enabled()) {
      sid_.tx_wait = obs_->intern("msg.tx.wait");
      sid_.tx = obs_->intern("msg.tx");
      sid_.rendezvous = obs_->intern("msg.rendezvous");
      sid_.hops = obs_->intern("msg.hops");
      sid_.flow = obs_->intern("msg.flow");
      sid_.rx_wait = obs_->intern("msg.rx.wait");
      sid_.rx = obs_->intern("msg.rx");
      sid_.copy = obs_->intern("msg.copy");
      sid_.recv_wait = obs_->intern("recv.wait");
      sid_.run = obs_->intern("world.run");
    }
    if (obs_->metrics()) {
      // Resolve per-rank metric slots once; the hot path then only
      // dereferences (the registry never relocates metric objects).
      auto& reg = obs_->registry();
      rank_msgs_.resize(static_cast<std::size_t>(cfg_.nranks));
      rank_bytes_.resize(static_cast<std::size_t>(cfg_.nranks));
      for (int r = 0; r < cfg_.nranks; ++r) {
        const std::string label = std::to_string(r);
        rank_msgs_[static_cast<std::size_t>(r)] =
            &reg.counter("msg.count", label);
        rank_bytes_[static_cast<std::size_t>(r)] =
            &reg.counter("msg.bytes", label);
      }
      msg_latency_ = &reg.histogram("msg.latency");
    }
  }

  nodes_.reserve(static_cast<std::size_t>(nnodes));
  for (int i = 0; i < nnodes; ++i)
    nodes_.push_back(std::make_unique<machine::Node>(
        engine_, cfg_.machine,
        cfg_.seed + static_cast<std::uint64_t>(i)));

  build_placement();
  unexpected_.resize(static_cast<std::size_t>(cfg_.nranks));
  posted_.resize(static_cast<std::size_t>(cfg_.nranks));
  rank_done_.assign(static_cast<std::size_t>(cfg_.nranks), 1);
  sends_inflight_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  // One identity member list shared by every rank's world communicator
  // — per-rank copies would cost nranks^2 ints (a 64k-rank world spent
  // 16 GB on them).
  auto identity = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(cfg_.nranks));
  std::iota(identity->begin(), identity->end(), 0);
  const std::shared_ptr<const std::vector<int>> members = std::move(identity);
  world_comms_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r)
    world_comms_.push_back(
        std::unique_ptr<Comm>(new Comm(*this, r, members, r, 0)));
}

World::~World() {
  // A session outliving its worlds (the arm_cli pattern: flush at
  // process exit) still gets every world's network usage this way.
  if (obs_ != nullptr && obsv::Session::active() == obs_session_)
    collect_summary();
}

void World::collect_summary() {
  obsv::WorldSummary s;
  s.world = obs_->ordinal();
  s.nranks = cfg_.nranks;
  s.nodes = node_count();
  s.end_time = engine_.now();
  s.messages = messages_delivered_;
  s.bytes_sent = bytes_sent_;
  s.net_delivered = network_->total_delivered();
  s.peak_flows = network_->peak_flows();
  s.engine_events = engine_.events_processed();
  const int nlinks = network_->topology().total_link_count();
  for (net::LinkId l = 0; l < nlinks; ++l) {
    const auto st = network_->link_stats(l);
    if (st.bytes <= 0.0 && st.busy_time <= 0.0 && st.peak_load == 0)
      continue;
    s.links.push_back({l, network_->link_class(l), st.bytes, st.busy_time,
                       st.contended_time, st.peak_load});
  }
  s.class_series.reserve(network_->class_samples().size());
  for (const auto& cs : network_->class_samples())
    s.class_series.push_back({cs.t, cs.cls, cs.load});
  obs_->add_world_summary(std::move(s));

  // Fold the accumulated profile (no-op when profiling is off).  The
  // route resolver charges each critical-path message to the links of
  // its minimal route, via the network's route cache; intra-node pairs
  // never touch the network.
  net::Route route;
  obs_->finalize_profile(
      cfg_.nranks,
      [this, &route](int src, int dst, const obsv::LinkVisitor& visit) {
        const net::NodeId a = node_of(src);
        const net::NodeId b = node_of(dst);
        if (a == b) return;
        route.clear();
        network_->route_for(a, b, route);
        for (const net::LinkId l : route)
          visit(l, network_->link_class(l));
      });

  // Flow-route LRU effectiveness in the deterministic registry: each
  // World runs serially on one thread, so these totals are byte-stable
  // across --jobs.
  if (obs_->metrics()) {
    auto& reg = obs_->registry();
    reg.counter("cache.route.hits")
        .add(static_cast<double>(network_->route_cache_hits()));
    reg.counter("cache.route.misses")
        .add(static_cast<double>(network_->route_cache_misses()));
    reg.counter("cache.route.evictions")
        .add(static_cast<double>(network_->route_cache_evictions()));
  }
}

void World::build_placement() {
  const int cores_active =
      cfg_.mode == ExecMode::kSN ? 1 : cfg_.machine.cores_per_node;
  const int nnodes = node_count();

  rank_node_.resize(static_cast<std::size_t>(cfg_.nranks));
  rank_core_.resize(static_cast<std::size_t>(cfg_.nranks));

  std::vector<int> node_order(static_cast<std::size_t>(nnodes));
  std::iota(node_order.begin(), node_order.end(), 0);
  if (cfg_.placement == Placement::kRandom) {
    Rng rng(cfg_.seed);
    for (std::size_t i = node_order.size(); i > 1; --i)
      std::swap(node_order[i - 1], node_order[rng.below(i)]);
  }

  for (int r = 0; r < cfg_.nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const int slot = r / cores_active;
    rank_node_[ri] = static_cast<std::int32_t>(
        node_order[static_cast<std::size_t>(slot % nnodes)]);
    rank_core_[ri] = static_cast<std::uint8_t>(r % cores_active);
  }
}

net::NodeId World::node_of(int rank) const {
  if (rank < 0 || rank >= cfg_.nranks)
    throw UsageError("World::node_of: bad rank " + std::to_string(rank));
  return static_cast<net::NodeId>(rank_node_[static_cast<std::size_t>(rank)]);
}

int World::core_of(int rank) const {
  if (rank < 0 || rank >= cfg_.nranks)
    throw UsageError("World::core_of: bad rank " + std::to_string(rank));
  return static_cast<int>(rank_core_[static_cast<std::size_t>(rank)]);
}

machine::Node& World::node(int rank) {
  return *nodes_[static_cast<std::size_t>(node_of(rank))];
}

Comm& World::world_comm(int rank) {
  if (rank < 0 || rank >= cfg_.nranks)
    throw UsageError("World::world_comm: bad rank");
  return *world_comms_[static_cast<std::size_t>(rank)];
}

SimTime World::run(const RankProgram& program) {
  ranks_finished_ = 0;
  rank_done_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  const SimTime t0 = engine_.now();
  // run() owns the rank frames, so a run that ends by deadlock or by a
  // rank's exception destroys the frames still parked instead of
  // leaking them.  The first exception a rank throws is captured
  // rather than escaping Engine::step: the queue then drains as usual,
  // and no spawned transport is left parked in it.
  std::exception_ptr failure;
  std::vector<Task<void>> ranks;
  ranks.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    ranks.push_back([](World& w, const RankProgram& prog, int rank,
                       std::exception_ptr& failed) -> Task<void> {
      try {
        co_await prog(w.world_comm(rank));
      } catch (...) {
        if (!failed) failed = std::current_exception();
        co_return;
      }
      ++w.ranks_finished_;
      w.rank_done_[static_cast<std::size_t>(rank)] = 1;
    }(*this, program, r, failure));
    ranks.back().start(engine_);
  }
  {
    // Self-profiling: everything below is the engine dispatch loop;
    // nested scopes (FlowNetwork rate passes) carve their time out of
    // this bucket, so the breakdown attribution is exclusive.
    const ScopedHostTimer hosttimer(HostSubsys::kEngine);
    engine_.run();
  }
  engine_.publish_progress();  // expose the sub-stride tail
  if (obs_ != nullptr && obs_->spans_enabled())
    obs_->span(obsv::kWorldLane, obsv::Cat::kEngine, sid_.run, t0,
               engine_.now(), 0, static_cast<double>(cfg_.nranks),
               static_cast<double>(engine_.events_processed()));
  if (failure) std::rethrow_exception(failure);
  if (ranks_finished_ != cfg_.nranks)
    throw SimError(describe_deadlock());
  return engine_.now();
}

std::string World::describe_deadlock() const {
  std::string msg = "World::run: deadlock — " +
                    std::to_string(cfg_.nranks - ranks_finished_) + " of " +
                    std::to_string(cfg_.nranks) +
                    " ranks still blocked with no pending events:";
  constexpr int kMaxListed = 8;
  int listed = 0;
  for (int r = 0; r < cfg_.nranks; ++r) {
    if (rank_done_[static_cast<std::size_t>(r)]) continue;
    if (listed == kMaxListed) {
      msg += "\n  ... (" +
             std::to_string(cfg_.nranks - ranks_finished_ - listed) +
             " more)";
      break;
    }
    ++listed;
    const SlotChain& posted = posted_[static_cast<std::size_t>(r)];
    const SlotChain& unexpected = unexpected_[static_cast<std::size_t>(r)];
    msg += "\n  rank " + std::to_string(r) + ": ";
    if (posted.empty()) {
      msg += "no posted recv (blocked in send/NIC/compute)";
    } else {
      msg += std::to_string(posted.size()) + " posted recv [";
      std::size_t shown = 0;
      for (std::uint32_t it = posted.head; it != SlotChain::kNil;
           it = recv_pool_.next(it)) {
        const PostedRecv& p = recv_pool_.value(it);
        if (shown == 4) {
          msg += ", ...";
          break;
        }
        msg += shown ? ", " : "";
        msg += "src=" + (p.src_filter == kAnySource
                             ? std::string("any")
                             : std::to_string(p.src_filter));
        msg += " tag=" + (p.tag_filter == kAnyTag
                              ? std::string("any")
                              : tags::is_internal(p.tag_filter)
                                    ? std::string("internal")
                                    : std::to_string(p.tag_filter));
        if (p.gid != 0) msg += " gid=" + std::to_string(p.gid);
        ++shown;
      }
      msg += "]";
    }
    if (!unexpected.empty())
      msg += "; " + std::to_string(unexpected.size()) +
             " unexpected msgs queued";
    const int inflight = sends_inflight_[static_cast<std::size_t>(r)];
    if (inflight > 0)
      msg += "; " + std::to_string(inflight) + " sends in flight";
  }
  return msg;
}

bool World::matches(const PostedRecv& r, const Message& m) const {
  return r.gid == m.gid &&
         (r.src_filter == kAnySource || r.src_filter == m.src) &&
         (r.tag_filter == kAnyTag || r.tag_filter == m.tag);
}

void World::deliver(int dst, Message msg) {
  ++messages_delivered_;
  SlotChain& posted = posted_[static_cast<std::size_t>(dst)];
  std::uint32_t prev = SlotChain::kNil;
  for (std::uint32_t it = posted.head; it != SlotChain::kNil;
       prev = it, it = recv_pool_.next(it)) {
    if (matches(recv_pool_.value(it), msg)) {
      const PostedRecv r = recv_pool_.take(posted, prev, it);
      r.promise.set_value(std::move(msg));
      return;
    }
  }
  msg_pool_.push_back(unexpected_[static_cast<std::size_t>(dst)],
                      std::move(msg));
}

Task<Message> World::match_recv(int dst, std::uint64_t gid, int src_filter,
                                Tag tag_filter) {
  PostedRecv probe{gid, src_filter, tag_filter, SimPromise<Message>(engine_)};
  SlotChain& unexpected = unexpected_[static_cast<std::size_t>(dst)];
  std::uint32_t prev = SlotChain::kNil;
  for (std::uint32_t it = unexpected.head; it != SlotChain::kNil;
       prev = it, it = msg_pool_.next(it)) {
    if (matches(probe, msg_pool_.value(it))) {
      co_return msg_pool_.take(unexpected, prev, it);
    }
  }
  auto future = probe.promise.future();
  recv_pool_.push_back(posted_[static_cast<std::size_t>(dst)],
                       std::move(probe));
  if (obs_ != nullptr && obs_->spans_enabled()) {
    // Blocking receive: record the match wait on the receiver's lane,
    // correlated with the message that ended it (the profiler's
    // critical-path dependency edge).
    const SimTime t0 = engine_.now();
    Message m = co_await std::move(future);
    obs_->span(dst, obsv::Cat::kMessage, sid_.recv_wait, t0, engine_.now(),
               m.mid, m.bytes);
    co_return m;
  }
  co_return co_await std::move(future);
}

Task<SimFutureV> World::post_send(int src, int dst, int comm_src,
                                  std::uint64_t gid, Tag tag, double bytes,
                                  std::vector<double> data) {
  if (src < 0 || src >= cfg_.nranks || dst < 0 || dst >= cfg_.nranks)
    throw UsageError("post_send: rank out of range");
  if (bytes < 0.0) throw UsageError("post_send: negative size");
  bytes_sent_ += bytes;
  ++sends_inflight_[static_cast<std::size_t>(src)];

  const auto& nic = cfg_.machine.nic;
  machine::Node& snode = node(src);

  // Trace state: mid correlates this message's spans; the spans are
  // back-to-back segments covering post entry -> delivery, so their
  // durations sum exactly to the simulated end-to-end time.
  const bool tracing = obs_ != nullptr && obs_->spans_enabled();
  const SimTime posted_at = engine_.now();
  std::uint64_t mid = 0;
  if (tracing) mid = obs_->next_msg_id();

  // Sender CPU overhead, serialized through the node's NIC doorbell.
  // In VN mode a non-owner core's message is forwarded by the owner
  // core (§2), costing vn_forward_delay extra inside the critical
  // section — which is exactly why two communicating cores more than
  // double small-message latency (Fig 2, Fig 12).
  (void)co_await snode.nic_lock().acquire();
  const SimTime tx_start = engine_.now();
  if (tracing)
    obs_->span(src, obsv::Cat::kMessage, sid_.tx_wait, posted_at, tx_start,
               mid, bytes);
  SimTime hold = nic.tx_overhead;
  if (core_of(src) != 0) hold += nic.vn_forward_delay;
  co_await Delay(engine_, hold);
  snode.nic_lock().release();
  if (tracing)
    obs_->span(src, obsv::Cat::kMessage, sid_.tx, tx_start, engine_.now(),
               mid, bytes);

  SimPromiseV delivered(engine_);
  auto fut = delivered.future();
  spawn(engine_,
        transport(src, dst,
                  Message{comm_src, tag, bytes, std::move(data), gid, mid},
                  std::move(delivered), mid, posted_at));
  co_return fut;
}

Task<void> World::transport(int src, int dst, Message msg,
                            SimPromiseV delivered, std::uint64_t mid,
                            SimTime posted_at) {
  const auto& mcfg = cfg_.machine;
  const double bytes = msg.bytes;
  const net::NodeId snode = node_of(src);
  const net::NodeId dnode = node_of(dst);
  const bool tracing = mid != 0;
  // Segment start, advanced after every co_await: spawn and all
  // event-loop handoffs are same-instant, so consecutive segments are
  // gapless and their durations sum to delivery - post exactly.
  SimTime seg = engine_.now();

  if (snode == dnode) {
    // Intra-node: memory copy through the shared controller.  §2: "one
    // core is responsible for all message passing" — a non-owner
    // receiver still pays the owner-core forwarding interrupt.
    (void)co_await node(src).memcpy_traffic(bytes);
    if (tracing) {
      obs_->span(src, obsv::Cat::kMessage, sid_.copy, seg, engine_.now(),
                 mid, bytes);
      seg = engine_.now();
    }
    SimTime rx = mcfg.nic.rx_overhead * 0.5;
    if (core_of(dst) != 0) rx += mcfg.nic.vn_forward_delay;
    co_await Delay(engine_, rx);
    if (tracing)
      obs_->span(dst, obsv::Cat::kMessage, sid_.rx, seg, engine_.now(),
                 mid, bytes);
  } else {
    // Rendezvous handshake for large messages: one control round-trip
    // before the payload moves.
    const SimTime oneway = network_->route_latency(snode, dnode);
    if (bytes > mcfg.mpi.eager_threshold) {
      co_await Delay(engine_, 2.0 * oneway + mcfg.nic.tx_overhead +
                                  mcfg.nic.rx_overhead);
      if (tracing) {
        obs_->span(src, obsv::Cat::kMessage, sid_.rendezvous, seg,
                   engine_.now(), mid, bytes);
        seg = engine_.now();
      }
    }
    co_await Delay(engine_, oneway);
    if (tracing) {
      obs_->span(src, obsv::Cat::kMessage, sid_.hops, seg, engine_.now(),
                 mid, bytes);
      seg = engine_.now();
    }
    // transfer_flow parks this coroutine in the flow slot itself — no
    // promise shared-state allocation per message on the hot path.
    co_await network_->transfer_flow(snode, dnode, std::max(bytes, 8.0));
    if (tracing) {
      obs_->span(src, obsv::Cat::kMessage, sid_.flow, seg, engine_.now(),
                 mid, bytes);
      seg = engine_.now();
    }
    // Receiver-side processing serializes through the destination
    // node's NIC doorbell too: Portals processing runs on the host
    // CPU, and in VN mode the owner core handles every arriving
    // message (forwarding non-owner traffic with an extra delay).
    // This is what drives VN-mode small-message performance below the
    // XT3's, per-core AND per-socket (Fig 11).
    machine::Node& dnode_ref = node(dst);
    (void)co_await dnode_ref.nic_lock().acquire();
    if (tracing) {
      obs_->span(dst, obsv::Cat::kMessage, sid_.rx_wait, seg, engine_.now(),
                 mid, bytes);
      seg = engine_.now();
    }
    SimTime rx = mcfg.nic.rx_overhead;
    if (core_of(dst) != 0) rx += mcfg.nic.vn_forward_delay;
    co_await Delay(engine_, rx);
    dnode_ref.nic_lock().release();
    if (tracing)
      obs_->span(dst, obsv::Cat::kMessage, sid_.rx, seg, engine_.now(),
                 mid, bytes);
  }

  --sends_inflight_[static_cast<std::size_t>(src)];
  if (obs_ != nullptr && obs_->metrics()) {
    rank_msgs_[static_cast<std::size_t>(src)]->add();
    rank_bytes_[static_cast<std::size_t>(src)]->add(bytes);
    msg_latency_->add(engine_.now() - posted_at);
  }
  deliver(dst, std::move(msg));
  delivered.set_value(Done{});
}

}  // namespace xts::vmpi
