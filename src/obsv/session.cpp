#include "obsv/session.hpp"

#include <utility>

namespace xts::obsv {

namespace {
std::unique_ptr<Session>& slot() {
  static std::unique_ptr<Session> s;
  return s;
}
// The shard the current thread records into (runner/sweep.hpp installs
// one per sweep task via ShardScope).
thread_local Shard* tls_shard = nullptr;

// Holds `mu` when set (the session's own shard); a sweep shard is
// thread-confined and takes no lock.
std::unique_lock<std::mutex> guard(std::mutex* mu) {
  return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                       : std::unique_lock<std::mutex>();
}
}  // namespace

bool WorldObs::tracing() const noexcept { return session_->tracing(); }
bool WorldObs::metrics() const noexcept { return session_->metrics(); }

bool WorldObs::spans_enabled() const noexcept {
  return session_->tracing() || prof_ != nullptr;
}

TraceSink& WorldObs::sink_mut() noexcept { return shard_->sink_; }

const TraceSink& WorldObs::sink() const noexcept { return shard_->sink_; }

std::uint32_t WorldObs::intern(std::string_view name) {
  return sink_mut().intern(name);
}

void WorldObs::span(std::int32_t lane, Cat cat, std::uint32_t name,
                    SimTime t0, SimTime t1, std::uint64_t id, double a0,
                    double a1) {
  if (prof_) prof_->on_span(lane, cat, name, t0, t1, id, a0);
  if (!session_->tracing()) return;
  TraceEvent e;
  e.t0 = t0;
  e.t1 = t1;
  e.id = id;
  e.a0 = a0;
  e.a1 = a1;
  e.name = name;
  e.world = world_;
  e.lane = lane;
  e.cat = cat;
  sink_mut().emit(e);
}

Registry& WorldObs::registry() noexcept { return shard_->registry_; }

void WorldObs::add_world_summary(WorldSummary s) { shard_->add(std::move(s)); }

void WorldObs::add_io_summary(IoSummary s) { shard_->add(std::move(s)); }

void WorldObs::finalize_profile(int nranks, const RouteFn& route_fn) {
  if (!prof_) return;
  WorldProfileResult r = prof_->finalize(nranks, route_fn);
  prof_.reset();
  shard_->add(std::move(r));
}

Shard::Shard(Session& session)
    : session_(&session), sink_(session.options().trace_capacity) {}

Shard* Shard::current() noexcept { return tls_shard; }

WorldObs* Shard::register_world() {
  const auto lock = guard(mu_);
  const std::uint32_t ordinal = next_world_++;
  worlds_.push_back(
      std::unique_ptr<WorldObs>(new WorldObs(session_, this, ordinal)));
  WorldObs* obs = worlds_.back().get();
  if (session_->profiling())
    obs->prof_ = std::make_unique<WorldProfile>(sink_, ordinal);
  return obs;
}

void Shard::add(WorldSummary s) {
  const auto lock = guard(mu_);
  summaries_.push_back(std::move(s));
}

void Shard::add(IoSummary s) {
  const auto lock = guard(mu_);
  io_summaries_.push_back(std::move(s));
}

void Shard::add(WorldProfileResult p) {
  const auto lock = guard(mu_);
  profiles_.push_back(std::move(p));
}

ShardScope::ShardScope(Shard* shard) noexcept : prev_(tls_shard) {
  if (shard != nullptr) tls_shard = shard;
}

ShardScope::~ShardScope() { tls_shard = prev_; }

Session::Session(Options opt) : opt_(opt), root_(*this) {
  root_.mu_ = &mu_;
}

Session* Session::active() noexcept { return slot().get(); }

Session& Session::start(Options opt) {
  slot() = std::make_unique<Session>(opt);
  return *slot();
}

void Session::stop() { slot().reset(); }

WorldObs* Session::register_world() {
  Shard* shard = Shard::current();
  return (shard != nullptr ? shard : &root_)->register_world();
}

void Session::absorb(Shard&& shard) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t base = root_.next_world_;
  root_.next_world_ += shard.next_world_;

  // Remap the shard's interned names into the session sink.  Ids are
  // dense (0..name_count), so a flat vector suffices.
  std::vector<std::uint32_t> remap(shard.sink_.name_count());
  for (std::uint32_t id = 0; id < remap.size(); ++id)
    remap[id] = root_.sink_.intern(shard.sink_.name(id));

  shard.sink_.for_each([&](const TraceEvent& e) {
    TraceEvent copy = e;
    copy.name = remap[copy.name];
    copy.world += base;
    root_.sink_.emit(copy);
  });
  root_.sink_.add_dropped(shard.sink_.dropped());

  for (WorldSummary& s : shard.summaries_) {
    s.world += base;
    root_.summaries_.push_back(std::move(s));
  }
  for (IoSummary& s : shard.io_summaries_) {
    s.world += base;
    root_.io_summaries_.push_back(std::move(s));
  }
  for (WorldProfileResult& p : shard.profiles_) {
    p.world += base;
    root_.profiles_.push_back(std::move(p));
  }
  root_.registry_.merge(shard.registry_);

  // Keep the shard's WorldObs handles alive for the session's lifetime
  // (any World still holding one must already be destroyed, but the
  // handles stay valid and now point at the session's shard).
  for (auto& w : shard.worlds_) {
    w->shard_ = &root_;
    w->world_ += base;
    root_.worlds_.push_back(std::move(w));
  }
}

}  // namespace xts::obsv
