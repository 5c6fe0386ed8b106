#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "apps/cam.hpp"
#include "apps/namd.hpp"
#include "apps/pop.hpp"
#include "cache/scenario.hpp"
#include "cache/store.hpp"
#include "core/cache_stats.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "core/units.hpp"
#include "hpcc/hpcc.hpp"
#include "lustre/lustre.hpp"
#include "machine/presets.hpp"
#include "obsv/export.hpp"
#include "obsv/session.hpp"
#include "runner/sweep.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xtbench {
namespace {

using xts::machine::ExecMode;
using xts::machine::MachineConfig;

/// Independent stream `salt` of the run's seed (splitmix64 finalizer).
std::uint64_t seed_for(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename T>
void shuffle(std::vector<T>& v, xts::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

const char* what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

// -- alltoall_1k -----------------------------------------------------------

/// One rank: alltoallv of its generated row, then one allreduce of the
/// row's byte total, whose result every rank checks against the
/// generator's grand total.
xts::Task<void> alltoall_rank(xts::vmpi::Comm& c, const double* row, int n,
                              double expect, int* bad) {
  std::vector<double> to(row, row + n);
  double sum = 0.0;
  for (const double b : to) sum += b;
  co_await c.alltoallv_bytes(std::move(to));
  std::vector<double> mine(1, sum);
  const std::vector<double> total = co_await c.allreduce_sum(std::move(mine));
  if (total.size() != 1 || total[0] != expect) ++*bad;
}

class Alltoall final : public Workload {
 public:
  explicit Alltoall(const RunOptions& opt)
      : opt_(opt), n_(opt.tiny ? 64 : 1024) {}

  void setup() override {
    const Spans::Scope s("bench.setup");
    generate();
    const Outcome o = scenario();
    check(o, "warm-up");
  }

  void pass(bool traced) override {
    const Spans::Scope s("bench.pass");
    const Outcome o = scenario();
    check(o, "pass");
    (traced ? traced_ : plain_).push_back(o);
  }

  [[nodiscard]] double last_pass_s() const override { return last_s_; }

  void end_to_end(Report& r) override {
    std::vector<double> walls, ms, rates;
    for (const Outcome& o : plain_) {
      walls.push_back(o.wall_s);
      ms.push_back(o.wall_s * 1e3);
      rates.push_back(static_cast<double>(o.msgs) / o.wall_s);
    }
    r.set("wall_s", median(walls), "s");
    r.set("sim_msgs_per_s", median(rates), "1/s");
    set_scenario_ms(r, ms, 90.0, "World construction + run + teardown");
  }

  void layers(Report& r) override {
    std::vector<double> ctor, run, eps, ns_msg;
    for (const Outcome& o : traced_) {
      ctor.push_back(o.ctor_s);
      run.push_back(o.run_s);
      eps.push_back(static_cast<double>(o.events) / o.run_s);
      ns_msg.push_back(o.run_s * 1e9 / static_cast<double>(o.msgs));
    }
    const Outcome& o = traced_.front();
    const auto msgs = static_cast<double>(o.msgs);
    r.set("core.events", static_cast<double>(o.events), "count");
    r.set("core.events_per_msg", static_cast<double>(o.events) / msgs,
          "ratio");
    r.set("core.events_per_s", median(eps), "1/s");
    r.set("network.rate_passes", static_cast<double>(o.rate_passes),
          "count");
    r.set("network.rate_updates", static_cast<double>(o.rate_updates),
          "count");
    r.set("network.rate_updates_per_msg",
          static_cast<double>(o.rate_updates) / msgs, "ratio");
    r.set("network.peak_flows", static_cast<double>(o.peak_flows), "count");
    r.set("network.route_cache_hit_ratio",
          static_cast<double>(o.rc_hits) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, o.rc_hits + o.rc_misses)),
          "ratio");
    r.set("vmpi.msgs", msgs, "count");
    r.set("vmpi.bytes", o.bytes, "B");
    r.set("vmpi.world_ctor_s", median(ctor), "s");
    r.set("vmpi.run_s", median(run), "s");
    r.set("vmpi.host_ns_per_msg", median(ns_msg), "ns");
  }

 private:
  struct Outcome {
    double wall_s = 0.0, ctor_s = 0.0, run_s = 0.0;
    double end = 0.0;
    std::uint64_t msgs = 0;
    double bytes = 0.0;
    int bad_reduce = 0;
    std::uint64_t events = 0, rate_passes = 0, rate_updates = 0;
    std::uint64_t peak_flows = 0, rc_hits = 0, rc_misses = 0;
    std::uint64_t digest = 0;
  };

  void generate() {
    xts::Rng rng(seed_for(opt_.seed, 0));
    const double eager = xts::machine::xt4().mpi.eager_threshold;
    const double lo = std::log(eager / 8.0);
    const double hi = std::log(eager * 8.0);
    const auto n = static_cast<std::size_t>(n_);
    bytes_.assign(n * n, 0.0);
    total_ = 0.0;
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t d = 0; d < n; ++d) {
        if (s == d) continue;
        // Whole bytes, so every total below is exact in a double.
        const double b = std::floor(std::exp(rng.uniform(lo, hi)));
        bytes_[s * n + d] = b;
        total_ += b;
      }
    cfg_ = xts::vmpi::WorldConfig{};
    cfg_.machine = xts::machine::xt4();
    cfg_.mode = ExecMode::kVN;
    cfg_.nranks = n_;
    cfg_.placement = xts::vmpi::Placement::kRandom;
    cfg_.seed = seed_for(opt_.seed, 1);
    // Recursive-doubling allreduce of one double: log2(n) rounds of one
    // message per rank.
    const auto rounds = static_cast<std::uint64_t>(std::log2(n_));
    const auto nn = static_cast<std::uint64_t>(n_);
    expect_msgs_ = nn * (nn - 1) + nn * rounds;
    reduce_bytes_ = 8.0 * static_cast<double>(nn * rounds);
  }

  Outcome scenario() {
    Outcome o;
    const double t0 = now_s();
    {
      std::unique_ptr<xts::vmpi::World> w;
      {
        const Spans::Scope s("vmpi.world_ctor");
        w = std::make_unique<xts::vmpi::World>(cfg_);
      }
      const double t1 = now_s();
      {
        const Spans::Scope s("vmpi.run");
        const double* m = bytes_.data();
        const int n = n_;
        const double expect = total_;
        int* bad = &o.bad_reduce;
        o.end = w->run([m, n, expect, bad](xts::vmpi::Comm& c) {
          return alltoall_rank(c, m + static_cast<std::size_t>(c.rank()) *
                                          static_cast<std::size_t>(n),
                               n, expect, bad);
        });
      }
      o.ctor_s = t1 - t0;
      o.run_s = now_s() - t1;
      o.msgs = w->messages_delivered();
      o.bytes = w->bytes_sent();
      o.events = w->engine().events_processed();
      const xts::net::FlowNetwork& net = w->network();
      o.rate_passes = net.recompute_passes();
      o.rate_updates = net.rate_updates();
      o.peak_flows = net.peak_flows();
      o.rc_hits = net.route_cache_hits();
      o.rc_misses = net.route_cache_misses();
      const Spans::Scope s("vmpi.teardown");
      w.reset();
    }
    o.wall_s = now_s() - t0;
    last_s_ = o.wall_s;
    o.digest = Digest()
                   .add(o.end)
                   .add_u64(o.msgs)
                   .add(o.bytes)
                   .add(total_)
                   .value();
    return o;
  }

  void check(const Outcome& o, const char* where) {
    if (digest_ == 0) digest_ = o.digest;
    std::string why;
    if (o.msgs != expect_msgs_)
      why = "delivered " + std::to_string(o.msgs) + " messages, pattern implies " +
            std::to_string(expect_msgs_);
    // The allreduce's 8-byte payloads are accounted as 0 bytes at the
    // time of writing (Comm::sendrecv sizes its payload after moving
    // it), so they may or may not be in the total.
    else if (o.bytes != total_ && o.bytes != total_ + reduce_bytes_)
      why = "sent " + std::to_string(o.bytes) + " bytes, pattern implies " +
            std::to_string(total_) + " (+" + std::to_string(reduce_bytes_) +
            " allreduce)";
    else if (o.bad_reduce != 0)
      why = std::to_string(o.bad_reduce) + " ranks saw a wrong allreduce total";
    else if (!positive(o.end))
      why = "simulated end time is not finite and positive";
    else if (o.digest != digest_)
      why = "simulated outputs differ from the first scenario";
    checks_.scenario(why.empty(),
                     std::string("alltoall_1k ") + where + ": " + why);
  }

  RunOptions opt_;
  int n_;
  std::vector<double> bytes_;  ///< n x n, row = sender
  double total_ = 0.0;
  xts::vmpi::WorldConfig cfg_;
  std::uint64_t expect_msgs_ = 0;
  double reduce_bytes_ = 0.0;
  double last_s_ = 0.0;
  std::vector<Outcome> plain_, traced_;
};

// -- app_mix ---------------------------------------------------------------

enum class App { kPop, kPopCg, kCam, kNamd };

struct AppScenario {
  App app = App::kPop;
  int ranks = 0;
  bool xt4 = false;  ///< XT4, else XT3 dual-core
  ExecMode mode = ExecMode::kSN;
};

/// Simulated outputs of one app scenario (trivially copyable, as
/// runner::sweep's result codec requires).
struct AppOut {
  double a = 0.0;  ///< POP baroclinic, CAM dynamics, NAMD s/step
  double b = 0.0;  ///< POP barotropic, CAM physics
  bool ok = false;
};

const char* app_span(App a) {
  switch (a) {
    case App::kPop:
    case App::kPopCg: return "apps.pop";
    case App::kCam: return "apps.cam";
    case App::kNamd: return "apps.namd";
  }
  return "apps.?";
}

std::string app_label(const AppScenario& s) {
  static const char* names[] = {"pop", "pop-cg", "cam", "namd"};
  return std::string(names[static_cast<int>(s.app)]) + "@" +
         std::to_string(s.ranks) + (s.xt4 ? " XT4-" : " XT3DC-") +
         xts::machine::to_string(s.mode);
}

class AppMix final : public Workload {
 public:
  explicit AppMix(const RunOptions& opt)
      : opt_(opt),
        xt3dc_(xts::machine::xt3_dual_core()),
        xt4_(xts::machine::xt4()) {}

  void setup() override {
    const Spans::Scope s("bench.setup");
    generate();
    const std::size_t w = warmup_index();
    const AppOut o = run_app(sc_[w], &errors_[w]);
    check(w, o, "warm-up");
  }

  void pass(bool traced) override {
    const Spans::Scope ps("bench.pass");
    const double t0 = now_s();
    const std::vector<AppOut> out = sweep(traced ? &traced_ms_ : &plain_ms_);
    last_s_ = now_s() - t0;
    (traced ? traced_walls_ : plain_walls_).push_back(last_s_);
    Digest d;
    for (std::size_t i = 0; i < out.size(); ++i) {
      check(i, out[i], "pass");
      d.add(out[i].a).add(out[i].b);
    }
    digest_ = d.value();
  }

  [[nodiscard]] double last_pass_s() const override { return last_s_; }

  void end_to_end(Report& r) override {
    census();
    r.set("wall_s", median(plain_walls_), "s");
    std::vector<double> ms;
    for (const auto& [i, v] : plain_ms_) ms.insert(ms.end(), v.begin(), v.end());
    set_scenario_ms(r, ms, 85.0, "one app run through runner::sweep");
    r.set("sim_msgs_per_s",
          static_cast<double>(msgs_) / median(plain_walls_), "1/s");
    r.info.push_back("app_mix: " + std::to_string(sc_.size()) +
                     " scenarios per pass, " + std::to_string(msgs_) +
                     " simulated messages per pass");
  }

  void layers(Report& r) override {
    const char* names[] = {"apps.pop_ms", "apps.pop_ms", "apps.cam_ms",
                           "apps.namd_ms"};
    std::map<std::string, std::vector<double>> by;
    for (const auto& [i, ms] : traced_ms_)
      for (const double v : ms)
        by[names[static_cast<int>(sc_[i].app)]].push_back(v);
    for (const auto& [name, v] : by) r.set(name, median(v), "ms");
  }

 private:
  void generate() {
    xts::Rng rng(seed_for(opt_.seed, 2));
    // Every (app, ranks) runs on every platform/mode pair, so each pass
    // does the same work whatever the seed (a seeded pair assignment
    // would move wall_s across seeds by the cost gap between pairs);
    // the seed draws the submission order.
    const int small = opt_.tiny ? 16 : 64;
    const std::vector<std::pair<App, int>> runs = {
        {App::kPop, small},   {App::kPop, opt_.tiny ? 32 : 256},
        {App::kPopCg, small}, {App::kPopCg, opt_.tiny ? 32 : 128},
        {App::kCam, small},   {App::kNamd, small}};
    sc_.clear();
    for (const auto& [app, ranks] : runs)
      for (const bool x4 : {false, true})
        for (const ExecMode m : {ExecMode::kSN, ExecMode::kVN})
          sc_.push_back(AppScenario{app, ranks, x4, m});
    shuffle(sc_, rng);
    ref_.assign(sc_.size(), AppOut{});
    seen_.assign(sc_.size(), false);
    errors_.assign(sc_.size(), std::string{});
  }

  /// The untimed warm-up: the first POP scenario at the smallest rank
  /// count in submission order (always present, similar cost per seed).
  [[nodiscard]] std::size_t warmup_index() const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < sc_.size(); ++i)
      if (sc_[i].app == App::kPop &&
          (sc_[best].app != App::kPop || sc_[i].ranks < sc_[best].ranks))
        best = i;
    return best;
  }

  AppOut run_app(const AppScenario& s, std::string* error) const {
    const MachineConfig& m = s.xt4 ? xt4_ : xt3dc_;
    AppOut o;
    try {
      switch (s.app) {
        case App::kPop:
        case App::kPopCg: {
          xts::apps::PopConfig c;
          c.nx = opt_.tiny ? 180 : 900;
          c.ny = opt_.tiny ? 120 : 600;
          c.sample_cg_iters = 8;
          c.chronopoulos_gear = s.app == App::kPopCg;
          const auto r = xts::apps::run_pop(m, s.mode, s.ranks, c);
          o.a = r.baroclinic_seconds_per_day;
          o.b = r.barotropic_seconds_per_day;
          break;
        }
        case App::kCam: {
          const auto r = xts::apps::run_cam(m, s.mode, s.ranks);
          o.a = r.dynamics_seconds_per_day;
          o.b = r.physics_seconds_per_day;
          break;
        }
        case App::kNamd: {
          o.a = xts::apps::run_namd(m, s.mode, s.ranks).seconds_per_step;
          break;
        }
      }
      o.ok = true;
    } catch (...) {
      if (error != nullptr) *error = what_of(std::current_exception());
    }
    return o;
  }

  /// Every scenario through runner::sweep at jobs=1; host ms per call
  /// appended to (*ms)[i] when `ms` is given.
  std::vector<AppOut> sweep(std::map<std::size_t, std::vector<double>>* ms) {
    const Spans::Scope sw("runner.sweep");
    const int parent = sw.id();
    std::vector<std::function<AppOut()>> points;
    for (std::size_t i = 0; i < sc_.size(); ++i)
      points.emplace_back([this, i, ms, parent] {
        const double t0 = now_s();
        AppOut o;
        {
          const Spans::Scope s(app_span(sc_[i].app), parent);
          o = run_app(sc_[i], &errors_[i]);
        }
        if (ms != nullptr) (*ms)[i].push_back((now_s() - t0) * 1e3);
        return o;
      });
    return xts::runner::sweep(std::move(points), 1);
  }

  void check(std::size_t i, const AppOut& o, const char* where) {
    std::string why;
    if (!o.ok)
      why = "threw: " + errors_.at(i);
    else if (!positive(o.a) || !(std::isfinite(o.b) && o.b >= 0.0))
      why = "result not finite and positive";
    else if (seen_[i] && (o.a != ref_[i].a || o.b != ref_[i].b))
      why = "simulated result differs from its first run";
    if (why.empty() && !seen_[i]) {
      ref_[i] = o;
      seen_[i] = true;
    }
    checks_.scenario(why.empty(), "app_mix " + std::string(where) + " " +
                                      app_label(sc_[i]) + ": " + why);
  }

  /// Untimed run of every scenario under a count-only obsv session
  /// (no tracing, metrics or profiling, one-slot trace ring) to learn
  /// how many messages one pass simulates.  The results must not move.
  void census() {
    if (msgs_ != 0) return;
    xts::obsv::Options o;
    o.trace_capacity = 1;
    xts::obsv::Session& session = xts::obsv::Session::start(o);
    const std::vector<AppOut> out = sweep(nullptr);
    for (const auto& s : session.summaries()) msgs_ += s.messages;
    xts::obsv::Session::stop();
    for (std::size_t i = 0; i < out.size(); ++i) check(i, out[i], "census");
  }

  RunOptions opt_;
  MachineConfig xt3dc_, xt4_;
  std::vector<AppScenario> sc_;
  std::vector<AppOut> ref_;
  std::vector<bool> seen_;
  std::vector<std::string> errors_;
  std::map<std::size_t, std::vector<double>> plain_ms_, traced_ms_;
  std::vector<double> plain_walls_, traced_walls_;
  std::uint64_t msgs_ = 0;
  double last_s_ = 0.0;
};

// -- armed_sweep -----------------------------------------------------------

enum class Kind { kHpcc, kIor, kCheckpoint };

using GlobalBench = double (*)(const MachineConfig&, ExecMode, int);
constexpr GlobalBench kHpcc[] = {xts::hpcc::hpl_tflops,
                                 xts::hpcc::mpifft_gflops,
                                 xts::hpcc::ptrans_gbs, xts::hpcc::mpira_gups};
constexpr const char* kHpccName[] = {"hpcc.hpl", "hpcc.mpifft", "hpcc.ptrans",
                                     "hpcc.mpira"};

struct ArmedPoint {
  Kind kind = Kind::kHpcc;
  int bench = 0;  ///< index into kHpcc
  bool xt4 = true;
  ExecMode mode = ExecMode::kSN;
  int ranks = 0;
  xts::lustre::IorConfig ior;
  xts::lustre::CheckpointConfig ckpt;
  bool lock_fs = false;  ///< checkpoint on the lock-conflict filesystem
  double weight = 0.0;
  xts::cache::Key key;
};

/// Simulated outputs of one point (trivially copyable for the cache).
struct PointOut {
  double v[4] = {0.0, 0.0, 0.0, 0.0};
  bool ok = false;
};

const char* point_span(Kind k) {
  switch (k) {
    case Kind::kHpcc: return "hpcc.point";
    case Kind::kIor: return "lustre.ior";
    case Kind::kCheckpoint: return "lustre.checkpoint";
  }
  return "?";
}

class ArmedSweep final : public Workload {
 public:
  explicit ArmedSweep(const RunOptions& opt)
      : opt_(opt),
        xt3_(xts::machine::xt3_single_core()),
        xt4_(xts::machine::xt4()),
        jobs_(std::max(1, xts::runner::default_jobs() / 2)) {
    fs_lock_.lock_conflict_time = 500.0 * xts::units::us;
    fs_lock_.ost_queue_depth = 2;
  }

  void setup() override {
    const Spans::Scope s("bench.setup");
    generate();
    // Arm a metrics session and a fresh store, then run the warm-up
    // point (HPL at the smallest count on XT4-VN) cold through them.
    open_store("setup");
    xts::obsv::Options o;
    o.metrics = true;
    xts::obsv::Session::start(o);
    std::vector<std::function<PointOut()>> one;
    one.emplace_back([this] { return run_point(warmup_, &errors_[warmup_]); });
    const PointOut out = xts::runner::sweep(
        std::move(one), 1, {}, {points_[warmup_].key})[0];
    xts::obsv::Session::stop();
    close_store();
    check(warmup_, out, "warm-up");
  }

  void pass(bool traced) override {
    const Spans::Scope ps("bench.pass");
    const double t0 = now_s();
    open_store("pass");
    Leg cold = leg(true, "bench.cold_leg");
    Leg warm = leg(true, "bench.warm_leg");
    close_store();
    last_s_ = now_s() - t0;
    if (traced) {
      open_store("plain");
      Leg plain = leg(false, "bench.plain_leg");
      close_store();
      compare(cold, plain, "plain leg");
      plain_legs_.push_back(plain.wall);
    }
    remove_stores();
    for (std::size_t i = 0; i < points_.size(); ++i)
      check(i, cold.out[i], "cold leg");
    compare(cold, warm, "warm leg");
    if (export_ref_.empty()) export_ref_ = cold.exported;
    checks_.scenario(cold.exported == warm.exported &&
                         cold.exported == export_ref_,
                     "armed_sweep: the metrics export differs between the "
                     "legs or from the first pass");
    Digest d;
    for (const std::size_t i : submit_order())
      for (const double v : ref_[i].v) d.add(v);
    digest_ = d.add_str(export_ref_).value();
    Passes& p = traced ? traced_ : plain_;
    p.walls.push_back(last_s_);
    p.cold.push_back(std::move(cold));
    p.warm.push_back(std::move(warm));
  }

  [[nodiscard]] double last_pass_s() const override { return last_s_; }

  void end_to_end(Report& r) override {
    std::vector<double> ms, rates;
    for (const Leg& l : plain_.cold) {
      for (const double v : l.ms) ms.push_back(v);
      rates.push_back(static_cast<double>(l.msgs) / l.wall);
    }
    r.set("wall_s", median(plain_.walls), "s");
    set_scenario_ms(r, ms, 90.0, "one point of the cold leg, as the sweep ran it");
    r.set("sim_msgs_per_s", median(rates), "1/s");
    r.info.push_back("armed_sweep: " + std::to_string(points_.size()) +
                     " points per leg in " + std::to_string(groups_.size()) +
                     " sweeps at jobs=" + std::to_string(jobs_));
  }

  void layers(Report& r) override {
    std::map<Kind, std::vector<double>> by_kind;
    std::vector<double> wait, tail, cold_w, warm_w, start_ms, export_ms;
    double busy = 0.0, capacity = 0.0, hits = 0.0, probes = 0.0;
    for (const Leg& l : traced_.cold) {
      for (std::size_t i = 0; i < l.ms.size(); ++i)
        by_kind[points_[l.ran[i]].kind].push_back(l.ms[i]);
      wait.insert(wait.end(), l.wait_ms.begin(), l.wait_ms.end());
      tail.insert(tail.end(), l.tail_ms.begin(), l.tail_ms.end());
      busy += l.busy;
      capacity += l.capacity;
      cold_w.push_back(l.wall);
      start_ms.push_back(l.session_start_s * 1e3);
      export_ms.push_back(l.export_s * 1e3);
    }
    for (const Leg& l : traced_.warm) {
      warm_w.push_back(l.wall);
      hits += static_cast<double>(l.hits);
      probes += static_cast<double>(l.hits + l.misses);
    }
    r.set("hpcc.point_ms", median(by_kind[Kind::kHpcc]), "ms");
    r.set("lustre.ior_ms", median(by_kind[Kind::kIor]), "ms");
    r.set("lustre.checkpoint_ms", median(by_kind[Kind::kCheckpoint]), "ms");
    r.set("runner.points", static_cast<double>(points_.size()), "count");
    r.set("runner.queue_wait_ms_p50", median(wait), "ms");
    r.set("runner.efficiency", busy / capacity, "ratio");
    r.set("runner.tail_ms", median(tail), "ms");
    r.set("cache.key_us", median(key_us_), "us");
    r.set("cache.warm_hit_ratio", hits / std::max(1.0, probes), "ratio");
    r.set("cache.warm_replay_s", median(warm_w), "s");
    r.set("obsv.armed_over_plain", median(cold_w) / median(plain_legs_),
          "ratio");
    r.set("obsv.session_start_ms", median(start_ms), "ms");
    r.set("obsv.export_ms", median(export_ms), "ms");
  }

 private:
  /// One leg: every group swept once, cold or warm against the store.
  struct Leg {
    std::vector<PointOut> out;      ///< by point index
    std::vector<std::size_t> ran;   ///< points whose closure ran
    std::vector<double> ms;         ///< host ms per ran point
    std::vector<double> wait_ms;    ///< sweep start -> point start
    std::vector<double> tail_ms;    ///< per sweep: last point end -> return
    double busy = 0.0;              ///< sum of point host seconds
    double capacity = 0.0;          ///< sum of jobs x sweep wall
    double wall = 0.0;
    double session_start_s = 0.0;
    double export_s = 0.0;
    std::uint64_t msgs = 0;
    std::uint64_t hits = 0, misses = 0;
    std::string exported;           ///< the --metrics table, as CSV
  };
  struct Passes {
    std::vector<double> walls;
    std::vector<Leg> cold, warm;
  };

  void add(ArmedPoint p, std::vector<std::size_t>& group) {
    group.push_back(points_.size());
    points_.push_back(std::move(p));
  }

  void generate() {
    points_.clear();
    groups_.clear();
    // The figs 8-11 global points at 32-128 ranks (the default grid
    // without its 256 row: the --quick points last 1-3 ms, too short to
    // time steadily), then the bench_ior and bench_checkpoint --quick
    // grids.  No sweep holds more than eight points, because an armed
    // sweep allocates every point's obsv shard, with its 56 MB trace
    // ring, up front.
    const std::vector<std::vector<int>> count_groups =
        opt_.tiny ? std::vector<std::vector<int>>{{16}}
                  : std::vector<std::vector<int>>{{32, 64}, {128}};
    const int first_count = count_groups.front().front();
    const std::pair<bool, ExecMode> variants[] = {{false, ExecMode::kSN},
                                                  {true, ExecMode::kSN},
                                                  {true, ExecMode::kVN},
                                                  {true, ExecMode::kVN}};
    for (int b = 0; b < 4; ++b) {
      for (const auto& counts : count_groups) {
        std::vector<std::size_t> g;
        for (const int n : counts) {
          for (int v = 0; v < 4; ++v) {
            ArmedPoint p;
            p.bench = b;
            p.xt4 = variants[v].first;
            p.mode = variants[v].second;
            p.ranks = v == 3 ? 2 * n : n;  // XT4-VN at the same sockets
            p.weight = p.ranks;
            if (b == 0 && n == first_count && v == 2)
              warmup_ = points_.size();
            add(p, g);
          }
        }
        groups_.push_back(std::move(g));
      }
    }
    using xts::units::MiB;
    const std::vector<int> stripes =
        opt_.tiny ? std::vector<int>{1, 4}
                  : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
    const std::vector<int> clients =
        opt_.tiny ? std::vector<int>{8} : std::vector<int>{8, 32, 128, 256};
    std::vector<std::size_t> g_stripe, g_clients, g_ck, g_shared;
    for (const int sc : stripes) {
      ArmedPoint p;
      p.kind = Kind::kIor;
      p.ior.clients = 16;
      p.ior.block_bytes = (opt_.tiny ? 2.0 : 16.0) * MiB;
      p.ior.stripe_count = sc;
      add(p, g_stripe);
    }
    for (const int c : clients) {
      ArmedPoint p;
      p.kind = Kind::kIor;
      p.ior.clients = c;
      p.ior.block_bytes = (opt_.tiny ? 1.0 : 8.0) * MiB;
      p.ior.stripe_count = 4;
      add(p, g_clients);
      ArmedPoint q;
      q.kind = Kind::kCheckpoint;
      q.ckpt.clients = c;
      q.ckpt.bytes_per_client = 0.25 * MiB;
      q.ckpt.stripe_count = 1;
      q.ckpt.rounds = 2;
      add(q, g_ck);
    }
    for (const bool shared : {false, true}) {
      ArmedPoint p;
      p.kind = Kind::kCheckpoint;
      p.lock_fs = true;
      p.ckpt.clients = opt_.tiny ? 8 : 32;
      p.ckpt.bytes_per_client = (opt_.tiny ? 1.0 : 4.0) * MiB;
      p.ckpt.stripe_count = 16;
      p.ckpt.shared_file = shared;
      add(p, g_shared);
    }
    for (auto* g : {&g_stripe, &g_clients, &g_ck, &g_shared})
      groups_.push_back(std::move(*g));

    // The seed draws the submission order inside every sweep.
    xts::Rng rng(seed_for(opt_.seed, 3));
    for (auto& g : groups_) shuffle(g, rng);

    key_us_.clear();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      ArmedPoint& p = points_[i];
      const double t0 = now_s();
      p.key = key_of(p);
      key_us_.push_back((now_s() - t0) * 1e6);
      if (p.kind != Kind::kHpcc)
        p.weight = p.kind == Kind::kIor
                       ? p.ior.clients * p.ior.block_bytes
                       : p.ckpt.clients * p.ckpt.bytes_per_client;
      // Break weight ties by generation order: the runner then executes
      // every seed's sweep in the same order, so host time does not
      // depend on which points the seed happens to run side by side.
      p.weight *= 1.0 + 1e-9 * static_cast<double>(points_.size() - i);
    }
    ref_.assign(points_.size(), PointOut{});
    seen_.assign(points_.size(), false);
    errors_.assign(points_.size(), std::string{});
  }

  xts::cache::Key key_of(const ArmedPoint& p) const {
    const Spans::Scope s("cache.key");
    switch (p.kind) {
      case Kind::kHpcc:
        return xts::cache::scenario(kHpccName[p.bench], p.xt4 ? xt4_ : xt3_,
                                    p.mode, p.ranks)
            .done();
      case Kind::kIor: {
        xts::cache::Fingerprint fp;
        fp.add("workload", "lustre.ior");
        xts::cache::add_lustre(fp, fs_, "lustre");
        xts::cache::add_ior(fp, p.ior);
        return fp.done();
      }
      case Kind::kCheckpoint: {
        xts::cache::Fingerprint fp;
        fp.add("workload", "lustre.checkpoint");
        xts::cache::add_lustre(fp, p.lock_fs ? fs_lock_ : fs_, "lustre");
        xts::cache::add_checkpoint(fp, p.ckpt);
        return fp.done();
      }
    }
    return {};
  }

  [[nodiscard]] std::vector<std::size_t> submit_order() const {
    std::vector<std::size_t> order;
    for (const auto& g : groups_) order.insert(order.end(), g.begin(), g.end());
    return order;
  }

  PointOut run_point(std::size_t i, std::string* error) const {
    const ArmedPoint& p = points_[i];
    PointOut o;
    try {
      switch (p.kind) {
        case Kind::kHpcc:
          o.v[0] = kHpcc[p.bench](p.xt4 ? xt4_ : xt3_, p.mode, p.ranks);
          break;
        case Kind::kIor: {
          const auto r = xts::lustre::run_ior(fs_, p.ior);
          o.v[0] = r.create_seconds;
          o.v[1] = r.write_gbs;
          o.v[2] = r.read_gbs;
          break;
        }
        case Kind::kCheckpoint: {
          const auto r =
              xts::lustre::run_checkpoint(p.lock_fs ? fs_lock_ : fs_, p.ckpt);
          o.v[0] = r.checkpoint_seconds;
          o.v[1] = r.restart_seconds;
          o.v[2] = r.write_gbs;
          o.v[3] = r.meta_share;
          break;
        }
      }
      o.ok = true;
    } catch (...) {
      if (error != nullptr) *error = what_of(std::current_exception());
    }
    return o;
  }

  void open_store(const char* tag) {
    const Spans::Scope s("cache.store_open");
    const std::string dir =
        opt_.work_dir + "/armed-store-" + tag + "-" + std::to_string(stores_++);
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    xts::cache::Store::configure(dir);
  }
  static void close_store() { xts::cache::Store::reset(); }
  void remove_stores() {
    for (const std::string& d : dirs_) std::filesystem::remove_all(d);
    dirs_.clear();
  }

  Leg leg(bool armed, const char* name) {
    const Spans::Scope ls(name);
    Leg l;
    l.out.assign(points_.size(), PointOut{});
    const double t0 = now_s();
    if (armed) {
      const Spans::Scope s("obsv.session_start");
      xts::obsv::Options o;
      o.metrics = true;
      xts::obsv::Session::start(o);
      l.session_start_s = now_s() - t0;
    }
    const xts::ScenarioCacheStats& cs = xts::scenario_cache_stats();
    const std::uint64_t h0 = cs.hits.load(), m0 = cs.misses.load();
    for (const auto& g : groups_) sweep(g, l);
    l.hits = cs.hits.load() - h0;
    l.misses = cs.misses.load() - m0;
    if (armed) {
      const xts::obsv::Session& session = *xts::obsv::Session::active();
      const double te = now_s();
      {
        const Spans::Scope s("obsv.export");
        std::ostringstream os;
        xts::obsv::metrics_table(session.registry()).print_csv(os);
        l.exported = os.str();
      }
      l.export_s = now_s() - te;
      for (const auto& sm : session.summaries()) l.msgs += sm.messages;
      const Spans::Scope s("obsv.session_stop");
      xts::obsv::Session::stop();
    }
    l.wall = now_s() - t0;
    return l;
  }

  void sweep(const std::vector<std::size_t>& g, Leg& l) {
    const Spans::Scope sw("runner.sweep");
    const int parent = sw.id();
    std::vector<std::function<PointOut()>> fns;
    std::vector<double> weights;
    std::vector<xts::cache::Key> keys;
    std::vector<double> start(g.size(), -1.0), end(g.size(), -1.0);
    for (std::size_t k = 0; k < g.size(); ++k) {
      const std::size_t i = g[k];
      fns.emplace_back([this, i, k, parent, &start, &end] {
        start[k] = now_s();
        PointOut o;
        {
          const Spans::Scope s(point_span(points_[i].kind), parent);
          o = run_point(i, &errors_[i]);
        }
        end[k] = now_s();
        return o;
      });
      weights.push_back(points_[i].weight);
      keys.push_back(points_[i].key);
    }
    const double t0 = now_s();
    const std::vector<PointOut> out =
        xts::runner::sweep(std::move(fns), jobs_, weights, keys);
    const double t1 = now_s();
    double last = t0;
    std::size_t ran = 0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      l.out[g[k]] = out[k];
      if (start[k] < 0.0) continue;  // served from the cache
      ++ran;
      l.ran.push_back(g[k]);
      l.ms.push_back((end[k] - start[k]) * 1e3);
      l.wait_ms.push_back((start[k] - t0) * 1e3);
      l.busy += end[k] - start[k];
      last = std::max(last, end[k]);
    }
    if (ran > 0) {
      l.tail_ms.push_back((t1 - last) * 1e3);
      l.capacity += static_cast<double>(std::min<std::size_t>(
                        static_cast<std::size_t>(jobs_), ran)) *
                    (t1 - t0);
    }
  }

  void check(std::size_t i, const PointOut& o, const char* where) {
    const ArmedPoint& p = points_[i];
    std::string why;
    const int fields = p.kind == Kind::kHpcc ? 1 : p.kind == Kind::kIor ? 3 : 4;
    bool pos = true;
    for (int f = 0; f < fields; ++f) pos = pos && positive(o.v[f]);
    if (!o.ok)
      why = "threw: " + errors_[i];
    else if (!pos)
      why = "result not finite and positive";
    else if (seen_[i] && std::memcmp(o.v, ref_[i].v, sizeof o.v) != 0)
      why = "simulated result differs from its first run";
    if (why.empty() && !seen_[i]) {
      ref_[i] = o;
      seen_[i] = true;
    }
    checks_.scenario(why.empty(), std::string("armed_sweep ") + where +
                                      " point " + std::to_string(i) + ": " +
                                      why);
  }

  /// Every point of leg `b` must give the cold leg's result, bit for bit.
  void compare(const Leg& cold, const Leg& b, const char* what) {
    for (std::size_t i = 0; i < points_.size(); ++i)
      checks_.scenario(
          std::memcmp(cold.out[i].v, b.out[i].v, sizeof b.out[i].v) == 0 &&
              cold.out[i].ok == b.out[i].ok,
          std::string("armed_sweep ") + what + " point " + std::to_string(i) +
              ": differs from the cold leg");
  }

  RunOptions opt_;
  MachineConfig xt3_, xt4_;
  xts::lustre::LustreConfig fs_, fs_lock_;
  int jobs_;
  std::vector<ArmedPoint> points_;
  std::vector<std::vector<std::size_t>> groups_;
  std::size_t warmup_ = 0;
  std::vector<double> key_us_;
  std::vector<PointOut> ref_;
  std::vector<bool> seen_;
  std::vector<std::string> errors_;
  std::string export_ref_;
  std::vector<std::string> dirs_;
  int stores_ = 0;
  double last_s_ = 0.0;
  Passes plain_, traced_;
  std::vector<double> plain_legs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& opt) {
  if (name == "alltoall_1k") return std::make_unique<Alltoall>(opt);
  if (name == "app_mix") return std::make_unique<AppMix>(opt);
  if (name == "armed_sweep") return std::make_unique<ArmedSweep>(opt);
  return nullptr;
}

}  // namespace xtbench
