#include "obsv/telemetry.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "core/cache_stats.hpp"
#include "core/error.hpp"
#include "core/hostprof.hpp"

namespace xts::obsv {

long host_peak_rss_bytes() noexcept {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss * 1024L;  // Linux reports KiB
}

HostFaults host_page_faults() noexcept {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return {};
  return {ru.ru_majflt, ru.ru_minflt};
}

long host_current_rss_bytes() noexcept {
  if (std::FILE* f = std::fopen("/proc/self/statm", "re")) {
    long size = 0;
    long resident = 0;
    const int got = std::fscanf(f, "%ld %ld", &size, &resident);
    std::fclose(f);
    if (got == 2)
      return resident * static_cast<long>(sysconf(_SC_PAGESIZE));
  }
  return host_peak_rss_bytes();
}

namespace telemetry {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string unum(std::uint64_t v) { return std::to_string(v); }

/// One consistent view of the progress atomics + derived rates.
struct Sample {
  std::uint64_t seq = 0;
  double wall = 0.0;
  double sim = 0.0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  double sim_rate = 0.0;
  std::uint64_t queue = 0;
  std::uint64_t flows = 0;
  long rss = 0;
  bool final_beat = false;
};

struct State {
  std::mutex mu;
  std::condition_variable cv;
  bool running = false;
  bool stopping = false;
  TelemetryOptions opt;
  std::ofstream stream;
  std::thread sampler;
  std::chrono::steady_clock::time_point t0;
  std::uint64_t seq = 0;
  double prev_wall = 0.0;
  double prev_sim = 0.0;
  std::uint64_t prev_events = 0;
  RunProgress progress;
  std::atomic<bool> active{false};
};

// Function-local static: never destroyed before the atexit flush, and
// the RunProgress stays valid for any Engine still pointing at it.
State& st() {
  static State* s = new State;  // NOLINT: intentionally immortal
  return *s;
}

double wall_now_locked(const State& s) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       s.t0)
      .count();
}

Sample take_sample_locked(State& s, bool final_beat) {
  Sample out;
  out.seq = s.seq;
  out.wall = wall_now_locked(s);
  out.sim = s.progress.sim_time.load(std::memory_order_relaxed);
  out.events = s.progress.events.load(std::memory_order_relaxed);
  out.queue = s.progress.queue_depth.load(std::memory_order_relaxed);
  out.flows = s.progress.flows.load(std::memory_order_relaxed);
  const double dt = out.wall - s.prev_wall;
  if (dt > 0.0) {
    out.events_per_s =
        static_cast<double>(out.events - s.prev_events) / dt;
    out.sim_rate = (out.sim - s.prev_sim) / dt;
  }
  out.rss = host_current_rss_bytes();
  out.final_beat = final_beat;
  ++s.seq;
  s.prev_wall = out.wall;
  s.prev_sim = out.sim;
  s.prev_events = out.events;
  return out;
}

std::string heartbeat_json(const Sample& smp) {
  std::string r = "{\"kind\":\"heartbeat\",\"seq\":" + unum(smp.seq) +
                  ",\"wall_s\":" + num(smp.wall) +
                  ",\"sim_s\":" + num(smp.sim) +
                  ",\"events\":" + unum(smp.events) +
                  ",\"events_per_s\":" + num(smp.events_per_s) +
                  ",\"sim_rate\":" + num(smp.sim_rate) +
                  ",\"queue_depth\":" + unum(smp.queue) +
                  ",\"flows\":" + unum(smp.flows) +
                  ",\"rss_bytes\":" + std::to_string(smp.rss);
  if (smp.final_beat) r += ",\"final\":true";
  r += "}";
  return r;
}

std::string heartbeat_text(const Sample& smp) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "telemetry: wall %.1fs  sim %.3es (%.3ex)  events %llu "
                "(%.3e/s)  queue %llu  flows %llu  rss %.1f MiB",
                smp.wall, smp.sim, smp.sim_rate,
                static_cast<unsigned long long>(smp.events),
                smp.events_per_s,
                static_cast<unsigned long long>(smp.queue),
                static_cast<unsigned long long>(smp.flows),
                static_cast<double>(smp.rss) / (1024.0 * 1024.0));
  return buf;
}

void emit_heartbeat_locked(State& s, bool final_beat) {
  const ScopedHostTimer timer(HostSubsys::kTelemetry);
  const Sample smp = take_sample_locked(s, final_beat);
  if (s.stream.is_open()) {
    s.stream << heartbeat_json(smp) << '\n';
    s.stream.flush();
  }
  if (s.opt.heartbeat_s > 0.0)
    std::cerr << heartbeat_text(smp) << std::endl;
}

std::string breakdown_json_locked(State& s) {
  const double wall = wall_now_locked(s);
  const HostProfile::Totals tot = HostProfile::fold();
  // The subsystems tile the covered wall time exclusively; "other" is
  // whatever the run spent outside any instrumented scope (bench setup,
  // result table assembly, app-model compute...).  On a --jobs=1 run
  // shares sum to ~1 by construction; overlapping threads (sweep
  // workers, the sampler) can push the tracked sum past wall — that is
  // CPU-seconds, not an accounting bug.
  double tracked = 0.0;
  for (const double sec : tot.seconds) tracked += sec;
  const double other = std::max(0.0, wall - tracked);
  const double denom = wall > 0.0 ? wall : 1.0;

  std::string r = "{\"kind\":\"breakdown\",\"wall_s\":" + num(wall) +
                  ",\"subsystems\":{";
  for (std::size_t i = 0; i < kHostSubsysCount; ++i) {
    const auto sub = static_cast<HostSubsys>(i);
    r += std::string("\"") + host_subsys_name(sub) +
         "\":{\"s\":" + num(tot[sub]) +
         ",\"share\":" + num(tot[sub] / denom) + "},";
  }
  r += "\"other\":{\"s\":" + num(other) +
       ",\"share\":" + num(other / denom) + "}}";

  const HostFaults faults = host_page_faults();
  r += ",\"host\":{\"peak_rss_bytes\":" +
       std::to_string(host_peak_rss_bytes()) +
       ",\"major_faults\":" + std::to_string(faults.major) +
       ",\"minor_faults\":" + std::to_string(faults.minor) + "}";

  // Scenario-result cache behaviour (src/cache): present only when a
  // store was armed this run (--cache-dir), counters are process-wide.
  const ScenarioCacheStats& cs = scenario_cache_stats();
  if (cs.enabled.load(std::memory_order_relaxed)) {
    const auto load = [](const std::atomic<std::uint64_t>& c) {
      return std::to_string(c.load(std::memory_order_relaxed));
    };
    r += ",\"scenario_cache\":{\"hits\":" + load(cs.hits) +
         ",\"misses\":" + load(cs.misses) +
         ",\"dedups\":" + load(cs.dedups) +
         ",\"writes\":" + load(cs.writes) +
         ",\"corrupt\":" + load(cs.corrupt) +
         ",\"bypassed\":" + load(cs.bypassed) + "}";
  }
  r += "}";
  return r;
}

void sampler_loop() {
  State& s = st();
  std::unique_lock<std::mutex> lk(s.mu);
  const double period =
      s.opt.heartbeat_s > 0.0 ? s.opt.heartbeat_s : 1.0;
  const auto interval = std::chrono::duration<double>(period);
  while (!s.stopping) {
    if (s.cv.wait_for(lk, interval, [&] { return s.stopping; })) break;
    emit_heartbeat_locked(s, /*final_beat=*/false);
  }
}

}  // namespace

void start(const TelemetryOptions& opt) {
  State& s = st();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.running) return;
  s.opt = opt;
  s.stopping = false;
  s.seq = 0;
  s.prev_wall = 0.0;
  s.prev_sim = 0.0;
  s.prev_events = 0;
  s.progress.sim_time.store(0.0, std::memory_order_relaxed);
  s.progress.events.store(0, std::memory_order_relaxed);
  s.progress.queue_depth.store(0, std::memory_order_relaxed);
  s.progress.flows.store(0, std::memory_order_relaxed);
  if (!opt.stream_path.empty()) {
    s.stream.open(opt.stream_path, std::ios::trunc);
    if (!s.stream)
      throw UsageError("cannot open telemetry stream: " + opt.stream_path);
  }
  s.t0 = std::chrono::steady_clock::now();
  HostProfile::reset();
  HostProfile::enable(true);
  if (s.stream.is_open()) {
    s.stream << "{\"xtsim_telemetry\":1,\"schema\":2,\"kind\":\"start\""
             << ",\"heartbeat_s\":" << num(opt.heartbeat_s)
             << ",\"pid\":" << static_cast<long>(getpid()) << "}\n";
    s.stream.flush();
  }
  s.running = true;
  s.active.store(true, std::memory_order_release);
  s.sampler = std::thread(sampler_loop);
}

void stop() {
  State& s = st();
  std::thread sampler;
  {
    const std::lock_guard<std::mutex> lk(s.mu);
    if (!s.running) return;
    s.stopping = true;
    sampler = std::move(s.sampler);
  }
  s.cv.notify_all();
  if (sampler.joinable()) sampler.join();
  const std::lock_guard<std::mutex> lk(s.mu);
  // A final beat (so even sub-period runs stream at least one) and the
  // exit-time breakdown close the record stream.
  emit_heartbeat_locked(s, /*final_beat=*/true);
  if (s.stream.is_open()) {
    s.stream << breakdown_json_locked(s) << '\n';
    s.stream.close();
  }
  if (s.opt.heartbeat_s > 0.0) {
    const HostProfile::Totals tot = HostProfile::fold();
    const double wall = wall_now_locked(s);
    const double denom = wall > 0.0 ? wall : 1.0;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "telemetry: host-time breakdown — engine %.1f%%  "
                  "net.rates %.1f%%  obsv.export %.1f%%  (wall %.2fs)",
                  tot[HostSubsys::kEngine] / denom * 100.0,
                  tot[HostSubsys::kRates] / denom * 100.0,
                  tot[HostSubsys::kExport] / denom * 100.0, wall);
    std::cerr << buf << std::endl;
  }
  s.active.store(false, std::memory_order_release);
  s.running = false;
  HostProfile::enable(false);
}

bool active() noexcept {
  return st().active.load(std::memory_order_acquire);
}

RunProgress* progress() noexcept {
  State& s = st();
  return s.active.load(std::memory_order_acquire) ? &s.progress : nullptr;
}

}  // namespace telemetry
}  // namespace xts::obsv
