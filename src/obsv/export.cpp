#include "obsv/export.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/cache_stats.hpp"
#include "core/error.hpp"
#include "core/hostprof.hpp"
#include "obsv/attrib.hpp"
#include "obsv/json.hpp"
#include "obsv/telemetry.hpp"

namespace xts::obsv {

namespace {

// Simulated seconds -> Chrome microseconds, printed with enough digits
// to round-trip a double exactly (the 1e-9 span-sum check depends on
// this).
std::string us(SimTime t) { return gnum(t * 1e6); }

struct Emitter {
  std::ostream& os;
  bool first = true;

  void event(const std::string& body) {
    os << (first ? "\n  " : ",\n  ") << body;
    first = false;
  }
};

void emit_thread_meta(Emitter& em, std::uint32_t world, std::int32_t lane) {
  const int tid = lane + 1;
  const std::string name =
      lane == kWorldLane ? std::string("world")
                         : "rank " + std::to_string(lane);
  em.event("{\"ph\":\"M\",\"pid\":" + std::to_string(world) +
           ",\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name +
           "\"}}");
  em.event("{\"ph\":\"M\",\"pid\":" + std::to_string(world) +
           ",\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
           std::to_string(tid) + "}}");
}

/// An empty table with the metrics dump's columns.
Table metric_columns(const std::string& title) {
  return Table(title, {"family", "label", "kind", "count", "value", "mean",
                       "p95", "max"});
}

}  // namespace

void write_chrome_trace(const Session& session, std::ostream& os) {
  const TraceSink& sink = session.sink();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Emitter em{os};

  // recv.wait carries the unblocking message's id (the profiler's
  // dependency edge) but is *not* one of the gapless per-message
  // segments — it overlaps the rx-side ones — so it stays a complete
  // event on the rank lane rather than joining the async message track.
  const std::uint32_t recv_wait_id =
      const_cast<TraceSink&>(sink).intern("recv.wait");

  std::set<std::pair<std::uint32_t, std::int32_t>> lanes_seen;
  sink.for_each([&](const TraceEvent& e) {
    const std::string pid = std::to_string(e.world);
    const std::string tid = std::to_string(e.lane + 1);
    const std::string name = json_escape(sink.name(e.name));
    const std::string cat(cat_name(e.cat));
    lanes_seen.emplace(e.world, e.lane);
    if ((e.cat == Cat::kMessage || e.cat == Cat::kIo) && e.id != 0 &&
        e.name != recv_wait_id) {
      // Per-message (and per-io-operation) breakdown: async begin/end
      // pairs grouped by the correlation id, so concurrent messages and
      // stripe chunks get their own sub-tracks instead of corrupting
      // the rank lane.
      char idbuf[24];
      std::snprintf(idbuf, sizeof(idbuf), "\"0x%llx\"",
                    static_cast<unsigned long long>(e.id));
      const std::string common = ",\"cat\":\"" + cat + "\",\"id\":" +
                                 idbuf + ",\"pid\":" + pid + ",\"tid\":" +
                                 tid + ",\"name\":\"" + name + "\"";
      em.event("{\"ph\":\"b\"" + common + ",\"ts\":" + us(e.t0) +
               ",\"args\":{\"bytes\":" + gnum(e.a0) + "}}");
      em.event("{\"ph\":\"e\"" + common + ",\"ts\":" + us(e.t1) + "}");
    } else {
      em.event("{\"ph\":\"X\",\"cat\":\"" + cat + "\",\"pid\":" + pid +
               ",\"tid\":" + tid + ",\"name\":\"" + name +
               "\",\"ts\":" + us(e.t0) + ",\"dur\":" + us(e.t1 - e.t0) +
               ",\"args\":{\"a0\":" + gnum(e.a0) + ",\"a1\":" +
               gnum(e.a1) + "}}");
    }
  });

  for (const auto& [world, lane] : lanes_seen)
    emit_thread_meta(em, world, lane);

  for (const WorldSummary& w : session.summaries()) {
    const std::string pid = std::to_string(w.world);
    em.event("{\"ph\":\"M\",\"pid\":" + pid +
             ",\"name\":\"process_name\",\"args\":{\"name\":\"world " +
             pid + " (" + std::to_string(w.nranks) + " ranks)\"}}");
    // Per-link-class concurrent-flow counts as one stacked counter
    // track per world ("one lane per torus link class").
    std::array<std::int32_t, kLinkClasses> load{};
    for (const ClassSample& s : w.class_series) {
      load[static_cast<std::size_t>(s.cls)] = s.load;
      std::string args;
      for (int c = 0; c < kLinkClasses; ++c) {
        args += (c ? ",\"" : "\"");
        args += std::string(kLinkClassNames[c]) + "\":" +
                std::to_string(load[static_cast<std::size_t>(c)]);
      }
      em.event("{\"ph\":\"C\",\"pid\":" + pid +
               ",\"name\":\"net.flows\",\"ts\":" + us(s.t) +
               ",\"args\":{" + args + "}}");
    }
  }

  os << "\n],\n\"xtsim\":{\"dropped\":" << sink.dropped()
     << ",\"worlds\":[";
  bool first_world = true;
  for (const WorldSummary& w : session.summaries()) {
    os << (first_world ? "\n  {" : ",\n  {");
    first_world = false;
    os << "\"world\":" << w.world << ",\"nranks\":" << w.nranks
       << ",\"nodes\":" << w.nodes << ",\"end_time\":" << gnum(w.end_time)
       << ",\"messages\":" << w.messages
       << ",\"bytes_sent\":" << gnum(w.bytes_sent)
       << ",\"net_delivered\":" << gnum(w.net_delivered)
       << ",\"peak_flows\":" << w.peak_flows
       << ",\"engine_events\":" << w.engine_events;
    std::array<double, kLinkClasses> class_bytes{};
    double ejection_bytes = 0.0;
    for (const LinkUsage& l : w.links) {
      class_bytes[static_cast<std::size_t>(l.cls)] += l.bytes;
      if (l.cls == kLinkClasses - 1) ejection_bytes += l.bytes;
    }
    os << ",\"ejection_bytes\":" << gnum(ejection_bytes)
       << ",\"class_bytes\":{";
    for (int c = 0; c < kLinkClasses; ++c)
      os << (c ? ",\"" : "\"") << kLinkClassNames[c]
         << "\":" << gnum(class_bytes[static_cast<std::size_t>(c)]);
    os << "},\"links\":[";
    bool first_link = true;
    for (const LinkUsage& l : w.links) {
      os << (first_link ? "" : ",") << "{\"link\":" << l.link
         << ",\"cls\":\"" << kLinkClassNames[static_cast<std::size_t>(l.cls)]
         << "\",\"bytes\":" << gnum(l.bytes)
         << ",\"busy\":" << gnum(l.busy_time)
         << ",\"contended\":" << gnum(l.contended_time)
         << ",\"peak\":" << l.peak_load << "}";
      first_link = false;
    }
    os << "]}";
  }
  os << "\n]}}\n";
}

void write_chrome_trace_file(const Session& session,
                             const std::string& path) {
  std::ofstream os(path);
  if (!os) throw UsageError("cannot open trace file: " + path);
  write_chrome_trace(session, os);
}

Table metrics_table(const Registry& registry, const std::string& title) {
  Table t = metric_columns(title);
  for (const auto& [family, labels] : registry.counters())
    for (const auto& [label, c] : labels)
      t.add_row({family, label, "counter", "", Table::num(c.value(), 3), "",
                 "", ""});
  for (const auto& [family, labels] : registry.histograms())
    for (const auto& [label, h] : labels) {
      if (h.count() == 0) continue;
      t.add_row({family, label, "histogram",
                 Table::num(static_cast<long long>(h.count())),
                 Table::num(h.sum(), 6), Table::num(h.mean(), 9),
                 Table::num(h.percentile(0.95), 9),
                 Table::num(h.max(), 9)});
    }
  return t;
}

Table host_table() {
  // One-shot host facts, so value = max.
  Table t = metric_columns("host resources");
  const auto row = [&t](const char* family, const char* label, long v) {
    const std::string cell = Table::num(static_cast<double>(v), 3);
    t.add_row({family, label, "gauge", "", cell, "", "", cell});
  };
  const long rss = host_peak_rss_bytes();
  const HostFaults faults = host_page_faults();
  row("host.faults", "major", faults.major);
  row("host.faults", "minor", faults.minor);
  row("host.rss", "peak_bytes", rss);
  return t;
}

Table scenario_cache_table() {
  const ScenarioCacheStats& s = scenario_cache_stats();
  Registry reg;
  const auto put = [&reg](const char* label,
                          const std::atomic<std::uint64_t>& c) {
    reg.counter("cache.scenario", label)
        .add(static_cast<double>(c.load(std::memory_order_relaxed)));
  };
  put("hits", s.hits);
  put("misses", s.misses);
  put("dedups", s.dedups);
  put("writes", s.writes);
  put("corrupt", s.corrupt);
  put("bypassed", s.bypassed);
  return metrics_table(reg, "scenario cache");
}

Table link_table(const Session& session, std::size_t max_rows) {
  Table t("link usage",
          {"world", "link", "class", "bytes", "busy_s", "contended_s",
           "peak"});
  struct Row {
    std::uint32_t world;
    LinkUsage l;
  };
  std::vector<Row> rows;
  for (const WorldSummary& w : session.summaries())
    for (const LinkUsage& l : w.links) rows.push_back({w.world, l});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.l.bytes != b.l.bytes ? a.l.bytes > b.l.bytes
                                  : a.l.link < b.l.link;
  });
  if (max_rows > 0 && rows.size() > max_rows) rows.resize(max_rows);
  for (const Row& r : rows)
    t.add_row({Table::num(static_cast<long long>(r.world)),
               Table::num(static_cast<long long>(r.l.link)),
               std::string(kLinkClassNames[static_cast<std::size_t>(
                   r.l.cls)]),
               Table::num(r.l.bytes, 0), Table::num(r.l.busy_time, 6),
               Table::num(r.l.contended_time, 6),
               Table::num(static_cast<long long>(r.l.peak_load))});
  return t;
}

Table class_table(const Session& session) {
  Table t("torus utilization",
          {"world", "class", "links", "bytes", "busy_frac_mean",
           "busy_frac_max", "contended_frac_max", "peak_load"});
  for (const WorldSummary& w : session.summaries()) {
    struct Agg {
      int links = 0;
      double bytes = 0.0, busy = 0.0, busy_max = 0.0, cont_max = 0.0;
      int peak = 0;
    };
    std::array<Agg, kLinkClasses> agg{};
    for (const LinkUsage& l : w.links) {
      Agg& a = agg[static_cast<std::size_t>(l.cls)];
      ++a.links;
      a.bytes += l.bytes;
      a.busy += l.busy_time;
      a.busy_max = std::max(a.busy_max, l.busy_time);
      a.cont_max = std::max(a.cont_max, l.contended_time);
      a.peak = std::max(a.peak, l.peak_load);
    }
    const double dur = w.end_time > 0.0 ? w.end_time : 1.0;
    for (int c = 0; c < kLinkClasses; ++c) {
      const Agg& a = agg[static_cast<std::size_t>(c)];
      if (a.links == 0) continue;
      t.add_row({Table::num(static_cast<long long>(w.world)),
                 std::string(kLinkClassNames[static_cast<std::size_t>(c)]),
                 Table::num(static_cast<long long>(a.links)),
                 Table::num(a.bytes, 0),
                 Table::num(a.busy / a.links / dur, 4),
                 Table::num(a.busy_max / dur, 4),
                 Table::num(a.cont_max / dur, 4),
                 Table::num(static_cast<long long>(a.peak))});
    }
  }
  return t;
}

namespace {
// atexit state: where to write the trace/profile and whether to print
// tables.
std::string& cli_trace_path() {
  static std::string p;
  return p;
}
std::string& cli_profile_path() {
  static std::string p;
  return p;
}
bool cli_print_metrics = false;
}  // namespace

void flush_cli() {
  if (Session* s = Session::active()) {
    {
      // Self-profiling: exporting is host work too; charge it so the
      // telemetry breakdown can show when trace/profile writing (not
      // the simulation) dominates a run.
      const ScopedHostTimer timer(HostSubsys::kExport);
      if (!cli_trace_path().empty()) {
        write_chrome_trace_file(*s, cli_trace_path());
        std::cerr << "trace: wrote " << s->sink().size() << " spans ("
                  << s->sink().dropped() << " dropped) to "
                  << cli_trace_path() << "\n";
      }
      if (!cli_profile_path().empty()) {
        if (write_profile_file(*s, cli_profile_path()))
          std::cerr << "profile: wrote " << s->profiles().size()
                    << " world profile(s) to " << cli_profile_path()
                    << "\n";
        else
          std::cerr << "profile: cannot write " << cli_profile_path()
                    << "\n";
      }
      if (cli_print_metrics) {
        metrics_table(s->registry()).print(std::cout);
        class_table(*s).print(std::cout);
        link_table(*s, 10).print(std::cout);
        if (!s->profiles().empty()) std::cout << profile_table(*s);
        host_table().print(std::cout);
        // Host-state block like "host resources": scrubbed by
        // check_determinism.py, so a warm run's extra hits never break
        // byte-identity with a cold one.
        if (scenario_cache_stats().enabled.load(std::memory_order_relaxed))
          scenario_cache_table().print(std::cout);
      }
    }
    cli_trace_path().clear();
    cli_profile_path().clear();
    cli_print_metrics = false;
    Session::stop();
  }
  // After the exporters so their host time lands in the breakdown.
  telemetry::stop();
}

void arm_cli(const BenchOptions& opt) {
  const bool session_on = !opt.trace_file.empty() ||
                          !opt.profile_file.empty() || opt.metrics;
  const bool telemetry_on =
      opt.heartbeat_s > 0.0 || !opt.telemetry_file.empty();
  if (!session_on && !telemetry_on) return;
  if (session_on) {
    Options o;
    o.tracing = !opt.trace_file.empty();
    o.profiling = !opt.profile_file.empty();
    o.metrics = true;  // metrics are cheap once observability is on
    Session::start(o);
    cli_trace_path() = opt.trace_file;
    cli_profile_path() = opt.profile_file;
    cli_print_metrics = opt.metrics;
  }
  if (telemetry_on)
    telemetry::start({opt.heartbeat_s, opt.telemetry_file});
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(flush_cli);
  }
}

}  // namespace xts::obsv
