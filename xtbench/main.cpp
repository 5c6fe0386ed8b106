/// \file main.cpp
/// xtbench: the simulator's benchmark program (see README.md).
///
///   xtbench --workload NAME --seed N --seconds S --trace 0|1
///           [--spans FILE] [--work-dir DIR] [--tiny]
///
/// Prints informational lines, then one JSON object as the last line of
/// stdout: the metrics (end-to-end with --trace 0, per-layer with
/// --trace 1), the scenario check tallies, the output digest and the
/// build stamp.  run.py builds this binary and turns that object into
/// the benchmark's result line.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace xtbench;

constexpr int kMinSetups = 3;       ///< set-ups per run, at least
constexpr double kSetupBudget = 2.0;  ///< host seconds of set-ups to aim for
constexpr int kMinPasses = 3;         ///< timed passes per run, at least

struct Args {
  std::string workload;
  bool trace = false;
  std::string spans_file;
  RunOptions run;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "xtbench: " << why
            << "\nusage: xtbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--work-dir DIR] [--tiny]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.run.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.run.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs an integer");
    } else if (k == "--seconds") {
      a.run.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.run.seconds > 0.0))
        usage("--seconds needs a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace needs 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_file = v;
    } else if (k == "--work-dir") {
      a.run.work_dir = v;
    } else {
      usage("unknown flag " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.run.work_dir.empty()) a.run.work_dir = ".";
  return a;
}

std::unique_ptr<Workload> make(const std::string& name, const RunOptions& o) {
  std::unique_ptr<Workload> w = make_workload(name, o);
  if (w == nullptr) usage("unknown workload " + name);
  return w;
}

/// Host seconds of each set-up: at least kMinSetups, then more while
/// they fit in kSetupBudget, so a cheap set-up gets a steadier median.
std::vector<double> set_up(Workload& w) {
  std::vector<double> t;
  double spent = 0.0;
  while (static_cast<int>(t.size()) < kMinSetups ||
         spent + t.back() <= kSetupBudget) {
    const double t0 = now_s();
    w.setup();
    t.push_back(now_s() - t0);
    spent += t.back();
  }
  return t;
}

/// Timed passes: at least kMinPasses, then more while the next one is
/// expected to end inside the budget.
int timed_passes(Workload& w, double seconds, bool traced) {
  const double t0 = now_s();
  int passes = 0;
  while (passes < kMinPasses ||
         now_s() - t0 + w.last_pass_s() <= seconds) {
    w.pass(traced);
    ++passes;
  }
  return passes;
}

void run_plain(const Args& a, Report& r) {
  std::unique_ptr<Workload> w = make(a.workload, a.run);
  const std::vector<double> setups = set_up(*w);
  const int passes = timed_passes(*w, a.run.seconds, false);
  w->end_to_end(r);
  w->take_checks(r);
  r.digest = w->digest();
  r.set("setup_s", median(setups), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.info.push_back("setups=" + std::to_string(setups.size()) +
                   " timed_passes=" + std::to_string(passes));
}

/// The traced run: layer microbenches, then every workload with spans
/// on, so each per-layer metric is measured on the workload that
/// exercises its layer.  The selected workload alternates untraced and
/// traced passes for the time budget; the ratio of their medians is the
/// tracing overhead.
void run_traced(const Args& a, Report& r) {
  Spans& spans = Spans::get();
  run_microbenches(r, a.run);
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make(name, a.run);
    spans.set_workload(name);
    spans.set_enabled(true);
    w->setup();
    if (name != a.workload) {
      w->pass(true);
    } else {
      std::vector<double> plain, traced;
      const double t0 = now_s();
      while (traced.empty() ||
             now_s() - t0 + 2.0 * w->last_pass_s() <= a.run.seconds) {
        spans.set_enabled(false);
        w->pass(false);
        plain.push_back(w->last_pass_s());
        spans.set_enabled(true);
        w->pass(true);
        traced.push_back(w->last_pass_s());
      }
      const double tp = median(plain);
      const double tt = median(traced);
      r.set("bench.trace_overhead_ratio", tt / tp, "ratio");
      char line[160];
      std::snprintf(line, sizeof line,
                    "tracing overhead: traced pass %.6f s - untraced pass "
                    "%.6f s = %+.6f s (medians of %zu pairs)",
                    tt, tp, tt - tp, traced.size());
      r.info.emplace_back(line);
      r.digest = w->digest();
    }
    spans.set_enabled(false);
    w->layers(r);
    w->take_checks(r);
  }
  const std::vector<Span> all = spans.snapshot();
  for (const auto& [layer, s] : self_time_by_layer(all, a.workload)) {
    char line[128];
    std::snprintf(line, sizeof line, "self time %-8s %10.6f s", layer.c_str(),
                  s);
    r.info.emplace_back(line);
  }
  if (!a.spans_file.empty()) {
    write_spans(a.spans_file, all);
    r.info.push_back("spans: " + std::to_string(all.size()) + " written to " +
                     a.spans_file);
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Args& a, const Report& r) {
  for (const std::string& line : r.info) std::cout << line << "\n";
  std::ostringstream os;
  os << "{\"workload\": " << json_str(a.workload)
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << json_str(r.failures[i]);
  os << "], \"digest\": " << json_str(r.digest) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
       << json_num(m.value) << ", \"unit\": " << json_str(m.unit) << "}";
    first = false;
  }
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  os << "}, \"build\": {\"type\": " << json_str(XTBENCH_BUILD_TYPE)
     << ", \"optimized\": " << (optimized ? "true" : "false")
     << ", \"compiler\": " << json_str(__VERSION__) << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // Keep freed memory in the heap instead of returning it to the kernel.
  // An armed sweep allocates and frees a 56 MB trace ring per point; with
  // glibc's defaults each ring is a fresh mmap, and the page faults that
  // follow cost more host time than the simulation and swing with the
  // host's memory state.  Retained, the rings cost their initialisation.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    Report r;
    if (a.trace)
      run_traced(a, r);
    else
      run_plain(a, r);
    print(a, r);
  } catch (const std::exception& e) {
    std::cerr << "xtbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
