#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace xtbench {

namespace {
thread_local std::vector<int> tls_open;  ///< this thread's open spans
}  // namespace

Spans& Spans::get() {
  static Spans s;
  return s;
}

int Spans::open(const char* name, int parent) {
  if (!enabled_) return -1;
  if (parent == -2) parent = tls_open.empty() ? -1 : tls_open.back();
  const double t = now_s();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, t, t, parent, workload_});
  }
  tls_open.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  const double t = now_s();
  if (!tls_open.empty() && tls_open.back() == id) tls_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Spans::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans, const std::string& workload) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.workload != workload) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start);
      const double hi = std::min(hi0, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end - s.start) - covered;
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  char buf[64];
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"name\": \"" << s.name << "\", \"start\": ";
    std::snprintf(buf, sizeof buf, "%.9f", s.start);
    os << buf << ", \"end\": ";
    std::snprintf(buf, sizeof buf, "%.9f", s.end);
    os << buf << ", \"parent\": " << s.parent << ", \"workload\": \""
       << s.workload << "\"}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail tail_of(const std::vector<double>& v, double p) {
  Tail t;
  t.samples = v.size();
  if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
    t.pct = p;
    t.value = percentile(v, p);
  } else {
    t.value = v.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : *std::max_element(v.begin(), v.end());
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool positive(double v) { return std::isfinite(v) && v > 0.0; }

void set_scenario_ms(Report& r, const std::vector<double>& ms, double pct,
                     const std::string& what) {
  r.set("scenario_ms_p50", median(ms), "ms");
  const Tail t = tail_of(ms, pct);
  r.set("scenario_ms_tail", t.value, "ms");
  r.info.push_back("scenario_ms_tail is p" +
                   std::to_string(static_cast<int>(t.pct)) + " of " +
                   std::to_string(t.samples) + " samples (one scenario = " +
                   what + ")");
}

}  // namespace xtbench
