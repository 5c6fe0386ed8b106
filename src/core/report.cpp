#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include "core/error.hpp"

namespace xts {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  if (headers_.empty()) throw UsageError("Table: needs at least one column");
}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw UsageError("Table::add_row: cell count does not match header");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Table::num(long long v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  os << '\n';
}

void Table::print_csv(std::ostream& os) const {
  os << "# csv: " << title_ << '\n';
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c ? "," : "") << row[c];
    os << '\n';
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
  os << '\n';
}

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 const std::string& blurb) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string v = arg.substr(7);
      char* end = nullptr;
      const long j = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0' || j < 1 ||
          j > 4096)
        throw UsageError("--jobs= needs an integer in [1, 4096]");
      opt.jobs = static_cast<int>(j);
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_file = arg.substr(8);
      if (opt.trace_file.empty())
        throw UsageError("--trace= needs a file path");
    } else if (arg.rfind("--profile=", 0) == 0) {
      opt.profile_file = arg.substr(10);
      if (opt.profile_file.empty())
        throw UsageError("--profile= needs a file path");
    } else if (arg.rfind("--heartbeat=", 0) == 0) {
      const std::string v = arg.substr(12);
      char* end = nullptr;
      const double s = std::strtod(v.c_str(), &end);
      if (v.empty() || end == nullptr || *end != '\0' || !(s > 0.0) ||
          s > 86400.0)
        throw UsageError("--heartbeat= needs seconds in (0, 86400]");
      opt.heartbeat_s = s;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry_file = arg.substr(12);
      if (opt.telemetry_file.empty())
        throw UsageError("--telemetry= needs a file path");
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      opt.cache_dir = arg.substr(12);
      if (opt.cache_dir.empty())
        throw UsageError("--cache-dir= needs a directory path");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << blurb << "\n\nOptions:\n"
                << "  --csv           also emit CSV blocks for replotting\n"
                << "  --quick         reduced sweep (CI-sized)\n"
                << "  --full          paper-scale sweep (slow)\n"
                << "  --jobs=N        run N sweep points concurrently "
                   "(default: host cores;\n"
                   "                  output is identical at any N)\n"
                << "  --trace=FILE    write a chrome://tracing span trace\n"
                << "  --profile=FILE  write a profiling/attribution report "
                   "(xtsim_profile JSON)\n"
                << "  --metrics       print metrics + torus utilization "
                   "tables at exit\n"
                << "  --heartbeat=S   emit a live progress heartbeat to "
                   "stderr every S seconds\n"
                   "                  (out-of-band: stdout and report "
                   "files are unchanged)\n"
                << "  --telemetry=FILE  stream heartbeat records + the "
                   "exit-time host-time\n"
                   "                  breakdown as JSON lines (see "
                   "xtstrace telemetry)\n"
                << "  --cache-dir=DIR cache sweep-point results on disk; "
                   "repeat runs replay\n"
                   "                  hits byte-identically (see "
                   "docs/CACHING.md)\n";
      std::exit(0);
    } else {
      throw UsageError("unknown option: " + arg);
    }
  }
  if (opt.quick && opt.full)
    throw UsageError("--quick and --full are mutually exclusive");
  return opt;
}

void emit(const Table& table, const BenchOptions& opt) {
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
}

}  // namespace xts
