/// \file bench_alltoall_scale.cpp
/// Single-World alltoall at large rank counts: the per-World scaling
/// and memory-footprint probe.  Unlike the fig 8-11 sweep (many
/// independent Worlds across host cores), every point here is ONE
/// World running serially on one host thread.
///
/// Extra flags (handled here, before BenchOptions):
///   --ranks=A,B,..  rank counts to run (default by --quick/--full)
///   --bytes=B       per-pair payload in bytes (default 4096)
///   --build-only    construct each World, skip the run (memory probe)
///   --rss           after each count, print peak RSS and bytes/rank
///                   (host-dependent — never printed by default so the
///                   determinism byte-compares stay meaningful)

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/task.hpp"
#include "machine/presets.hpp"
#include "obsv/export.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace {

using xts::Table;

struct ScaleArgs {
  std::vector<int> ranks;
  double bytes = 4096.0;
  bool build_only = false;
  bool rss = false;
};

long peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss * 1024L;  // Linux reports KiB
}

int parse_count(const std::string& v, const char* flag) {
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || end == nullptr || *end != '\0' || n < 1 || n > (1 << 24))
    throw xts::UsageError(std::string(flag) + " needs counts in [1, 2^24]");
  return static_cast<int>(n);
}

xts::Task<void> alltoall_program(xts::vmpi::Comm& c, double bytes) {
  std::vector<double> to(static_cast<std::size_t>(c.size()), bytes);
  co_await c.alltoallv_bytes(std::move(to));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xts;
  const long base_rss = peak_rss_bytes();

  ScaleArgs sa;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  std::vector<std::string> held;  // keeps c_str()s alive for parse()
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ranks=", 0) == 0) {
      std::string list = arg.substr(8);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        sa.ranks.push_back(parse_count(item, "--ranks="));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg.rfind("--bytes=", 0) == 0) {
      sa.bytes = static_cast<double>(parse_count(arg.substr(8), "--bytes="));
    } else if (arg == "--build-only") {
      sa.build_only = true;
    } else if (arg == "--rss") {
      sa.rss = true;
    } else {
      held.push_back(arg);
      rest.push_back(held.back().data());
    }
  }
  // held may reallocate while filling; rebuild the pointer list.
  rest.resize(1);
  for (std::string& s : held) rest.push_back(s.data());

  const auto opt = BenchOptions::parse(
      static_cast<int>(rest.size()), rest.data(),
      "Single-World alltoall scaling probe (per-World event cost + "
      "memory footprint)");
  obsv::arm_cli(opt);

  if (sa.ranks.empty()) {
    sa.ranks = opt.quick ? std::vector<int>{64, 128}
               : (opt.full ? std::vector<int>{512, 1024, 2048}
                           : std::vector<int>{128, 256, 512});
  }

  Table t("Single-World alltoall scale",
          {"ranks", "nodes", "sim_time_s", "agg_GB/s", "messages",
           "events"});
  std::vector<std::string> rss_lines;
  for (const int n : sa.ranks) {
    vmpi::WorldConfig wc;
    wc.machine = machine::xt4();
    wc.mode = machine::ExecMode::kVN;
    wc.nranks = n;
    vmpi::World world(wc);
    if (sa.build_only) {
      t.add_row({Table::num(static_cast<long long>(n)),
                 Table::num(static_cast<long long>(world.node_count())), "-",
                 "-", "-", "-"});
    } else {
      const double bytes = sa.bytes;
      const SimTime end = world.run(
          [bytes](vmpi::Comm& c) { return alltoall_program(c, bytes); });
      const double gbs =
          end > 0.0 ? world.bytes_sent() / end / 1e9 : 0.0;
      t.add_row(
          {Table::num(static_cast<long long>(n)),
           Table::num(static_cast<long long>(world.node_count())),
           Table::num(end, 6), Table::num(gbs, 2),
           Table::num(static_cast<long long>(world.messages_delivered())),
           Table::num(
               static_cast<long long>(world.engine().events_processed()))});
    }
    if (sa.rss) {
      const long peak = peak_rss_bytes();
      const double per_rank =
          static_cast<double>(peak - base_rss) / static_cast<double>(n);
      rss_lines.push_back("rss: ranks=" + std::to_string(n) +
                          " peak_bytes=" + std::to_string(peak) +
                          " base_bytes=" + std::to_string(base_rss) +
                          " bytes_per_rank=" + Table::num(per_rank, 1));
    }
  }
  emit(t, opt);
  // Host-dependent; kept out of the table so determinism comparisons
  // can diff full stdout when --rss is off.
  for (const std::string& line : rss_lines) std::cout << line << "\n";
  return 0;
}
