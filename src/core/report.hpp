#pragma once

/// \file report.hpp
/// Figure/table reporting used by every bench binary.
///
/// Each bench prints (a) a human-readable aligned table and (b) an
/// optional CSV block (`--csv`) so the paper's figures can be replotted
/// directly from bench output.

#include <iosfwd>
#include <string>
#include <vector>

namespace xts {

/// A titled table with a fixed header row; numeric cells are formatted by
/// the caller via Table::num().
class Table {
 public:
  Table(std::string title, std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Format a double with `digits` significant decimal places.
  static std::string num(double v, int digits = 3);
  /// Format an integer-valued count.
  static std::string num(long long v);

  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shared CLI handling for bench binaries: recognizes --csv, --quick,
/// --full, --jobs=N, --trace=<file>, --metrics, --profile=<file>,
/// --heartbeat=SECS, --telemetry=<file>, --cache-dir=<dir> and --help.
/// Anything unrecognized raises UsageError.  The observability flags
/// are plain data here — benches hand them to obsv::arm_cli, and --jobs
/// to runner::sweep (core cannot depend on obsv/runner).
struct BenchOptions {
  bool csv = false;        ///< also emit CSV blocks
  bool quick = false;      ///< reduced sweep for CI
  bool full = false;       ///< paper-scale sweep (slow)
  bool metrics = false;    ///< print metrics/utilization tables at exit
  int jobs = 0;            ///< sweep parallelism; 0 = hardware concurrency
  std::string trace_file;  ///< Chrome trace output path ("" = off)
  std::string profile_file;  ///< attribution profile JSON path ("" = off)
  double heartbeat_s = 0.0;  ///< live heartbeat period to stderr (0 = off)
  std::string telemetry_file;  ///< streaming telemetry JSONL ("" = off)
  std::string cache_dir;  ///< scenario-result cache directory ("" = off)

  static BenchOptions parse(int argc, char** argv, const std::string& blurb);
};

/// Print a table honouring \p opt (stdout).
void emit(const Table& table, const BenchOptions& opt);

}  // namespace xts
