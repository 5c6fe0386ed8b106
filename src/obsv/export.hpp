#pragma once

/// \file export.hpp
/// Exporters for the observability session:
///
///  - Chrome trace JSON (`chrome://tracing` / Perfetto): rank spans as
///    complete ("X") events, per-message breakdowns as async ("b"/"e")
///    pairs keyed by message id, per-link-class concurrent-flow counts
///    as counter ("C") tracks, plus an `xtsim` metadata block with
///    per-world link totals for conservation checking (`tools/xtstrace`
///    and `scripts/check_trace.py` read it).
///  - CSV/tables via the existing Table machinery: metric registry
///    dump, per-link usage, per-class torus utilization rollup.
///  - arm_cli(): one-line wiring for bench binaries — starts a session
///    from `--trace=<file>` / `--metrics` flags and registers an
///    atexit hook that writes the trace file and prints the tables.

#include <iosfwd>
#include <string>

#include "core/report.hpp"
#include "obsv/session.hpp"

namespace xts::obsv {

void write_chrome_trace(const Session& session, std::ostream& os);
void write_chrome_trace_file(const Session& session,
                             const std::string& path);

/// Registry dump: family, label, kind, count, value, mean, p95, max.
[[nodiscard]] Table metrics_table(const Registry& registry,
                                  const std::string& title = "metrics");

/// Host resource facts (getrusage): peak RSS bytes, major/minor page
/// faults — a "host resources" block with metrics_table's columns (kind
/// "gauge", value = max) so memory-diet gates need no external probe.
/// Values are host-dependent (never reproducible run-to-run), so
/// scripts/check_determinism.py scrubs exactly this block from stdout.
[[nodiscard]] Table host_table();

/// Scenario-result cache counters (core/cache_stats.hpp) as a
/// `cache.scenario.*` block.  Like host_table(), the
/// values describe host state (what was already cached on disk), not
/// the simulation, so check_determinism.py scrubs this block from
/// stdout — the deterministic registry metrics stay byte-identical
/// between cold, warm and cache-off runs.
[[nodiscard]] Table scenario_cache_table();

/// Per-link usage across all recorded worlds, busiest first.
/// `max_rows` 0 = all links that carried traffic.
[[nodiscard]] Table link_table(const Session& session,
                               std::size_t max_rows = 0);

/// Torus utilization/congestion rollup: per world x link class —
/// bytes, mean/max busy fraction, max contended fraction, peak load.
[[nodiscard]] Table class_table(const Session& session);

/// Start a session according to bench CLI flags (no-op if none of
/// --trace / --profile / --metrics was given) and register the
/// exit-time flush.  --profile=<file> enables profiling and writes the
/// attribution JSON (obsv/attrib.hpp) on exit.  --heartbeat=SECS /
/// --telemetry=FILE arm the runtime telemetry layer (obsv/telemetry.hpp)
/// even when no session flag was given — telemetry is out-of-band and
/// needs no recording session.
void arm_cli(const BenchOptions& opt);

/// Write/print everything arm_cli promised, then stop the session.
/// Called automatically at exit; exposed for tests.
void flush_cli();

}  // namespace xts::obsv
