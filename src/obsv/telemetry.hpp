#pragma once

/// \file telemetry.hpp
/// Host-side runtime telemetry: a live heartbeat for long runs plus
/// the per-subsystem host-time breakdown from core/hostprof.hpp.
///
/// While armed (obsv::telemetry::start, usually via `--heartbeat=SECS`
/// / `--telemetry=FILE` through arm_cli), a sampler thread
/// periodically reads the RunProgress atomics that Engine/FlowNetwork
/// publish into and emits one JSON record per beat:
///
///   {"kind":"heartbeat","seq":N,"wall_s":..,"sim_s":..,"events":..,
///    "events_per_s":..,"sim_rate":..,"queue_depth":..,"flows":..,
///    "rss_bytes":..}
///
/// Records go to stderr (human one-liner, when heartbeat_s > 0)
/// and/or a JSONL stream file (`--telemetry=`).  The stream opens with
/// a `{"xtsim_telemetry":1,...,"kind":"start"}` marker record (how
/// `xtstrace telemetry` recognizes the file kind) and ends with a
/// final heartbeat plus one `"kind":"breakdown"` record: per-subsystem
/// host seconds and shares of wall (engine, net.rates, obsv.export,
/// telemetry, derived "other") that sum to ~100% on a --jobs=1 run,
/// and getrusage peak-RSS/fault counts.  stop() writes those closing
/// records.
///
/// Everything here is strictly out-of-band: stdout, `--trace=`,
/// `--metrics` and `--profile=` bytes are identical with telemetry on
/// or off (enforced by scripts/check_determinism.py --vary heartbeat).

#include <string>

#include "core/progress.hpp"

namespace xts::obsv {

struct TelemetryOptions {
  double heartbeat_s = 0.0;  ///< stderr heartbeat period; 0 = stderr off
  std::string stream_path;   ///< JSONL stream path; "" = no file stream
};

namespace telemetry {

/// Arm the layer: enable the HostProfile scoped timers, open the
/// stream (truncating), start the sampler thread.  The stream samples
/// every heartbeat_s seconds, or every 1 s when only a stream was
/// requested.  Throws UsageError if the stream cannot be opened.
/// No-op if already armed.
void start(const TelemetryOptions& opt);

/// Emit a final heartbeat and the breakdown record, join the sampler,
/// close the stream, disarm the timers.  Safe to call when inactive.
void stop();

[[nodiscard]] bool active() noexcept;

/// The progress atomics Engines/FlowNetworks publish into while armed
/// (null when inactive — callers skip wiring entirely).
[[nodiscard]] RunProgress* progress() noexcept;

}  // namespace telemetry

/// getrusage(RUSAGE_SELF) helpers shared by the heartbeat, the
/// breakdown record and the --metrics "host resources" table.
[[nodiscard]] long host_peak_rss_bytes() noexcept;

struct HostFaults {
  long major = 0;
  long minor = 0;
};
[[nodiscard]] HostFaults host_page_faults() noexcept;

/// Current resident set in bytes via /proc/self/statm, falling back to
/// the getrusage peak where /proc is unavailable.
[[nodiscard]] long host_current_rss_bytes() noexcept;

}  // namespace xts::obsv
