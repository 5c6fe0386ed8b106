#pragma once

/// \file lustre.hpp
/// Lustre filesystem model (paper §2, Fig 1) and IOR/checkpoint-style
/// workloads.
///
/// The paper describes the XT3/XT4 I/O stack: an object-based parallel
/// filesystem with one Metadata Server (MDS — a serialization point for
/// opens/creates at scale), Object Storage Servers (OSS) each fronting
/// several Object Storage Targets (OST), and compute-node access via
/// the statically linked liblustre client.  "File striping" spreads a
/// file's objects over `stripe_count` OSTs in stripe_size chunks.
///
/// This model reproduces those mechanisms: a FIFO MDS with a per-op
/// service time, per-OSS network links and per-OST disk bandwidths as
/// fair-shared servers, striped reads/writes that fan out across the
/// file's OSTs, optional bounded per-OST request queues, and a
/// shared-file extent-lock conflict penalty.  bench_ior sweeps clients
/// x stripe counts the way IOR (a paper keyword) is run; bench_checkpoint
/// drives the checkpoint()/restart() API.
///
/// Observability: every operation emits gapless io.* spans (io.mds.wait
/// + io.create tile a metadata op; io.rpc + io.stripe tile a transfer;
/// io.ost.queue + io.ost.xfer tile each stripe chunk) through the same
/// WorldObs null-check contract as vmpi::World, per-OST/OSS/MDS
/// counters land in the metrics registry, and teardown pushes an
/// obsv::IoSummary so profiles can render an io-bound verdict.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/resource.hpp"
#include "core/task.hpp"
#include "core/units.hpp"
#include "obsv/session.hpp"

namespace xts::lustre {

struct LustreConfig {
  int n_oss = 18;                ///< service & I/O nodes running OSSes
  int osts_per_oss = 4;
  double ost_bw = 250.0 * units::MB_per_s;    ///< per-OST disk bandwidth
  double oss_link_bw = 1.1 * units::GB_per_s; ///< OSS network link
  double mds_op_time = 60.0 * units::us;      ///< metadata op service time
  double rpc_overhead = 30.0 * units::us;     ///< client RPC overhead
  double stripe_size = 1.0 * units::MiB;
  /// Max chunks an OST services concurrently (0 = unlimited, the
  /// pre-queue model); excess chunks wait in a FIFO request queue.
  int ost_queue_depth = 0;
  /// DLM extent-lock revoke penalty paid by a chunk that lands on an
  /// object while a *different* client is active on it (0 = off).
  double lock_conflict_time = 0.0;
};

/// A created file: which OSTs hold its objects.
struct FileLayout {
  std::uint64_t id = 0;
  int stripe_count = 1;
  std::vector<int> osts;  ///< global OST indices, round-robin start
};

class Filesystem {
 public:
  /// \param obs  observability handle to record through; when null and
  ///        a session is active, the filesystem registers its own world
  ///        (clients appear as ranks).  Pass `world.obs()` to attribute
  ///        I/O onto an application World's lanes.
  Filesystem(Engine& engine, LustreConfig cfg,
             obsv::WorldObs* obs = nullptr);
  ~Filesystem();

  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  [[nodiscard]] const LustreConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int total_osts() const noexcept {
    return cfg_.n_oss * cfg_.osts_per_oss;
  }

  /// Create a file striped over `stripe_count` OSTs (serialized through
  /// the single MDS, as in Lustre at the time of the paper).  `client`
  /// is the observability lane the op is attributed to.
  [[nodiscard]] Task<FileLayout> create(int stripe_count, int client = 0);

  /// Write `bytes` at `offset`: chunks fan out to the file's OSTs by
  /// stripe; completes when the last chunk is on disk.
  [[nodiscard]] Task<void> write(const FileLayout& file, double offset,
                                 double bytes, int client = 0);
  /// Read is symmetric in this model.
  [[nodiscard]] Task<void> read(const FileLayout& file, double offset,
                                double bytes, int client = 0);

  /// Checkpoint: create the file on first use (using the layout's
  /// preset stripe_count), write [offset, offset+bytes), then pay an
  /// MDS commit op (size/attr update) — the per-round serialization
  /// every defensive-I/O cycle pays.
  [[nodiscard]] Task<void> checkpoint(FileLayout& file, double offset,
                                      double bytes, int client = 0);
  /// Restart: MDS open op (create on first use), then read the range.
  [[nodiscard]] Task<void> restart(FileLayout& file, double offset,
                                   double bytes, int client = 0);

  [[nodiscard]] std::uint64_t mds_ops() const noexcept { return mds_ops_; }
  [[nodiscard]] double bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] double bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] std::uint64_t lock_conflicts() const noexcept {
    return lock_conflicts_;
  }

 private:
  struct OstState {
    /// Bounded request queue: ost_queue_depth chunks in service, the
    /// rest wait FIFO (null when ost_queue_depth is 0, i.e. unbounded).
    std::unique_ptr<FifoResource> queue;
    int peak_queue = 0;       ///< max chunks waiting for a slot
    std::uint64_t chunks = 0;
  };
  struct ObjLock {
    int active = 0;    ///< chunks currently on this object
    int client = -1;   ///< lock owner (first active client)
  };
  struct SpanIds {
    std::uint32_t create = 0, mds_wait = 0, rpc = 0, stripe = 0, queue = 0,
                  xfer = 0;
  };

  void note_client(int client);
  [[nodiscard]] bool spans_on() const noexcept {
    return obs_ != nullptr && obs_->spans_enabled();
  }
  /// One serialized MDS op (create / commit / open) with gapless
  /// io.mds.wait + io.create spans and queue/wait accounting.
  [[nodiscard]] Task<void> mds_service(int client, bool is_create);
  [[nodiscard]] Task<FileLayout> create_impl(int stripe_count, int client);
  [[nodiscard]] Task<void> transfer(const FileLayout& file, double offset,
                                    double bytes, int client);
  [[nodiscard]] Task<void> transfer_impl(const FileLayout& file,
                                         double offset, double bytes,
                                         int client);
  /// One stripe chunk: extent lock, OST request slot, then the OSS link
  /// and OST disk consumptions; resolves `done` when on disk.
  [[nodiscard]] Task<void> chunk_op(std::uint64_t lock_key, int ost,
                                    double chunk, int client,
                                    SimPromiseV done);
  [[nodiscard]] Task<void> checkpoint_impl(FileLayout& file, double offset,
                                           double bytes, int client);
  [[nodiscard]] Task<void> restart_impl(FileLayout& file, double offset,
                                        double bytes, int client);
  void collect_io_summary();

  Engine& engine_;
  LustreConfig cfg_;
  FifoResource mds_;
  std::vector<std::unique_ptr<SharedServer>> oss_links_;
  std::vector<std::unique_ptr<SharedServer>> ost_disks_;
  std::vector<OstState> ost_state_;
  std::unordered_map<std::uint64_t, ObjLock> locks_;
  std::uint64_t next_file_id_ = 0;
  std::uint64_t mds_ops_ = 0;
  std::uint64_t creates_ = 0;
  std::uint64_t commits_ = 0;  ///< commit + open metadata ops
  double mds_wait_sum_ = 0.0;
  int mds_peak_queue_ = 0;
  double bytes_written_ = 0.0;
  double bytes_read_ = 0.0;
  std::uint64_t lock_conflicts_ = 0;
  double lock_wait_ = 0.0;
  double stripe_imbalance_max_ = 0.0;

  obsv::WorldObs* obs_ = nullptr;
  obsv::Session* obs_session_ = nullptr;
  bool owns_obs_ = false;  ///< self-registered world (standalone runs)
  int max_client_ = -1;    ///< highest lane seen, for finalize nranks
  SpanIds sid_;
  obsv::Histogram* h_mds_wait_ = nullptr;
  obsv::Histogram* h_mds_qdepth_ = nullptr;
  obsv::Histogram* h_stripe_imb_ = nullptr;
};

/// IOR-style sweep: `clients` writers each writing `block_bytes` in
/// `xfer_bytes` requests, file-per-process or single-shared-file.
struct IorConfig {
  int clients = 64;
  double block_bytes = 64.0 * units::MiB;
  double xfer_bytes = 4.0 * units::MiB;
  int stripe_count = 4;
  bool file_per_process = true;
};

struct IorResult {
  double create_seconds = 0.0;  ///< metadata phase (MDS-serialized)
  double write_gbs = 0.0;       ///< aggregate write bandwidth
  double read_gbs = 0.0;
};

IorResult run_ior(const LustreConfig& fs_cfg, const IorConfig& cfg);

/// Checkpoint/restart workload: `clients` writers each dumping
/// `bytes_per_client` of state per round (file-per-process, or slices
/// of one shared file at client*bytes offsets), then optionally reading
/// the last checkpoint back.
struct CheckpointConfig {
  int clients = 64;
  double bytes_per_client = 4.0 * units::MiB;
  int stripe_count = 1;
  bool shared_file = false;  ///< N-to-1: one shared layout, sliced offsets
  int rounds = 1;
  bool restart_read = true;  ///< read the final checkpoint back
};

struct CheckpointResult {
  double checkpoint_seconds = 0.0;  ///< all rounds incl. creates/commits
  double restart_seconds = 0.0;
  double write_gbs = 0.0;           ///< aggregate during checkpoint rounds
  double meta_share = 0.0;  ///< serialized MDS seconds / checkpoint wall
};

CheckpointResult run_checkpoint(const LustreConfig& fs_cfg,
                                const CheckpointConfig& cfg);

}  // namespace xts::lustre
