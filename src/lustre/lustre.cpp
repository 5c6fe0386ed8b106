#include "lustre/lustre.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace xts::lustre {

Filesystem::Filesystem(Engine& engine, LustreConfig cfg,
                       obsv::WorldObs* obs)
    : engine_(engine), cfg_(cfg), mds_(engine), obs_(obs) {
  if (cfg_.n_oss < 1 || cfg_.osts_per_oss < 1)
    throw UsageError("Filesystem: need at least one OSS and OST");
  if (cfg_.ost_bw <= 0.0 || cfg_.oss_link_bw <= 0.0 ||
      cfg_.stripe_size <= 0.0)
    throw UsageError("Filesystem: bandwidths and stripe size must be > 0");
  if (cfg_.ost_queue_depth < 0 || cfg_.lock_conflict_time < 0.0)
    throw UsageError("Filesystem: negative queue depth / lock penalty");
  if (obs_ == nullptr) {
    // Standalone use (run_ior, run_checkpoint): register our own world
    // so clients appear as observability lanes, mirroring vmpi::World.
    if (obsv::Session* session = obsv::Session::active()) {
      obs_ = session->register_world();
      obs_session_ = session;
      owns_obs_ = true;
    }
  } else {
    obs_session_ = obsv::Session::active();
  }
  for (int i = 0; i < cfg_.n_oss; ++i)
    oss_links_.push_back(std::make_unique<SharedServer>(
        engine, cfg_.oss_link_bw, "oss" + std::to_string(i)));
  for (int i = 0; i < total_osts(); ++i)
    ost_disks_.push_back(std::make_unique<SharedServer>(
        engine, cfg_.ost_bw, "ost" + std::to_string(i)));
  ost_state_.resize(static_cast<std::size_t>(total_osts()));
  if (cfg_.ost_queue_depth > 0) {
    for (OstState& st : ost_state_)
      st.queue = std::make_unique<FifoResource>(engine, cfg_.ost_queue_depth);
  }
  if (obs_ != nullptr) {
    if (obs_->spans_enabled()) {
      sid_.create = obs_->intern("io.create");
      sid_.mds_wait = obs_->intern("io.mds.wait");
      sid_.rpc = obs_->intern("io.rpc");
      sid_.stripe = obs_->intern("io.stripe");
      sid_.queue = obs_->intern("io.ost.queue");
      sid_.xfer = obs_->intern("io.ost.xfer");
    }
    if (obs_->metrics()) {
      auto& reg = obs_->registry();
      h_mds_wait_ = &reg.histogram("io.mds.wait", "s");
      h_mds_qdepth_ = &reg.histogram("io.mds.qdepth", "ops");
      h_stripe_imb_ = &reg.histogram("io.stripe.imbalance", "ratio");
    }
  }
}

Filesystem::~Filesystem() {
  // Summaries go to the session that was active at construction; if it
  // already stopped (or was replaced), there is nowhere to record.
  if (obs_ == nullptr || obsv::Session::active() != obs_session_) return;
  collect_io_summary();
  if (owns_obs_ && max_client_ >= 0)
    obs_->finalize_profile(max_client_ + 1, nullptr);
}

void Filesystem::note_client(int client) {
  if (client < 0) throw UsageError("Filesystem: negative client lane");
  max_client_ = std::max(max_client_, client);
}

Task<void> Filesystem::mds_service(int client, bool is_create) {
  const bool spans = spans_on();
  const SimTime t0 = engine_.now();
  const std::uint64_t opid = spans ? obs_->next_msg_id() : 0;
  if (obs_ != nullptr) {
    // Arrival queue depth including this op (1 = immediate grant).
    const int depth = static_cast<int>(mds_.waiters()) +
                      (mds_.busy() ? 1 : 0) + 1;
    mds_peak_queue_ = std::max(mds_peak_queue_, depth);
    if (h_mds_qdepth_ != nullptr) h_mds_qdepth_->add(depth);
  }
  (void)co_await mds_.acquire();
  const SimTime grant = engine_.now();
  if (obs_ != nullptr) {
    mds_wait_sum_ += grant - t0;
    if (h_mds_wait_ != nullptr) h_mds_wait_->add(grant - t0);
  }
  co_await Delay(engine_, cfg_.mds_op_time);
  mds_.release();
  ++mds_ops_;
  if (is_create)
    ++creates_;
  else
    ++commits_;
  if (spans) {
    const double kind = is_create ? 0.0 : 1.0;
    obs_->span(client, obsv::Cat::kIo, sid_.mds_wait, t0, grant, opid, kind);
    obs_->span(client, obsv::Cat::kIo, sid_.create, grant, engine_.now(),
               opid, kind);
  }
}

Task<FileLayout> Filesystem::create(int stripe_count, int client) {
  // Validate eagerly: a coroutine body only runs once awaited, so the
  // check must happen in this (non-suspending prologue) wrapper.
  if (stripe_count < 1 || stripe_count > total_osts())
    throw UsageError("Filesystem::create: bad stripe count");
  note_client(client);
  return create_impl(stripe_count, client);
}

Task<FileLayout> Filesystem::create_impl(int stripe_count, int client) {
  // All metadata operations serialize through the single MDS (§2: "at
  // the time of writing, Lustre supports having just one MDS, which can
  // cause a bottleneck in metadata operations at large scales").
  co_await mds_service(client, /*is_create=*/true);
  FileLayout f;
  f.id = next_file_id_++;
  f.stripe_count = stripe_count;
  // Spread stripe starts across the pool (as Lustre's allocator does);
  // round-robin starts at id * stripe_count avoid pile-ups of aligned
  // writers on the same OSTs.
  const int start = static_cast<int>(
      (f.id * static_cast<std::uint64_t>(stripe_count)) %
      static_cast<std::uint64_t>(total_osts()));
  for (int s = 0; s < stripe_count; ++s)
    f.osts.push_back((start + s) % total_osts());
  co_return f;
}

Task<void> Filesystem::transfer(const FileLayout& file, double offset,
                                double bytes, int client) {
  if (bytes < 0.0 || offset < 0.0)
    throw UsageError("Filesystem: negative offset/size");
  note_client(client);
  return transfer_impl(file, offset, bytes, client);
}

Task<void> Filesystem::transfer_impl(const FileLayout& file, double offset,
                                     double bytes, int client) {
  const bool spans = spans_on();
  const SimTime t0 = engine_.now();
  const std::uint64_t opid = spans ? obs_->next_msg_id() : 0;
  co_await Delay(engine_, cfg_.rpc_overhead);
  const SimTime t_rpc = engine_.now();
  if (spans)
    obs_->span(client, obsv::Cat::kIo, sid_.rpc, t0, t_rpc, opid, bytes);

  // Split [offset, offset+bytes) into stripe chunks and fan them out as
  // detached chunk processes, each resolving a promise when on disk.
  std::vector<SimFutureV> pending;
  std::vector<double> per_stripe;  // per-object byte tally (imbalance)
  if (obs_ != nullptr) per_stripe.assign(file.osts.size(), 0.0);
  double pos = offset;
  const double end = offset + bytes;
  while (pos < end) {
    const double stripe_index = std::floor(pos / cfg_.stripe_size);
    const double stripe_end = (stripe_index + 1.0) * cfg_.stripe_size;
    const double chunk = std::min(end, stripe_end) - pos;
    const int which = static_cast<int>(
        static_cast<std::uint64_t>(stripe_index) %
        static_cast<std::uint64_t>(file.osts.size()));
    const int ost = file.osts[static_cast<std::size_t>(which)];
    if (obs_ != nullptr)
      per_stripe[static_cast<std::size_t>(which)] += chunk;
    // Extent locks are per (file, object): chunks of different files on
    // the same OST never conflict.
    const std::uint64_t lock_key =
        (file.id << 16) | static_cast<std::uint64_t>(which);
    SimPromiseV done(engine_);
    pending.push_back(done.future());
    spawn(engine_, chunk_op(lock_key, ost, chunk, client, std::move(done)));
    pos += chunk;
  }
  for (auto& p : pending) (void)co_await std::move(p);
  if (spans)
    obs_->span(client, obsv::Cat::kIo, sid_.stripe, t_rpc, engine_.now(),
               opid, bytes);
  if (obs_ != nullptr && !per_stripe.empty() && bytes > 0.0) {
    double mx = 0.0;
    for (const double b : per_stripe) mx = std::max(mx, b);
    const double mean = bytes / static_cast<double>(per_stripe.size());
    const double imb = mean > 0.0 ? mx / mean : 0.0;
    stripe_imbalance_max_ = std::max(stripe_imbalance_max_, imb);
    if (h_stripe_imb_ != nullptr) h_stripe_imb_->add(imb);
  }
}

Task<void> Filesystem::chunk_op(std::uint64_t lock_key, int ost,
                                double chunk, int client, SimPromiseV done) {
  const bool spans = spans_on();
  const SimTime t0 = engine_.now();
  const std::uint64_t cid = spans ? obs_->next_msg_id() : 0;
  const int oss = ost / cfg_.osts_per_oss;
  OstState& st = ost_state_[static_cast<std::size_t>(ost)];

  // Shared-file DLM extent-lock conflict: landing on an object another
  // client is actively writing costs a lock revoke round-trip.
  const bool locking = cfg_.lock_conflict_time > 0.0;
  if (locking) {
    bool conflict = false;
    {
      ObjLock& lk = locks_[lock_key];
      conflict = lk.active > 0 && lk.client != client;
    }
    if (conflict) {
      ++lock_conflicts_;
      lock_wait_ += cfg_.lock_conflict_time;
      co_await Delay(engine_, cfg_.lock_conflict_time);
    }
    // Re-lookup: the map may have rehashed while suspended.
    ObjLock& lk = locks_[lock_key];
    if (lk.active == 0) lk.client = client;
    ++lk.active;
  }

  // Bounded OST request queue: at most ost_queue_depth chunks in
  // service; the rest wait FIFO for a slot.
  if (st.queue) {
    auto granted = st.queue->acquire();
    st.peak_queue =
        std::max(st.peak_queue, static_cast<int>(st.queue->waiters()));
    (void)co_await std::move(granted);
  }

  const SimTime t_xfer = engine_.now();
  // The chunk crosses the OSS link, then the OST disk.  Modelling them
  // as sequential consumptions of fair-shared servers captures both
  // bottlenecks (few stripes -> disk-bound; many clients on one OSS ->
  // link-bound).
  auto link_done =
      oss_links_[static_cast<std::size_t>(oss)]->consume(chunk);
  auto disk_done =
      ost_disks_[static_cast<std::size_t>(ost)]->consume(chunk);
  (void)co_await std::move(link_done);
  (void)co_await std::move(disk_done);

  if (st.queue) st.queue->release();
  if (locking) {
    auto it = locks_.find(lock_key);
    if (it != locks_.end() && --it->second.active == 0) locks_.erase(it);
  }
  ++st.chunks;
  if (spans) {
    obs_->span(client, obsv::Cat::kIo, sid_.queue, t0, t_xfer, cid, chunk,
               ost);
    obs_->span(client, obsv::Cat::kIo, sid_.xfer, t_xfer, engine_.now(),
               cid, chunk, ost);
  }
  done.set_value(Done{});
}

Task<void> Filesystem::write(const FileLayout& file, double offset,
                             double bytes, int client) {
  bytes_written_ += bytes;
  return transfer(file, offset, bytes, client);
}

Task<void> Filesystem::read(const FileLayout& file, double offset,
                            double bytes, int client) {
  bytes_read_ += bytes;
  return transfer(file, offset, bytes, client);
}

Task<void> Filesystem::checkpoint(FileLayout& file, double offset,
                                  double bytes, int client) {
  if (bytes < 0.0 || offset < 0.0)
    throw UsageError("Filesystem::checkpoint: negative offset/size");
  if (file.osts.empty() &&
      (file.stripe_count < 1 || file.stripe_count > total_osts()))
    throw UsageError("Filesystem::checkpoint: bad stripe count");
  note_client(client);
  return checkpoint_impl(file, offset, bytes, client);
}

Task<void> Filesystem::checkpoint_impl(FileLayout& file, double offset,
                                       double bytes, int client) {
  if (file.osts.empty())
    file = co_await create_impl(file.stripe_count, client);
  bytes_written_ += bytes;
  co_await transfer_impl(file, offset, bytes, client);
  // Close/commit: the MDS records the new size and attributes — a
  // second serialization point every checkpoint round pays.
  co_await mds_service(client, /*is_create=*/false);
}

Task<void> Filesystem::restart(FileLayout& file, double offset, double bytes,
                               int client) {
  if (bytes < 0.0 || offset < 0.0)
    throw UsageError("Filesystem::restart: negative offset/size");
  if (file.osts.empty() &&
      (file.stripe_count < 1 || file.stripe_count > total_osts()))
    throw UsageError("Filesystem::restart: bad stripe count");
  note_client(client);
  return restart_impl(file, offset, bytes, client);
}

Task<void> Filesystem::restart_impl(FileLayout& file, double offset,
                                    double bytes, int client) {
  if (file.osts.empty())
    file = co_await create_impl(file.stripe_count, client);
  else
    co_await mds_service(client, /*is_create=*/false);  // open
  bytes_read_ += bytes;
  co_await transfer_impl(file, offset, bytes, client);
}

void Filesystem::collect_io_summary() {
  obsv::IoSummary s;
  s.world = obs_->ordinal();
  s.mds_ops = mds_ops_;
  s.creates = creates_;
  s.commits = commits_;
  s.mds_busy_time = static_cast<double>(mds_ops_) * cfg_.mds_op_time;
  s.mds_wait_time = mds_wait_sum_;
  s.mds_peak_queue = mds_peak_queue_;
  s.bytes_written = bytes_written_;
  s.bytes_read = bytes_read_;
  s.lock_conflicts = lock_conflicts_;
  s.lock_wait_time = lock_wait_;
  s.stripe_imbalance_max = stripe_imbalance_max_;
  for (int i = 0; i < total_osts(); ++i) {
    const SharedServer& d = *ost_disks_[static_cast<std::size_t>(i)];
    const OstState& st = ost_state_[static_cast<std::size_t>(i)];
    if (st.chunks == 0) continue;  // OSTs that carried traffic only
    obsv::OstUsage u;
    u.ost = i;
    u.oss = i / cfg_.osts_per_oss;
    u.bytes = d.total_served();
    u.busy_time = d.busy_time();
    u.contended_time = d.contended_time();
    u.peak_jobs = static_cast<int>(d.peak_jobs());
    u.peak_queue = st.peak_queue;
    u.chunks = st.chunks;
    s.osts.push_back(u);
  }
  for (int i = 0; i < cfg_.n_oss; ++i) {
    const SharedServer& l = *oss_links_[static_cast<std::size_t>(i)];
    if (l.peak_jobs() == 0) continue;
    obsv::OssLinkUsage u;
    u.oss = i;
    u.bytes = l.total_served();
    u.busy_time = l.busy_time();
    u.contended_time = l.contended_time();
    u.peak_jobs = static_cast<int>(l.peak_jobs());
    s.oss_links.push_back(u);
  }
  if (obs_->metrics()) {
    auto& reg = obs_->registry();
    reg.counter("io.bytes", "written").add(bytes_written_);
    reg.counter("io.bytes", "read").add(bytes_read_);
    reg.counter("io.mds.ops", "create").add(static_cast<double>(creates_));
    reg.counter("io.mds.ops", "commit").add(static_cast<double>(commits_));
    if (lock_conflicts_ > 0) {
      reg.counter("io.lock.conflicts", "total")
          .add(static_cast<double>(lock_conflicts_));
      reg.counter("io.lock.wait_s", "total").add(lock_wait_);
    }
    for (const obsv::OstUsage& u : s.osts) {
      const std::string label = "ost" + std::to_string(u.ost);
      reg.counter("io.ost.bytes", label).add(u.bytes);
      reg.counter("io.ost.busy_s", label).add(u.busy_time);
      reg.counter("io.ost.contended_s", label).add(u.contended_time);
    }
    for (const obsv::OssLinkUsage& u : s.oss_links) {
      const std::string label = "oss" + std::to_string(u.oss);
      reg.counter("io.oss.bytes", label).add(u.bytes);
      reg.counter("io.oss.busy_s", label).add(u.busy_time);
      reg.counter("io.oss.contended_s", label).add(u.contended_time);
    }
  }
  obs_->add_io_summary(std::move(s));
}

IorResult run_ior(const LustreConfig& fs_cfg, const IorConfig& cfg) {
  if (cfg.clients < 1) throw UsageError("run_ior: need at least one client");
  if (cfg.xfer_bytes <= 0.0 || cfg.block_bytes <= 0.0)
    throw UsageError("run_ior: block/xfer sizes must be positive");

  Engine engine;
  Filesystem fs(engine, fs_cfg);
  IorResult result;

  std::vector<FileLayout> files(
      static_cast<std::size_t>(cfg.file_per_process ? cfg.clients : 1));
  int created = 0;
  SimTime create_done = 0.0, write_done = 0.0;
  int writes_finished = 0, reads_finished = 0;

  const int nfiles = static_cast<int>(files.size());
  for (int c = 0; c < cfg.clients; ++c) {
    spawn(engine, [](Engine& eng, Filesystem& lfs, const IorConfig& io,
                     std::vector<FileLayout>& layouts, int client,
                     int file_count, int& ncreated, SimTime& t_create,
                     SimTime& t_write, int& nwrites, int& nreads)
                      -> Task<void> {
      // Phase 1: create (file-per-process) or rank 0 creates the
      // shared file.
      if (io.file_per_process) {
        layouts[static_cast<std::size_t>(client)] =
            co_await lfs.create(io.stripe_count, client);
      } else if (client == 0) {
        layouts[0] = co_await lfs.create(io.stripe_count, client);
      }
      ++ncreated;
      // Simple phase barrier: wait until all clients created.
      while (ncreated < io.clients) co_await Delay(eng, 10.0 * units::us);
      t_create = std::max(t_create, eng.now());

      // Phase 2: write the block in xfer-sized sequential requests.
      const auto& layout =
          layouts[static_cast<std::size_t>(io.file_per_process ? client : 0)];
      const double base =
          io.file_per_process ? 0.0 : io.block_bytes * client;
      for (double off = 0.0; off < io.block_bytes; off += io.xfer_bytes) {
        const double len = std::min(io.xfer_bytes, io.block_bytes - off);
        co_await lfs.write(layout, base + off, len, client);
      }
      ++nwrites;
      while (nwrites < io.clients) co_await Delay(eng, 10.0 * units::us);
      t_write = std::max(t_write, eng.now());

      // Phase 3: read it back.
      for (double off = 0.0; off < io.block_bytes; off += io.xfer_bytes) {
        const double len = std::min(io.xfer_bytes, io.block_bytes - off);
        co_await lfs.read(layout, base + off, len, client);
      }
      ++nreads;
      (void)file_count;
    }(engine, fs, cfg, files, c, nfiles, created, create_done, write_done,
      writes_finished, reads_finished));
  }
  engine.run();
  if (reads_finished != cfg.clients)
    throw InternalError("run_ior: clients did not finish");

  const double total_bytes =
      static_cast<double>(cfg.clients) * cfg.block_bytes;
  result.create_seconds = create_done;
  result.write_gbs = total_bytes / (write_done - create_done) / 1e9;
  result.read_gbs = total_bytes / (engine.now() - write_done) / 1e9;
  return result;
}

CheckpointResult run_checkpoint(const LustreConfig& fs_cfg,
                                const CheckpointConfig& cfg) {
  if (cfg.clients < 1)
    throw UsageError("run_checkpoint: need at least one client");
  if (cfg.bytes_per_client <= 0.0 || cfg.rounds < 1)
    throw UsageError("run_checkpoint: need positive bytes and rounds");

  Engine engine;
  Filesystem fs(engine, fs_cfg);

  // File-per-process: one layout per client.  Shared: client 0 creates
  // layouts[0] up front; everyone writes their slice of it.
  std::vector<FileLayout> files(
      static_cast<std::size_t>(cfg.shared_file ? 1 : cfg.clients));
  for (FileLayout& f : files) f.stripe_count = cfg.stripe_count;
  int ready = 0;
  std::vector<int> round_done(static_cast<std::size_t>(cfg.rounds), 0);
  SimTime ck_done = 0.0;
  std::uint64_t mds_ops_at_ck = 0;
  int restarts = 0;

  for (int c = 0; c < cfg.clients; ++c) {
    spawn(engine, [](Engine& eng, Filesystem& lfs,
                     const CheckpointConfig& ck,
                     std::vector<FileLayout>& layouts, int client,
                     int& nready, std::vector<int>& rdone, SimTime& t_ck,
                     std::uint64_t& meta_ops, int& nrestarts)
                      -> Task<void> {
      // Setup: the shared layout must exist before anyone writes a
      // slice, or every client would race to create it.
      if (ck.shared_file && client == 0)
        layouts[0] = co_await lfs.create(ck.stripe_count, 0);
      ++nready;
      while (nready < ck.clients) co_await Delay(eng, 10.0 * units::us);

      FileLayout& file =
          layouts[static_cast<std::size_t>(ck.shared_file ? 0 : client)];
      const double offset =
          ck.shared_file ? ck.bytes_per_client * client : 0.0;
      for (int r = 0; r < ck.rounds; ++r) {
        co_await lfs.checkpoint(file, offset, ck.bytes_per_client, client);
        int& n = rdone[static_cast<std::size_t>(r)];
        ++n;
        while (n < ck.clients) co_await Delay(eng, 10.0 * units::us);
      }
      t_ck = std::max(t_ck, eng.now());
      if (client == 0) meta_ops = lfs.mds_ops();

      if (ck.restart_read) {
        co_await lfs.restart(file, offset, ck.bytes_per_client, client);
        ++nrestarts;
      }
    }(engine, fs, cfg, files, c, ready, round_done, ck_done, mds_ops_at_ck,
      restarts));
  }
  engine.run();
  if (cfg.restart_read && restarts != cfg.clients)
    throw InternalError("run_checkpoint: clients did not finish");

  CheckpointResult r;
  r.checkpoint_seconds = ck_done;
  r.restart_seconds = cfg.restart_read ? engine.now() - ck_done : 0.0;
  const double total = static_cast<double>(cfg.clients) *
                       cfg.bytes_per_client *
                       static_cast<double>(cfg.rounds);
  r.write_gbs =
      r.checkpoint_seconds > 0.0 ? total / r.checkpoint_seconds / 1e9 : 0.0;
  r.meta_share =
      r.checkpoint_seconds > 0.0
          ? static_cast<double>(mds_ops_at_ck) * fs_cfg.mds_op_time /
                r.checkpoint_seconds
          : 0.0;
  return r;
}

}  // namespace xts::lustre
