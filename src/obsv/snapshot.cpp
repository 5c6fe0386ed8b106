#include "obsv/snapshot.hpp"

#include <vector>

#include "core/bytes.hpp"
#include "obsv/session.hpp"

namespace xts::obsv {

namespace {

constexpr std::uint32_t kMagic = 0x53535458u;  // "XTSS"
constexpr std::uint32_t kVersion = 2;

// -- encode helpers ----------------------------------------------------

void put_registry(ByteWriter& w, const Registry& reg) {
  w.u64(reg.counters().size());
  for (const auto& [family, labels] : reg.counters()) {
    w.str(family);
    w.u64(labels.size());
    for (const auto& [label, c] : labels) {
      w.str(label);
      w.f64(c.value());
    }
  }
  w.u64(reg.gauges().size());
  for (const auto& [family, labels] : reg.gauges()) {
    w.str(family);
    w.u64(labels.size());
    for (const auto& [label, g] : labels) {
      w.str(label);
      w.f64(g.value());
      w.f64(g.max());
      w.u8(g.seen() ? 1 : 0);
    }
  }
  w.u64(reg.histograms().size());
  for (const auto& [family, labels] : reg.histograms()) {
    w.str(family);
    w.u64(labels.size());
    for (const auto& [label, h] : labels) {
      w.str(label);
      const RunningStats::Raw raw = h.stats().raw();
      w.u64(raw.n);
      w.f64(raw.mean);
      w.f64(raw.m2);
      w.f64(raw.min);
      w.f64(raw.max);
      w.f64(raw.sum);
      const auto& samples = h.samples().samples();
      w.u64(samples.size());
      for (const double v : samples) w.f64(v);
    }
  }
}

void put_summary(ByteWriter& w, const WorldSummary& s) {
  w.u32(s.world);
  w.i32(s.nranks);
  w.i32(s.nodes);
  w.f64(s.end_time);
  w.u64(s.messages);
  w.f64(s.bytes_sent);
  w.f64(s.net_delivered);
  w.u64(s.peak_flows);
  w.u64(s.engine_events);
  w.u64(s.links.size());
  for (const auto& l : s.links) {
    w.i32(l.link);
    w.i32(l.cls);
    w.f64(l.bytes);
    w.f64(l.busy_time);
    w.f64(l.contended_time);
    w.i32(l.peak_load);
  }
}

void put_io_summary(ByteWriter& w, const IoSummary& s) {
  w.u32(s.world);
  w.u64(s.mds_ops);
  w.u64(s.creates);
  w.u64(s.commits);
  w.f64(s.mds_busy_time);
  w.f64(s.mds_wait_time);
  w.i32(s.mds_peak_queue);
  w.f64(s.bytes_written);
  w.f64(s.bytes_read);
  w.u64(s.lock_conflicts);
  w.f64(s.lock_wait_time);
  w.f64(s.stripe_imbalance_max);
  w.u64(s.osts.size());
  for (const auto& o : s.osts) {
    w.i32(o.ost);
    w.i32(o.oss);
    w.f64(o.bytes);
    w.f64(o.busy_time);
    w.f64(o.contended_time);
    w.i32(o.peak_jobs);
    w.i32(o.peak_queue);
    w.u64(o.chunks);
  }
  w.u64(s.oss_links.size());
  for (const auto& o : s.oss_links) {
    w.i32(o.oss);
    w.f64(o.bytes);
    w.f64(o.busy_time);
    w.f64(o.contended_time);
    w.i32(o.peak_jobs);
  }
}

void put_buckets(ByteWriter& w, const BucketArray& b) {
  for (const double v : b) w.f64(v);
}

void put_imbalance(ByteWriter& w, const Imbalance& i) {
  w.f64(i.mean);
  w.f64(i.max);
  w.f64(i.stddev);
  w.i32(i.argmax);
}

void put_profile(ByteWriter& w, const WorldProfileResult& p) {
  w.u32(p.world);
  w.i32(p.nranks);
  w.f64(p.t_start);
  w.f64(p.t_end);
  w.u64(p.ranks.size());
  for (const auto& r : p.ranks) put_buckets(w, r.buckets);
  w.u64(p.phases.size());
  for (const auto& ph : p.phases) {
    w.str(ph.name);
    put_buckets(w, ph.total);
    put_imbalance(w, ph.time);
    w.u64(ph.stragglers.size());
    for (const int r : ph.stragglers) w.i32(r);
  }
  for (const auto& i : p.bucket_imbalance) put_imbalance(w, i);
  w.u64(p.stragglers.size());
  for (const int r : p.stragglers) w.i32(r);
  w.u64(p.matrix.size());
  for (const auto& m : p.matrix) {
    w.i32(m.src);
    w.i32(m.dst);
    w.u64(m.messages);
    w.f64(m.bytes);
    w.f64(m.latency_sum);
  }
  w.u64(p.messages);
  w.f64(p.bytes);
  const CritPath& cp = p.critical_path;
  w.u64(cp.steps.size());
  for (const auto& s : cp.steps) {
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.i32(s.rank);
    w.i32(s.other);
    w.f64(s.t0);
    w.f64(s.t1);
    w.f64(s.bytes);
    put_buckets(w, s.buckets);
  }
  put_buckets(w, cp.buckets);
  w.f64(cp.length);
  w.f64(cp.t_start);
  w.f64(cp.t_end);
  w.u64(cp.messages);
  w.u64(cp.ranks.size());
  for (const int r : cp.ranks) w.i32(r);
  w.u64(cp.links.size());
  for (const auto& l : cp.links) {
    w.i32(l.link);
    w.i32(l.cls);
    w.u64(l.count);
  }
  w.u8(cp.truncated ? 1 : 0);
  w.u64(p.dropped_records);
}

// -- decode helpers ----------------------------------------------------

bool get_registry(ByteReader& r, Registry& reg) {
  const std::uint64_t ncf = r.u64();
  if (!r.fits(ncf, 16)) return false;
  for (std::uint64_t f = 0; f < ncf; ++f) {
    const std::string family = r.str();
    const std::uint64_t nl = r.u64();
    if (!r.fits(nl, 16)) return false;
    for (std::uint64_t i = 0; i < nl; ++i) {
      const std::string label = r.str();
      const double value = r.f64();
      if (!r.ok()) return false;
      reg.counter(family, label).add(value);
    }
  }
  const std::uint64_t ngf = r.u64();
  if (!r.fits(ngf, 16)) return false;
  for (std::uint64_t f = 0; f < ngf; ++f) {
    const std::string family = r.str();
    const std::uint64_t nl = r.u64();
    if (!r.fits(nl, 25)) return false;
    for (std::uint64_t i = 0; i < nl; ++i) {
      const std::string label = r.str();
      const double value = r.f64();
      const double max = r.f64();
      const bool seen = r.u8() != 0;
      if (!r.ok()) return false;
      reg.gauge(family, label).restore(value, max, seen);
    }
  }
  const std::uint64_t nhf = r.u64();
  if (!r.fits(nhf, 16)) return false;
  for (std::uint64_t f = 0; f < nhf; ++f) {
    const std::string family = r.str();
    const std::uint64_t nl = r.u64();
    if (!r.fits(nl, 16)) return false;
    for (std::uint64_t i = 0; i < nl; ++i) {
      const std::string label = r.str();
      RunningStats::Raw raw;
      raw.n = static_cast<std::size_t>(r.u64());
      raw.mean = r.f64();
      raw.m2 = r.f64();
      raw.min = r.f64();
      raw.max = r.f64();
      raw.sum = r.f64();
      const std::uint64_t ns = r.u64();
      if (!r.fits(ns, 8)) return false;
      std::vector<double> samples(static_cast<std::size_t>(ns));
      for (auto& v : samples) v = r.f64();
      if (!r.ok()) return false;
      reg.histogram(family, label).restore(raw, std::move(samples));
    }
  }
  return r.ok();
}

bool get_summary(ByteReader& r, WorldSummary& s) {
  s.world = r.u32();
  s.nranks = r.i32();
  s.nodes = r.i32();
  s.end_time = r.f64();
  s.messages = r.u64();
  s.bytes_sent = r.f64();
  s.net_delivered = r.f64();
  s.peak_flows = static_cast<std::size_t>(r.u64());
  s.engine_events = r.u64();
  const std::uint64_t nlinks = r.u64();
  if (!r.fits(nlinks, 36)) return false;
  s.links.resize(static_cast<std::size_t>(nlinks));
  for (auto& l : s.links) {
    l.link = r.i32();
    l.cls = r.i32();
    l.bytes = r.f64();
    l.busy_time = r.f64();
    l.contended_time = r.f64();
    l.peak_load = r.i32();
  }
  return r.ok();
}

bool get_io_summary(ByteReader& r, IoSummary& s) {
  s.world = r.u32();
  s.mds_ops = r.u64();
  s.creates = r.u64();
  s.commits = r.u64();
  s.mds_busy_time = r.f64();
  s.mds_wait_time = r.f64();
  s.mds_peak_queue = r.i32();
  s.bytes_written = r.f64();
  s.bytes_read = r.f64();
  s.lock_conflicts = r.u64();
  s.lock_wait_time = r.f64();
  s.stripe_imbalance_max = r.f64();
  const std::uint64_t nosts = r.u64();
  if (!r.fits(nosts, 48)) return false;
  s.osts.resize(static_cast<std::size_t>(nosts));
  for (auto& o : s.osts) {
    o.ost = r.i32();
    o.oss = r.i32();
    o.bytes = r.f64();
    o.busy_time = r.f64();
    o.contended_time = r.f64();
    o.peak_jobs = r.i32();
    o.peak_queue = r.i32();
    o.chunks = r.u64();
  }
  const std::uint64_t nlinks = r.u64();
  if (!r.fits(nlinks, 32)) return false;
  s.oss_links.resize(static_cast<std::size_t>(nlinks));
  for (auto& o : s.oss_links) {
    o.oss = r.i32();
    o.bytes = r.f64();
    o.busy_time = r.f64();
    o.contended_time = r.f64();
    o.peak_jobs = r.i32();
  }
  return r.ok();
}

bool get_buckets(ByteReader& r, BucketArray& b) {
  for (auto& v : b) v = r.f64();
  return r.ok();
}

bool get_imbalance(ByteReader& r, Imbalance& i) {
  i.mean = r.f64();
  i.max = r.f64();
  i.stddev = r.f64();
  i.argmax = r.i32();
  return r.ok();
}

bool get_profile(ByteReader& r, WorldProfileResult& p) {
  p.world = r.u32();
  p.nranks = r.i32();
  p.t_start = r.f64();
  p.t_end = r.f64();
  const std::uint64_t nranks = r.u64();
  if (!r.fits(nranks, sizeof(double) * kBuckets)) return false;
  p.ranks.resize(static_cast<std::size_t>(nranks));
  for (auto& rk : p.ranks)
    if (!get_buckets(r, rk.buckets)) return false;
  const std::uint64_t nphases = r.u64();
  if (!r.fits(nphases, 8)) return false;
  p.phases.resize(static_cast<std::size_t>(nphases));
  for (auto& ph : p.phases) {
    ph.name = r.str();
    if (!get_buckets(r, ph.total)) return false;
    if (!get_imbalance(r, ph.time)) return false;
    const std::uint64_t ns = r.u64();
    if (!r.fits(ns, 4)) return false;
    ph.stragglers.resize(static_cast<std::size_t>(ns));
    for (auto& v : ph.stragglers) v = r.i32();
  }
  for (auto& i : p.bucket_imbalance)
    if (!get_imbalance(r, i)) return false;
  const std::uint64_t nstrag = r.u64();
  if (!r.fits(nstrag, 4)) return false;
  p.stragglers.resize(static_cast<std::size_t>(nstrag));
  for (auto& v : p.stragglers) v = r.i32();
  const std::uint64_t nmat = r.u64();
  if (!r.fits(nmat, 32)) return false;
  p.matrix.resize(static_cast<std::size_t>(nmat));
  for (auto& m : p.matrix) {
    m.src = r.i32();
    m.dst = r.i32();
    m.messages = r.u64();
    m.bytes = r.f64();
    m.latency_sum = r.f64();
  }
  p.messages = r.u64();
  p.bytes = r.f64();
  CritPath& cp = p.critical_path;
  const std::uint64_t nsteps = r.u64();
  if (!r.fits(nsteps, 25 + sizeof(double) * kBuckets)) return false;
  cp.steps.resize(static_cast<std::size_t>(nsteps));
  for (auto& s : cp.steps) {
    s.kind = static_cast<CritStep::Kind>(r.u8());
    s.rank = r.i32();
    s.other = r.i32();
    s.t0 = r.f64();
    s.t1 = r.f64();
    s.bytes = r.f64();
    if (!get_buckets(r, s.buckets)) return false;
  }
  if (!get_buckets(r, cp.buckets)) return false;
  cp.length = r.f64();
  cp.t_start = r.f64();
  cp.t_end = r.f64();
  cp.messages = r.u64();
  const std::uint64_t nranks_cp = r.u64();
  if (!r.fits(nranks_cp, 4)) return false;
  cp.ranks.resize(static_cast<std::size_t>(nranks_cp));
  for (auto& v : cp.ranks) v = r.i32();
  const std::uint64_t nlinks = r.u64();
  if (!r.fits(nlinks, 16)) return false;
  cp.links.resize(static_cast<std::size_t>(nlinks));
  for (auto& l : cp.links) {
    l.link = r.i32();
    l.cls = r.i32();
    l.count = r.u64();
  }
  cp.truncated = r.u8() != 0;
  p.dropped_records = r.u64();
  return r.ok();
}

}  // namespace

std::string ShardSnapshot::encode(const Shard& shard) {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(shard.next_world_);
  put_registry(w, shard.registry_);
  w.u64(shard.summaries_.size());
  for (const auto& s : shard.summaries_) put_summary(w, s);
  w.u64(shard.io_summaries_.size());
  for (const auto& s : shard.io_summaries_) put_io_summary(w, s);
  w.u64(shard.profiles_.size());
  for (const auto& p : shard.profiles_) put_profile(w, p);
  return w.take();
}

bool ShardSnapshot::decode(Shard& shard, std::string_view data) {
  ByteReader r(data);
  if (r.u32() != kMagic) return false;
  if (r.u32() != kVersion) return false;
  shard.next_world_ = r.u32();
  if (!get_registry(r, shard.registry_)) return false;
  const std::uint64_t nsum = r.u64();
  if (!r.fits(nsum, 8)) return false;
  shard.summaries_.resize(static_cast<std::size_t>(nsum));
  for (auto& s : shard.summaries_)
    if (!get_summary(r, s)) return false;
  const std::uint64_t nio = r.u64();
  if (!r.fits(nio, 8)) return false;
  shard.io_summaries_.resize(static_cast<std::size_t>(nio));
  for (auto& s : shard.io_summaries_)
    if (!get_io_summary(r, s)) return false;
  const std::uint64_t nprof = r.u64();
  if (!r.fits(nprof, 8)) return false;
  shard.profiles_.resize(static_cast<std::size_t>(nprof));
  for (auto& p : shard.profiles_)
    if (!get_profile(r, p)) return false;
  return r.ok() && r.done();
}

}  // namespace xts::obsv
