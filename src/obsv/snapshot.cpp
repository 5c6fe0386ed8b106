#include "obsv/snapshot.hpp"

#include <array>
#include <concepts>
#include <type_traits>
#include <vector>

#include "core/bytes.hpp"
#include "obsv/session.hpp"

namespace xts::obsv {

namespace {

constexpr std::uint32_t kMagic = 0x53535458u;  // "XTSS"
constexpr std::uint32_t kVersion = 3;

// -- record layouts ----------------------------------------------------
//
// Each record's wire layout is one field list, walked by Writer on
// encode (const record) and by Reader on decode.  Fields go in list
// order: integers and doubles at their fixed width, bools and enums as
// one byte, strings and vectors as a u64 count then their elements,
// arrays as their elements alone.

template <typename S, typename T>
concept Rec = std::same_as<std::remove_const_t<S>, T>;

// size_t fields (WorldSummary::peak_flows, RunningStats::Raw::n) go as u64.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

void fields(auto& io, Rec<LinkUsage> auto& l) {
  io(l.link, l.cls, l.bytes, l.busy_time, l.contended_time, l.peak_load);
}

void fields(auto& io, Rec<WorldSummary> auto& s) {
  // class_series is trace-only and never cached (snapshot.hpp).
  io(s.world, s.nranks, s.nodes, s.end_time, s.messages, s.bytes_sent,
     s.net_delivered, s.peak_flows, s.engine_events, s.links);
}

void fields(auto& io, Rec<OstUsage> auto& o) {
  io(o.ost, o.oss, o.bytes, o.busy_time, o.contended_time, o.peak_jobs,
     o.peak_queue, o.chunks);
}

void fields(auto& io, Rec<OssLinkUsage> auto& o) {
  io(o.oss, o.bytes, o.busy_time, o.contended_time, o.peak_jobs);
}

void fields(auto& io, Rec<IoSummary> auto& s) {
  io(s.world, s.mds_ops, s.creates, s.commits, s.mds_busy_time,
     s.mds_wait_time, s.mds_peak_queue, s.bytes_written, s.bytes_read,
     s.lock_conflicts, s.lock_wait_time, s.stripe_imbalance_max, s.osts,
     s.oss_links);
}

void fields(auto& io, Rec<Imbalance> auto& i) {
  io(i.mean, i.max, i.stddev, i.argmax);
}

void fields(auto& io, Rec<RankProfile> auto& r) { io(r.buckets); }

void fields(auto& io, Rec<PhaseProfile> auto& ph) {
  io(ph.name, ph.total, ph.time, ph.stragglers);
}

void fields(auto& io, Rec<MatrixEntry> auto& m) {
  io(m.src, m.dst, m.messages, m.bytes, m.latency_sum);
}

void fields(auto& io, Rec<CritStep> auto& s) {
  io(s.kind, s.rank, s.other, s.t0, s.t1, s.bytes, s.buckets);
}

void fields(auto& io, Rec<CritLink> auto& l) { io(l.link, l.cls, l.count); }

void fields(auto& io, Rec<CritPath> auto& cp) {
  io(cp.steps, cp.buckets, cp.length, cp.t_start, cp.t_end, cp.messages,
     cp.ranks, cp.links, cp.truncated);
}

void fields(auto& io, Rec<RunningStats::Raw> auto& raw) {
  io(raw.n, raw.mean, raw.m2, raw.min, raw.max, raw.sum);
}

void fields(auto& io, Rec<WorldProfileResult> auto& p) {
  io(p.world, p.nranks, p.t_start, p.t_end, p.ranks, p.phases,
     p.bucket_imbalance, p.stragglers, p.matrix, p.messages, p.bytes,
     p.critical_path, p.dropped_records);
}

class Writer : public ByteWriter {
 public:
  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

 private:
  void put(std::uint32_t v) { u32(v); }
  void put(std::int32_t v) { i32(v); }
  void put(std::uint64_t v) { u64(v); }
  void put(double v) { f64(v); }
  void put(bool v) { u8(v ? 1 : 0); }
  void put(const std::string& v) { str(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void put(E v) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <typename T, std::size_t N>
  void put(const std::array<T, N>& a) {
    for (const T& v : a) put(v);
  }
  template <typename T>
  void put(const std::vector<T>& vs) {
    u64(vs.size());
    for (const T& v : vs) put(v);
  }
  template <typename T>
    requires std::is_class_v<T>
  void put(const T& rec) {
    fields(*this, rec);
  }
};

/// The fewest bytes a T... can encode to: the encoding of default
/// values, whose strings and vectors are empty.  A decoded count larger
/// than remaining() / this cannot be honest.  Computed at static
/// initialization, so a decode never allocates for it.
template <typename... T>
const std::size_t min_bytes = [] {
  Writer w;
  w(T{}...);
  return w.size();
}();

class Reader : public ByteReader {
 public:
  using ByteReader::ByteReader;

  template <typename... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

 private:
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::int32_t& v) { v = i32(); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(double& v) { v = f64(); }
  void get(bool& v) { v = u8() != 0; }
  void get(std::string& v) { v = str(); }
  template <typename E>
    requires std::is_enum_v<E>
  void get(E& v) {
    v = static_cast<E>(u8());
  }
  template <typename T, std::size_t N>
  void get(std::array<T, N>& a) {
    for (T& v : a) get(v);
  }
  template <typename T>
  void get(std::vector<T>& vs) {
    const std::uint64_t n = u64();
    if (!fits(n, min_bytes<T>)) return;
    vs.resize(static_cast<std::size_t>(n));
    for (T& v : vs) {
      if (!ok()) return;
      get(v);
    }
  }
  template <typename T>
    requires std::is_class_v<T>
  void get(T& rec) {
    fields(*this, rec);
  }
};

// -- registry ----------------------------------------------------------
//
// Metrics are reached through Registry accessors rather than fields, so
// the two directions are spelled out.  Each metric kind is a u64 count of
// families, each a name then a u64 count of labels, each a label then the
// metric's own fields.

template <typename Families, typename Put>
void put_families(Writer& w, const Families& families, Put put_metric) {
  w.u64(families.size());
  for (const auto& [family, labels] : families) {
    w.str(family);
    w.u64(labels.size());
    for (const auto& [label, metric] : labels) {
      w.str(label);
      put_metric(metric);
    }
  }
}

void put_registry(Writer& w, const Registry& reg) {
  put_families(w, reg.counters(), [&](const Counter& c) { w(c.value()); });
  put_families(w, reg.histograms(), [&](const Histogram& h) {
    w(h.stats().raw(), h.samples().samples());
  });
}

/// `get_metric(family, label)` reads one metric, whose fields encode to
/// at least min_bytes<Metric...>.
template <typename... Metric, typename Get>
bool get_families(Reader& r, Get get_metric) {
  const std::uint64_t nfamilies = r.u64();
  if (!r.fits(nfamilies, min_bytes<std::string, std::uint64_t>))
    return false;
  for (std::uint64_t f = 0; f < nfamilies; ++f) {
    const std::string family = r.str();
    const std::uint64_t nlabels = r.u64();
    if (!r.fits(nlabels, min_bytes<std::string, Metric...>)) return false;
    for (std::uint64_t i = 0; i < nlabels; ++i) {
      const std::string label = r.str();
      get_metric(family, label);
      if (!r.ok()) return false;
    }
  }
  return true;
}

bool get_registry(Reader& r, Registry& reg) {
  using Name = const std::string&;
  const auto counter = [&](Name family, Name label) {
    reg.counter(family, label).add(r.f64());
  };
  const auto histogram = [&](Name family, Name label) {
    RunningStats::Raw raw;
    std::vector<double> samples;
    r(raw, samples);
    reg.histogram(family, label).restore(raw, std::move(samples));
  };
  return get_families<double>(r, counter) &&
         get_families<RunningStats::Raw, std::vector<double>>(r, histogram);
}

}  // namespace

std::string ShardSnapshot::encode(const Shard& shard) {
  Writer w;
  w(kMagic, kVersion, shard.next_world_);
  put_registry(w, shard.registry_);
  w(shard.summaries_, shard.io_summaries_, shard.profiles_);
  return w.take();
}

bool ShardSnapshot::decode(Shard& shard, std::string_view data) {
  Reader r(data);
  if (r.u32() != kMagic) return false;
  if (r.u32() != kVersion) return false;
  r(shard.next_world_);
  if (!get_registry(r, shard.registry_)) return false;
  r(shard.summaries_, shard.io_summaries_, shard.profiles_);
  return r.ok() && r.done();
}

}  // namespace xts::obsv
