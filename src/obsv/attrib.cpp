#include "obsv/attrib.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "obsv/json.hpp"

namespace xts::obsv {

namespace {

void write_buckets(std::ostream& os, const BucketArray& a) {
  os << '{';
  for (int b = 0; b < kBuckets; ++b) {
    if (b) os << ',';
    os << '"' << kBucketNames[static_cast<std::size_t>(b)]
       << "\":" << gnum(a[static_cast<std::size_t>(b)]);
  }
  os << '}';
}

void write_imbalance(std::ostream& os, const Imbalance& s) {
  os << "{\"mean\":" << gnum(s.mean) << ",\"max\":" << gnum(s.max)
     << ",\"stddev\":" << gnum(s.stddev) << ",\"argmax\":" << s.argmax
     << '}';
}

void write_ints(std::ostream& os, const std::vector<int>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

void write_attribution(std::ostream& os, const Attribution& a) {
  os << "{\"verdict\":\"" << to_string(a.verdict)
     << "\",\"compute_score\":" << gnum(a.compute_score)
     << ",\"injection_score\":" << gnum(a.injection_score)
     << ",\"contention_score\":" << gnum(a.contention_score)
     << ",\"wait_score\":" << gnum(a.wait_score)
     << ",\"io_score\":" << gnum(a.io_score)
     << ",\"contended_ratio\":" << gnum(a.contended_ratio) << '}';
}

const WorldSummary* summary_for(const Session& session,
                                std::uint32_t world) noexcept {
  for (const WorldSummary& s : session.summaries())
    if (s.world == world) return &s;
  return nullptr;
}

const IoSummary* io_summary_for(const Session& session,
                                std::uint32_t world) noexcept {
  for (const IoSummary& s : session.io_summaries())
    if (s.world == world) return &s;
  return nullptr;
}

void write_io_summary(std::ostream& os, const IoSummary& io) {
  os << "{\"mds\":{\"ops\":" << io.mds_ops << ",\"creates\":" << io.creates
     << ",\"commits\":" << io.commits
     << ",\"busy_time\":" << gnum(io.mds_busy_time)
     << ",\"wait_time\":" << gnum(io.mds_wait_time)
     << ",\"peak_queue\":" << io.mds_peak_queue << '}'
     << ",\"bytes_written\":" << gnum(io.bytes_written)
     << ",\"bytes_read\":" << gnum(io.bytes_read)
     << ",\"lock_conflicts\":" << io.lock_conflicts
     << ",\"lock_wait_time\":" << gnum(io.lock_wait_time)
     << ",\"stripe_imbalance_max\":" << gnum(io.stripe_imbalance_max);
  os << ",\"osts\":[";
  for (std::size_t i = 0; i < io.osts.size(); ++i) {
    const OstUsage& o = io.osts[i];
    if (i) os << ',';
    os << "{\"ost\":" << o.ost << ",\"oss\":" << o.oss
       << ",\"bytes\":" << gnum(o.bytes)
       << ",\"busy_time\":" << gnum(o.busy_time)
       << ",\"contended_time\":" << gnum(o.contended_time)
       << ",\"peak_jobs\":" << o.peak_jobs
       << ",\"peak_queue\":" << o.peak_queue << ",\"chunks\":" << o.chunks
       << '}';
  }
  os << "],\"oss_links\":[";
  for (std::size_t i = 0; i < io.oss_links.size(); ++i) {
    const OssLinkUsage& o = io.oss_links[i];
    if (i) os << ',';
    os << "{\"oss\":" << o.oss << ",\"bytes\":" << gnum(o.bytes)
       << ",\"busy_time\":" << gnum(o.busy_time)
       << ",\"contended_time\":" << gnum(o.contended_time)
       << ",\"peak_jobs\":" << o.peak_jobs << '}';
  }
  os << "]}";
}

BucketArray world_totals(const WorldProfileResult& p) {
  BucketArray t{};
  for (const RankProfile& r : p.ranks)
    for (int b = 0; b < kBuckets; ++b)
      t[static_cast<std::size_t>(b)] +=
          r.buckets[static_cast<std::size_t>(b)];
  return t;
}

double bucket_sum(const BucketArray& a) {
  double s = 0.0;
  for (const double x : a) s += x;
  return s;
}

}  // namespace

double contention_weight(const WorldSummary& s) noexcept {
  double busy = 0.0;
  double contended = 0.0;
  for (const LinkUsage& l : s.links) {
    if (l.cls >= 6) continue;  // torus classes only (not inj/ej)
    busy += l.busy_time;
    contended += l.contended_time;
  }
  return busy > 0.0 ? contended / busy : 0.0;
}

Attribution attribute(const BucketArray& buckets,
                      double contended_ratio) noexcept {
  Attribution a;
  a.contended_ratio = contended_ratio;
  const double total = bucket_sum(buckets);
  if (total <= 0.0) return a;
  auto get = [&](Bucket b) {
    return buckets[static_cast<std::size_t>(b)];
  };
  const double flow = get(Bucket::kFlow);
  a.compute_score = get(Bucket::kCompute) / total;
  a.injection_score =
      (get(Bucket::kTx) + get(Bucket::kRx) + get(Bucket::kTxWait) +
       get(Bucket::kRxWait) + get(Bucket::kRendezvous) +
       flow * (1.0 - contended_ratio)) /
      total;
  a.contention_score = flow * contended_ratio / total;
  a.wait_score = (get(Bucket::kBlocked) + get(Bucket::kCollective) +
                  get(Bucket::kIdle)) /
                 total;
  const double io_mds = get(Bucket::kIoMds);
  const double io_queue = get(Bucket::kIoQueue);
  const double io_xfer = get(Bucket::kIoXfer);
  a.io_score = (io_mds + io_queue + io_xfer) / total;
  const double scores[] = {a.compute_score, a.injection_score,
                           a.contention_score, a.wait_score, a.io_score};
  int best = 0;
  for (int i = 1; i < 5; ++i)
    if (scores[i] > scores[best]) best = i;
  a.verdict = static_cast<Verdict>(best);
  if (a.verdict == Verdict::kIo) {
    // Subclassify by the dominant io bucket: MDS time means the run is
    // metadata-bound (create/commit serialization), exposed OST queue /
    // lock time means stripe conflicts, raw transfer stays "io-bound".
    if (io_mds >= io_queue && io_mds >= io_xfer)
      a.verdict = Verdict::kIoMeta;
    else if (io_queue >= io_xfer)
      a.verdict = Verdict::kIoStripe;
  }
  return a;
}

Attribution attribute_world(const Session& session,
                            const WorldProfileResult& p) noexcept {
  const WorldSummary* s = summary_for(session, p.world);
  return attribute(world_totals(p), s ? contention_weight(*s) : 0.0);
}

void write_profile(std::ostream& os, const Session& session) {
  os << "{\"xtsim_profile\":1,\"worlds\":[";
  bool first_world = true;
  for (const WorldProfileResult& p : session.profiles()) {
    if (!first_world) os << ',';
    first_world = false;
    const WorldSummary* sum = summary_for(session, p.world);
    const double cw = sum ? contention_weight(*sum) : 0.0;
    const BucketArray totals = world_totals(p);

    os << "{\"world\":" << p.world << ",\"nranks\":" << p.nranks
       << ",\"t_start\":" << gnum(p.t_start)
       << ",\"t_end\":" << gnum(p.t_end) << ",\"wall\":" << gnum(p.wall())
       << ",\"messages\":" << p.messages << ",\"bytes\":" << gnum(p.bytes)
       << ",\"dropped_records\":" << p.dropped_records;

    os << ",\"buckets\":";
    write_buckets(os, totals);
    os << ",\"attribution\":";
    write_attribution(os, attribute(totals, cw));

    os << ",\"ranks\":[";
    for (std::size_t r = 0; r < p.ranks.size(); ++r) {
      if (r) os << ',';
      os << "{\"rank\":" << r << ",\"buckets\":";
      write_buckets(os, p.ranks[r].buckets);
      os << '}';
    }
    os << ']';

    os << ",\"imbalance\":{";
    for (int b = 0; b < kBuckets; ++b) {
      if (b) os << ',';
      os << '"' << kBucketNames[static_cast<std::size_t>(b)] << "\":";
      write_imbalance(os, p.bucket_imbalance[static_cast<std::size_t>(b)]);
    }
    os << "},\"stragglers\":";
    write_ints(os, p.stragglers);

    os << ",\"phases\":[";
    for (std::size_t i = 0; i < p.phases.size(); ++i) {
      const PhaseProfile& ph = p.phases[i];
      if (i) os << ',';
      os << "{\"name\":\"" << json_escape(ph.name) << "\",\"buckets\":";
      write_buckets(os, ph.total);
      os << ",\"attribution\":";
      write_attribution(os, attribute(ph.total, cw));
      os << ",\"time\":";
      write_imbalance(os, ph.time);
      os << ",\"stragglers\":";
      write_ints(os, ph.stragglers);
      os << '}';
    }
    os << ']';

    os << ",\"matrix\":[";
    for (std::size_t i = 0; i < p.matrix.size(); ++i) {
      const MatrixEntry& m = p.matrix[i];
      if (i) os << ',';
      os << "{\"src\":" << m.src << ",\"dst\":" << m.dst
         << ",\"messages\":" << m.messages << ",\"bytes\":" << gnum(m.bytes)
         << ",\"mean_latency\":"
         << gnum(m.messages ? m.latency_sum /
                                  static_cast<double>(m.messages)
                            : 0.0)
         << '}';
    }
    os << ']';

    const CritPath& cp = p.critical_path;
    os << ",\"critical_path\":{\"length\":" << gnum(cp.length)
       << ",\"t_start\":" << gnum(cp.t_start)
       << ",\"t_end\":" << gnum(cp.t_end) << ",\"messages\":" << cp.messages
       << ",\"truncated\":" << (cp.truncated ? "true" : "false")
       << ",\"buckets\":";
    write_buckets(os, cp.buckets);
    os << ",\"ranks\":";
    write_ints(os, cp.ranks);
    os << ",\"links\":[";
    for (std::size_t i = 0; i < cp.links.size(); ++i) {
      const CritLink& l = cp.links[i];
      if (i) os << ',';
      os << "{\"link\":" << l.link << ",\"class\":\""
         << kLinkClassNames[static_cast<std::size_t>(
                l.cls >= 0 && l.cls < kLinkClasses ? l.cls : 0)]
         << "\",\"count\":" << l.count << '}';
    }
    os << "],\"steps\":[";
    for (std::size_t i = 0; i < cp.steps.size(); ++i) {
      const CritStep& st = cp.steps[i];
      if (i) os << ',';
      if (st.kind == CritStep::Kind::kLocal) {
        os << "{\"kind\":\"local\",\"rank\":" << st.rank;
      } else {
        os << "{\"kind\":\"message\",\"src\":" << st.rank
           << ",\"dst\":" << st.other << ",\"bytes\":" << gnum(st.bytes);
      }
      os << ",\"t0\":" << gnum(st.t0) << ",\"t1\":" << gnum(st.t1)
         << ",\"buckets\":";
      write_buckets(os, st.buckets);
      os << '}';
    }
    os << "]}";
    if (const IoSummary* io = io_summary_for(session, p.world)) {
      os << ",\"io\":";
      write_io_summary(os, *io);
    }
    os << '}';
  }
  os << "]}\n";
}

bool write_profile_file(const Session& session, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_profile(os, session);
  return static_cast<bool>(os);
}

std::string profile_table(const Session& session) {
  std::ostringstream os;
  char line[192];
  for (const WorldProfileResult& p : session.profiles()) {
    const WorldSummary* sum = summary_for(session, p.world);
    const double cw = sum ? contention_weight(*sum) : 0.0;
    const BucketArray totals = world_totals(p);
    const double total = bucket_sum(totals);
    const Attribution a = attribute(totals, cw);

    std::snprintf(line, sizeof(line),
                  "world %u: %d ranks, wall %.6es, %llu msgs, %.3e bytes\n",
                  p.world, p.nranks, p.wall(),
                  static_cast<unsigned long long>(p.messages), p.bytes);
    os << line;
    std::snprintf(line, sizeof(line),
                  "  verdict: %s (compute %.1f%%  injection %.1f%%  "
                  "contention %.1f%%  wait %.1f%%  io %.1f%%)\n",
                  std::string(to_string(a.verdict)).c_str(),
                  100.0 * a.compute_score, 100.0 * a.injection_score,
                  100.0 * a.contention_score, 100.0 * a.wait_score,
                  100.0 * a.io_score);
    os << line;

    os << "  bucket        total(s)      share    max/mean  straggler\n";
    for (int b = 0; b < kBuckets; ++b) {
      const auto i = static_cast<std::size_t>(b);
      const Imbalance& im = p.bucket_imbalance[i];
      const double ratio = im.mean > 0.0 ? im.max / im.mean : 0.0;
      std::snprintf(line, sizeof(line),
                    "  %-10s %12.6e  %7.2f%%  %8.2f  %9d\n",
                    std::string(kBucketNames[i]).c_str(), totals[i],
                    total > 0.0 ? 100.0 * totals[i] / total : 0.0, ratio,
                    im.argmax);
      os << line;
    }

    for (const PhaseProfile& ph : p.phases) {
      if (ph.name.empty()) continue;
      const Attribution pa = attribute(ph.total, cw);
      const double skew =
          ph.time.mean > 0.0 ? ph.time.max / ph.time.mean : 0.0;
      std::snprintf(line, sizeof(line),
                    "  phase %-16s %s (skew max/mean %.2f)\n",
                    ph.name.c_str(),
                    std::string(to_string(pa.verdict)).c_str(), skew);
      os << line;
    }

    // Busiest ordered pairs of the communication matrix.
    std::vector<const MatrixEntry*> pairs;
    pairs.reserve(p.matrix.size());
    for (const MatrixEntry& m : p.matrix) pairs.push_back(&m);
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const MatrixEntry* x, const MatrixEntry* y) {
                       return x->bytes > y->bytes;
                     });
    const std::size_t top = std::min<std::size_t>(pairs.size(), 5);
    if (top > 0) os << "  top pairs (src->dst bytes msgs mean-lat):\n";
    for (std::size_t i = 0; i < top; ++i) {
      const MatrixEntry& m = *pairs[i];
      std::snprintf(
          line, sizeof(line), "    %4d->%-4d %12.4e %8llu %12.4e\n",
          m.src, m.dst, m.bytes,
          static_cast<unsigned long long>(m.messages),
          m.messages ? m.latency_sum / static_cast<double>(m.messages)
                     : 0.0);
      os << line;
    }

    const CritPath& cp = p.critical_path;
    std::snprintf(line, sizeof(line),
                  "  critical path: %.6es (%.1f%% of wall), %llu msgs, "
                  "%zu ranks%s\n",
                  cp.length,
                  p.wall() > 0.0 ? 100.0 * cp.length / p.wall() : 0.0,
                  static_cast<unsigned long long>(cp.messages),
                  cp.ranks.size(), cp.truncated ? " [truncated]" : "");
    os << line;
    if (!cp.links.empty()) {
      os << "  critical-path links:";
      const std::size_t ltop = std::min<std::size_t>(cp.links.size(), 5);
      for (std::size_t i = 0; i < ltop; ++i) {
        std::snprintf(
            line, sizeof(line), " %d(%s)x%llu", cp.links[i].link,
            std::string(
                kLinkClassNames[static_cast<std::size_t>(
                    cp.links[i].cls >= 0 && cp.links[i].cls < kLinkClasses
                        ? cp.links[i].cls
                        : 0)])
                .c_str(),
            static_cast<unsigned long long>(cp.links[i].count));
        os << line;
      }
      os << '\n';
    }

    if (const IoSummary* io = io_summary_for(session, p.world)) {
      std::snprintf(line, sizeof(line),
                    "  io: %.3e B written, %.3e B read, mds ops %llu "
                    "(peak queue %d), lock conflicts %llu\n",
                    io->bytes_written, io->bytes_read,
                    static_cast<unsigned long long>(io->mds_ops),
                    io->mds_peak_queue,
                    static_cast<unsigned long long>(io->lock_conflicts));
      os << line;
      std::vector<const OstUsage*> osts;
      osts.reserve(io->osts.size());
      for (const OstUsage& o : io->osts) osts.push_back(&o);
      std::stable_sort(osts.begin(), osts.end(),
                       [](const OstUsage* x, const OstUsage* y) {
                         return x->bytes > y->bytes;
                       });
      const std::size_t otop = std::min<std::size_t>(osts.size(), 5);
      if (otop > 0) os << "  top OSTs (ost/oss bytes busy-s peak q-peak):\n";
      for (std::size_t i = 0; i < otop; ++i) {
        const OstUsage& o = *osts[i];
        std::snprintf(line, sizeof(line),
                      "    %4d/%-3d %12.4e %10.4e %5d %7d\n", o.ost, o.oss,
                      o.bytes, o.busy_time, o.peak_jobs, o.peak_queue);
        os << line;
      }
    }
  }
  if (session.profiles().empty())
    os << "no profiles recorded (was Options::profiling set?)\n";
  return std::move(os).str();
}

}  // namespace xts::obsv
