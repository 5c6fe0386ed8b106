#pragma once

/// \file reference_model.hpp
/// Reference fluid model of the flow network, for differential tests.
///
/// FlowNetwork re-rates only the flows a change reaches, settles
/// progress lazily per flow and predicts completions from a heap.  This
/// model does none of that.  It steps from event to event (an arrival
/// or a drain), recomputes every active flow's rate from scratch, and
/// advances all flows together.  It shares no code with FlowNetwork:
/// it uses only Torus3D::route_into, the two capacities and the
/// fairness policy, so agreement between the two checks FlowNetwork's
/// bookkeeping against the sharing model it is meant to implement.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "network/flow_network.hpp"
#include "network/torus.hpp"

namespace xts::net::reference {

struct Flow {
  SimTime start = 0.0;
  NodeId src = 0;
  NodeId dst = 0;
  double bytes = 0.0;
};

/// Completion time of each flow, in input order.  Torus links carry
/// `link_bw`; injection and ejection links carry `injection_bw`.
inline std::vector<SimTime> completion_times(const Torus3D& topo,
                                             double link_bw,
                                             double injection_bw,
                                             Fairness fairness,
                                             const std::vector<Flow>& flows) {
  const std::size_t n = flows.size();
  const auto nlinks = static_cast<std::size_t>(topo.total_link_count());
  std::vector<double> cap(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l)
    cap[l] = topo.is_torus_link(static_cast<LinkId>(l)) ? link_bw
                                                         : injection_bw;
  std::vector<Route> routes(n);
  for (std::size_t i = 0; i < n; ++i)
    topo.route_into(flows[i].src, flows[i].dst, routes[i]);
  std::vector<std::size_t> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), std::size_t{0});
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flows[a].start < flows[b].start;
                   });

  std::vector<SimTime> done(n, -1.0);
  std::vector<double> remaining(n, 0.0);
  std::vector<double> rate(n, 0.0);
  std::vector<std::size_t> active;
  std::vector<int> load(nlinks);
  std::vector<double> residual(nlinks);
  std::vector<char> tight(nlinks);
  std::size_t next = 0;
  SimTime now = 0.0;
  while (next < n || !active.empty()) {
    // Admit arrivals (a zero-byte transfer completes on arrival).
    if (active.empty()) now = std::max(now, flows[arrivals[next]].start);
    while (next < n && flows[arrivals[next]].start <= now) {
      const std::size_t i = arrivals[next++];
      remaining[i] = flows[i].bytes;
      if (remaining[i] > 0.0) active.push_back(i);
      else done[i] = now;
    }
    if (active.empty()) continue;

    // Rates from scratch.
    std::fill(load.begin(), load.end(), 0);
    for (const std::size_t i : active)
      for (const LinkId l : routes[i]) ++load[static_cast<std::size_t>(l)];
    if (fairness == Fairness::kMinShare) {
      for (const std::size_t i : active) {
        rate[i] = std::numeric_limits<double>::infinity();
        for (const LinkId l : routes[i]) {
          const auto li = static_cast<std::size_t>(l);
          rate[i] = std::min(rate[i], cap[li] / load[li]);
        }
      }
    } else {
      // Global progressive filling: raise every unfrozen flow together
      // until some link saturates, freeze the flows crossing it, repeat.
      residual = cap;
      std::vector<std::size_t> unfrozen = active;
      while (!unfrozen.empty()) {
        double share = std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < nlinks; ++l)
          if (load[l] > 0) share = std::min(share, residual[l] / load[l]);
        for (std::size_t l = 0; l < nlinks; ++l)
          tight[l] = load[l] > 0 && residual[l] / load[l] <=
                                         share * (1.0 + 1e-12);
        std::vector<std::size_t> still;
        for (const std::size_t i : unfrozen) {
          const bool frozen =
              std::any_of(routes[i].begin(), routes[i].end(),
                          [&](LinkId l) {
                            return tight[static_cast<std::size_t>(l)] != 0;
                          });
          if (!frozen) {
            still.push_back(i);
            continue;
          }
          rate[i] = share;
          for (const LinkId l : routes[i]) {
            residual[static_cast<std::size_t>(l)] -= share;
            --load[static_cast<std::size_t>(l)];
          }
        }
        unfrozen.swap(still);
      }
    }

    // Advance to the next drain or arrival, whichever comes first.
    SimTime until = std::numeric_limits<double>::infinity();
    for (const std::size_t i : active)
      until = std::min(until, now + remaining[i] / rate[i]);
    if (next < n) until = std::min(until, flows[arrivals[next]].start);
    for (const std::size_t i : active)
      remaining[i] -= std::min(remaining[i], rate[i] * (until - now));
    now = until;

    // Retire drained flows, with FlowNetwork's completion epsilon.
    const double eps = std::max(
        1e-12,
        4.0 * (std::nextafter(now, std::numeric_limits<double>::infinity()) -
               now));
    std::erase_if(active, [&](std::size_t i) {
      if (remaining[i] > rate[i] * eps) return false;
      done[i] = now;
      return true;
    });
  }
  return done;
}

}  // namespace xts::net::reference
