#pragma once

/// \file torus.hpp
/// 3D torus topology with minimal dimension-ordered routing — the
/// SeaStar network of the XT3/XT4 (§2 of the paper).
///
/// Links are directed.  Each node owns 6 torus links (3 dimensions x 2
/// directions) plus one injection and one ejection "link" modelling the
/// HyperTransport/NIC path; including injection in the routed path is
/// what makes ping-pong bandwidth injection-limited (Fig 3) while
/// PTRANS stays link-limited (Fig 10).

#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace xts::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

/// A route as a link sequence: injection, torus hops, ejection.
using Route = std::vector<LinkId>;

struct Coord {
  int x = 0, y = 0, z = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

struct TorusDims {
  int x = 1, y = 1, z = 1;
  [[nodiscard]] int count() const noexcept { return x * y * z; }
};

class Torus3D {
 public:
  explicit Torus3D(TorusDims dims);

  /// Smallest near-cubic torus holding at least `min_nodes` nodes.
  [[nodiscard]] static TorusDims choose_dims(int min_nodes);

  [[nodiscard]] int node_count() const noexcept { return dims_.count(); }
  [[nodiscard]] const TorusDims& dims() const noexcept { return dims_; }

  [[nodiscard]] Coord coord_of(NodeId id) const;
  [[nodiscard]] NodeId id_of(const Coord& c) const;

  /// Number of directed torus links (6 per node).
  [[nodiscard]] int torus_link_count() const noexcept {
    return 6 * node_count();
  }
  /// Total links including per-node injection and ejection.
  [[nodiscard]] int total_link_count() const noexcept {
    return 8 * node_count();
  }

  /// Directed torus link leaving `node` along dimension `dim` (0..2) in
  /// direction `dir` (0 = negative, 1 = positive).
  [[nodiscard]] LinkId torus_link(NodeId node, int dim, int dir) const;
  [[nodiscard]] LinkId injection_link(NodeId node) const;
  [[nodiscard]] LinkId ejection_link(NodeId node) const;
  [[nodiscard]] bool is_torus_link(LinkId link) const noexcept {
    return link < torus_link_count();
  }

  /// Minimal dimension-ordered route src -> dst into \p out (cleared
  /// first): injection link, torus links (shorter way around each ring,
  /// positive on ties), ejection link.  src == dst is a caller error
  /// (intra-node traffic never reaches the network).
  void route_into(NodeId src, NodeId dst, Route& out) const;

  /// Torus hop count of the minimal route (excludes injection/ejection).
  [[nodiscard]] int hop_count(NodeId src, NodeId dst) const;

 private:
  void check_node(NodeId id) const;
  TorusDims dims_;
};

}  // namespace xts::net
