#include "network/torus.hpp"

#include <cmath>
#include <string>

namespace xts::net {

Torus3D::Torus3D(TorusDims dims) : dims_(dims) {
  if (dims.x < 1 || dims.y < 1 || dims.z < 1)
    throw UsageError("Torus3D: dimensions must be >= 1");
}

TorusDims Torus3D::choose_dims(int min_nodes) {
  if (min_nodes < 1) throw UsageError("Torus3D: need at least one node");
  // Near-cubic: grow dimensions round-robin (z fastest) until count fits.
  TorusDims d{1, 1, 1};
  int* order[3] = {&d.z, &d.y, &d.x};
  int i = 0;
  while (d.count() < min_nodes) {
    ++(*order[i % 3]);
    ++i;
  }
  return d;
}

void Torus3D::check_node(NodeId id) const {
  if (id < 0 || id >= node_count())
    throw UsageError("Torus3D: node id " + std::to_string(id) +
                     " out of range");
}

Coord Torus3D::coord_of(NodeId id) const {
  check_node(id);
  Coord c;
  c.z = id % dims_.z;
  c.y = (id / dims_.z) % dims_.y;
  c.x = id / (dims_.z * dims_.y);
  return c;
}

NodeId Torus3D::id_of(const Coord& c) const {
  if (c.x < 0 || c.x >= dims_.x || c.y < 0 || c.y >= dims_.y || c.z < 0 ||
      c.z >= dims_.z)
    throw UsageError("Torus3D: coordinate out of range");
  return (c.x * dims_.y + c.y) * dims_.z + c.z;
}

LinkId Torus3D::torus_link(NodeId node, int dim, int dir) const {
  check_node(node);
  if (dim < 0 || dim > 2 || dir < 0 || dir > 1)
    throw UsageError("Torus3D: bad link spec");
  return (node * 3 + dim) * 2 + dir;
}

LinkId Torus3D::injection_link(NodeId node) const {
  check_node(node);
  return torus_link_count() + node;
}

LinkId Torus3D::ejection_link(NodeId node) const {
  check_node(node);
  return torus_link_count() + node_count() + node;
}

namespace {
/// Signed minimal displacement from a to b on a ring of size n
/// (positive on ties).
int ring_delta(int a, int b, int n) {
  int fwd = (b - a + n) % n;
  const int bwd = fwd - n;  // negative way around
  return (fwd <= -bwd) ? fwd : bwd;
}
}  // namespace

void Torus3D::route_into(NodeId src, NodeId dst, Route& out) const {
  check_node(src);
  check_node(dst);
  if (src == dst)
    throw UsageError("Torus3D::route_into: src == dst (use the memory path)");

  out.clear();
  out.push_back(torus_link_count() + src);  // injection link

  Coord cur = coord_of(src);
  const Coord goal = coord_of(dst);
  const int sizes[3] = {dims_.x, dims_.y, dims_.z};
  int* cur_axis[3] = {&cur.x, &cur.y, &cur.z};
  const int goal_axis[3] = {goal.x, goal.y, goal.z};
  // Per-hop node-id increment along each dimension (row-major x,y,z).
  const NodeId strides[3] = {static_cast<NodeId>(dims_.y * dims_.z),
                             static_cast<NodeId>(dims_.z), 1};
  NodeId cur_id = src;

  for (int dim = 0; dim < 3; ++dim) {
    int delta = ring_delta(*cur_axis[dim], goal_axis[dim], sizes[dim]);
    const int dir = delta >= 0 ? 1 : 0;
    const int step = delta >= 0 ? 1 : -1;
    while (delta != 0) {
      out.push_back((cur_id * 3 + dim) * 2 + dir);
      const int before = *cur_axis[dim];
      *cur_axis[dim] = (before + step + sizes[dim]) % sizes[dim];
      cur_id += static_cast<NodeId>(*cur_axis[dim] - before) * strides[dim];
      delta -= step;
    }
  }
  out.push_back(torus_link_count() + node_count() + dst);  // ejection link
}

int Torus3D::hop_count(NodeId src, NodeId dst) const {
  check_node(src);
  check_node(dst);
  if (src == dst) return 0;
  const Coord a = coord_of(src);
  const Coord b = coord_of(dst);
  return std::abs(ring_delta(a.x, b.x, dims_.x)) +
         std::abs(ring_delta(a.y, b.y, dims_.y)) +
         std::abs(ring_delta(a.z, b.z, dims_.z));
}

}  // namespace xts::net
