#pragma once

/// \file route_cache.hpp
/// LRU cache of dimension-ordered routes keyed on (src, dst).
///
/// Lock-step collective rounds re-derive the same routes every round
/// (an allreduce step sends along the identical pairs each iteration);
/// caching them turns the per-message route derivation into a hash
/// probe.  Entries live in a fixed slab allocated up front, threaded
/// onto an intrusive MRU..LRU list, so a hit does no allocation and an
/// insert at capacity recycles the coldest slot in place.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "network/torus.hpp"

namespace xts::net {

class RouteCache {
 public:
  explicit RouteCache(std::size_t capacity) : capacity_(capacity) {
    nodes_.reserve(capacity_);
    index_.reserve(capacity_ * 2);
  }

  /// Copy the cached route for (src, dst) into \p out; returns false on
  /// miss.  A hit promotes the entry to most-recently-used.
  bool lookup(NodeId src, NodeId dst, Route& out) {
    const auto it = index_.find(key(src, dst));
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    touch(it->second);
    out = nodes_[it->second].route;
    return true;
  }

  /// Insert a freshly derived route, evicting the LRU entry at capacity.
  void insert(NodeId src, NodeId dst, const Route& route) {
    const std::uint64_t k = key(src, dst);
    if (nodes_.size() < capacity_) {
      const auto slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{k, route, kNull, head_});
      if (head_ != kNull) nodes_[head_].prev = slot;
      head_ = slot;
      if (tail_ == kNull) tail_ = slot;
      index_.emplace(k, slot);
      return;
    }
    const std::uint32_t slot = tail_;  // recycle the coldest entry
    ++evictions_;
    index_.erase(nodes_[slot].key);
    nodes_[slot].key = k;
    nodes_[slot].route = route;
    index_.emplace(k, slot);
    touch(slot);
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }

 private:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  static std::uint64_t key(NodeId src, NodeId dst) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }

  struct Node {
    std::uint64_t key = 0;
    Route route;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
  };

  void touch(std::uint32_t slot) {
    if (head_ == slot) return;
    Node& n = nodes_[slot];
    if (n.prev != kNull) nodes_[n.prev].next = n.next;
    if (n.next != kNull) nodes_[n.next].prev = n.prev;
    if (tail_ == slot) tail_ = n.prev;
    n.prev = kNull;
    n.next = head_;
    if (head_ != kNull) nodes_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNull) tail_ = slot;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::uint32_t head_ = kNull;
  std::uint32_t tail_ = kNull;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace xts::net
