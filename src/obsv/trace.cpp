#include "obsv/trace.hpp"

#include <algorithm>

namespace xts::obsv {

std::string_view cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::kMessage: return "msg";
    case Cat::kCollective: return "coll";
    case Cat::kPhase: return "phase";
    case Cat::kCompute: return "compute";
    case Cat::kNetwork: return "net";
    case Cat::kEngine: return "engine";
    case Cat::kIo: return "io";
  }
  return "?";
}

TraceSink::TraceSink(std::size_t capacity)
    : cap_(std::max<std::size_t>(capacity, 1)) {
  names_.emplace_back();  // name id 0 = the empty name
  name_ids_.emplace(std::string{}, 0U);
}

std::uint32_t TraceSink::intern(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& TraceSink::name(std::uint32_t id) const {
  return names_.at(id);
}

void TraceSink::emit(const TraceEvent& e) {
  if (ring_.size() == cap_) {
    ring_[head_] = e;
    head_ = (head_ + 1) % cap_;
    ++dropped_;
    return;
  }
  // Grow geometrically, never past cap_ (std::vector's own growth
  // would overshoot it).
  if (ring_.size() == ring_.capacity())
    ring_.reserve(std::min(cap_, std::max<std::size_t>(2 * ring_.size(), 64)));
  ring_.push_back(e);
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void TraceSink::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace xts::obsv
