#include "obsv/metrics.hpp"

namespace xts::obsv {

namespace {

template <typename Families>
auto& slot(Families& families, std::string_view family,
           std::string_view label) {
  auto fit = families.find(family);
  if (fit == families.end())
    fit = families.emplace(std::string(family),
                           typename Families::mapped_type{})
              .first;
  auto& fam = fit->second;
  auto it = fam.find(label);
  if (it == fam.end())
    it = fam.emplace(std::string(label),
                     typename Families::mapped_type::mapped_type{})
             .first;
  return it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view family, std::string_view label) {
  return slot(counters_, family, label);
}

Histogram& Registry::histogram(std::string_view family,
                               std::string_view label) {
  return slot(histograms_, family, label);
}

double Registry::counter_total(std::string_view family) const {
  const auto fit = counters_.find(family);
  if (fit == counters_.end()) return 0.0;
  double sum = 0.0;
  for (const auto& [label, c] : fit->second) sum += c.value();
  return sum;
}

std::size_t Registry::counter_labels(std::string_view family) const {
  const auto fit = counters_.find(family);
  return fit == counters_.end() ? 0 : fit->second.size();
}

void Registry::merge(const Registry& o) {
  for (const auto& [family, labels] : o.counters_)
    for (const auto& [label, c] : labels) counter(family, label).merge(c);
  for (const auto& [family, labels] : o.histograms_)
    for (const auto& [label, h] : labels) histogram(family, label).merge(h);
}

void Registry::clear() {
  counters_.clear();
  histograms_.clear();
}

}  // namespace xts::obsv
