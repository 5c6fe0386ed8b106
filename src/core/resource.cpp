#include "core/resource.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xts {

namespace {
// Jobs whose remaining work is below what the server delivers in
// `completion_time_eps(now)` seconds are complete.  A fixed absolute
// epsilon is not enough twice over: settle() leaves O(1 ulp) residues
// proportional to the job size, and late in a long simulation the
// clock itself cannot represent increments below ulp(now) — an event
// scheduled at now + dt with dt < ulp(now) fires at `now` again and
// livelocks the loop.  The threshold therefore tracks the clock's
// resolution at the current simulated time.
constexpr double kTimeEps = 1e-12;

double completion_time_eps(double now) {
  const double ulp =
      std::nextafter(now, std::numeric_limits<double>::infinity()) - now;
  return std::max(kTimeEps, 4.0 * ulp);
}
}  // namespace

SharedServer::SharedServer(Engine& engine, double capacity, std::string name,
                           double per_job_cap)
    : engine_(engine),
      capacity_(capacity),
      per_job_cap_(per_job_cap > 0.0 ? per_job_cap : capacity),
      name_(std::move(name)) {
  if (capacity <= 0.0)
    throw UsageError("SharedServer: capacity must be positive");
  if (per_job_cap < 0.0)
    throw UsageError("SharedServer: negative per-job cap");
  last_settle_ = engine_.now();
}

double SharedServer::rate() const noexcept {
  if (jobs_.empty()) return per_job_cap_;
  return std::min(capacity_ / static_cast<double>(jobs_.size()),
                  per_job_cap_);
}

SimFutureV SharedServer::consume(double amount) {
  if (amount < 0.0) throw UsageError("SharedServer::consume: negative amount");
  SimPromiseV promise(engine_);
  auto future = promise.future();
  if (amount == 0.0) {
    promise.set_value(Done{});
    return future;
  }
  settle();
  jobs_.push_back(Job{amount, std::move(promise)});
  peak_jobs_ = std::max(peak_jobs_, jobs_.size());
  schedule_next();
  return future;
}

void SharedServer::settle() {
  const SimTime now = engine_.now();
  const SimTime dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0 || jobs_.empty()) return;
  // The job set is constant over [last settle, now], so the interval is
  // wholly busy — and wholly contended when the capacity was shared.
  busy_time_ += dt;
  if (jobs_.size() >= 2) contended_time_ += dt;
  const double served = dt * rate();
  for (auto& job : jobs_) {
    const double d = std::min(job.remaining, served);
    job.remaining -= d;
    total_served_ += d;
  }
}

void SharedServer::schedule_next() {
  ++epoch_;
  if (jobs_.empty()) return;
  double min_remaining = std::numeric_limits<double>::max();
  for (const auto& job : jobs_)
    min_remaining = std::min(min_remaining, job.remaining);
  const SimTime dt = std::max(0.0, min_remaining / rate());
  const std::uint64_t epoch = epoch_;
  engine_.schedule_after(dt, [this, epoch] { on_completion(epoch); });
}

void SharedServer::on_completion(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // superseded by a later add/remove
  settle();
  // Complete all finished jobs (several can finish at the same instant).
  const double threshold = rate() * completion_time_eps(engine_.now());
  std::vector<SimPromiseV> done;
  auto it = jobs_.begin();
  while (it != jobs_.end()) {
    if (it->remaining <= threshold) {
      total_served_ += it->remaining;  // absorb residue into the ledger
      it->remaining = 0.0;
      done.push_back(std::move(it->promise));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  schedule_next();
  for (auto& p : done) p.set_value(Done{});
}

FifoResource::FifoResource(Engine& engine, int slots)
    : engine_(engine), slots_(slots) {
  if (slots < 1) throw UsageError("FifoResource: need at least one slot");
}

SimFutureV FifoResource::acquire() {
  SimPromiseV promise(engine_);
  auto future = promise.future();
  if (held_ < slots_) {
    ++held_;
    promise.set_value(Done{});
  } else {
    waiters_.push_back(std::move(promise));
  }
  return future;
}

void FifoResource::release() {
  if (held_ == 0) throw UsageError("FifoResource::release: not held");
  if (waiters_.empty()) {
    --held_;
    return;
  }
  auto next = std::move(waiters_.front());
  waiters_.pop_front();
  next.set_value(Done{});  // held_ unchanged: the slot transfers
}

}  // namespace xts
