#include "core/hostcc.hpp"

#include <algorithm>

namespace hostnet::hostcc {

void HostCongestionController::sample_latency() {
  auto& st = iio_.write_station();
  const double sum = st.mean_latency_ns() * static_cast<double>(st.completions());
  const std::uint64_t n = st.completions();
  if (n > st_.prev_completions) {
    st_.last_latency_ns =
        (sum - st_.prev_latency_sum) / static_cast<double>(n - st_.prev_completions);
  }
  // A counter reset (new measurement window) rewinds the totals.
  if (n < st_.prev_completions || sum < st_.prev_latency_sum) st_.last_latency_ns = 0.0;
  st_.prev_latency_sum = sum;
  st_.prev_completions = n;
}

void HostCongestionController::apply() {
  const Tick now = sim_.now();
  st_.throttle_integral += st_.throttle * static_cast<double>(now - st_.last_change);
  st_.last_change = now;

  if (st_.throttle <= 0.0) {
    for (auto& c : cores_) c->set_paused(false);
    return;
  }
  // Duty cycle: pause all C2M cores for throttle x interval, then resume.
  for (auto& c : cores_) c->set_paused(true);
  const auto pause = static_cast<Tick>(st_.throttle * static_cast<double>(cfg_.interval));
  sim_.schedule(pause, [this] {
    for (auto& c : cores_) c->set_paused(false);
  });
}

void HostCongestionController::tick() {
  sample_latency();
  if (st_.last_latency_ns > cfg_.target_p2m_latency_ns) {
    st_.throttle = std::min(cfg_.max_throttle, st_.throttle + cfg_.step);
  } else {
    st_.throttle = std::max(0.0, st_.throttle - cfg_.step / 2.0);
  }
  apply();
  sim_.schedule(cfg_.interval, [this] { tick(); });
}

double HostCongestionController::avg_throttle(Tick now) const {
  const Tick dt = now - st_.window_start;
  if (dt <= 0) return st_.throttle;
  return (st_.throttle_integral + st_.throttle * static_cast<double>(now - st_.last_change)) /
         static_cast<double>(dt);
}

}  // namespace hostnet::hostcc
