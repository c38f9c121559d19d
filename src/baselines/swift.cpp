#include "src/baselines/swift.hpp"

#include <algorithm>

namespace ufab::baselines {

void SwiftCc::on_ack(TimeNs rtt, std::int32_t acked_bytes, TimeNs now) {
  const TimeNs target = target_delay();
  if (rtt <= target) {
    // Weighted additive increase, spread across the ACKs of one window.
    const double ai_bytes = cfg_.additive_increase_mss * weight_ * cfg_.mss_bytes;
    cwnd_ += ai_bytes * static_cast<double>(acked_bytes) / std::max(cwnd_, 1.0);
  } else if (!last_decrease_ || now - *last_decrease_ >= rtt) {
    const double over =
        static_cast<double>((rtt - target).ns()) / static_cast<double>(rtt.ns());
    const double factor = std::max(1.0 - cfg_.beta * over, 1.0 - cfg_.max_mdf);
    cwnd_ *= factor;
    last_decrease_ = now;
  }
  clamp();
}

void SwiftCc::clamp() {
  cwnd_ = std::clamp(cwnd_, cfg_.min_cwnd_mss * cfg_.mss_bytes,
                     cfg_.max_cwnd_mss * cfg_.mss_bytes);
}

}  // namespace ufab::baselines
