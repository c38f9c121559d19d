// Swift delay-based congestion control (Kumar et al., SIGCOMM'20), used as
// the basis of the Weighted Congestion Control (WCC) fabric in the paper's
// PicNIC'+WCC+Clove composite (§2.2).
//
// Per-ACK: if the measured delay is below target, additively grow the window
// (one weighted MSS per RTT); above target, multiplicatively decrease
// proportional to the overshoot, at most once per RTT — the measured RTT, as
// in Swift's Algorithm 1.  (Gating on the base RTT instead lets a loaded flow
// cut several times per round trip, and a flow with a dense ACK stream more
// often than a sparse one, which squeezes weighted shares toward equal.)
// Seawall-style
// weighting scales the additive increment so steady-state throughput is
// roughly proportional to the per-source weight — and is exactly why these
// schemes converge in tens of milliseconds rather than sub-millisecond.
#pragma once

#include <cstdint>
#include <optional>

#include "src/core/time.hpp"

namespace ufab::baselines {

struct SwiftConfig {
  /// Queueing-delay budget added to the base RTT to form the target delay.
  TimeNs target_slack = TimeNs{20'000};  // 20 us
  double additive_increase_mss = 1.0;    ///< MSS per RTT at weight 1.
  double beta = 0.8;                     ///< Multiplicative-decrease gain.
  double max_mdf = 0.5;                  ///< Max decrease per RTT.
  std::int32_t mss_bytes = 1500;
  double min_cwnd_mss = 1.0;
  double max_cwnd_mss = 512.0;
  /// Initial window, ~1 BDP at testbed scale: flows start greedy and evolve
  /// down — the burst behaviour Case-1 (Fig. 4) attributes to conventional
  /// congestion control.
  double initial_cwnd_mss = 20.0;
};

class SwiftCc {
 public:
  SwiftCc(SwiftConfig cfg, TimeNs base_rtt, double weight)
      : cfg_(cfg), base_rtt_(base_rtt), weight_(weight),
        cwnd_(cfg.initial_cwnd_mss * cfg.mss_bytes) {}

  /// Feed one ACK's RTT sample.
  void on_ack(TimeNs rtt, std::int32_t acked_bytes, TimeNs now);

  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] TimeNs target_delay() const { return base_rtt_ + cfg_.target_slack; }
  void set_weight(double weight) { weight_ = weight; }
  [[nodiscard]] double weight() const { return weight_; }

 private:
  void clamp();

  SwiftConfig cfg_;
  TimeNs base_rtt_;
  double weight_;
  double cwnd_;
  std::optional<TimeNs> last_decrease_;  ///< Unset until the first cut.
};

}  // namespace ufab::baselines
