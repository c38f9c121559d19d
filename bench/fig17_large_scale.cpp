// Figure 17: performance under a realistic workload at scale.
//
// FatTree with 1:1 and 1:2 oversubscription, Poisson flow arrivals with a
// heavy-tailed (websearch) size distribution at average loads of 0.5 / 0.7.
// Reproduces: (a) bandwidth dissatisfaction, (b) tail RTT, (c) FCT slowdown
// avg/stddev, (d) FCT slowdown breakdown by flow size.
//
// Scale note: the paper simulates 512 hosts at 100G in NS3; this bench
// defaults to a k=8 FatTree (128 hosts) at 10G — the contention structure
// (multi-path fabric, oversubscription, heavy-tailed flows) is preserved.
// The sharded engine (UFAB_SHARDS, see DESIGN.md §9) makes that tractable;
// set UFAB_FIG17_K=4 for a quick 16-host run or UFAB_FIG17_K=16 for 1024
// hosts.  UFAB_FIG17_ONLY=<scheme>,<oversub>,<load> restricts the sweep to
// one grid cell (the A/B timing harness in scripts/run_perf.sh uses this).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/experiment.hpp"
#include "src/harness/parallel_sweep.hpp"
#include "src/workload/sources.hpp"

using namespace ufab;
using namespace ufab::time_literals;
using namespace ufab::unit_literals;
using harness::Experiment;
using harness::Scheme;

namespace {

constexpr TimeNs kRun = 80_ms;

struct Outcome {
  double dissatisfaction_pct;
  double rtt_p99_us;
  double slow_avg;
  double slow_std;
  double slow_p99;
  PercentileTracker by_size[4];
};

int fat_tree_k() {
  if (const char* k = std::getenv("UFAB_FIG17_K")) return std::atoi(k);
  return 8;
}

Outcome run(Scheme scheme, int oversub, double load, std::uint64_t seed) {
  const int k = fat_tree_k();
  harness::SchemeOptions sopts;
  // Bursty short-flow workload: deregister idle pairs quickly so transient
  // pairs do not keep reserving subscription on their old links.
  sopts.ufab.idle_finish_timeout = TimeNs{300'000};
  // Tiered propagation: short in-pod fibers, long agg<->core spans — the
  // realistic DC split, chosen so the max base RTT stays exactly at the
  // paper's 24 us (0.5*4 + 5*2 = 12 us one-way).  The long core tier is also
  // what the sharded engine feeds on: partition cuts land on agg<->core, so
  // the epoch lookahead is 5 us instead of the uniform 2 us (DESIGN.md §12).
  topo::FabricOptions base_opts;
  base_opts.prop_delay = TimeNs{500};
  base_opts.core_prop = TimeNs{5'000};
  Experiment exp(
      scheme,
      [k, oversub](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_fat_tree(s, k, oversub, o);
      },
      base_opts, sopts, seed);
  exp.enable_observability(harness::obs_options_from_env());
  auto& fab = exp.fab();
  auto& vms = fab.vms();

  // Four tenants, one VM per host each. Guarantees are scaled by the
  // oversubscription factor so the hose guarantees remain theoretically
  // satisfiable (the paper Silo-checks its workloads the same way): per-host
  // subscription is 8G at 1:1 and 4G at 1:2 (cross-pod capacity halves).
  const double guars[4] = {1.0 / oversub, 2.0 / oversub, 2.0 / oversub, 3.0 / oversub};
  std::vector<VmPairId> pairs;
  Rng pair_rng = fab.rng().fork("pairs");
  const int hosts = static_cast<int>(fab.net().host_count());
  for (int t = 0; t < 4; ++t) {
    const TenantId tid = vms.add_tenant("T" + std::to_string(t), Bandwidth::gbps(guars[t]));
    std::vector<VmId> tvms;
    for (int h = 0; h < hosts; ++h) tvms.push_back(vms.add_vm(tid, HostId{h}));
    // Each VM talks to a handful of random peers (production-like fan-out).
    for (int h = 0; h < hosts; ++h) {
      for (int p = 0; p < 3; ++p) {
        int peer = static_cast<int>(pair_rng.below(static_cast<std::uint64_t>(hosts)));
        if (peer == h) peer = (peer + 1) % hosts;
        pairs.push_back(VmPairId{tvms[static_cast<std::size_t>(h)],
                                 tvms[static_cast<std::size_t>(peer)]});
      }
    }
  }

  workload::PoissonFlowGenerator::Config gcfg;
  gcfg.target_load = load;
  gcfg.stop = kRun;
  workload::PoissonFlowGenerator gen(fab, pairs, workload::EmpiricalSizeDist::websearch(), gcfg,
                                     fab.rng().fork("flows"));
  fab.sim().run_until(kRun + 40_ms);  // drain

  Outcome o;
  o.dissatisfaction_pct = gen.recorder().violation_volume_pct();
  const auto rtt = exp.aggregate_rtt_us();
  o.rtt_p99_us = rtt.empty() ? 0.0 : rtt.percentile(99);
  const auto& slow = gen.recorder().slowdown();
  o.slow_avg = slow.mean();
  o.slow_std = slow.stddev();
  o.slow_p99 = slow.empty() ? 0.0 : slow.percentile(99);
  const std::int64_t bins[5] = {0, 30'000, 300'000, 3'000'000, 1LL << 60};
  for (int b = 0; b < 4; ++b) {
    o.by_size[b] = gen.recorder().slowdown_for_sizes(bins[b], bins[b + 1]);
  }
  harness::write_bench_artifacts(fab, "fig17_large_scale",
                                 std::string(harness::to_string(scheme)) + "-oversub" +
                                     std::to_string(oversub) + "-load" +
                                     std::to_string(static_cast<int>(load * 100)));
  return o;
}

}  // namespace

int main() {
  harness::print_header("Figure 17 — realistic workload on a FatTree (websearch flow sizes)");
  std::printf("%-20s %7s %5s %14s %10s %18s %9s\n", "scheme", "oversub", "load",
              "dissatisfied_%", "RTT_p99us", "slowdown(avg+-std)", "slow_p99");
  // Variants in the serial print order; the sweep may run them on worker
  // threads (UFAB_JOBS), but each owns its Simulator/Rng/metrics so outcomes
  // match a serial run bit for bit, and printing happens here, in order.
  struct Variant {
    int oversub;
    double load;
    Scheme scheme;
  };
  std::vector<Variant> variants;
  for (const int oversub : {2, 1}) {
    for (const double load : {0.5, 0.7}) {
      for (const Scheme s : {Scheme::kPwc, Scheme::kEsClove, Scheme::kUfab}) {
        variants.push_back({oversub, load, s});
      }
    }
  }
  if (const char* only = std::getenv("UFAB_FIG17_ONLY"); only != nullptr && only[0] != '\0') {
    char scheme_name[32] = {0};
    int oversub = 0;
    double load = 0.0;
    if (std::sscanf(only, "%31[^,],%d,%lf", scheme_name, &oversub, &load) != 3) {
      std::fprintf(stderr, "bad UFAB_FIG17_ONLY (want <scheme>,<oversub>,<load>): %s\n", only);
      return 1;
    }
    std::vector<Variant> keep;
    for (const Variant& v : variants) {
      if (std::string(harness::to_string(v.scheme)) == scheme_name && v.oversub == oversub &&
          static_cast<int>(v.load * 100 + 0.5) == static_cast<int>(load * 100 + 0.5)) {
        keep.push_back(v);
      }
    }
    if (keep.empty()) {
      std::fprintf(stderr, "UFAB_FIG17_ONLY matches no grid cell: %s\n", only);
      return 1;
    }
    variants = keep;
  }
  const std::vector<Outcome> outcomes = harness::parallel_sweep<Outcome>(
      static_cast<int>(variants.size()), [&variants](int i) {
        const Variant& v = variants[static_cast<std::size_t>(i)];
        return run(v.scheme, v.oversub, v.load, 41);
      });
  std::vector<std::pair<Scheme, Outcome>> breakdown;  // saved from the (1:1, 0.7) cells
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    Outcome o = outcomes[i];
    std::printf("%-20s %7s %5.1f %14.1f %10.1f %10.1f+-%5.1f %9.1f\n",
                harness::to_string(v.scheme), v.oversub == 1 ? "1:1" : "1:2", v.load,
                o.dissatisfaction_pct, o.rtt_p99_us, o.slow_avg, o.slow_std, o.slow_p99);
    if (v.oversub == 1 && v.load == 0.7) breakdown.emplace_back(v.scheme, std::move(o));
  }
  // (d) FCT breakdown by flow size, 1:1 oversubscription at load 0.7 (absent
  // when a UFAB_FIG17_ONLY filter excludes those cells).
  if (!breakdown.empty()) {
    std::printf("\nFCT slowdown by flow size (1:1, load 0.7):\n");
    std::printf("%-20s %16s %16s %16s %16s\n", "scheme", "<30KB", "30-300KB", "0.3-3MB", ">3MB");
    for (const auto& [scheme, o] : breakdown) {
      std::printf("%-20s", harness::to_string(scheme));
      for (int b = 0; b < 4; ++b) {
        if (o.by_size[b].empty()) {
          std::printf(" %16s", "-");
        } else {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.1f/%.1f", o.by_size[b].mean(),
                        o.by_size[b].percentile(99));
          std::printf(" %16s", buf);
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected shape: uFAB has the lowest dissatisfaction and tail RTT at every\n"
      "(oversubscription, load) point, and the flattest slowdown across sizes;\n"
      "ES+Clove beats PWC on dissatisfaction but pays in tail RTT. Cells are\n"
      "avg/p99 slowdown.\n");
  return 0;
}
