// One sample of one benchmark workload, measured from outside the library.
//
// Usage:
//   ufab_perfbench --workload <name> --seed <n> --out-dir <dir> [--trace 0|1]
//
// Workloads (README.md gives the reason for each):
//   websearch_serial      fig17 uFAB cell, k=4 FatTree 1:2, load 0.5, default engine
//   websearch_sharded     the same cell in canonical mode, 4 shards on threads
//   websearch_canonical1  the same cell in canonical mode, 1 shard (reference
//                         for the sharded digest; not a measured workload)
//   rpc_testbed           fig13 high-load uFAB cell: Memcached under MongoDB
//
// Every layer is timed by a span around the public call that enters it; the
// spans are kept in memory and, with --trace 1, written to
// <out-dir>/<workload>.seed<n>.spans.json at exit together with the engine
// profiler's profile_json().  --trace 1 also attaches the profiler (level 2).
// The sample prints one JSON object on stdout: timings, layer counts, the
// simulated outcome with its digest, the sample's own correctness checks, and
// the time of a fixed calibration kernel run after the sample (see
// calibration_seconds()).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/harness/fabric.hpp"
#include "src/harness/schemes.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"
#include "src/workload/apps.hpp"
#include "src/workload/sources.hpp"

using namespace ufab;
using namespace ufab::time_literals;
using namespace ufab::unit_literals;

namespace {

// --- workload shapes -------------------------------------------------------
// Horizons are shorter than the figure benches' so that one sample takes
// about a second and a run holds enough samples for a steady median; the
// cells themselves (topology, scheme, load, sizes, client counts) are the
// figure benches'.
constexpr int kFatTreeK = 4;
constexpr int kOversub = 2;
constexpr double kLoad = 0.5;
constexpr TimeNs kWebsearchTraffic = 16_ms;
constexpr TimeNs kWebsearchDrain = 8_ms;
constexpr int kShards = 4;

constexpr TimeNs kRpcTraffic = 20_ms;
constexpr TimeNs kRpcDrain = 4_ms;
constexpr TimeNs kRpcMeasureFrom = 5_ms;


// --- spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< Index into the span list, -1 for a root.
};

/// In-memory span recorder: nested begin/end pairs around the calls into
/// each layer.  Written out once, at exit.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  class [[nodiscard]] Scope {
   public:
    Scope(Tracer& tr, std::string name) : tr_(tr), idx_(tr.begin(std::move(name))) {}
    ~Scope() { tr_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tr_;
    int idx_;
  };

  [[nodiscard]] double seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
    return total;
  }

  void write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"schema\":\"ufab-perfbench-spans-v1\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << "}";
    }
    os << "]}\n";
  }

 private:
  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now_ns(), -1, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- outcome digest --------------------------------------------------------

/// FNV-1a over the simulated outputs; equal digests mean equal outcomes.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add_bytes(&v, sizeof(v)); }
  void add(double v) { add_bytes(&v, sizeof(v)); }
  void add(const std::vector<double>& vs) {
    add(static_cast<std::int64_t>(vs.size()));
    for (const double v : vs) add(v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- the sample's record ---------------------------------------------------

struct Sample {
  std::map<std::string, double> timings;  ///< Host seconds per layer call.
  std::map<std::string, double> counts;   ///< Layer counts (repeat exactly).
  std::map<std::string, double> prof;     ///< Engine profiler (traced only).
  std::map<std::string, double> outcome;  ///< Simulated results (not ranked).
  std::string digest;
  std::vector<std::pair<std::string, bool>> checks;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double link_gbit = 0.0;  ///< Simulated Gbit serialised onto links.
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string out_dir = ".";
  bool trace = false;
};

[[nodiscard]] std::string artifact(const Args& a, const char* suffix) {
  return a.out_dir + "/" + a.workload + ".seed" + std::to_string(a.seed) + suffix;
}

// Counts every fabric-backed workload reads through the layers' getters.
void read_fabric_counts(harness::Fabric& fab, Sample& out, Digest& dig) {
  sim::Simulator& sim = fab.sim();
  std::int64_t tx_bytes = 0;
  std::int64_t drops = 0;
  for (const sim::Link* l : fab.net().links()) {
    tx_bytes += l->tx_bytes_cum();
    drops += l->drops() + l->fault_drops();
    dig.add(l->tx_bytes_cum());
    dig.add(l->drops());
  }
  for (const sim::Switch* sw : fab.net().switches()) drops += sw->no_route_drops();
  std::uint64_t pool_hwm = 0;
  for (int s = 0; s < sim.shard_count(); ++s) pool_hwm += sim.shard_pool(s).in_use_high_water();
  out.link_gbit = static_cast<double>(tx_bytes) * 8.0 / 1e9;
  out.counts["sim.events"] = static_cast<double>(sim.events_processed());
  out.counts["sim.pending_end"] = static_cast<double>(sim.pending());
  out.counts["sim.link_gbit"] = out.link_gbit;
  out.counts["sim.drops"] = static_cast<double>(drops);
  out.counts["sim.pool_hwm"] = static_cast<double>(pool_hwm);
  dig.add(drops);

  std::int64_t fp = 0;
  std::int64_t suppressed = 0;
  for (const auto& a : fab.core_agents()) {
    fp += a->false_positive_omissions();
    suppressed += a->suppressed_records();
  }
  out.counts["telemetry.fp_omissions"] = static_cast<double>(fp);
  out.counts["telemetry.suppressed_records"] = static_cast<double>(suppressed);

  std::int64_t probes = 0;
  std::int64_t probe_bytes = 0;
  std::int64_t migrations = 0;
  std::int64_t timeouts = 0;
  std::int64_t retx = 0;
  std::uint64_t rtt_samples = 0;
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    auto& agent = fab.stack_as<edge::EdgeAgent>(HostId{static_cast<std::int32_t>(h)});
    probes += agent.probes_sent();
    probe_bytes += agent.probe_bytes_sent();
    migrations += agent.migrations();
    timeouts += agent.probe_timeouts();
    retx += agent.retransmits();
    rtt_samples += agent.rtt_sample_count();
  }
  out.counts["ufab.probes_sent"] = static_cast<double>(probes);
  out.counts["ufab.probe_byte_frac"] =
      tx_bytes > 0 ? static_cast<double>(probe_bytes) / static_cast<double>(tx_bytes) : 0.0;
  out.counts["ufab.migrations"] = static_cast<double>(migrations);
  out.counts["ufab.probe_timeouts"] = static_cast<double>(timeouts);
  out.counts["transport.retransmits"] = static_cast<double>(retx);
  out.counts["transport.rtt_samples"] = static_cast<double>(rtt_samples);
  dig.add(probes);
  dig.add(migrations);
  dig.add(retx);

  if (sim.shard_count() > 1) {
    std::uint64_t crossings = 0;
    std::int64_t barrier_ns = 0;
    std::uint64_t ev_max = 0;
    std::uint64_t ev_sum = 0;
    for (int i = 0; i < sim.shard_count(); ++i) {
      crossings += sim.shard_crossings_out(i);
      barrier_ns += sim.shard_barrier_wait_ns(i);
      ev_max = std::max(ev_max, sim.shard_events_processed(i));
      ev_sum += sim.shard_events_processed(i);
    }
    out.counts["shard.crossings"] = static_cast<double>(crossings);
    out.counts["shard.mailbox_flushes"] = static_cast<double>(sim.mailbox_flushes_total());
    out.counts["shard.handoff_max_batch"] = static_cast<double>(sim.handoff_max_batch());
    // max / mean events per shard; 1.0 is perfectly balanced.
    out.counts["shard.events_imbalance"] =
        ev_sum > 0 ? static_cast<double>(ev_max) * sim.shard_count() / static_cast<double>(ev_sum)
                   : 0.0;
    // Host time, not a count: kept with the timings.
    out.timings["shard.barrier_wait_s"] = static_cast<double>(barrier_ns) / 1e9;
  }
  out.counts["topo.cut_links"] = static_cast<double>(fab.partition().cut_links.size());
  if (obs::Obs* o = fab.observability(); o != nullptr && o->enabled()) {
    out.counts["obs.recorded_events"] = static_cast<double>(o->recorder().recorded_total());
  }
}

void read_profiler(const sim::Simulator& sim, Sample& out) {
  const obs::Profiler* p = sim.profiler();
  if (p == nullptr) return;
  const obs::ProfDerived d = p->derived(sim.shard_count());
  const double accounted = d.busy_ns_total + d.stall_ns_total;
  for (int c = 0; c < obs::kProfCatCount; ++c) {
    const auto cat = static_cast<obs::ProfCat>(c);
    double ns = 0.0;
    std::uint64_t calls = 0;
    for (int s = 0; s < sim.shard_count(); ++s) {
      ns += p->scope_ns(s, cat);
      calls += p->slice(s).count[static_cast<std::size_t>(c)];
    }
    const std::string base = std::string("prof.") + obs::to_string(cat);
    out.prof[base + ".ns_per_call"] = calls > 0 ? ns / static_cast<double>(calls) : 0.0;
    out.prof[base + ".share"] = accounted > 0.0 ? ns / accounted : 0.0;
  }
  out.prof["prof.stall_fraction"] = d.stall_fraction;
}

/// Every host's data-packet RTT samples, sorted.
std::vector<double> all_rtt_us(harness::Fabric& fab) {
  std::vector<double> v;
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const auto& s = fab.stack_at(HostId{static_cast<std::int32_t>(h)}).rtt_samples_us().sorted();
    v.insert(v.end(), s.begin(), s.end());
  }
  std::sort(v.begin(), v.end());
  return v;
}

[[nodiscard]] double p99(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  PercentileTracker t;
  for (const double v : sorted) t.add(v);
  return t.percentile(99);
}

// --- websearch: fig17 uFAB cell --------------------------------------------

Sample run_websearch(const Args& a, int shards, Tracer& tr) {
  Sample out;
  Digest dig;
  harness::SchemeOptions sopts;
  sopts.ufab.idle_finish_timeout = TimeNs{300'000};
  topo::FabricOptions base;
  base.prop_delay = TimeNs{500};
  base.core_prop = TimeNs{5'000};
  const topo::FabricOptions fopts =
      harness::fabric_options_for(harness::Scheme::kUfab, base, sopts);

  std::unique_ptr<harness::Fabric> fab;
  std::unique_ptr<workload::PoissonFlowGenerator> gen;
  {
    const Tracer::Scope setup(tr, "setup");
    fab = std::make_unique<harness::Fabric>(
        [&](sim::Simulator& s) {
          const Tracer::Scope build(tr, "topo.build");
          return topo::make_fat_tree(s, kFatTreeK, kOversub, fopts);
        },
        a.seed);
    if (shards > 0) {
      const Tracer::Scope part(tr, "topo.partition");
      fab->configure_sharding(shards, shards > 1 ? sim::ShardExec::kThreads
                                                 : sim::ShardExec::kSequential);
      fab->sim().set_adaptive_epochs(true, 16);
    }
    if (a.trace) {
      obs::ProfOptions popts;
      popts.level = 2;
      fab->sim().enable_profiling(popts);
    }
    {
      const Tracer::Scope inst(tr, "harness.install_scheme");
      harness::install_scheme(*fab, harness::Scheme::kUfab, sopts);
      fab->install_pair_metering(1_ms);
      fab->install_tenant_metering(1_ms);
    }
    const Tracer::Scope wl(tr, "workload.setup");
    auto& vms = fab->vms();
    const char* const names[4] = {"T0", "T1", "T2", "T3"};
    const double guars[4] = {1.0 / kOversub, 2.0 / kOversub, 2.0 / kOversub, 3.0 / kOversub};
    std::vector<VmPairId> pairs;
    Rng pair_rng = fab->rng().fork("pairs");
    const int hosts = static_cast<int>(fab->net().host_count());
    for (int t = 0; t < 4; ++t) {
      const TenantId tid = vms.add_tenant(names[t], Bandwidth::gbps(guars[t]));
      std::vector<VmId> tvms;
      for (int h = 0; h < hosts; ++h) tvms.push_back(vms.add_vm(tid, HostId{h}));
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
    gcfg.target_load = kLoad;
    gcfg.stop = kWebsearchTraffic;
    gen = std::make_unique<workload::PoissonFlowGenerator>(
        *fab, pairs, workload::EmpiricalSizeDist::websearch(), gcfg, fab->rng().fork("flows"));
  }

  std::size_t active_max = 0;
  {
    const Tracer::Scope wall(tr, "wall");
    {
      const Tracer::Scope run(tr, "sim.run");
      fab->sim().run_until(kWebsearchTraffic);
    }
    // Registered pairs peak while traffic is still arriving.
    for (const auto& agent : fab->core_agents()) {
      active_max = std::max(active_max, agent->active_pairs());
    }
    {
      const Tracer::Scope run(tr, "sim.run");
      fab->sim().run_until(kWebsearchTraffic + kWebsearchDrain);
    }
    const Tracer::Scope res(tr, "stats.results");
    auto& rec = gen->recorder();
    const std::vector<double> rtt = all_rtt_us(*fab);
    const PercentileTracker& slow = rec.slowdown();
    out.outcome["outcome.dissat_pct"] = rec.violation_volume_pct();
    out.outcome["outcome.rtt_p99_us"] = p99(rtt);
    out.outcome["outcome.slowdown_p99"] = slow.empty() ? 0.0 : slow.percentile(99);
    out.counts["workload.flows_started"] = static_cast<double>(rec.started());
    out.counts["workload.flows_completed"] = static_cast<double>(rec.completed());
    out.counts["stats.rtt_samples"] = static_cast<double>(rtt.size());
    dig.add(rtt);
    dig.add(slow.sorted());
    dig.add(rec.fct_us().sorted());
    dig.add(rec.violation_volume_pct());
  }
  out.counts["telemetry.active_pairs_max"] = static_cast<double>(active_max);
  read_fabric_counts(*fab, out, dig);
  read_profiler(fab->sim(), out);
  if (a.trace && fab->sim().profiler() != nullptr) {
    std::ofstream(artifact(a, ".profile.json")) << fab->sim().profile_json();
  }
  out.checks.emplace_back("flows_started", out.counts["workload.flows_started"] > 0);
  out.checks.emplace_back("flows_completed", out.counts["workload.flows_completed"] > 0);
  out.digest = dig.hex();
  return out;
}

// --- rpc_testbed: fig13 high-load uFAB cell --------------------------------

Sample run_rpc(const Args& a, Tracer& tr) {
  Sample out;
  Digest dig;
  std::unique_ptr<harness::Fabric> fab;
  std::unique_ptr<workload::RpcApp> mongo;
  std::unique_ptr<workload::RpcApp> memcached;
  std::vector<VmId> clients;
  std::unordered_map<std::int32_t, std::int64_t> responses;  // client VM -> count
  {
    const Tracer::Scope setup(tr, "setup");
    const topo::FabricOptions fopts =
        harness::fabric_options_for(harness::Scheme::kUfab, topo::FabricOptions{});
    fab = std::make_unique<harness::Fabric>(
        [&](sim::Simulator& s) {
          const Tracer::Scope build(tr, "topo.build");
          return topo::make_testbed(s, fopts);
        },
        a.seed);
    if (a.trace) {
      obs::ProfOptions popts;
      popts.level = 2;
      fab->sim().enable_profiling(popts);
    }
    {
      const Tracer::Scope inst(tr, "harness.install_scheme");
      harness::install_scheme(*fab, harness::Scheme::kUfab);
      fab->install_pair_metering(1_ms);
      fab->install_tenant_metering(1_ms);
    }
    {
      const Tracer::Scope o(tr, "obs.enable");
      obs::ObsOptions oo;
      oo.crash_dump_path = artifact(a, ".crash.json");
      fab->enable_observability(oo);
    }
    const Tracer::Scope wl(tr, "workload.setup");
    auto& vms = fab->vms();
    const TenantId mc = vms.add_tenant("memcached", 1_Gbps);
    std::vector<VmId> mc_clients;
    std::vector<VmId> mc_servers;
    for (int i = 0; i < 12; ++i) mc_clients.push_back(vms.add_vm(mc, HostId{i % 4}));
    for (int i = 0; i < 24; ++i) mc_servers.push_back(vms.add_vm(mc, HostId{6 + i % 2}));
    const TenantId mg = vms.add_tenant("mongodb", 1_Gbps);
    std::vector<VmId> mg_clients;
    std::vector<VmId> mg_servers;
    for (int i = 0; i < 24; ++i) mg_clients.push_back(vms.add_vm(mg, HostId{i % 4}));
    for (int i = 0; i < 24; ++i) mg_servers.push_back(vms.add_vm(mg, HostId{4 + i % 4}));
    clients = mc_clients;
    clients.insert(clients.end(), mg_clients.begin(), mg_clients.end());
    for (const VmId c : clients) responses[c.value()] = 0;
    // Clients only ever receive responses, so a delivery to a client VM is a
    // completed request.
    fab->add_delivery_listener([&responses](const transport::Message& msg, TimeNs) {
      if (auto it = responses.find(msg.pair.dst.value()); it != responses.end()) ++it->second;
    });
    mongo = std::make_unique<workload::RpcApp>(
        *fab, mg_clients, mg_servers, workload::RpcApp::mongodb(0_ms, kRpcTraffic, 9),
        fab->rng().fork("mongo"));
    memcached = std::make_unique<workload::RpcApp>(
        *fab, mc_clients, mc_servers, workload::RpcApp::memcached(0_ms, kRpcTraffic, 8),
        fab->rng().fork("mc"));
  }

  {
    const Tracer::Scope wall(tr, "wall");
    {
      const Tracer::Scope run(tr, "sim.run");
      fab->sim().run_until(kRpcTraffic + kRpcDrain);
    }
    const Tracer::Scope res(tr, "stats.results");
    const PercentileTracker& qct = memcached->qct_us();
    out.outcome["outcome.qps"] = memcached->qps(kRpcMeasureFrom, kRpcTraffic);
    out.outcome["outcome.qct_p99_us"] = qct.empty() ? 0.0 : qct.percentile(99);
    const std::vector<double> rtt = all_rtt_us(*fab);
    out.outcome["outcome.rtt_p99_us"] = p99(rtt);
    out.counts["stats.rtt_samples"] = static_cast<double>(rtt.size());
    out.counts["workload.rpc_completed"] =
        static_cast<double>(memcached->completed() + mongo->completed());
    dig.add(qct.sorted());
    dig.add(mongo->qct_us().sorted());
    dig.add(rtt);
  }
  {
    const Tracer::Scope snap(tr, "obs.snapshot");
    static_cast<void>(fab->metrics_snapshot());
  }
  std::int64_t idle_clients = 0;
  for (const VmId c : clients) {
    dig.add(responses[c.value()]);
    if (responses[c.value()] == 0) ++idle_clients;
  }
  out.checks.emplace_back("every_client_completed", idle_clients == 0);
  out.checks.emplace_back("rpc_completed", out.counts["workload.rpc_completed"] > 0);
  read_fabric_counts(*fab, out, dig);
  read_profiler(fab->sim(), out);
  if (a.trace && fab->sim().profiler() != nullptr) {
    std::ofstream(artifact(a, ".profile.json")) << fab->sim().profile_json();
  }
  out.digest = dig.hex();
  return out;
}

// --- host speed ------------------------------------------------------------

/// Seconds this host takes for a fixed kernel of sorting, shuffling and
/// dependent random loads: branchy compares and cache misses, as in an
/// event loop.  The input is the same on every run, so the time tracks only
/// how fast the host runs at that moment; run.py scales each sample's host
/// times by it.
double calibration_seconds() {
  const auto t0 = Clock::now();
  std::mt19937 rng(12345);
  std::vector<std::uint32_t> keys(1 << 17);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng());
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> next(1 << 20);
  std::iota(next.begin(), next.end(), 0u);
  std::shuffle(next.begin(), next.end(), rng);
  std::uint64_t acc = keys[keys.size() / 2];
  std::uint32_t at = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    at = next[at];
    acc += at;
  }
  const volatile std::uint64_t sink = acc;  // Keeps the loads.
  static_cast<void>(sink);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- output ----------------------------------------------------------------

void print_map(const char* key, const std::map<std::string, double>& m, bool last = false) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

[[nodiscard]] bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ufab_perfbench --workload <name> --seed <n> --out-dir <dir> "
                 "[--trace 0|1]\n");
    return 2;
  }
  Tracer tr;
  Sample s;
  if (a.workload == "websearch_serial") {
    s = run_websearch(a, 0, tr);
  } else if (a.workload == "websearch_sharded") {
    s = run_websearch(a, kShards, tr);
  } else if (a.workload == "websearch_canonical1") {
    s = run_websearch(a, 1, tr);
  } else if (a.workload == "rpc_testbed") {
    s = run_rpc(a, tr);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  s.setup_s = tr.seconds("setup");
  s.wall_s = tr.seconds("wall");
  for (const char* name : {"topo.build", "topo.partition", "harness.install_scheme",
                           "workload.setup", "sim.run", "stats.results", "obs.snapshot"}) {
    s.timings[std::string(name) + "_s"] = tr.seconds(name);
  }
  if (a.trace) tr.write_json(artifact(a, ".spans.json"));
  // After the measured work, so that it cannot warm the allocator for set-up.
  const double calib_s = calibration_seconds();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"setup_s\":%.9f,\"wall_s\":%.9f,\"calib_s\":%.9f,",
              a.workload.c_str(), a.seed, s.setup_s, s.wall_s, calib_s);
  std::printf("\"link_gbit\":%.17g,\"peak_rss_mb\":%.6f,\"digest\":\"%s\",", s.link_gbit,
              static_cast<double>(ru.ru_maxrss) / 1024.0, s.digest.c_str());
  std::printf("\"checks\":{");
  for (std::size_t i = 0; i < s.checks.size(); ++i) {
    std::printf("%s\"%s\":%s", i == 0 ? "" : ",", s.checks[i].first.c_str(),
                s.checks[i].second ? "true" : "false");
  }
  std::printf("},");
  print_map("timings", s.timings);
  print_map("counts", s.counts);
  print_map("prof", s.prof);
  print_map("outcome", s.outcome, true);
  std::printf("}\n");
  return 0;
}
