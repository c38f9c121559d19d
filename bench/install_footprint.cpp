// uFAB install footprint on a bare FatTree: builds a k-ary, 1:2
// oversubscribed FatTree (fig17's topology, no traffic), installs uFAB on
// every host and switch port, and prints the install wall time and the
// memory the uFAB-C Bloom filters hold.  Peak RSS is the caller's to take
// (scripts/install_footprint.py reads it from the process's rusage).
//
//   build/bench/install_footprint 8     # k=8: 128 hosts, 512 uFAB-C ports
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/harness/fabric.hpp"
#include "src/harness/schemes.hpp"
#include "src/topo/builders.hpp"

int main(int argc, char** argv) {
  using namespace ufab;
  const int k = argc > 1 ? std::atoi(argv[1]) : 8;
  if (k < 2 || k % 2 != 0) {
    std::fprintf(stderr, "usage: %s <even k >= 2>\n", argv[0]);
    return 2;
  }
  harness::Fabric fab([k](sim::Simulator& s) { return topo::make_fat_tree(s, k, 2); }, 41);
  const auto t0 = std::chrono::steady_clock::now();
  harness::install_scheme(fab, harness::Scheme::kUfab);
  const std::chrono::duration<double> install = std::chrono::steady_clock::now() - t0;
  std::size_t bloom_bytes = 0;
  for (const auto& agent : fab.core_agents()) bloom_bytes += agent->bloom().memory_bytes();
  std::printf("k=%d hosts=%zu core_agents=%zu install_s=%.6f bloom_bytes=%zu\n", k,
              fab.net().host_count(), fab.core_agents().size(), install.count(), bloom_bytes);
  return 0;
}
