// Cluster scale-out: hierarchical transfer planning at 16-64 simulated GPUs
// (DESIGN.md §5.14, EXPERIMENTS.md §"Cluster scale-out").
//
// Runs the Game of Life and the chained SGEMM on 2-8 nodes of 8 GTX 780s
// under sim::Topology::cluster and reports, per configuration:
//   - GoL simulated time with hierarchical planning (planner on) vs flat
//     host-staged routing (planner off + forced host staging) — the paper's
//     node-boundary exchange is exactly where crossing the network once per
//     destination *node* instead of once per destination device pays;
//   - the communication-free SGEMM chain as the scaling control;
//   - planning-cost columns: host microseconds per built plan (wall-clock,
//     machine-dependent — excluded from the regression gate) and the
//     planner's candidates-scanned-per-routed-copy (deterministic — the
//     asymptotics gate lives on this counter, not on noisy timers).
//
// --smoke trims sizes/iterations and asserts (a) hierarchical planning beats
// flat routing on GoL at every multi-node size, (b) cross-node routes are
// actually planned, and (c) the per-copy candidate scan grows sub-linearly
// in device count from 16 to 64 devices (sub-quadratic total planning).
// Wired as a `perf_smoke` ctest label next to the other four benches.
// Writes BENCH_cluster.json (override with --out <path>).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/game_of_life.hpp"
#include "bench/bench_common.hpp"
#include "multi/maps_multi.hpp"
#include "simblas/simblas.hpp"

namespace {

using namespace maps::multi;

struct Run {
  double sim_ms = 0;          // simulated time for the measured region
  double plan_us_per_task = 0; // host us per built plan (noisy)
  double monitor_us_per_task = 0;
  double route_us_per_task = 0;
  double scans_per_copy = 0; // deterministic planner asymptotics
  std::uint64_t placement_reorders = 0;
  TransferStats t;
};

enum class Mode {
  Hier, // planner on, monolithic network reservations: the PR 8 baseline
  Flat, // planner off + forced host staging: every route bounces via hosts
  Pipe, // planner on + pipelined staged crossings + topology-aware placement
};

sim::Topology make_topo(int nodes, int gpus_per_node, Mode mode) {
  sim::Topology topo = sim::Topology::cluster(nodes, gpus_per_node);
  // Hier/Flat keep the PR 8 whole-duration reservation model so the Pipe
  // rows isolate exactly what the leg-pipelined crossings buy.
  topo.network_pipelining = mode == Mode::Pipe;
  return topo;
}

void configure(Scheduler& sched, Mode mode, std::size_t stripe_bytes,
               int placement_override = -1) {
  sched.set_transfer_planner_enabled(mode != Mode::Flat);
  sched.set_force_host_staged(mode == Mode::Flat);
  const bool placement =
      placement_override >= 0 ? placement_override != 0 : mode == Mode::Pipe;
  sched.set_placement_enabled(placement);
  if (mode == Mode::Pipe) {
    // Chunk at half the per-device partition stripe, capped at 2 MiB, so
    // every stripe-sized crossing splits into a >=2-deep pipeline (the
    // default 4 MiB chunk equals or exceeds the whole stripe at several of
    // these device counts, leaving nothing in flight to overlap) and the
    // full-size stripes pipeline several pieces deep. Much finer chunks pay
    // the per-piece software setup latency with no extra overlap to win.
    sched.set_copy_chunk_bytes(std::min<std::size_t>(
        2u << 20, std::max<std::size_t>(256u << 10, stripe_bytes / 2)));
  }
}

Run finish(sim::Node& node, Scheduler& sched, double t0_ms) {
  Run r;
  r.sim_ms = node.now_ms() - t0_ms;
  const SchedulerStats& st = sched.stats();
  const double tasks = static_cast<double>(std::max<std::uint64_t>(
      1, st.plans_built));
  r.plan_us_per_task = st.plan_time_us / tasks;
  r.monitor_us_per_task = st.monitor_plan_us / tasks;
  r.route_us_per_task = st.route_plan_us / tasks;
  r.placement_reorders = st.placement.reorders;
  r.t = st.transfers;
  if (r.t.copies_planned > 0) {
    r.scans_per_copy = static_cast<double>(r.t.candidates_scanned) /
                       static_cast<double>(r.t.copies_planned);
  }
  return r;
}

Run run_gol(int nodes, int gpus_per_node, std::size_t size, int iterations,
            Mode mode, std::vector<int> device_order = {},
            int placement_override = -1) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), nodes * gpus_per_node),
                 make_topo(nodes, gpus_per_node, mode),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node, std::move(device_order));
  const std::size_t stripe_bytes =
      size * sizeof(int) * (size / (nodes * gpus_per_node));
  configure(sched, mode, stripe_bytes, placement_override);
  std::vector<int> dummy(1);
  Matrix<int> a(size, size, "A"), b(size, size, "B");
  a.Bind(dummy.data());
  b.Bind(dummy.data());
  // One warmup tick distributes the board; the measured region then exposes
  // the steady-state node-boundary exchange.
  apps::gol::run(sched, a, b, 2, apps::gol::Scheme::MapsIlp);
  // Placement settles on the FIRST halo task, so the reorder count lives in
  // the warmup region — grab it before the stats reset.
  const std::uint64_t warm_reorders = sched.stats().placement.reorders;
  sched.reset_stats();
  const double t0 = node.now_ms();
  apps::gol::run(sched, a, b, iterations, apps::gol::Scheme::MapsIlp);
  Run r = finish(node, sched, t0);
  r.placement_reorders += warm_reorders;
  r.sim_ms /= iterations;
  return r;
}

// `broadcast`: the transposed (all-gathered) operand is the previous link's
// output, so every link one-to-many distributes freshly written device
// stripes across the whole cluster — the pattern where crossing the network
// once per destination *node* (then fanning out in-node) beats flat routing
// by an order of magnitude. `control` keeps the all-gathered operand
// constant, so after the warmup distribution the chain is communication-free
// and shows pure compute scaling.
enum class Gemm { Broadcast, Control };

Run run_sgemm(int nodes, int gpus_per_node, std::size_t size, int chain,
              Mode mode, Gemm kind) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), nodes * gpus_per_node),
                 make_topo(nodes, gpus_per_node, mode),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  const std::size_t stripe_bytes =
      size * sizeof(float) * (size / (nodes * gpus_per_node));
  configure(sched, mode, stripe_bytes);
  std::vector<float> dummy(1);
  Matrix<float> b(size, size, "B"), c1(size, size, "C1"), c2(size, size, "C2");
  b.Bind(dummy.data());
  c1.Bind(dummy.data());
  c2.Bind(dummy.data());
  if (kind == Gemm::Broadcast) {
    sched.AnalyzeCall(Work{c2.height(), 1}, Block2D<float>(b),
                      Block2DTransposed<float>(c1),
                      StructuredInjective<float, 2>(c2));
    sched.AnalyzeCall(Work{c1.height(), 1}, Block2D<float>(b),
                      Block2DTransposed<float>(c2),
                      StructuredInjective<float, 2>(c1));
  }
  // Warmup in the measured orientation: distributes the all-gathered
  // operand(s) and runs the first link outside the measured region.
  if (kind == Gemm::Broadcast) {
    simblas::Gemm(sched, b, c1, c2);
  } else {
    simblas::Gemm(sched, c1, b, c2);
  }
  sched.WaitAll();
  sched.reset_stats();
  const double t0 = node.now_ms();
  for (int i = 0; i < chain / 2; ++i) {
    if (kind == Gemm::Broadcast) {
      simblas::Gemm(sched, b, c2, c1);
      simblas::Gemm(sched, b, c1, c2);
    } else {
      simblas::Gemm(sched, c2, b, c1);
      simblas::Gemm(sched, c1, b, c2);
    }
  }
  sched.WaitAll();
  Run r = finish(node, sched, t0);
  r.sim_ms /= chain;
  return r;
}

void json_run(std::FILE* f, const char* key, const Run& r, const char* tail) {
  std::fprintf(
      f,
      "        \"%s\": {\"sim_ms\": %.6f, \"bytes_h2d\": %llu, "
      "\"bytes_d2h\": %llu, \"bytes_p2p_same_bus\": %llu, "
      "\"bytes_p2p_cross_bus\": %llu, \"bytes_host_staged\": %llu, "
      "\"bytes_net_send\": %llu, \"bytes_net_recv\": %llu, "
      "\"bytes_net_staged\": %llu, \"copies_planned\": %u, "
      "\"copies_issued\": %u, \"copies_rerouted\": %u, "
      "\"staged_routes_planned\": %u, \"candidates_scanned\": %llu, "
      "\"scans_per_copy\": %.4f, \"max_pipeline_depth\": %u, "
      "\"bytes_chunked_network\": %llu, \"bytes_chunked_intranode\": %llu, "
      "\"plan_us_per_task\": %.3f, "
      "\"monitor_us_per_task\": %.3f, \"route_us_per_task\": %.3f}%s\n",
      key, r.sim_ms, static_cast<unsigned long long>(r.t.bytes_h2d),
      static_cast<unsigned long long>(r.t.bytes_d2h),
      static_cast<unsigned long long>(r.t.bytes_p2p_same_bus),
      static_cast<unsigned long long>(r.t.bytes_p2p_cross_bus),
      static_cast<unsigned long long>(r.t.bytes_host_staged),
      static_cast<unsigned long long>(r.t.bytes_net_send),
      static_cast<unsigned long long>(r.t.bytes_net_recv),
      static_cast<unsigned long long>(r.t.bytes_net_staged),
      r.t.copies_planned, r.t.copies_issued, r.t.copies_rerouted,
      r.t.staged_routes_planned,
      static_cast<unsigned long long>(r.t.candidates_scanned),
      r.scans_per_copy, r.t.max_pipeline_depth,
      static_cast<unsigned long long>(r.t.bytes_chunked_network),
      static_cast<unsigned long long>(r.t.bytes_chunked_intranode),
      r.plan_us_per_task, r.monitor_us_per_task,
      r.route_us_per_task, tail);
}

bool check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
  }
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::size_t size = smoke ? 4096 : 8192;
  const int gol_iters = smoke ? 6 : 50;
  const int chain = smoke ? 4 : 20;

  bench::print_setup_header(
      "Cluster scale-out: hierarchical planning at 2-8 nodes of 8x GTX 780");

  struct Config {
    int nodes = 0, gpus_per_node = 0;
    Run gol_hier{}, gol_flat{}, gol_pipe{}, bcast_hier{}, bcast_flat{},
        bcast_pipe{}, control{};
  } configs[] = {{2, 8}, {4, 8}, {8, 8}};

  for (Config& c : configs) {
    // The simulator is deterministic: one run per configuration is exact.
    c.gol_hier = run_gol(c.nodes, c.gpus_per_node, size, gol_iters, Mode::Hier);
    c.gol_flat = run_gol(c.nodes, c.gpus_per_node, size, gol_iters, Mode::Flat);
    c.gol_pipe = run_gol(c.nodes, c.gpus_per_node, size, gol_iters, Mode::Pipe);
    c.bcast_hier = run_sgemm(c.nodes, c.gpus_per_node, size, chain, Mode::Hier,
                             Gemm::Broadcast);
    c.bcast_flat = run_sgemm(c.nodes, c.gpus_per_node, size, chain, Mode::Flat,
                             Gemm::Broadcast);
    c.bcast_pipe = run_sgemm(c.nodes, c.gpus_per_node, size, chain, Mode::Pipe,
                             Gemm::Broadcast);
    c.control = run_sgemm(c.nodes, c.gpus_per_node, size, chain, Mode::Hier,
                          Gemm::Control);
  }

  // Topology-aware placement A/B: the scheduler is handed a deliberately
  // interleaved device enumeration (segment i on node i%2), the worst case
  // for halo locality — every partition boundary crosses the network.
  // Placement restores the per-node grouping without touching results.
  std::vector<int> interleaved;
  for (int g = 0; g < 8; ++g) {
    for (int n = 0; n < 2; ++n) {
      interleaved.push_back(n * 8 + g);
    }
  }
  const Run demo_off = run_gol(2, 8, size, gol_iters, Mode::Pipe, interleaved,
                               /*placement_override=*/0);
  const Run demo_on = run_gol(2, 8, size, gol_iters, Mode::Pipe, interleaved,
                              /*placement_override=*/1);

  std::printf("\nGame of Life, per iteration (pipelined vs hierarchical vs "
              "flat host-staged):\n");
  std::printf("  %-8s %6s %12s %12s %12s %9s %9s %12s\n", "nodes", "GPUs",
              "pipe ms", "hier ms", "flat ms", "pipe/hier", "depth",
              "scans/copy");
  for (const Config& c : configs) {
    const Run& p = c.gol_pipe;
    std::printf("  %-8d %6d %12.3f %12.3f %12.3f %8.2fx %9u %12.2f\n",
                c.nodes, c.nodes * c.gpus_per_node, p.sim_ms,
                c.gol_hier.sim_ms, c.gol_flat.sim_ms,
                c.gol_hier.sim_ms / p.sim_ms, p.t.max_pipeline_depth,
                p.scans_per_copy);
  }
  std::printf("\nSGEMM broadcast chain, per link (one-to-many distribution "
              "of the previous output):\n");
  std::printf("  %-8s %6s %12s %12s %12s %9s %9s %10s\n", "nodes", "GPUs",
              "pipe ms", "hier ms", "flat ms", "pipe/hier", "depth",
              "net MB");
  for (const Config& c : configs) {
    const Run& p = c.bcast_pipe;
    const double net_mb =
        (p.t.bytes_net_send + p.t.bytes_net_recv + p.t.bytes_net_staged) /
        1048576.0;
    std::printf("  %-8d %6d %12.3f %12.3f %12.3f %8.2fx %9u %10.1f\n",
                c.nodes, c.nodes * c.gpus_per_node, p.sim_ms,
                c.bcast_hier.sim_ms, c.bcast_flat.sim_ms,
                c.bcast_hier.sim_ms / p.sim_ms, p.t.max_pipeline_depth,
                net_mb);
  }
  std::printf("\nPlacement A/B (2x8, interleaved device enumeration):\n");
  std::printf("  off %.3f ms  on %.3f ms  speedup %.2fx  reorders %llu\n",
              demo_off.sim_ms, demo_on.sim_ms,
              demo_off.sim_ms / demo_on.sim_ms,
              static_cast<unsigned long long>(demo_on.placement_reorders));
  std::printf("\nSGEMM control chain, per link (communication-free):\n");
  std::printf("  %-8s %6s %12s %10s\n", "nodes", "GPUs", "sim ms", "speedup");
  for (const Config& c : configs) {
    std::printf("  %-8d %6d %12.3f %9.2fx\n", c.nodes,
                c.nodes * c.gpus_per_node, c.control.sim_ms,
                configs[0].control.sim_ms / c.control.sim_ms);
  }

  // The asymptotics claims, on the GoL steady state (bounded copies per
  // task), 16 -> 64 devices (4x): the per-copy candidate scan must grow
  // sub-linearly (it is O(gpus-per-node + nodes), not O(devices)), and total
  // scans per built plan — copies/task x scan width, the dominant planning
  // term — must grow sub-quadratically. Both counters are deterministic, so
  // they are gated exactly; the wall-clock planning columns above are
  // informational.
  const double scan_16 = configs[0].gol_hier.scans_per_copy;
  const double scan_64 = configs[2].gol_hier.scans_per_copy;
  const double scan_ratio = scan_16 > 0 ? scan_64 / scan_16 : 0.0;
  const double total_16 =
      static_cast<double>(configs[0].gol_hier.t.candidates_scanned);
  const double total_64 =
      static_cast<double>(configs[2].gol_hier.t.candidates_scanned);
  const double total_ratio = total_16 > 0 ? total_64 / total_16 : 0.0;
  const double device_ratio =
      static_cast<double>(configs[2].nodes * configs[2].gpus_per_node) /
      static_cast<double>(configs[0].nodes * configs[0].gpus_per_node);
  std::printf("\nplanner scan growth 16->64 devices: %.2fx per copy, %.2fx "
              "total (device ratio %.0fx)\n",
              scan_ratio, total_ratio, device_ratio);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"cluster\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"device\": \"%s\",\n", sim::gtx780().name.c_str());
  std::fprintf(f, "  \"configs\": {\n");
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const Config& c = configs[i];
    std::fprintf(f, "    \"%dx%d\": {\n      \"nodes\": %d, \"gpus\": %d,\n",
                 c.nodes, c.gpus_per_node, c.nodes,
                 c.nodes * c.gpus_per_node);
    std::fprintf(f, "      \"gol\": {\n");
    json_run(f, "pipe", c.gol_pipe, ",");
    json_run(f, "hier", c.gol_hier, ",");
    json_run(f, "flat", c.gol_flat, ",");
    std::fprintf(f, "        \"simulated_speedup\": %.4f,\n",
                 c.gol_flat.sim_ms / c.gol_hier.sim_ms);
    std::fprintf(f, "        \"pipelined_speedup\": %.4f\n      },\n",
                 c.gol_hier.sim_ms / c.gol_pipe.sim_ms);
    std::fprintf(f, "      \"sgemm_broadcast\": {\n");
    json_run(f, "pipe", c.bcast_pipe, ",");
    json_run(f, "hier", c.bcast_hier, ",");
    json_run(f, "flat", c.bcast_flat, ",");
    std::fprintf(f, "        \"simulated_speedup\": %.4f,\n",
                 c.bcast_flat.sim_ms / c.bcast_hier.sim_ms);
    std::fprintf(f, "        \"pipelined_speedup\": %.4f\n      },\n",
                 c.bcast_hier.sim_ms / c.bcast_pipe.sim_ms);
    std::fprintf(f, "      \"sgemm_control\": {\n");
    json_run(f, "hier", c.control, "");
    std::fprintf(f, "      }\n    }%s\n",
                 i + 1 < std::size(configs) ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"placement_demo\": {\"off_ms\": %.6f, \"on_ms\": %.6f, "
               "\"speedup\": %.4f, \"reorders\": %llu},\n",
               demo_off.sim_ms, demo_on.sim_ms,
               demo_off.sim_ms / demo_on.sim_ms,
               static_cast<unsigned long long>(demo_on.placement_reorders));
  std::fprintf(f,
               "  \"planning\": {\"scan_ratio_64v16\": %.4f, "
               "\"total_scan_ratio_64v16\": %.4f, \"device_ratio\": %.1f}\n}\n",
               scan_ratio, total_ratio, device_ratio);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (smoke) {
    bool ok = true;
    for (const Config& c : configs) {
      ok &= check(c.gol_hier.sim_ms < c.gol_flat.sim_ms,
                  "hierarchical planning should beat flat host-staged "
                  "routing on the GoL node-boundary exchange");
      ok &= check(c.gol_hier.t.staged_routes_planned > 0,
                  "multi-node GoL should plan cross-network routes");
      const std::uint64_t net = c.gol_hier.t.bytes_net_send +
                                c.gol_hier.t.bytes_net_recv +
                                c.gol_hier.t.bytes_net_staged;
      ok &= check(net > 0, "node-boundary exchange should cross the network");
      ok &= check(c.bcast_flat.sim_ms > 2.0 * c.bcast_hier.sim_ms,
                  "hierarchical planning should beat flat routing by >2x on "
                  "the cross-node one-to-many distribution");
      ok &= check(c.bcast_hier.t.bytes_net_send + c.bcast_hier.t.bytes_net_recv +
                          c.bcast_hier.t.bytes_net_staged <
                      c.bcast_flat.t.bytes_net_send +
                          c.bcast_flat.t.bytes_net_recv +
                          c.bcast_flat.t.bytes_net_staged,
                  "hierarchical fan-out should move fewer bytes over the "
                  "network than flat routing (one crossing per node)");
      ok &= check(c.bcast_pipe.sim_ms * 1.3 <= c.bcast_hier.sim_ms,
                  "pipelined crossings + placement should beat the PR 8 "
                  "hierarchical baseline by >=1.3x on the SGEMM broadcast "
                  "chain");
      ok &= check(c.gol_pipe.sim_ms < c.gol_hier.sim_ms,
                  "pipelined crossings should beat the hierarchical baseline "
                  "on the GoL halo exchange at every multi-node size");
      ok &= check(c.bcast_pipe.t.max_pipeline_depth > 1,
                  "chunked network routes should be in flight on the "
                  "broadcast chain");
      // Chunking is purely structural: the same rows move over the same
      // links, so byte totals are invariant under it. (Neither workload
      // triggers a placement reorder under the default ascending
      // enumeration, so the comparison isolates chunking.)
      ok &= check(c.bcast_pipe.t.bytes_total() == c.bcast_hier.t.bytes_total(),
                  "bytes_total must be invariant under chunked crossings "
                  "(sgemm)");
      ok &= check(c.gol_pipe.t.bytes_total() == c.gol_hier.t.bytes_total(),
                  "bytes_total must be invariant under chunked crossings "
                  "(gol)");
    }
    ok &= check(demo_on.sim_ms < demo_off.sim_ms,
                "topology-aware placement should beat the interleaved "
                "enumeration with placement off");
    ok &= check(demo_on.placement_reorders > 0,
                "the interleaved enumeration should trigger a placement "
                "reorder");
    ok &= check(scan_ratio > 0 && scan_ratio < device_ratio,
                "per-copy candidate scan must grow sub-linearly in device "
                "count");
    ok &= check(total_ratio > 0 && total_ratio < device_ratio * device_ratio,
                "total candidate scans per task must grow sub-quadratically "
                "in device count");
    return ok ? 0 : 1;
  }
  return 0;
}
