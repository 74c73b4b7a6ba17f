// End-to-end benchmark of the MAPS-Multi reproduction.
//
// Measures what a user of the simulator pays — host wall-clock per step —
// and what it models — simulated time per step — on three workloads that
// stress different layers (README.md says why each was chosen). A separate
// traced run attributes each workload's cost to the src/multi and src/sim
// layers from the counters the program already exposes (SchedulerStats,
// SimStats, Node::trace) plus host spans recorded here, around the calls
// into the public API. Nothing inside the program is instrumented.
//
// Usage:
//   e2ebench --workload <gol_functional|nmf_cluster|gemm_streamed>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--commit <id>]
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. With --trace 1 the host spans (with
// self time) and the per-layer table are also written to
// <out-dir>/trace_<workload>_seed<n>.json in Chrome trace-event format.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/game_of_life.hpp"
#include "multi/maps_multi.hpp"
#include "nmf/nmf.hpp"
#include "sim/node.hpp"
#include "sim/presets.hpp"
#include "sim/topology.hpp"
#include "simblas/simblas.hpp"
#include "stats.hpp"

#if !defined(__OPTIMIZE__)
#define E2E_UNOPTIMIZED 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define E2E_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define E2E_SANITIZED 1
#endif
#endif

namespace {

using namespace maps::multi;
using e2e::SpanRecorder;
using Clock = std::chrono::steady_clock;

/// Every workload simulates 4 devices, so the scheduler runs 4 invoker
/// threads; functional kernel bodies run on 4 exec threads. Both are pinned
/// so the measured configuration never depends on the host or environment.
constexpr int kDevices = 4;
constexpr unsigned kExecThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Fewest timed samples per run: 100 puts 10 samples beyond the printed p90.
constexpr std::size_t kMinSamples = 100;
/// Fewest samples per phase of a traced run (which reports no p90).
constexpr std::size_t kMinTraceSamples = 30;
/// Relative tolerance when comparing a sample's simulated time per step with
/// the first sample's: the simulated clock is an absolute double, so equal
/// step durations can differ in the last bits as the clock grows.
constexpr double kSimTolerance = 1e-9;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// One timed sample: a block of steps (or one job) and what it cost.
struct Sample {
  double host_ms_per_step = 0;
  double sim_ms_per_step = 0;
  std::uint64_t steps = 0;
  bool ok = true; ///< the workload's own per-sample check
};

/// Outcome of an output check: steps it covered and steps that failed it.
/// Set `attempted` before calling expect(); a step fails at most once.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string what; ///< first failure, empty when none
  void expect(bool ok, std::uint64_t steps, const std::string& msg) {
    if (!ok) {
      failed = std::min(attempted, failed + steps);
      if (what.empty()) {
        what = msg;
      }
    }
  }
};

/// Counter deltas over the traced phase, summed over every scheduler and
/// node the phase used (nmf_cluster builds one of each per job).
struct LayerTotals {
  SchedulerStats sched;
  sim::SimStats sim;
  std::uint64_t tasks = 0;
  std::uint64_t commands = 0; ///< simulated commands processed (trace)
  double window_s = 0;        ///< simulated seconds covered
  double kernel_busy_s = 0;   ///< kernel seconds summed over devices
  double compute_idle_s = 0;  ///< seconds with no kernel on any device

  void add(const SchedulerStats& s, const sim::SimStats& n,
           std::uint64_t task_count, const std::vector<sim::TraceEvent>& trace,
           double t0_s, double t1_s) {
    sched.plans_built += s.plans_built;
    sched.cache_hits += s.cache_hits;
    sched.cache_misses += s.cache_misses;
    sched.uncacheable_tasks += s.uncacheable_tasks;
    sched.plan_time_us += s.plan_time_us;
    sched.replay_time_us += s.replay_time_us;
    sched.monitor_plan_us += s.monitor_plan_us;
    sched.route_plan_us += s.route_plan_us;
    sched.interior_subkernels += s.interior_subkernels;
    sched.boundary_subkernels += s.boundary_subkernels;
    sched.transfers.add(s.transfers);
    sched.exec.threads = s.exec.threads;
    sched.exec.chunks_executed += s.exec.chunks_executed;
    sched.exec.chunks_stolen += s.exec.chunks_stolen;
    sched.exec.idle_waits += s.exec.idle_waits;
    sched.spill.add(s.spill);
    sim.bytes_h2d += n.bytes_h2d;
    sim.bytes_d2h += n.bytes_d2h;
    sim.bytes_p2p += n.bytes_p2p;
    sim.bytes_host_staged += n.bytes_host_staged;
    sim.bytes_network += n.bytes_network;
    sim.copy_seconds += n.copy_seconds;
    sim.host_uplink_busy_seconds += n.host_uplink_busy_seconds;
    sim.host_downlink_busy_seconds += n.host_downlink_busy_seconds;
    sim.socket_link_busy_seconds += n.socket_link_busy_seconds;
    sim.nic_send_busy_seconds += n.nic_send_busy_seconds;
    sim.nic_recv_busy_seconds += n.nic_recv_busy_seconds;
    tasks += task_count;
    commands += trace.size();
    const double w = t1_s - t0_s;
    window_s += w;
    kernel_busy_s += e2e::kernel_busy_frac(trace, t0_s, t1_s) * w;
    compute_idle_s += e2e::compute_idle_frac(trace, t0_s, t1_s) * w;
  }
};

/// A workload: set-up (inputs, construction, AnalyzeCall, warm-up), timed
/// samples, output checks, and the counters of the traced phase.
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// One line describing shapes and configuration for the output.
  virtual std::string config() const = 0;
  /// Builds everything from scratch; may be called repeatedly.
  virtual void setup(SpanRecorder& spans) = 0;
  /// Checks what setup() computed (outside any timer).
  virtual Check verify_setup(SpanRecorder& spans) = 0;
  virtual Sample sample(SpanRecorder& spans) = 0;
  /// Checks after the timed samples (outside any timer).
  virtual Check verify_outputs(SpanRecorder& spans) = 0;
  /// Starts the traced phase: counters reset, simulated timeline on.
  virtual void begin_trace() = 0;
  /// Ends the traced phase and returns its counter deltas.
  virtual LayerTotals end_trace() = 0;
  /// Steps the warm-up of one setup() runs.
  virtual std::uint64_t warmup_steps() const = 0;
};

/// A workload that keeps one Node and Scheduler across its samples; its
/// traced phase is the window between begin_trace() and end_trace(). The
/// derived classes' datums are destroyed before the scheduler, as they must
/// be.
class SingleScheduler : public Workload {
public:
  void begin_trace() override {
    sched_->WaitAll();
    sched_->reset_stats();
    node_->reset_stats();
    node_->clear_trace();
    node_->enable_trace(true);
    tasks0_ = sched_->tasks_scheduled();
    sim0_s_ = node_->now_ms() * 1e-3;
  }
  LayerTotals end_trace() override {
    sched_->WaitAll();
    LayerTotals t;
    t.add(sched_->stats(), node_->stats(), sched_->tasks_scheduled() - tasks0_,
          node_->trace(), sim0_s_, node_->now_ms() * 1e-3);
    node_->enable_trace(false);
    node_->clear_trace();
    return t;
  }

protected:
  std::unique_ptr<sim::Node> node_;
  std::unique_ptr<Scheduler> sched_;

private:
  std::uint64_t tasks0_ = 0;
  double sim0_s_ = 0;
};

// --- gol_functional ----------------------------------------------------------

/// Functional Game of Life, 2048x2048 toroidal MapsTick<1,1> on 4 Titan
/// Blacks (single-node PCIe pairs). Host time is almost all functional
/// kernel bodies on the exec thread pool.
class GolFunctional final : public SingleScheduler {
public:
  static constexpr std::size_t kSide = 2048;
  static constexpr int kBlock = 6;  ///< generations per sample
  static constexpr int kWarmup = 2; ///< one task of each ping-pong shape

  explicit GolFunctional(unsigned seed) : seed_(seed) {}
  const char* name() const override { return "gol_functional"; }
  std::string config() const override {
    return "\"grid\": [2048, 2048], \"kernel\": \"MapsTick<1,1>\", "
           "\"device\": \"" + sim::titan_black().name +
           "\", \"topology\": \"pcie3_pairs(4)\", \"mode\": \"Functional\", "
           "\"steps_per_sample\": " + std::to_string(kBlock);
  }
  std::uint64_t warmup_steps() const override { return kWarmup; }

  void setup(SpanRecorder& spans) override {
    B_.reset();
    A_.reset();
    sched_.reset();
    node_.reset();
    seeded_.assign(kSide * kSide, 0);
    std::mt19937 rng(seed_);
    for (int& c : seeded_) {
      c = static_cast<int>(rng() & 1u);
    }
    a_ = seeded_;
    b_.assign(kSide * kSide, 0);
    {
      SpanRecorder::Scope s(spans, "Node()");
      node_ = std::make_unique<sim::Node>(
          sim::homogeneous_node(sim::titan_black(), kDevices));
    }
    {
      SpanRecorder::Scope s(spans, "Scheduler()");
      sched_ = std::make_unique<Scheduler>(*node_);
      sched_->set_exec_threads(kExecThreads);
    }
    A_ = std::make_unique<Matrix<int>>(kSide, kSide, "A");
    B_ = std::make_unique<Matrix<int>>(kSide, kSide, "B");
    A_->Bind(a_.data());
    B_->Bind(b_.data());
    {
      SpanRecorder::Scope s(spans, "AnalyzeCall");
      sched_->AnalyzeCall(Win(*A_), Out(*B_));
      sched_->AnalyzeCall(Win(*B_), Out(*A_));
    }
    gen_ = 0;
    for (int i = 0; i < kWarmup; ++i) {
      step(spans);
    }
    SpanRecorder::Scope s(spans, "WaitAll");
    sched_->WaitAll();
  }

  Check verify_setup(SpanRecorder& spans) override {
    if (warm_ref_.empty()) {
      warm_ref_ = seeded_;
      for (int i = 0; i < kWarmup; ++i) {
        apps::gol::reference_tick(warm_ref_, kSide, kSide);
      }
    }
    gather(spans);
    Check c;
    c.attempted = kWarmup;
    c.expect(host_of_current() == warm_ref_, kWarmup,
             "warm-up generations differ from reference_tick");
    return c;
  }

  Sample sample(SpanRecorder& spans) override {
    const double sim0 = node_->now_ms();
    const auto t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) {
      step(spans);
    }
    {
      SpanRecorder::Scope s(spans, "WaitAll");
      sched_->WaitAll();
    }
    Sample out;
    out.host_ms_per_step = ms_since(t0) / kBlock;
    out.sim_ms_per_step = (node_->now_ms() - sim0) / kBlock;
    out.steps = kBlock;
    return out;
  }

  Check verify_outputs(SpanRecorder& spans) override {
    // The timed generations continue from the checked warm-up state; the
    // step after the last one is checked against reference_tick applied to
    // the gathered final generation.
    gather(spans);
    std::vector<int> expect = host_of_current();
    apps::gol::reference_tick(expect, kSide, kSide);
    step(spans);
    gather(spans);
    Check c;
    c.attempted = 1;
    c.expect(host_of_current() == expect, 1,
             "generation after the timed phase differs from reference_tick");
    return c;
  }

private:
  using Tick = apps::gol::MapsTick<1, 1>;
  using Win = Tick::Win;
  using Out = Tick::Out;

  Matrix<int>& current() { return gen_ % 2 == 0 ? *A_ : *B_; }
  const std::vector<int>& host_of_current() const {
    return gen_ % 2 == 0 ? a_ : b_;
  }
  void gather(SpanRecorder& spans) {
    SpanRecorder::Scope s(spans, "Gather");
    sched_->Gather(current());
  }
  void step(SpanRecorder& spans) {
    SpanRecorder::Scope s(spans, "Invoke");
    Matrix<int>& in = gen_ % 2 == 0 ? *A_ : *B_;
    Matrix<int>& out = gen_ % 2 == 0 ? *B_ : *A_;
    sched_->Invoke(apps::gol::maps_cost_hints(), Tick{}, Win(in), Out(out));
    ++gen_;
  }

  unsigned seed_;
  std::vector<int> seeded_, warm_ref_, a_, b_;
  std::unique_ptr<Matrix<int>> A_, B_;
  std::uint64_t gen_ = 0;
};

// --- gemm_streamed -----------------------------------------------------------

/// Functional tall GEMM chain (m=4096, k=n=256) on 4 GTX 780s under a device
/// memory budget of a quarter of the per-slot working set, so every link
/// runs as a streamed multi-pass task.
class GemmStreamed final : public SingleScheduler {
public:
  static constexpr std::size_t kM = 4096, kK = 256;
  static constexpr int kBlock = 6; ///< chain links per sample

  explicit GemmStreamed(unsigned seed) : seed_(seed) {}
  const char* name() const override { return "gemm_streamed"; }
  std::string config() const override {
    return "\"m\": 4096, \"k\": 256, \"n\": 256, \"device\": \"" +
           sim::gtx780().name +
           "\", \"topology\": \"pcie3_pairs(4)\", \"mode\": \"Functional\", "
           "\"budget_bytes\": " + std::to_string(budget()) +
           ", \"spill_prefetch\": true, \"links_per_sample\": " +
           std::to_string(kBlock);
  }
  std::uint64_t warmup_steps() const override { return kBlock; }

  /// bench/out_of_core's policy: a quarter of the per-slot working set
  /// (three tall stripes split across the devices plus the replicated B).
  static std::size_t budget() {
    const std::size_t stripe = kM * kK * sizeof(float);
    return (3 * stripe / kDevices + kK * kK * sizeof(float)) / 4;
  }

  void setup(SpanRecorder& spans) override {
    D_.reset();
    C_.reset();
    B_.reset();
    A_.reset();
    sched_.reset();
    node_.reset();
    make_inputs();
    c_.assign(kM * kK, 0.0f);
    d_.assign(kM * kK, 0.0f);
    {
      SpanRecorder::Scope s(spans, "Node()");
      node_ = std::make_unique<sim::Node>(
          sim::homogeneous_node(sim::gtx780(), kDevices));
    }
    {
      SpanRecorder::Scope s(spans, "Scheduler()");
      sched_ = std::make_unique<Scheduler>(*node_);
      sched_->set_exec_threads(kExecThreads);
      sched_->set_device_memory_budget(budget());
    }
    A_ = std::make_unique<Matrix<float>>(kK, kM, "A");
    B_ = std::make_unique<Matrix<float>>(kK, kK, "B");
    C_ = std::make_unique<Matrix<float>>(kK, kM, "C");
    D_ = std::make_unique<Matrix<float>>(kK, kM, "D");
    A_->Bind(a_.data());
    B_->Bind(b_.data());
    C_->Bind(c_.data());
    D_->Bind(d_.data());
    {
      SpanRecorder::Scope s(spans, "AnalyzeCall");
      for (int i = 0; i < 3; ++i) {
        sched_->AnalyzeCall(Work{kM, 1}, Block2D<float>(src(i)),
                            Block2DTransposed<float>(*B_),
                            StructuredInjective<float, 2>(dst(i)));
      }
    }
    sample(spans); // warm-up: one block fills the plan state and buffers
  }

  Check verify_setup(SpanRecorder&) override { return {}; }

  Sample sample(SpanRecorder& spans) override {
    const double sim0 = node_->now_ms();
    const auto t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) {
      SpanRecorder::Scope s(spans, "Gemm");
      simblas::Gemm(*sched_, src(i), *B_, dst(i));
    }
    {
      SpanRecorder::Scope s(spans, "WaitAll");
      sched_->WaitAll();
    }
    Sample out;
    out.host_ms_per_step = ms_since(t0) / kBlock;
    out.sim_ms_per_step = (node_->now_ms() - sim0) / kBlock;
    out.steps = kBlock;
    return out;
  }

  Check verify_outputs(SpanRecorder& spans) override {
    Check c;
    c.attempted = kBlock;
    {
      SpanRecorder::Scope s(spans, "Gather");
      sched_->Gather(dst(kBlock - 1));
    }
    const std::vector<float>& got = kBlock % 2 == 0 ? d_ : c_;
    c.expect(fnv1a(got.data(), got.size() * sizeof(float)) == reference(),
             kBlock, "streamed chain digest differs from the budget-0 chain");
    const SpillStats& s = sched_->stats().spill;
    c.expect(s.transfers.bytes_total() == s.bytes_spilled + s.bytes_refilled,
             kBlock, "spill ledger does not balance spilled + refilled bytes");
    c.expect(s.streamed_tasks > 0, kBlock, "the budget forced no streaming");
    return c;
  }

private:
  // Link i reads A (i = 0), then alternates C -> D, D -> C: each block
  // restarts the chain from A.
  Matrix<float>& src(int i) { return i == 0 ? *A_ : (i % 2 == 1 ? *C_ : *D_); }
  Matrix<float>& dst(int i) { return i % 2 == 0 ? *C_ : *D_; }

  void make_inputs() {
    std::mt19937 rng(seed_);
    std::uniform_real_distribution<float> dist(0.0f, 1.0f);
    a_.resize(kM * kK);
    for (float& x : a_) {
      x = dist(rng);
    }
    // Row-stochastic B with positive entries: every link keeps each row's
    // sum, so the chain's values stay bounded and nonzero.
    b_.resize(kK * kK);
    for (std::size_t r = 0; r < kK; ++r) {
      float sum = 0;
      for (std::size_t c = 0; c < kK; ++c) {
        b_[r * kK + c] = 0.01f + dist(rng);
        sum += b_[r * kK + c];
      }
      for (std::size_t c = 0; c < kK; ++c) {
        b_[r * kK + c] /= sum;
      }
    }
  }

  /// Digest of the same chain run in core (budget 0).
  std::uint64_t reference() {
    std::vector<float> a = a_, b = b_, c(kM * kK, 0.0f), d(kM * kK, 0.0f);
    sim::Node node(sim::homogeneous_node(sim::gtx780(), kDevices));
    Scheduler sched(node);
    sched.set_exec_threads(kExecThreads);
    Matrix<float> A(kK, kM, "A"), B(kK, kK, "B"), C(kK, kM, "C"),
        D(kK, kM, "D");
    A.Bind(a.data());
    B.Bind(b.data());
    C.Bind(c.data());
    D.Bind(d.data());
    for (int i = 0; i < kBlock; ++i) {
      Matrix<float>& s = i == 0 ? A : (i % 2 == 1 ? C : D);
      simblas::Gemm(sched, s, B, i % 2 == 0 ? C : D);
    }
    Matrix<float>& last = kBlock % 2 == 0 ? D : C;
    sched.Gather(last);
    const std::vector<float>& out = kBlock % 2 == 0 ? d : c;
    return fnv1a(out.data(), out.size() * sizeof(float));
  }

  unsigned seed_;
  std::vector<float> a_, b_, c_, d_;
  std::unique_ptr<Matrix<float>> A_, B_, C_, D_;
};

// --- nmf_cluster -------------------------------------------------------------

/// TimingOnly NMF at the paper's shape (16384x4096, k=128) on a 2x2 cluster
/// of GTX 780s. No kernel bodies run: host time is scheduler, invoker and
/// event-loop work. A sample is one job — a fresh Node and Scheduler running
/// nmf::run_maps for kIterations — because datums are never unregistered
/// from a scheduler. The seed is unused: the workload has no data.
class NmfCluster final : public Workload {
public:
  static constexpr int kIterations = 200;

  const char* name() const override { return "nmf_cluster"; }
  std::string config() const override {
    return "\"n\": 16384, \"m\": 4096, \"k\": 128, \"device\": \"" +
           sim::gtx780().name +
           "\", \"topology\": \"cluster(2, 2)\", \"mode\": \"TimingOnly\", "
           "\"iterations_per_job\": " + std::to_string(kIterations) +
           ", \"seed_used\": false";
  }
  std::uint64_t warmup_steps() const override { return kIterations; }

  void setup(SpanRecorder& spans) override { first_ = job(spans, false); }
  Check verify_setup(SpanRecorder&) override { return {}; }

  Sample sample(SpanRecorder& spans) override {
    const auto t0 = Clock::now();
    const Job j = job(spans, tracing_);
    Sample out;
    out.host_ms_per_step = ms_since(t0) / kIterations;
    out.sim_ms_per_step = j.sim_ms / kIterations;
    out.steps = kIterations;
    out.ok = j.sched_bytes == first_.sched_bytes &&
             j.sim_bytes == first_.sim_bytes;
    return out;
  }

  Check verify_outputs(SpanRecorder& spans) override {
    Check c;
    c.attempted = kIterations;
    try {
      const Job j = job(spans, false, /*sanitize=*/true);
      c.expect(j.sanitizer_tasks > 0, kIterations,
               "sanitizer job checked no tasks");
      c.expect(j.sim_ms == first_.sim_ms && j.sched_bytes == first_.sched_bytes,
               kIterations, "sanitizer job changed the simulated run");
    } catch (const std::exception& e) {
      c.expect(false, kIterations, std::string("sanitizer job: ") + e.what());
    }
    return c;
  }

  void begin_trace() override {
    tracing_ = true;
    totals_ = LayerTotals{};
  }
  LayerTotals end_trace() override {
    tracing_ = false;
    return totals_;
  }

private:
  struct Job {
    double sim_ms = 0;
    std::uint64_t sched_bytes = 0; ///< planned transfer bytes
    std::uint64_t sim_bytes = 0;   ///< bytes the simulator moved
    std::uint64_t sanitizer_tasks = 0;
  };

  Job job(SpanRecorder& spans, bool trace, bool sanitize = false) {
    std::unique_ptr<sim::Node> node;
    {
      SpanRecorder::Scope s(spans, "Node()");
      node = std::make_unique<sim::Node>(
          sim::homogeneous_node(sim::gtx780(), kDevices),
          sim::Topology::cluster(2, kDevices / 2), sim::ExecMode::TimingOnly);
    }
    std::unique_ptr<Scheduler> sched;
    {
      SpanRecorder::Scope s(spans, "Scheduler()");
      sched = std::make_unique<Scheduler>(*node);
      sched->set_exec_threads(kExecThreads);
      sched->set_sanitizer_enabled(sanitize);
    }
    node->enable_trace(trace);
    std::vector<float> v(1), w, h; // TimingOnly: backing never touched
    const double sim0 = node->now_ms();
    {
      SpanRecorder::Scope s(spans, "run_maps");
      nmf::run_maps(*sched, v, w, h, nmf::Shape{}, kIterations);
    }
    Job j;
    j.sim_ms = node->now_ms() - sim0;
    const SchedulerStats& st = sched->stats();
    const sim::SimStats& ns = node->stats();
    j.sched_bytes = st.transfers.bytes_total();
    j.sim_bytes = ns.bytes_h2d + ns.bytes_d2h + ns.bytes_p2p +
                  ns.bytes_host_staged + ns.bytes_network;
    if (sched->sanitizer() != nullptr) {
      j.sanitizer_tasks = sched->sanitizer()->stats().tasks_checked;
    }
    if (trace) {
      totals_.add(st, ns, sched->tasks_scheduled(), node->trace(),
                  sim0 * 1e-3, node->now_ms() * 1e-3);
    }
    SpanRecorder::Scope s(spans, "~Scheduler()");
    sched.reset();
    return j;
  }

  Job first_;
  bool tracing_ = false;
  LayerTotals totals_;
};

// --- Per-layer metric table --------------------------------------------------

/// One per-layer metric: its layer, the end-to-end metric it should move and
/// the workload where that shows (README.md has the full table).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
  const char* shows_on;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"exec.threads", "count", "multi/thread_pool", "host_ms_per_step",
     "gol_functional, gemm_streamed"},
    {"exec.chunks_per_step", "count", "multi/kernel_exec", "host_ms_per_step",
     "gol_functional, gemm_streamed"},
    {"exec.steal_frac", "ratio", "multi/thread_pool", "host_ms_per_step",
     "gol_functional, gemm_streamed"},
    {"exec.idle_waits_per_step", "count", "multi/thread_pool",
     "host_ms_per_step", "gol_functional, gemm_streamed"},
    {"scheduler.drain_ms_per_step", "ms", "multi/thread_pool + sim/node",
     "host_ms_per_step", "gol_functional, gemm_streamed"},
    {"scheduler.invoke_us_per_task", "us", "multi/scheduler",
     "host_ms_per_step", "nmf_cluster"},
    {"scheduler.plan_us_per_task", "us", "multi/scheduler", "host_ms_per_step",
     "nmf_cluster"},
    {"scheduler.replay_us_per_task", "us", "multi/scheduler",
     "host_ms_per_step", "nmf_cluster"},
    {"scheduler.cache_hit_frac", "ratio", "multi/scheduler",
     "host_ms_per_step", "nmf_cluster"},
    {"scheduler.tasks_per_step", "count", "multi/scheduler",
     "host_ms_per_step", "nmf_cluster"},
    {"monitor.plan_us_per_task", "us", "multi/location_monitor",
     "host_ms_per_step", "nmf_cluster"},
    {"planner.route_us_per_task", "us", "multi/transfer_planner",
     "host_ms_per_step", "nmf_cluster"},
    {"planner.candidates_per_copy", "count", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"planner.copies_issued_per_step", "count", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"planner.copies_chunked_per_step", "count", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"planner.bytes_per_step", "B", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"planner.bytes_network_per_step", "B", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"planner.bytes_p2p_per_step", "B", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster, gol_functional"},
    {"planner.bytes_host_staged_per_step", "B", "multi/transfer_planner",
     "sim_ms_per_step", "nmf_cluster"},
    {"overlap.subkernels_per_task", "count", "multi/scheduler overlap strips",
     "sim_ms_per_step", "gol_functional"},
    {"sim.compute_idle_frac", "ratio", "multi/scheduler overlap strips",
     "sim_ms_per_step", "gol_functional"},
    {"spill.passes_per_step", "count", "multi/memory_analyzer + streamed",
     "sim_ms_per_step", "gemm_streamed"},
    {"spill.streamed_tasks_per_step", "count",
     "multi/memory_analyzer + streamed", "host_ms_per_step", "gemm_streamed"},
    {"spill.evictions_per_step", "count", "multi/location_monitor spill",
     "sim_ms_per_step", "gemm_streamed"},
    {"spill.bytes_spilled_per_step", "B", "multi/location_monitor spill",
     "sim_ms_per_step", "gemm_streamed"},
    {"spill.bytes_refilled_per_step", "B", "multi/location_monitor spill",
     "sim_ms_per_step", "gemm_streamed"},
    {"node.commands_per_step", "count", "multi/invoker + sim/node",
     "host_ms_per_step", "nmf_cluster"},
    {"node.host_us_per_command", "us", "multi/invoker + sim/node",
     "host_ms_per_step", "nmf_cluster"},
    {"sim.kernel_busy_frac", "ratio", "sim/node engines", "sim_ms_per_step",
     "gol_functional"},
    {"sim.copy_s_per_step", "s", "sim/node engines", "sim_ms_per_step",
     "gemm_streamed, nmf_cluster"},
    {"sim.host_uplink_busy_frac", "ratio", "sim/topology links",
     "sim_ms_per_step", "gemm_streamed"},
    {"sim.host_downlink_busy_frac", "ratio", "sim/topology links",
     "sim_ms_per_step", "gemm_streamed"},
    {"sim.socket_link_busy_frac", "ratio", "sim/topology links",
     "sim_ms_per_step", "gol_functional"},
    {"sim.nic_send_busy_frac", "ratio", "sim/topology links",
     "sim_ms_per_step", "nmf_cluster"},
    {"sim.nic_recv_busy_frac", "ratio", "sim/topology links",
     "sim_ms_per_step", "nmf_cluster"},
    {"sim.bytes_h2d_per_step", "B", "sim/topology links", "sim_ms_per_step",
     "gemm_streamed"},
    {"sim.bytes_d2h_per_step", "B", "sim/topology links", "sim_ms_per_step",
     "gemm_streamed"},
    {"sim.bytes_p2p_per_step", "B", "sim/topology links", "sim_ms_per_step",
     "gol_functional"},
    {"sim.bytes_network_per_step", "B", "sim/topology links",
     "sim_ms_per_step", "nmf_cluster"},
    {"trace.overhead_frac", "ratio", "benchmark tracing", "host_ms_per_step",
     "all"},
};

// --- Harness -----------------------------------------------------------------

struct Options {
  std::string workload;
  unsigned seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<gol_functional|nmf_cluster|gemm_streamed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      const unsigned long v = std::strtoul(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) {
        usage("--seed takes a whole number");
      }
      o.seed = static_cast<unsigned>(v);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") {
        usage("--trace takes 0 or 1");
      }
      o.trace = val == "1" ? 1 : 0;
    } else if (arg == "--out-dir") {
      o.out_dir = val;
    } else if (arg == "--commit") {
      o.commit = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty() || o.seconds == 0 || o.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "gol_functional") {
    return std::make_unique<GolFunctional>(o.seed);
  }
  if (o.workload == "nmf_cluster") {
    return std::make_unique<NmfCluster>();
  }
  if (o.workload == "gemm_streamed") {
    return std::make_unique<GemmStreamed>(o.seed);
  }
  usage(("unknown workload " + o.workload).c_str());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Accumulates samples and the run's step accounting.
struct Run {
  std::vector<double> host_ms, sim_ms;
  std::uint64_t attempted = 0, failed = 0, timed_steps = 0;
  double reference_sim_ms = -1; ///< first timed sample's sim ms per step
  std::string first_failure;

  void record(const Check& c) {
    attempted += c.attempted;
    failed += c.failed;
    if (first_failure.empty() && !c.what.empty()) {
      first_failure = c.what;
    }
  }
};

/// Times samples until `seconds` have passed and at least `min_samples` were
/// taken. A sample fails when it throws, fails the workload's own check, or
/// its simulated time per step differs from the run's first sample. Returns
/// false when a sample threw (the workload's state is then unusable).
bool time_samples(Workload& w, SpanRecorder& spans, double seconds,
                  std::size_t min_samples, Run& run,
                  std::vector<double>& host_ms) {
  const auto start = Clock::now();
  while (host_ms.size() < min_samples || ms_since(start) < seconds * 1e3) {
    Sample s;
    try {
      s = w.sample(spans);
    } catch (const std::exception& e) {
      run.attempted += 1;
      run.failed += 1;
      if (run.first_failure.empty()) {
        run.first_failure = std::string("sample threw: ") + e.what();
      }
      return false;
    }
    if (run.reference_sim_ms < 0) {
      run.reference_sim_ms = s.sim_ms_per_step;
    }
    const bool sim_same =
        std::fabs(s.sim_ms_per_step - run.reference_sim_ms) <=
        kSimTolerance * std::fabs(run.reference_sim_ms);
    run.attempted += s.steps;
    run.timed_steps += s.steps;
    if (!s.ok || !sim_same) {
      run.failed += s.steps;
      if (run.first_failure.empty()) {
        run.first_failure = !s.ok ? "sample failed the workload check"
                                  : "simulated time per step changed";
      }
    }
    host_ms.push_back(s.host_ms_per_step);
    run.sim_ms.push_back(s.sim_ms_per_step);
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_metric(std::string& out, const char* name, double value,
                const char* unit) {
  if (!out.empty()) {
    out += ", ";
  }
  out += "\"" + std::string(name) + "\": {\"value\": " + json_number(value) +
         ", \"unit\": \"" + unit + "\"}";
}

/// Per-layer values, in kLayerMetrics order.
std::vector<double> layer_values(const LayerTotals& t,
                                 const std::vector<e2e::Span>& spans,
                                 const char* workload, std::uint64_t steps,
                                 double untraced_ms, double traced_ms) {
  using e2e::per_step;
  using e2e::ratio;
  const SchedulerStats& s = t.sched;
  const TransferStats& x = s.transfers;
  const double tasks = static_cast<double>(t.tasks);
  const double ns_to_us = 1e-3;
  // `spans` holds the traced phase only. nmf::run_maps drains inside the
  // call, so on nmf_cluster its whole duration counts as invoke time.
  const bool nmf = std::strcmp(workload, "nmf_cluster") == 0;
  const double invoke_ns = e2e::total_ns(spans, nmf ? "run_maps" : "Invoke") +
                           e2e::total_ns(spans, "Gemm");
  const double drain_ns = nmf ? 0.0 : e2e::total_ns(spans, "WaitAll");
  const double host_us_total = traced_ms * 1e3 * static_cast<double>(steps);
  const double commands = static_cast<double>(t.commands);
  const std::pair<const char*, double> named[] = {
      {"exec.threads", s.exec.threads},
      {"exec.chunks_per_step", per_step(s.exec.chunks_executed, steps)},
      {"exec.steal_frac", ratio(s.exec.chunks_stolen, s.exec.chunks_executed)},
      {"exec.idle_waits_per_step", per_step(s.exec.idle_waits, steps)},
      {"scheduler.drain_ms_per_step", per_step(drain_ns * 1e-6, steps)},
      {"scheduler.invoke_us_per_task", ratio(invoke_ns * ns_to_us, tasks)},
      {"scheduler.plan_us_per_task", ratio(s.plan_time_us, tasks)},
      {"scheduler.replay_us_per_task", ratio(s.replay_time_us, tasks)},
      {"scheduler.cache_hit_frac",
       ratio(s.cache_hits,
             s.cache_hits + s.cache_misses + s.uncacheable_tasks)},
      {"scheduler.tasks_per_step", per_step(tasks, steps)},
      {"monitor.plan_us_per_task", ratio(s.monitor_plan_us, tasks)},
      {"planner.route_us_per_task", ratio(s.route_plan_us, tasks)},
      {"planner.candidates_per_copy",
       ratio(x.candidates_scanned, x.copies_planned)},
      {"planner.copies_issued_per_step", per_step(x.copies_issued, steps)},
      {"planner.copies_chunked_per_step", per_step(x.copies_chunked, steps)},
      {"planner.bytes_per_step", per_step(x.bytes_total(), steps)},
      {"planner.bytes_network_per_step",
       per_step(x.bytes_net_send + x.bytes_net_recv + x.bytes_net_staged,
                steps)},
      {"planner.bytes_p2p_per_step",
       per_step(x.bytes_p2p_same_bus + x.bytes_p2p_cross_bus, steps)},
      {"planner.bytes_host_staged_per_step",
       per_step(x.bytes_host_staged, steps)},
      {"overlap.subkernels_per_task",
       ratio(s.interior_subkernels + s.boundary_subkernels, tasks)},
      {"sim.compute_idle_frac", ratio(t.compute_idle_s, t.window_s)},
      {"spill.passes_per_step", per_step(s.spill.pass_count, steps)},
      {"spill.streamed_tasks_per_step",
       per_step(s.spill.streamed_tasks, steps)},
      {"spill.evictions_per_step", per_step(s.spill.evictions, steps)},
      {"spill.bytes_spilled_per_step", per_step(s.spill.bytes_spilled, steps)},
      {"spill.bytes_refilled_per_step",
       per_step(s.spill.bytes_refilled, steps)},
      {"node.commands_per_step", per_step(commands, steps)},
      {"node.host_us_per_command",
       ratio(host_us_total - s.plan_time_us - s.replay_time_us, commands)},
      {"sim.kernel_busy_frac", ratio(t.kernel_busy_s, t.window_s)},
      {"sim.copy_s_per_step", per_step(t.sim.copy_seconds, steps)},
      {"sim.host_uplink_busy_frac",
       ratio(t.sim.host_uplink_busy_seconds, t.window_s)},
      {"sim.host_downlink_busy_frac",
       ratio(t.sim.host_downlink_busy_seconds, t.window_s)},
      {"sim.socket_link_busy_frac",
       ratio(t.sim.socket_link_busy_seconds, t.window_s)},
      {"sim.nic_send_busy_frac",
       ratio(t.sim.nic_send_busy_seconds, t.window_s)},
      {"sim.nic_recv_busy_frac",
       ratio(t.sim.nic_recv_busy_seconds, t.window_s)},
      {"sim.bytes_h2d_per_step", per_step(t.sim.bytes_h2d, steps)},
      {"sim.bytes_d2h_per_step", per_step(t.sim.bytes_d2h, steps)},
      {"sim.bytes_p2p_per_step", per_step(t.sim.bytes_p2p, steps)},
      {"sim.bytes_network_per_step", per_step(t.sim.bytes_network, steps)},
      {"trace.overhead_frac", traced_ms / untraced_ms - 1.0},
  };
  static_assert(std::size(named) == std::size(kLayerMetrics));
  std::vector<double> values;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto* it = std::find_if(
        std::begin(named), std::end(named),
        [&](const auto& v) { return std::strcmp(v.first, m.name) == 0; });
    if (it == std::end(named)) {
      throw std::logic_error(std::string("no value for ") + m.name);
    }
    values.push_back(it->second);
  }
  return values;
}

/// Writes the host spans (with self time) and the per-layer table as a
/// Chrome trace-event file.
void write_trace(const std::string& path, const std::vector<e2e::Span>& spans,
                 const std::string& config, const std::vector<double>& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  const std::vector<double> self = e2e::self_times_ns(spans);
  std::fprintf(f, "{\"metadata\": {%s},\n\"layers\": [\n", config.c_str());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const LayerMetric& m = kLayerMetrics[i];
    std::fprintf(f,
                 "  {\"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                 "\"layer\": \"%s\", \"moves\": \"%s\", \"shows_on\": "
                 "\"%s\"}%s\n",
                 m.name, json_number(values[i]).c_str(), m.unit, m.layer,
                 m.moves, m.shows_on, i + 1 < values.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"self_us\": %.3f, "
                 "\"parent\": %d}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 self[i] * 1e-3, s.parent, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot finish " + path);
  }
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  const std::string config =
      "\"workload\": \"" + std::string(w->name()) +
      "\", \"seed\": " + std::to_string(o.seed) +
      ", \"commit\": \"" + o.commit +
      "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"devices\": " + std::to_string(kDevices) +
      ", \"invoker_threads\": " + std::to_string(kDevices) +
      ", \"exec_threads\": " + std::to_string(kExecThreads) +
      ", \"setups\": " + std::to_string(kSetups) +
      ", \"seconds\": " + json_number(o.seconds) +
      ", \"trace\": " + std::to_string(o.trace) + ", " + w->config();
  std::printf("{\"config\": {%s}}\n", config.c_str());
  std::fflush(stdout);

  Run run;
  SpanRecorder spans;
  spans.set_enabled(o.trace == 1);

  // Set up several times; setup_s is the median. The last set-up is used.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    w->setup(spans);
    setup_s.push_back(ms_since(t0) * 1e-3);
    run.attempted += w->warmup_steps();
    run.record(w->verify_setup(spans));
  }

  std::vector<double> untraced_ms, traced_ms;
  bool healthy = true;
  LayerTotals layers;
  std::size_t first_traced_span = 0, end_traced_span = 0;
  if (o.trace == 0) {
    healthy = time_samples(*w, spans, o.seconds, kMinSamples, run, untraced_ms);
  } else {
    spans.set_enabled(false);
    healthy = time_samples(*w, spans, o.seconds / 2, kMinTraceSamples, run,
                           untraced_ms);
    if (healthy) {
      first_traced_span = spans.spans().size();
      spans.set_enabled(true);
      w->begin_trace();
      const std::uint64_t steps0 = run.timed_steps;
      healthy = time_samples(*w, spans, o.seconds / 2, kMinTraceSamples, run,
                             traced_ms);
      layers = w->end_trace();
      end_traced_span = spans.spans().size();
      run.timed_steps -= steps0; // traced-phase steps only, for per-step values
    }
  }
  if (healthy) {
    try {
      run.record(w->verify_outputs(spans));
    } catch (const std::exception& e) {
      run.record(Check{1, 1, std::string("output check threw: ") + e.what()});
    }
  }
  if (!run.first_failure.empty()) {
    std::fprintf(stderr, "e2ebench: FAILURE: %s\n", run.first_failure.c_str());
  }

  std::string metrics;
  if (o.trace == 0) {
    if (!healthy) {
      std::fprintf(stderr, "e2ebench: no usable samples\n");
      return 1;
    }
    const double pass = 1.0 - static_cast<double>(run.failed) /
                                  static_cast<double>(run.attempted);
    // The p90 is printed here, not reported as a metric: on a shared host
    // it follows stretches of host slowdown more than the program, and its
    // spread over runs of the same code exceeds the 0.25 a metric may have.
    const e2e::Quartiles q = e2e::quartiles(untraced_ms);
    std::printf("{\"samples\": %zu, \"p90_samples_beyond\": %zu, "
                "\"host_ms_per_step_quartiles\": [%s, %s, %s], "
                "\"host_ms_per_step_p90\": %s}\n",
                untraced_ms.size(),
                e2e::samples_beyond(untraced_ms.size(), 90),
                json_number(q.q1).c_str(), json_number(q.q2).c_str(),
                json_number(q.q3).c_str(),
                json_number(e2e::tail_percentile(untraced_ms, 90)).c_str());
    add_metric(metrics, "host_ms_per_step", e2e::median(untraced_ms), "ms");
    add_metric(metrics, "sim_ms_per_step", run.reference_sim_ms, "sim_ms");
    add_metric(metrics, "setup_s", e2e::median(setup_s), "s");
    add_metric(metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
    add_metric(metrics, "pass_frac", pass, "ratio");
  } else {
    if (!healthy || traced_ms.empty()) {
      std::fprintf(stderr, "e2ebench: no usable traced samples\n");
      return 1;
    }
    const std::vector<e2e::Span> traced(
        spans.spans().begin() + static_cast<long>(first_traced_span),
        spans.spans().begin() + static_cast<long>(end_traced_span));
    const std::vector<double> values =
        layer_values(layers, traced, w->name(), run.timed_steps,
                     e2e::median(untraced_ms), e2e::median(traced_ms));
    std::printf("%-34s %16s  %-6s %-34s %-17s %s\n", "per-layer metric",
                "value", "unit", "layer", "moves", "shows on");
    for (std::size_t i = 0; i < values.size(); ++i) {
      const LayerMetric& m = kLayerMetrics[i];
      std::printf("%-34s %16.6g  %-6s %-34s %-17s %s\n", m.name, values[i],
                  m.unit, m.layer, m.moves, m.shows_on);
      add_metric(metrics, m.name, values[i], m.unit);
    }
    const std::string path = o.out_dir + "/trace_" + w->name() + "_seed" +
                             std::to_string(o.seed) + ".json";
    write_trace(path, spans.spans(), config, values);
    std::printf("wrote %s (%zu host spans)\n", path.c_str(),
                spans.spans().size());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed,
              metrics.c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
#if defined(E2E_UNOPTIMIZED) || defined(E2E_SANITIZED)
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "e2ebench: refusing to measure an unoptimised or "
                       "sanitizer build; configure with "
                       "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#else
  const Options o = parse(argc, argv);
  // The exec-thread count is pinned per workload; never inherit it.
  unsetenv("MAPS_EXEC_THREADS");
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
#endif
}
