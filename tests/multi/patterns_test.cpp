// Coverage of every input pattern of Table 1 and every output pattern of
// §3.2 through the full Invoke path, each verified against a sequential CPU
// reference on 1-4 devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "multi/maps_multi.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

sim::Node make_node(int devices) {
  return sim::Node(sim::homogeneous_node(sim::gtx780(), devices));
}

std::vector<float> random_floats(std::size_t n, unsigned seed, float lo = -1,
                                 float hi = 1) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& e : v) {
    e = dist(rng);
  }
  return v;
}

// --- Block(2D) x Block(2D-Transposed): matrix multiplication as a MAPS
// kernel (Table 1's canonical example) -----------------------------------------

struct MatMulKernel {
  template <typename A, typename B, typename C>
  void operator()(const maps::ThreadContext&, A& a, B& b, C& c) const {
    MAPS_FOREACH(it, c) {
      const auto row = a.aligned_row(it);
      const auto col = b.aligned_col(it);
      float acc = 0.0f;
      for (std::size_t p = 0; p < col.size(); ++p) {
        acc += row[p] * col[p];
      }
      *it = acc;
    }
    c.commit();
  }
};

class MatMulDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulDevicesTest, BlockPatternsMatchReference) {
  const int devices = GetParam();
  const std::size_t m = 60, n = 44, k = 36;
  auto a = random_floats(m * k, 1);
  auto b = random_floats(k * n, 2);
  std::vector<float> c(m * n, 0.0f);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Matrix<float> A(k, m), B(n, k), C(n, m);
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  sched.Invoke(MatMulKernel{}, Block2D<float>(A), Block2DTransposed<float>(B),
               StructuredInjective<float, 2>(C));
  sched.Gather(C);

  for (std::size_t i = 0; i < m; i += 7) {
    for (std::size_t j = 0; j < n; j += 5) {
      float ref = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        ref += a[i * k + p] * b[p * n + j];
      }
      ASSERT_NEAR(c[i * n + j], ref, 1e-4f) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MatMulDevicesTest,
                         ::testing::Values(1, 2, 4));

// --- Block(1D): all-pairs interaction ------------------------------------------

struct AllPairsKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& xs, Out& forces) const {
    MAPS_FOREACH(it, forces) {
      float acc = 0.0f;
      const float xi = xs[it.work_y()];
      MAPS_FOREACH(x, xs) { // whole buffer, as in N-body
        acc += xi - *x;
      }
      *it = acc;
    }
  }
};

// Give Block1D's plain begin/end a FOREACH-compatible face.
TEST(PatternsTest, Block1DAllPairs) {
  const std::size_t n = 300;
  auto xs = random_floats(n, 3);
  std::vector<float> out(n, 0.0f);
  const float sum = std::accumulate(xs.begin(), xs.end(), 0.0f);

  sim::Node node = make_node(3);
  Scheduler sched(node);
  Vector<float> X(n), F(n);
  X.Bind(xs.data());
  F.Bind(out.data());
  sched.Invoke(AllPairsKernel{}, Block1D<float>(X),
               StructuredInjective<float, 1>(F));
  sched.Gather(F);
  for (std::size_t i = 0; i < n; i += 13) {
    EXPECT_NEAR(out[i], xs[i] * static_cast<float>(n) - sum, 1e-2f) << i;
  }
}

// --- Window(1D): convolution ----------------------------------------------------

struct Conv1DKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      float acc = 0.0f;
      MAPS_FOREACH_ALIGNED(w, x, it) {
        acc += *w * (w.offset() == 0 ? 2.0f : 0.5f);
      }
      *it = acc;
    }
  }
};

class Window1DTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Window1DTest, ConvolutionMatchesReferenceUnderAllBoundaries) {
  const int devices = std::get<0>(GetParam());
  const int boundary = std::get<1>(GetParam());
  const std::size_t n = 501;
  auto x = random_floats(n, 4);
  std::vector<float> y(n, 0.0f);

  auto at = [&](long i) -> float {
    switch (boundary) {
    case 0: // Wrap
      return x[static_cast<std::size_t>((i % static_cast<long>(n) +
                                         static_cast<long>(n)) %
                                        static_cast<long>(n))];
    case 1: // Clamp
      return x[static_cast<std::size_t>(
          std::clamp<long>(i, 0, static_cast<long>(n) - 1))];
    default: // Zero
      return (i < 0 || i >= static_cast<long>(n))
                 ? 0.0f
                 : x[static_cast<std::size_t>(i)];
    }
  };

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  switch (boundary) {
  case 0:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::WRAP>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  case 1:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::CLAMP>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  default:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::ZERO>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  }
  sched.Gather(Y);
  for (std::size_t i = 0; i < n; ++i) {
    const float ref = 0.5f * at(static_cast<long>(i) - 1) + 2.0f * x[i] +
                      0.5f * at(static_cast<long>(i) + 1);
    ASSERT_NEAR(y[i], ref, 1e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(DevicesByBoundary, Window1DTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(0, 1, 2)));

// --- Window(2D): lateral boundaries ---------------------------------------------

/// Weight of neighbor (dx, dy) in a radius-R window: distinct per position,
/// with the center weighted apart, so a misplaced read changes the sum.
int window_weight(int dx, int dy, int radius, bool center) {
  return (dy + radius) * (2 * radius + 1) + (dx + radius) + 1 +
         (center ? 100 : 0);
}

constexpr int kBadOrder = -1000000;

/// Weighted neighborhood sum through MAPS_FOREACH_ALIGNED; also checks that
/// the iterator walks row major from (-R, -R) and flags the center.
struct WindowForeachKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    constexpr int R = In::kRadius;
    constexpr int side = 2 * R + 1;
    MAPS_FOREACH(it, y) {
      int acc = 0;
      int k = 0;
      bool in_order = true;
      MAPS_FOREACH_ALIGNED(n, x, it) {
        in_order = in_order && n.dx() == k % side - R &&
                   n.dy() == k / side - R &&
                   n.is_center() == (n.dx() == 0 && n.dy() == 0);
        acc += window_weight(n.dx(), n.dy(), R, n.is_center()) * *n;
        ++k;
      }
      *it = (in_order && k == side * side) ? acc : kBadOrder;
    }
  }
};

/// The same weighted sum through random access at(cell, dx, dy).
struct WindowAtKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    constexpr int R = In::kRadius;
    MAPS_FOREACH(it, y) {
      int acc = 0;
      for (int dy = -R; dy <= R; ++dy) {
        for (int dx = -R; dx <= R; ++dx) {
          acc += window_weight(dx, dy, R, dx == 0 && dy == 0) * x.at(it, dx, dy);
        }
      }
      *it = acc;
    }
  }
};

/// Brute-force host value of x at (i, j) under boundary `b`, applied in
/// both dimensions; NoChecks never leaves the datum (radius 0).
int boundary_read(const std::vector<int>& x, long W, long H, maps::Boundary b,
                  long i, long j) {
  switch (b) {
  case maps::Boundary::Wrap:
    i = (i % H + H) % H;
    j = (j % W + W) % W;
    break;
  case maps::Boundary::Clamp:
    i = std::clamp<long>(i, 0, H - 1);
    j = std::clamp<long>(j, 0, W - 1);
    break;
  case maps::Boundary::Zero:
    if (i < 0 || j < 0 || i >= H || j >= W) {
      return 0;
    }
    break;
  case maps::Boundary::NoChecks:
    break;
  }
  return x[static_cast<std::size_t>(i * W + j)];
}

template <maps::Boundary B, int R>
void expect_window2d_matches_reference(int devices, std::size_t W) {
  const std::size_t H = 29;
  std::mt19937 rng(static_cast<unsigned>(W * 7 + R));
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9) + 1;
  }
  std::vector<int> ref(W * H);
  for (long i = 0; i < static_cast<long>(H); ++i) {
    for (long j = 0; j < static_cast<long>(W); ++j) {
      int acc = 0;
      for (int dy = -R; dy <= R; ++dy) {
        for (int dx = -R; dx <= R; ++dx) {
          acc += window_weight(dx, dy, R, dx == 0 && dy == 0) *
                 boundary_read(x, static_cast<long>(W), static_cast<long>(H),
                               B, i + dy, j + dx);
        }
      }
      ref[static_cast<std::size_t>(i) * W + static_cast<std::size_t>(j)] =
          acc;
    }
  }

  std::vector<int> y_foreach(W * H, -1), y_at(W * H, -1);
  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Matrix<int> X(W, H), YF(W, H), YA(W, H);
  X.Bind(x.data());
  YF.Bind(y_foreach.data());
  YA.Bind(y_at.data());
  sched.Invoke(WindowForeachKernel{}, Window2D<int, R, B>(X),
               StructuredInjective<int, 2>(YF));
  sched.Invoke(WindowAtKernel{}, Window2D<int, R, B>(X),
               StructuredInjective<int, 2>(YA));
  sched.Gather(YF);
  sched.Gather(YA);
  EXPECT_EQ(y_foreach, ref) << "MAPS_FOREACH_ALIGNED";
  EXPECT_EQ(y_at, ref) << "at(cell, dx, dy)";
}

enum class WindowCase { Wrap1, Wrap2, Clamp1, Clamp2, Zero1, Zero2, NoChecks0 };

class Window2DLateralTest
    : public ::testing::TestWithParam<std::tuple<int, int, WindowCase>> {};

// Widths below 2R + 1 make a window reach past a whole row, which forces
// the multi-wrap fallback; 37 is wide enough for the in-range fast path.
TEST_P(Window2DLateralTest, NeighborhoodMatchesBruteForce) {
  const int devices = std::get<0>(GetParam());
  const auto W = static_cast<std::size_t>(std::get<1>(GetParam()));
  switch (std::get<2>(GetParam())) {
  case WindowCase::Wrap1:
    expect_window2d_matches_reference<maps::WRAP, 1>(devices, W);
    break;
  case WindowCase::Wrap2:
    expect_window2d_matches_reference<maps::WRAP, 2>(devices, W);
    break;
  case WindowCase::Clamp1:
    expect_window2d_matches_reference<maps::CLAMP, 1>(devices, W);
    break;
  case WindowCase::Clamp2:
    expect_window2d_matches_reference<maps::CLAMP, 2>(devices, W);
    break;
  case WindowCase::Zero1:
    expect_window2d_matches_reference<maps::ZERO, 1>(devices, W);
    break;
  case WindowCase::Zero2:
    expect_window2d_matches_reference<maps::ZERO, 2>(devices, W);
    break;
  case WindowCase::NoChecks0:
    expect_window2d_matches_reference<maps::NO_CHECKS, 0>(devices, W);
    break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DevicesByWidthByBoundary, Window2DLateralTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 3, 37),
                       ::testing::Values(WindowCase::Wrap1, WindowCase::Wrap2,
                                         WindowCase::Clamp1,
                                         WindowCase::Clamp2, WindowCase::Zero1,
                                         WindowCase::Zero2,
                                         WindowCase::NoChecks0)));

// --- Permutation: block-local reversal (FFT-style distribution) ----------------

struct BlockReverseKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext& tc, In& chunk, Out& y) const {
    MAPS_FOREACH(it, y) {
      const auto& g = *tc.grid;
      const std::size_t span = static_cast<std::size_t>(g.block_dim.y) *
                               g.ilp_y;
      const std::size_t local = it.work_y() - tc.block.y * span;
      *it = chunk.chunk_at(chunk.chunk_size() - 1 - local);
    }
  }
};

TEST(PatternsTest, PermutationBlockReversal) {
  const std::size_t n = 4096; // multiple of the 1-D block span (128)
  auto x = random_floats(n, 5);
  std::vector<float> y(n, 0.0f);
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(BlockReverseKernel{}, Permutation<float>(X),
               StructuredInjective<float, 1>(Y));
  sched.Gather(Y);
  for (std::size_t i = 0; i < n; i += 37) {
    const std::size_t block = i / 128, local = i % 128;
    EXPECT_EQ(y[i], x[block * 128 + 127 - local]) << i;
  }
}

// --- Unstructured Injective: scattered writes (FFT-style) -----------------------

struct BitShuffleScatter {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const std::size_t i = it.global_work_index();
      const std::size_t n = 1 << 12;
      const std::size_t dst = (i * 2654435761u) % n; // uncorrelated target
      out.write(dst, x.at(it, 0) + 1.0f);
    }
  }
};

TEST(PatternsTest, UnstructuredInjectiveScatterMergesAcrossDevices) {
  const std::size_t n = 1 << 12;
  auto x = random_floats(n, 6);
  std::vector<float> y(n, -5.0f);
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(BitShuffleScatter{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               UnstructuredInjective<float>(Y));
  sched.Gather(Y);
  // The multiplier is odd and n a power of two => the map is a bijection.
  std::vector<float> ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[(i * 2654435761u) % n] = x[i] + 1.0f;
  }
  EXPECT_EQ(y, ref);
}

// --- Reductive (Dynamic): predicate filter --------------------------------------

struct PositiveFilter {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const float v = x.at(it, 0);
      if (v > 0.0f) {
        out.append(v);
      }
    }
  }
};

class FilterDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterDevicesTest, AppendAggregationKeepsAllMatches) {
  const int devices = GetParam();
  const std::size_t n = 5000;
  auto x = random_floats(n, 7);
  std::vector<float> out(n, 0.0f);
  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Vector<float> X(n), Out(n);
  X.Bind(x.data());
  Out.Bind(out.data());
  sched.Invoke(PositiveFilter{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               ReductiveDynamic<float>(Out));
  sched.Gather(Out);

  std::vector<float> kept(out.begin(),
                          out.begin() + static_cast<long>(
                                            sched.gathered_count(Out)));
  std::vector<float> expected;
  for (float v : x) {
    if (v > 0.0f) {
      expected.push_back(v);
    }
  }
  EXPECT_EQ(kept.size(), expected.size());
  // Device-order concatenation preserves per-device order; globally the
  // multiset must match.
  std::sort(kept.begin(), kept.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(kept, expected);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, FilterDevicesTest,
                         ::testing::Values(1, 2, 3, 4));

// --- Irregular output: unknown per-thread output counts -------------------------

struct EmitDivisors {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const int v = static_cast<int>(x.at(it, 0));
      for (int d = 1; d <= v; ++d) { // v outputs for value v
        out.append(static_cast<float>(d));
      }
    }
  }
};

TEST(PatternsTest, IrregularOutputVariableCounts) {
  const std::size_t n = 600;
  std::vector<float> x(n), out(4 * n, 0.0f);
  std::mt19937 rng(8);
  std::size_t expected = 0;
  for (auto& v : x) {
    v = static_cast<float>(rng() % 4); // 0..3 outputs per element
    expected += static_cast<std::size_t>(v);
  }
  sim::Node node = make_node(2);
  Scheduler sched(node);
  Vector<float> X(n), Out(4 * n);
  X.Bind(x.data());
  Out.Bind(out.data());
  // Capacity: up to 4 outputs per element — declare via a larger datum.
  sched.Invoke(EmitDivisors{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               IrregularOutput<float>(Out));
  sched.Gather(Out);
  EXPECT_EQ(sched.gathered_count(Out), expected);
}

// --- Traversal: single-device fallback ------------------------------------------

struct ChaseKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& next, Out& out) const {
    MAPS_FOREACH(it, out) {
      // Three pointer-chasing hops: unpartitionable without replication.
      std::size_t p = it.work_y();
      for (int hop = 0; hop < 3; ++hop) {
        p = static_cast<std::size_t>(next[p]);
      }
      *it = static_cast<int>(p);
    }
  }
};

TEST(PatternsTest, TraversalFallsBackToSingleDevice) {
  const std::size_t n = 2048;
  std::vector<int> next(n), out(n, -1);
  std::mt19937 rng(9);
  for (auto& v : next) {
    v = static_cast<int>(rng() % n);
  }
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<int> NextD(n), OutD(n);
  NextD.Bind(next.data());
  OutD.Bind(out.data());
  sched.Invoke(ChaseKernel{}, Traversal<int>(NextD),
               StructuredInjective<int, 1>(OutD));
  sched.WaitAll();
  // Only device 0 computed (§3.1: Traversal is not partitioned).
  EXPECT_GT(node.stats().device_compute_seconds[0], 0.0);
  for (int d = 1; d < 4; ++d) {
    EXPECT_EQ(node.stats().device_compute_seconds[static_cast<std::size_t>(d)],
              0.0);
  }
  sched.Gather(OutD);
  for (std::size_t i = 0; i < n; i += 101) {
    std::size_t p = i;
    for (int hop = 0; hop < 3; ++hop) {
      p = static_cast<std::size_t>(next[p]);
    }
    EXPECT_EQ(out[i], static_cast<int>(p));
  }
}

// --- CSR variable-size segmentation -----------------------------------------------

struct CsrSpmvKernel {
  template <typename RowPtr, typename Cols, typename Vals, typename X,
            typename Out>
  void operator()(const maps::ThreadContext&, RowPtr& row_ptr, Cols& cols,
                  Vals& vals, X& x, Out& y) const {
    MAPS_FOREACH(row, y) {
      const auto begin = static_cast<std::size_t>(row_ptr.at(row, 0));
      const auto end = static_cast<std::size_t>(row_ptr.at(row, 1));
      float acc = 0.0f;
      for (std::size_t e = begin; e < end; ++e) {
        acc += vals[e] * x[static_cast<std::size_t>(cols[e])];
      }
      *row = acc;
    }
  }
};

TEST(CsrTest, VariableSegmentsPartitionTheSparseStructure) {
  // Random CSR matrix with highly skewed row lengths: each device receives
  // exactly the edges of its rows, not the whole structure.
  const std::size_t n = 2000;
  std::mt19937 rng(12);
  std::vector<int> row_ptr(n + 1);
  std::vector<int> cols;
  std::vector<float> vals;
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr[i] = static_cast<int>(cols.size());
    const std::size_t deg = rng() % 8;
    for (std::size_t e = 0; e < deg; ++e) {
      cols.push_back(static_cast<int>(rng() % n));
      vals.push_back(static_cast<float>(rng() % 5));
    }
  }
  row_ptr[n] = static_cast<int>(cols.size());
  std::vector<float> x(n), y(n, 0.0f);
  for (auto& v : x) {
    v = static_cast<float>(rng() % 7);
  }

  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<int> RowPtr(n + 1, "row_ptr"), Cols(cols.size(), "cols");
  Vector<float> Vals(vals.size(), "vals"), X(n, "x"), Y(n, "y");
  RowPtr.Bind(row_ptr.data());
  Cols.Bind(cols.data());
  Vals.Bind(vals.data());
  X.Bind(x.data());
  Y.Bind(y.data());

  sched.Invoke(CsrSpmvKernel{}, Window1D<int, 1, maps::CLAMP>(RowPtr),
               CsrArray<int>(Cols, row_ptr.data()),
               CsrArray<float>(Vals, row_ptr.data()), Adjacency<float>(X),
               StructuredInjective<float, 1>(Y));
  sched.Gather(Y);

  // Correctness.
  for (std::size_t i = 0; i < n; i += 17) {
    float ref = 0.0f;
    for (int e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      ref += vals[static_cast<std::size_t>(e)] *
             x[static_cast<std::size_t>(cols[static_cast<std::size_t>(e)])];
    }
    ASSERT_FLOAT_EQ(y[i], ref) << i;
  }
  // Traffic: cols+vals were PARTITIONED, not replicated — total upload of
  // the structure arrays is ~1x their size, not 4x. (x is replicated,
  // row_ptr partitioned with halo; allow slack for those.)
  const std::uint64_t structure_bytes = cols.size() * 4 + vals.size() * 4;
  const std::uint64_t replicated_everything =
      4 * (structure_bytes + n * 4) + (n + 1) * 4;
  EXPECT_LT(node.stats().bytes_h2d, replicated_everything - structure_bytes);
}

// --- ReduceScatter (framework extension) ----------------------------------------

TEST(ReduceScatterTest, DeviceSideAggregationMatchesHostGather) {
  const std::size_t n = 1024;
  std::vector<float> host_in(n, 1.0f), via_gather(n, 0.0f),
      via_rs(n, 0.0f);

  auto routine = [n](RoutineArgs& a) {
    float* acc = a.parameters[1].as<float>();
    const int slot = a.device_idx;
    sim::LaunchStats st;
    st.label = "partial";
    st.blocks = 4;
    a.node->launch(a.stream, st, [acc, n, slot] {
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] += static_cast<float>(slot + 1); // distinct partials
      }
    });
    return true;
  };

  for (bool use_rs : {false, true}) {
    sim::Node node = make_node(4);
    Scheduler sched(node);
    Vector<float> In(n, "in"), Acc(n, "acc");
    In.Bind(host_in.data());
    std::vector<float>& result = use_rs ? via_rs : via_gather;
    Acc.Bind(result.data());
    sched.InvokeUnmodified(routine, nullptr, Work{n},
                           Block2D<float>(static_cast<Datum&>(In)),
                           SumReduced<float>(Acc));
    if (use_rs) {
      sched.ReduceScatter(Acc, Work{n});
      sched.WaitAll();
      node.reset_stats();
      sched.Gather(Acc); // plain segment gather: already aggregated
      EXPECT_EQ(node.stats().bytes_d2h, n * sizeof(float));
    } else {
      sched.Gather(Acc);
    }
  }
  // 1+2+3+4 everywhere, both ways.
  EXPECT_EQ(via_gather, std::vector<float>(n, 10.0f));
  EXPECT_EQ(via_rs, via_gather);
}

} // namespace
