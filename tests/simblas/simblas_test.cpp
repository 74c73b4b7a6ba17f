// simblas: functional correctness of the BLAS stand-in, multi-GPU GEMM via
// unmodified routines, chained-GEMM residency, and the XT baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "simblas/simblas.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

std::vector<float> random_matrix(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> m(n);
  for (auto& v : m) {
    v = dist(rng);
  }
  return m;
}

std::vector<float> gemm_reference(const std::vector<float>& a,
                                  const std::vector<float>& b, std::size_t m,
                                  std::size_t n, std::size_t k) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += a[i * k + p] * b[p * n + j];
      }
    }
  }
  return c;
}

void expect_near(const std::vector<float>& a, const std::vector<float>& b,
                 float tol = 1e-4f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
  }
}

TEST(SimblasTest, SingleDeviceSgemmMatchesReference) {
  const std::size_t m = 33, n = 47, k = 29;
  auto a = random_matrix(m * k, 1);
  auto b = random_matrix(k * n, 2);
  std::vector<float> c(m * n, 0.0f);
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  sim::Buffer* da = node.malloc_device(0, a.size() * 4);
  sim::Buffer* db = node.malloc_device(0, b.size() * 4);
  sim::Buffer* dc = node.malloc_device(0, c.size() * 4);
  const auto s = node.default_stream(0);
  node.memcpy_h2d(s, da, 0, a.data(), a.size() * 4);
  node.memcpy_h2d(s, db, 0, b.data(), b.size() * 4);
  simblas::sgemm(node, 0, s, m, n, k, 1.0f, da->as<float>(), db->as<float>(),
                 0.0f, dc->as<float>());
  node.memcpy_d2h(s, c.data(), dc, 0, c.size() * 4);
  node.synchronize();
  expect_near(c, gemm_reference(a, b, m, n, k));
}

class GemmDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmDevicesTest, MultiGpuGemmViaUnmodifiedRoutine) {
  const int devices = GetParam();
  const std::size_t m = 96, n = 64, k = 48;
  auto a = random_matrix(m * k, 3);
  auto b = random_matrix(k * n, 4);
  std::vector<float> c(m * n, -1.0f);

  sim::Node node(sim::homogeneous_node(sim::gtx980(), devices));
  Scheduler sched(node);
  Matrix<float> A(k, m, "A"), B(n, k, "B"), C(n, m, "C");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  simblas::Gemm(sched, A, B, C);
  sched.Gather(C);
  expect_near(c, gemm_reference(a, b, m, n, k));
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, GemmDevicesTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(SimblasTest, ChainedGemmKeepsDataResident) {
  // §5.4: chained multiplications over MAPS-Multi exchange nothing after the
  // first upload — unlike the XT baseline below.
  const std::size_t n = 64;
  auto a = random_matrix(n * n, 5);
  auto b = random_matrix(n * n, 6);
  std::vector<float> c1(n * n), c2(n * n);

  sim::Node node(sim::homogeneous_node(sim::titan_black(), 4));
  Scheduler sched(node);
  Matrix<float> A(n, n, "A"), B(n, n, "B"), C1(n, n, "C1"), C2(n, n, "C2");
  A.Bind(a.data());
  B.Bind(b.data());
  C1.Bind(c1.data());
  C2.Bind(c2.data());

  simblas::Gemm(sched, A, B, C1);
  sched.WaitAll();
  node.reset_stats();
  // Chain: C2 = C1 x B, C1 = C2 x B, ... — all operands already resident.
  simblas::Gemm(sched, C1, B, C2);
  simblas::Gemm(sched, C2, B, C1);
  simblas::Gemm(sched, C1, B, C2);
  sched.WaitAll();
  EXPECT_EQ(node.stats().bytes_h2d, 0u);
  EXPECT_EQ(node.stats().bytes_p2p, 0u);
  EXPECT_EQ(node.stats().bytes_d2h, 0u);
  // And the chain is numerically right.
  sched.Gather(C2);
  auto ref = gemm_reference(a, b, n, n, n);     // C1
  ref = gemm_reference(ref, b, n, n, n);        // C2
  ref = gemm_reference(ref, b, n, n, n);        // C1
  ref = gemm_reference(ref, b, n, n, n);        // C2
  expect_near(c2, ref, 2e-3f);
}

TEST(SimblasTest, XtBaselineStagesEveryCall) {
  const std::size_t n = 32;
  auto a = random_matrix(n * n, 7);
  auto b = random_matrix(n * n, 8);
  std::vector<float> c(n * n, 0.0f);
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  simblas::XtHandle xt(node, {0, 1});
  xt.sgemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
  xt.synchronize();
  expect_near(c, gemm_reference(a, b, n, n, n));
  const auto h2d_one = node.stats().bytes_h2d;
  EXPECT_GT(h2d_one, 0u);
  xt.sgemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
  xt.synchronize();
  // Second call re-uploads everything: the host-based-API flaw of §5.4.
  EXPECT_EQ(node.stats().bytes_h2d, 2 * h2d_one);
}

TEST(SimblasTest, ElementwiseKernels) {
  const std::size_t n = 1000;
  std::vector<float> a(n), b(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = 2.0f;
  }
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  sim::Buffer* da = node.malloc_device(0, n * 4);
  sim::Buffer* db = node.malloc_device(0, n * 4);
  sim::Buffer* dout = node.malloc_device(0, n * 4);
  const auto s = node.default_stream(0);
  node.memcpy_h2d(s, da, 0, a.data(), n * 4);
  node.memcpy_h2d(s, db, 0, b.data(), n * 4);
  simblas::shad(node, 0, s, n, da->as<float>(), db->as<float>(),
                dout->as<float>());
  node.memcpy_d2h(s, out.data(), dout, 0, n * 4);
  node.synchronize();
  EXPECT_FLOAT_EQ(out[9], 20.0f);
  simblas::sdiv(node, 0, s, n, da->as<float>(), db->as<float>(),
                dout->as<float>());
  node.memcpy_d2h(s, out.data(), dout, 0, n * 4);
  node.synchronize();
  EXPECT_FLOAT_EQ(out[9], 5.0f);
  std::vector<float> colsum(10, 0.0f);
  sim::Buffer* dcs = node.malloc_device(0, 10 * 4);
  node.memset_device(s, dcs, 0, 0, 10 * 4);
  simblas::scolsum(node, 0, s, 100, 10, da->as<float>(), dcs->as<float>());
  node.memcpy_d2h(s, colsum.data(), dcs, 0, 10 * 4);
  node.synchronize();
  // Column j of the 100x10 view of a: sum_{i} (10 i + j + 1).
  EXPECT_FLOAT_EQ(colsum[0], 100.0f * 99.0f / 2.0f * 10.0f + 100.0f);
}

/// The functional sgemm body as it was before row chunking and register
/// tiling, verbatim. The current body must match it bit for bit.
void legacy_sgemm_body(std::size_t m, std::size_t n, std::size_t k,
                       float alpha, const float* a, const float* b,
                       float beta, float* c) {
  // Cache-friendly i-k-j loop.
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    if (beta == 0.0f) {
      std::memset(ci, 0, n * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] *= beta;
      }
    }
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = alpha * a[i * k + p];
      if (aip == 0.0f) {
        continue;
      }
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] += aip * bp[j];
      }
    }
  }
}

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// A (m x k) with scattered zeros, B (k x n) and C (m x n) random. When
/// k > 1, column k/2 of A is all zero and row k/2 of B holds an Inf, so
/// only skipping zero A entries keeps C[0, n/2] finite. C's last element is
/// a NaN that only beta == 0's memset clears.
struct GemmOperands {
  std::vector<float> a, b, c;
};

GemmOperands gemm_operands(std::size_t m, std::size_t n, std::size_t k,
                           unsigned seed) {
  GemmOperands g{random_matrix(m * k, seed), random_matrix(k * n, seed + 1),
                 random_matrix(m * n, seed + 2)};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      if ((i + 3 * p) % 7 == 2) {
        g.a[i * k + p] = 0.0f;
      }
    }
  }
  if (k > 1) {
    const std::size_t pz = k / 2;
    for (std::size_t i = 0; i < m; ++i) {
      g.a[i * k + pz] = 0.0f;
    }
    g.b[pz * n + n / 2] = std::numeric_limits<float>::infinity();
  }
  g.c.back() = std::numeric_limits<float>::quiet_NaN();
  return g;
}

TEST(SimblasTest, SgemmBodyMatchesLegacyLoopBitForBit) {
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool4};
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  const auto s = node.default_stream(0);
  unsigned seed = 100;
  for (std::size_t m : {1, 3, 37, 128}) {
    for (std::size_t n : {1, 31, 33, 256}) {
      for (std::size_t k : {1, 17, 256}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          // 0.7 is not a power of two, so it also pins that alpha scales
          // the A entry before the product.
          for (float alpha : {1.0f, -2.0f, 0.7f}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " n=" << n << " k=" << k
                         << " alpha=" << alpha << " beta=" << beta);
            const GemmOperands g = gemm_operands(m, n, k, seed);
            seed += 3;
            std::vector<float> want = g.c;
            legacy_sgemm_body(m, n, k, alpha, g.a.data(), g.b.data(), beta,
                              want.data());
            if (k > 1 && m * n - 1 != n / 2) {
              ASSERT_TRUE(std::isfinite(want[n / 2])) << "zero skip unpinned";
            }
            for (ThreadPool* pool : pools) {
              std::vector<float> got = g.c;
              simblas::sgemm(node, 0, s, m, n, k, alpha, g.a.data(),
                             g.b.data(), beta, got.data(), pool);
              node.synchronize();
              ASSERT_TRUE(same_bytes(got, want))
                  << "pool parallelism "
                  << (pool == nullptr ? 0 : pool->parallelism());
            }
          }
        }
      }
    }
  }
}

TEST(SimblasTest, GemmChainIsByteEqualAcrossExecThreadsAndBudgets) {
  // A tall chain C = A x B, D = C x B, C = D x B on 4 devices; n = 80 leaves
  // a column tail beside the register tiles. In core and under a budget of a
  // quarter of the per-slot working set (every link streamed), at every
  // exec thread count, C must equal the legacy body run on the host.
  const std::size_t m = 1024, k = 80;
  std::vector<float> a = random_matrix(m * k, 11);
  for (std::size_t i = 0; i < a.size(); i += 5) {
    a[i] = 0.0f;
  }
  const std::vector<float> b = random_matrix(k * k, 12);
  std::vector<float> want(m * k, 0.0f), tmp(m * k, 0.0f);
  legacy_sgemm_body(m, k, k, 1.0f, a.data(), b.data(), 0.0f, want.data());
  legacy_sgemm_body(m, k, k, 1.0f, want.data(), b.data(), 0.0f, tmp.data());
  legacy_sgemm_body(m, k, k, 1.0f, tmp.data(), b.data(), 0.0f, want.data());

  const int devices = 4;
  const std::size_t stripe = m * k * sizeof(float);
  const std::size_t budget =
      (3 * stripe / devices + k * k * sizeof(float)) / 4;
  for (std::size_t bytes : {std::size_t{0}, budget}) {
    for (unsigned threads : {0u, 1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "budget=" << bytes << " exec threads=" << threads);
      std::vector<float> a_host = a, b_host = b, c(m * k, 0.0f),
                         d(m * k, 0.0f);
      sim::Node node(sim::homogeneous_node(sim::gtx780(), devices));
      Scheduler sched(node);
      sched.set_exec_threads(threads);
      sched.set_device_memory_budget(bytes);
      Matrix<float> A(k, m, "A"), B(k, k, "B"), C(k, m, "C"), D(k, m, "D");
      A.Bind(a_host.data());
      B.Bind(b_host.data());
      C.Bind(c.data());
      D.Bind(d.data());
      simblas::Gemm(sched, A, B, C);
      simblas::Gemm(sched, C, B, D);
      simblas::Gemm(sched, D, B, C);
      sched.Gather(C);
      EXPECT_EQ(sched.stats().spill.streamed_tasks, bytes == 0 ? 0u : 3u);
      EXPECT_TRUE(same_bytes(c, want));
    }
  }
}

TEST(SimblasTest, StreamedGemmLinksDoNotGrowTheEventTable) {
  // Streamed dispatch releases its window events once the task drains, so a
  // long streamed chain reuses the same simulator event ids.
  const std::size_t m = 1024, k = 80;
  std::vector<float> a = random_matrix(m * k, 13), b = random_matrix(k * k, 14),
                     c(m * k, 0.0f);
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 4));
  Scheduler sched(node);
  sched.set_exec_threads(2);
  sched.set_device_memory_budget(
      (3 * m * k * sizeof(float) / 4 + k * k * sizeof(float)) / 4);
  Matrix<float> A(k, m, "A"), B(k, k, "B"), C(k, m, "C");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  simblas::Gemm(sched, A, B, C);
  sched.WaitAll();
  // create_event() hands out the next table slot when nothing is free.
  const sim::EventId before = node.create_event();
  for (int link = 0; link < 20; ++link) {
    simblas::Gemm(sched, A, B, C);
  }
  sched.WaitAll();
  EXPECT_EQ(sched.stats().spill.streamed_tasks, 21u);
  EXPECT_EQ(node.create_event(), before + 1);
}

TEST(SimblasTest, GemmDimensionMismatchThrows) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  Scheduler sched(node);
  std::vector<float> buf(64 * 64);
  Matrix<float> A(64, 64), B(32, 64), C(64, 64);
  A.Bind(buf.data());
  B.Bind(buf.data());
  C.Bind(buf.data());
  EXPECT_THROW(simblas::Gemm(sched, A, B, C), std::invalid_argument);
}

} // namespace
