// simblas — the reproduction's CUBLAS stand-in (DESIGN.md §2).
//
// Provides single-GPU dense BLAS calls that enqueue simulated kernels with
// calibrated costs (GEMM efficiency from the paper's Table 4), plus
// MAPS-Multi wrapper routines in the §4.6 style so unmodified BLAS runs on
// multiple GPUs with automatically inferred exchanges.
//
// All matrices are row-major. Functional bodies compute real results on the
// CPU (used by tests and examples); in TimingOnly mode only costs accrue.
#pragma once

#include <cstddef>

#include "sim/node.hpp"

#include "multi/maps_multi.hpp"

namespace simblas {

// --- Single-GPU enqueue-style API (cuBLAS-like) -----------------------------

/// C[m,n] = alpha * A[m,k] x B[k,n] + beta * C[m,n]; enqueued on `stream` of
/// `device`. Pointers are device-buffer backing (may be null in TimingOnly).
/// With a `pool` of parallelism > 1 the functional body forks its rows in
/// chunks onto it (DESIGN.md §5.12); C is bit-identical either way.
void sgemm(sim::Node& node, int device, sim::StreamId stream, std::size_t m,
           std::size_t n, std::size_t k, float alpha, const float* a,
           const float* b, float beta, float* c,
           maps::multi::ThreadPool* pool = nullptr);

/// y = alpha * x + y over n elements.
void saxpy(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
           float alpha, const float* x, float* y);

/// out[i] = a[i] * b[i] (Hadamard product) over n elements.
void shad(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
          const float* a, const float* b, float* out);

/// out[i] = a[i] / max(b[i], eps) over n elements.
void sdiv(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
          const float* a, const float* b, float* out, float eps = 1e-9f);

/// Column sums of A[m,n] into out[n] (accumulates: out += colsum).
void scolsum(sim::Node& node, int device, sim::StreamId stream, std::size_t m,
             std::size_t n, const float* a, float* out);

// --- MAPS-Multi unmodified-routine wrappers (§4.6) ---------------------------

/// GEMM wrapper: parameters = { Block2D(A), Block2DTransposed(B),
/// StructuredInjective(C) }; constants = { alpha, beta }. Work = C's rows.
/// The body forks its rows onto `args.pool`.
bool GemmRoutine(maps::multi::RoutineArgs& args);

/// SAXPY wrapper (Fig 5): parameters = { Block2D(x), Block2D(y),
/// StructuredInjective(y) }; constants = { alpha }.
bool SaxpyRoutine(maps::multi::RoutineArgs& args);

/// Convenience: schedules C = A x B on all devices of `sched`.
maps::multi::TaskHandle Gemm(maps::multi::Scheduler& sched,
                             maps::multi::Matrix<float>& a,
                             maps::multi::Matrix<float>& b,
                             maps::multi::Matrix<float>& c,
                             float alpha = 1.0f, float beta = 0.0f);

// --- CUBLAS-XT-style baseline (§5.4) ------------------------------------------

/// NVIDIA's multi-GPU CUBLAS interface is host-based: every call takes HOST
/// pointers and internally stages tiles host<->device, which is what ruins
/// chained-kernel performance in the paper's Fig 9 / Table 4. XtHandle
/// reproduces that behaviour: per call, each device receives its A band and
/// the full B, computes, and returns its C band to the host.
class XtHandle {
public:
  XtHandle(sim::Node& node, std::vector<int> devices);
  ~XtHandle();
  XtHandle(const XtHandle&) = delete;
  XtHandle& operator=(const XtHandle&) = delete;

  /// Host-based GEMM: host_a/host_b/host_c are HOST buffers.
  void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* host_a, const float* host_b, float beta,
             float* host_c);

  void synchronize();

private:
  sim::Node& node_;
  std::vector<int> devices_;
  std::vector<sim::StreamId> streams_;
  struct Tile;
  std::vector<Tile> tiles_;
  void ensure_tiles(std::size_t m, std::size_t n, std::size_t k);
};

} // namespace simblas
