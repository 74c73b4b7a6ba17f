#include "apps/game_of_life.hpp"

namespace apps::gol {

using namespace maps::multi;

namespace {

/// Toroidal coordinate: `v` itself when inside [0, n), so only cells on the
/// world's edge pay for the modulo.
long wrap(long v, long n) { return (v >= 0 && v < n) ? v : (v % n + n) % n; }

} // namespace

CostHints maps_cost_hints() {
  CostHints h;
  h.flops_per_elem = 10.0;    // neighbor adds + rule compare
  h.instr_per_thread = 14.0;  // index math, loop control
  return h;
}

bool NaiveTickRoutine(RoutineArgs& args) {
  const DeviceView in = args.parameters[0].view;
  const DeviceView out = args.parameters[1].view;
  const std::size_t rows = args.container_segments[1].m_dimensions[0];
  const std::size_t width = args.container_segments[1].m_dimensions[1];
  const std::size_t row0 = args.container_segments[1].global_row_begin;

  sim::LaunchStats st;
  st.label = "gol::naive";
  st.blocks = std::max<std::uint64_t>(1, rows * width / 256);
  st.threads_per_block = 256;
  const std::uint64_t elems = rows * width;
  // Per cell: ~5 read transactions (8 neighbors + self, partially served
  // by cache) + one coalesced write. Calibrated against Fig 7's ratios; see
  // presets.cpp.
  st.global_bytes_read = static_cast<std::uint64_t>(elems * 5.0 * 4.0);
  st.global_bytes_written = elems * 4;
  st.flops = elems * 10;
  st.instr_overhead = elems * 6;

  args.node->launch(args.stream, st, [in, out, rows, width, row0] {
    const long w = static_cast<long>(width);
    for (std::size_t r = 0; r < rows; ++r) {
      const long gy = static_cast<long>(row0 + r);
      int* dst = reinterpret_cast<int*>(
          out.base + static_cast<std::size_t>(gy - out.origin) * out.pitch);
      for (long x = 0; x < w; ++x) {
        int live = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          const long ly = gy + dy - in.origin;
          const int* src_row = reinterpret_cast<const int*>(
              in.base + static_cast<std::size_t>(ly) * in.pitch);
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) {
              continue;
            }
            live += src_row[wrap(x + dx, w)];
          }
        }
        const long lyc = gy - in.origin;
        const int alive = reinterpret_cast<const int*>(
            in.base + static_cast<std::size_t>(lyc) * in.pitch)[x];
        dst[x] = (live == 3 || (alive && live == 2)) ? 1 : 0;
      }
    }
  });
  return true;
}

namespace {

template <int ILPX, int ILPY>
void run_maps_iterations(Scheduler& sched, Matrix<int>& a, Matrix<int>& b,
                         int iterations) {
  using Win = typename MapsTick<ILPX, ILPY>::Win;
  using Out = typename MapsTick<ILPX, ILPY>::Out;
  sched.AnalyzeCall(Win(a), Out(b));
  sched.AnalyzeCall(Win(b), Out(a));
  for (int i = 0; i < iterations; ++i) {
    if (i % 2 == 0) {
      sched.Invoke(maps_cost_hints(), MapsTick<ILPX, ILPY>{}, Win(a), Out(b));
    } else {
      sched.Invoke(maps_cost_hints(), MapsTick<ILPX, ILPY>{}, Win(b), Out(a));
    }
  }
}

void run_naive_iterations(Scheduler& sched, Matrix<int>& a, Matrix<int>& b,
                          int iterations) {
  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  // Analyze with the routine's own work space: a kernel-shaped analysis
  // partitions rows on thread-block boundaries, which differ from the
  // routine's row partition when the height is not a block multiple.
  const Work work{a.height(), 1};
  sched.AnalyzeCall(work, Win(a), Out(b));
  sched.AnalyzeCall(work, Win(b), Out(a));
  for (int i = 0; i < iterations; ++i) {
    Matrix<int>& in = (i % 2 == 0) ? a : b;
    Matrix<int>& out = (i % 2 == 0) ? b : a;
    sched.InvokeUnmodified(NaiveTickRoutine, nullptr, work, Win(in),
                           Out(out));
  }
}

} // namespace

double run(Scheduler& sched, Matrix<int>& a, Matrix<int>& b, int iterations,
           Scheme scheme) {
  sched.WaitAll();
  const double t0 = sched.node().now_ms();
  switch (scheme) {
  case Scheme::Naive:
    run_naive_iterations(sched, a, b, iterations);
    break;
  case Scheme::Maps:
    run_maps_iterations<1, 1>(sched, a, b, iterations);
    break;
  case Scheme::MapsIlp:
    run_maps_iterations<4, 2>(sched, a, b, iterations); // 4 cols x 2 rows
    break;
  }
  sched.Gather((iterations % 2 == 0) ? a : b);
  return sched.node().now_ms() - t0;
}

void reference_tick(std::vector<int>& grid, std::size_t width,
                    std::size_t height) {
  std::vector<int> next(grid.size());
  const long w = static_cast<long>(width);
  const long h = static_cast<long>(height);
  for (long y = 0; y < h; ++y) {
    for (long x = 0; x < w; ++x) {
      int live = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        const int* row = grid.data() + wrap(y + dy, h) * w;
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) {
            continue;
          }
          live += row[wrap(x + dx, w)];
        }
      }
      const int alive = grid[static_cast<std::size_t>(y * w + x)];
      next[static_cast<std::size_t>(y * w + x)] =
          (live == 3 || (alive && live == 2)) ? 1 : 0;
    }
  }
  grid = std::move(next);
}

} // namespace apps::gol
