// Unmodified GPU routine support (§4.6, Fig 5 of the paper).
//
// Highly optimized existing routines (CUBLAS-style libraries) run on
// multiple GPUs through wrapper functions with a predetermined prototype:
// the scheduler still derives segmentation and inter-GPU exchanges from the
// declared access patterns, but instead of sweeping a MAPS kernel it calls
// the wrapper once per device with the device index, stream, buffer
// pointers and their memory segments — the wrapper enqueues whatever device
// work it wants (Fig 5 does exactly this with cublasSaxpy).
#pragma once

#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/node.hpp"

#include "multi/pattern_spec.hpp"

namespace maps::multi {

class ThreadPool;

/// One container argument as seen by the routine on one device: the device
/// buffer plus the geometry of the local segment.
struct RoutineParam {
  sim::Buffer* buffer = nullptr;
  std::size_t byte_offset = 0; ///< Segment start within the buffer.
  DeviceView view;             ///< Full local geometry.

  /// Typed pointer to the segment start (Functional mode only).
  template <typename T> T* as() const {
    return buffer->has_backing() ? buffer->as<T>(byte_offset) : nullptr;
  }
};

/// Shape of one container's local segment (the paper's container_segments).
struct Segment {
  std::size_t global_row_begin = 0;
  std::size_t global_row_end = 0;
  /// Local segment dimensions: m_dimensions[0] is the partitioned extent.
  std::vector<std::size_t> m_dimensions;
  std::size_t rows() const { return global_row_end - global_row_begin; }
};

/// Everything a routine wrapper receives per device (Fig 5's argument list).
struct RoutineArgs {
  sim::Node* node = nullptr;
  int device_idx = 0;  ///< Scheduler slot.
  int sim_device = 0;  ///< Simulator device id.
  sim::StreamId stream = 0;
  void* context = nullptr; ///< Programmer-generated context object.
  /// The execution backend's worker pool (DESIGN.md §5.12), or null on the
  /// sequential path. A routine's functional body may fork its output rows
  /// onto it; the pool outlives every body the routine enqueues.
  ThreadPool* pool = nullptr;

  std::vector<RoutineParam> parameters;
  std::vector<Segment> container_segments;
  std::vector<std::vector<std::byte>> constants;

  /// GetConstantParameter (Fig 5 line 4).
  template <typename T> T constant(std::size_t index) const {
    if (index >= constants.size() ||
        constants[index].size() != sizeof(T)) {
      throw std::invalid_argument("routine: bad constant parameter access");
    }
    T value;
    std::memcpy(&value, constants[index].data(), sizeof(T));
    return value;
  }
};

/// Wrapper prototype. Return false to signal failure (surfaces as an
/// exception at the next scheduler synchronization point).
using UnmodifiedRoutine = std::function<bool(RoutineArgs&)>;

/// Invocation-specific constant input (§2.1: fixed-size parameters needed by
/// all GPUs, e.g. computational factors).
template <typename T> struct Constant {
  explicit Constant(const T& v) : value(v) {}
  T value;
};

/// Explicit work dimensions for unmodified-routine tasks (MAPS kernels
/// derive theirs from the output containers; routines have no grid).
struct Work {
  std::size_t rows = 0;
  std::size_t cols = 1;
  /// Forces the task onto a single device (e.g. baseline systems that
  /// perform all weight updates on one GPU, §6.1).
  bool single_device = false;
};

} // namespace maps::multi
