#include "sim/memory.hpp"

#include <algorithm>

namespace sim {

namespace {
std::string oom_message(int device, std::size_t requested, std::size_t used,
                        std::size_t capacity) {
  return "out of device memory on device " + std::to_string(device) +
         ": requested " + std::to_string(requested) + " B, used " +
         std::to_string(used) + " B of " + std::to_string(capacity) + " B";
}
} // namespace

OutOfDeviceMemory::OutOfDeviceMemory(int device, std::size_t requested,
                                     std::size_t used, std::size_t capacity)
    : std::runtime_error(oom_message(device, requested, used, capacity)),
      device(device), requested(requested), used(used), capacity(capacity) {}

Buffer::Buffer(int device, std::size_t bytes, bool functional)
    : device_(device), bytes_(bytes) {
  if (functional) {
    // Value-initialised: fresh device memory reads as zero.
    data_ = std::make_unique<std::byte[]>(bytes);
  }
}

DeviceAllocator::DeviceAllocator(int device, std::size_t capacity,
                                 bool functional)
    : device_(device), capacity_(capacity), functional_(functional) {}

Buffer* DeviceAllocator::allocate(std::size_t bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("DeviceAllocator::allocate: zero-size");
  }
  if (used_ + bytes > capacity_) {
    throw OutOfDeviceMemory(device_, bytes, used_, capacity_);
  }
  auto buffer =
      std::unique_ptr<Buffer>(new Buffer(device_, bytes, functional_));
  Buffer* raw = buffer.get();
  live_.push_back(std::move(buffer));
  used_ += bytes;
  return raw;
}

void DeviceAllocator::free(Buffer* buffer) {
  auto it = std::find_if(live_.begin(), live_.end(),
                         [&](const auto& p) { return p.get() == buffer; });
  if (it == live_.end()) {
    throw std::invalid_argument(
        "DeviceAllocator::free: buffer not owned by this device");
  }
  used_ -= (*it)->size();
  live_.erase(it);
}

} // namespace sim
