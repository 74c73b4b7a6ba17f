// Device memory accounting: capacity enforcement, OOM diagnostics, zeroed
// fresh allocations, TimingOnly accounting without backing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "sim/memory.hpp"
#include "sim/node.hpp"
#include "sim/presets.hpp"

namespace {

TEST(MemoryTest, AllocateFreeAccounting) {
  sim::DeviceAllocator alloc(0, 1024, /*functional=*/true);
  sim::Buffer* a = alloc.allocate(256);
  sim::Buffer* b = alloc.allocate(512);
  EXPECT_EQ(alloc.used(), 768u);
  EXPECT_EQ(alloc.allocation_count(), 2u);
  alloc.free(a);
  EXPECT_EQ(alloc.used(), 512u);
  alloc.free(b);
  EXPECT_EQ(alloc.used(), 0u);
}

TEST(MemoryTest, OutOfMemoryThrowsWithDiagnostics) {
  sim::DeviceAllocator alloc(3, 1000, true);
  alloc.allocate(800);
  try {
    alloc.allocate(300);
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const sim::OutOfDeviceMemory& e) {
    EXPECT_EQ(e.device, 3);
    EXPECT_EQ(e.requested, 300u);
    EXPECT_EQ(e.used, 800u);
    EXPECT_EQ(e.capacity, 1000u);
    EXPECT_NE(std::string(e.what()).find("device 3"), std::string::npos);
  }
}

TEST(MemoryTest, FreedMemoryIsReusable) {
  sim::DeviceAllocator alloc(0, 1000, true);
  sim::Buffer* a = alloc.allocate(900);
  alloc.free(a);
  EXPECT_NO_THROW(alloc.allocate(900));
}

TEST(MemoryTest, ZeroSizeAllocationRejected) {
  sim::DeviceAllocator alloc(0, 1000, true);
  EXPECT_THROW(alloc.allocate(0), std::invalid_argument);
}

TEST(MemoryTest, ForeignFreeRejected) {
  sim::DeviceAllocator a(0, 1000, true);
  sim::DeviceAllocator b(1, 1000, true);
  sim::Buffer* buf = a.allocate(100);
  EXPECT_THROW(b.free(buf), std::invalid_argument);
  a.free(buf);
}

TEST(MemoryTest, FreshDeviceMemoryReadsAsZero) {
  constexpr std::size_t kBytes = 1 << 20;
  sim::DeviceAllocator alloc(0, 2 * kBytes, true);
  sim::Buffer* buf = alloc.allocate(64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(buf->data()[i], std::byte{0});
  }
  // The host heap hands a freed block straight back: the new buffer must
  // not see what the freed one held.
  for (std::size_t bytes : {kBytes, std::size_t{4096}, std::size_t{64}}) {
    sim::Buffer* dirty = alloc.allocate(bytes);
    std::fill_n(dirty->data(), bytes, std::byte{0xA5});
    alloc.free(dirty);
    sim::Buffer* fresh = alloc.allocate(bytes);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      nonzero += fresh->data()[i] != std::byte{0} ? 1 : 0;
    }
    EXPECT_EQ(nonzero, 0u) << bytes << " B";
    alloc.free(fresh);
  }
}

TEST(MemoryTest, TimingOnlyHasNoBackingButCountsCapacity) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1),
                 sim::ExecMode::TimingOnly);
  sim::Buffer* buf = node.malloc_device(0, 1 << 30);
  EXPECT_FALSE(buf->has_backing());
  EXPECT_EQ(node.device_mem_used(0), 1u << 30);
  // GTX 780 has 3 GiB; two more of these fit, a third does not.
  node.malloc_device(0, 1 << 30);
  node.malloc_device(0, 1 << 30);
  EXPECT_THROW(node.malloc_device(0, 1 << 30), sim::OutOfDeviceMemory);
}

TEST(MemoryTest, NodeCapacityMatchesSpec) {
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 2));
  EXPECT_EQ(node.device_mem_capacity(0), 4ull << 30);
  EXPECT_EQ(node.device_mem_used(1), 0u);
}

} // namespace
