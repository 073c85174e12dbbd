// Shared fixtures and helpers for the Copier test suite.
#ifndef COPIER_TESTS_TEST_UTIL_H_
#define COPIER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/linux_glue.h"
#include "src/core/service.h"
#include "src/libcopier/libcopier.h"
#include "src/simos/kernel.h"

namespace copier::test {

// `n` bytes of a deterministic pattern derived from `seed`.
inline std::vector<uint8_t> PatternBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

// Fills `n` bytes at `va` with PatternBytes(n, seed).
inline void FillPattern(simos::AddressSpace& space, uint64_t va, size_t n, uint64_t seed) {
  const std::vector<uint8_t> bytes = PatternBytes(n, seed);
  ASSERT_TRUE(space.WriteBytes(va, bytes.data(), n).ok());
}

inline std::vector<uint8_t> ReadAll(simos::AddressSpace& space, uint64_t va, size_t n) {
  std::vector<uint8_t> bytes(n);
  EXPECT_TRUE(space.ReadBytes(va, bytes.data(), n).ok());
  return bytes;
}

inline void ExpectSameBytes(simos::AddressSpace& space, uint64_t a, uint64_t b, size_t n) {
  const auto left = ReadAll(space, a, n);
  const auto right = ReadAll(space, b, n);
  EXPECT_EQ(left, right);
}

// A full manual-mode stack: kernel, Copier service, Copier-Linux glue, one
// attached process with a CopierLib.
class CopierStack {
 public:
  explicit CopierStack(core::CopierConfig config = {},
                       simos::PhysicalMemory::AllocPolicy policy =
                           simos::PhysicalMemory::AllocPolicy::kSequential) {
    simos::SimKernel::Config kconfig;
    kconfig.alloc_policy = policy;
    kernel = std::make_unique<simos::SimKernel>(kconfig);
    core::CopierService::Options options;
    options.config = config;
    service = std::make_unique<core::CopierService>(std::move(options));
    glue = std::make_unique<core::CopierLinux>(service.get(), kernel.get());
    glue->Install();
    proc = kernel->CreateProcess("test");
    client = service->AttachProcess(proc);
    lib = std::make_unique<lib::CopierLib>(client, service.get());
  }

  // Maps and populates an anonymous buffer; returns its VA.
  uint64_t Map(size_t n, const std::string& name = "buf", bool populate = true) {
    auto va = proc->mem().MapAnonymous(n, name, populate);
    EXPECT_TRUE(va.ok());
    return *va;
  }

  std::unique_ptr<simos::SimKernel> kernel;
  std::unique_ptr<core::CopierService> service;
  std::unique_ptr<core::CopierLinux> glue;
  simos::Process* proc = nullptr;
  core::Client* client = nullptr;
  std::unique_ptr<lib::CopierLib> lib;
};

}  // namespace copier::test

#endif  // COPIER_TESTS_TEST_UTIL_H_
