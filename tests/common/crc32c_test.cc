#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "common/rng.h"

namespace snapper {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vectors (RFC 3720 / iSCSI).
  std::string all_zero(32, '\0');
  EXPECT_EQ(crc32c::Value(all_zero), 0x8a9136aau);

  std::string all_ff(32, '\xff');
  EXPECT_EQ(crc32c::Value(all_ff), 0x62a8ab43u);

  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending), 0x46dd794eu);

  EXPECT_EQ(crc32c::Value("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, ExtendComposes) {
  std::string data = "hello world, this is a wal record";
  uint32_t whole = crc32c::Value(data);
  uint32_t split = crc32c::Value(data.data(), 10);
  split = crc32c::Extend(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "some payload bytes";
  uint32_t original = crc32c::Value(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] ^= 0x01;
    EXPECT_NE(crc32c::Value(corrupt), original) << "byte " << i;
  }
}

TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  // Extend runs the SSE4.2 path where the CPU has it; on other machines this
  // compares the table loop with itself.
  std::cout << "crc32c hardware path: "
            << (crc32c::internal::UsesHardware() ? "yes" : "no") << "\n";
  Rng rng(42);
  std::string buf(4097 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4097; ++len) {
      const char* data = buf.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(crc32c::Extend(seed, data, len),
                crc32c::internal::ExtendTable(seed, data, len))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace snapper
