// libFuzzer entry point over the same targets as fuzz_jimc_main: the first
// input byte routes between the JIMC reader (over the payload or over a
// seed image it overlays), the goal parser, the request-line parser and the
// checkpoint decoder, the rest is the payload.
// Built only under -DJIM_BUILD_LIBFUZZER=ON (needs a compiler with
// -fsanitize=fuzzer, i.e. clang); the deterministic driver is the default
// path on GCC-only boxes.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  if (data[0] % 4 == 1) {
    jim::fuzz::FuzzGoalParse(data + 1, size - 1);
  } else if (data[0] % 4 == 2) {
    jim::fuzz::FuzzRequestLine(data + 1, size - 1);
  } else if (data[0] % 4 == 3) {
    jim::fuzz::FuzzCheckpoint(data + 1, size - 1);
  } else {
    const char* tmpdir = std::getenv("TMPDIR");
    static const std::string scratch =
        std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
        "/fuzz_jimc_libfuzzer.jimc";
    // data[0] / 4 picks the image: 0 is the payload itself; k > 0 is seed
    // image k − 1 (fuzz_targets.h) with the payload XORed over its first
    // bytes, so mutations start from valid one-, two- and three-factor
    // files.
    static const std::vector<std::vector<uint8_t>> seeds =
        jim::fuzz::JimcSeedImages(scratch);
    const size_t pick = (data[0] / 4) % (seeds.size() + 1);
    if (pick == 0) {
      jim::fuzz::FuzzJimcImage(data + 1, size - 1, scratch);
    } else {
      std::vector<uint8_t> image = seeds[pick - 1];
      if (image.size() < size - 1) image.resize(size - 1, 0);
      for (size_t i = 1; i < size; ++i) image[i - 1] ^= data[i];
      jim::fuzz::FuzzJimcImage(image.data(), image.size(), scratch);
    }
  }
  return 0;
}
