// libFuzzer entry point over the same targets as fuzz_jimc_main: the first
// input byte routes between the JIMC reader, the goal parser, the
// request-line parser and the checkpoint decoder, the rest is the payload.
// Built only under -DJIM_BUILD_LIBFUZZER=ON (needs a compiler with
// -fsanitize=fuzzer, i.e. clang); the deterministic driver is the default
// path on GCC-only boxes.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

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
    jim::fuzz::FuzzJimcImage(data + 1, size - 1, scratch);
  }
  return 0;
}
