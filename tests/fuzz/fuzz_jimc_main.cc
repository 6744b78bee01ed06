// Deterministic fuzz driver for the JIMC reader, the --goal parser, the
// serving protocol's request parser and the session checkpoint decoder.
//
// No fuzzing runtime, no wall clock, no address-dependent state: the whole
// run is a pure function of (--seed, --iterations), so any finding
// reproduces from the two numbers in the failure output. Each iteration
// mutates one of four WriteStore-produced seed images (byte flips,
// truncations, extensions, header scribbles, cross-image splices, window
// zeroing — the corruption matrix of jimc_format_test generalized
// to arbitrary damage), one goal string, one request line and one
// checkpoint file, then drives the fuzz targets, which JIM_CHECK the
// "typed Status or safe object" contract. ci.sh runs
// this under ASAN+UBSAN for thousands of iterations; a ctest smoke entry
// keeps it from bit-rotting in plain builds.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.h"
#include "serve/checkpoint.h"
#include "storage/format.h"
#include "util/check.h"
#include "util/rng.h"

namespace jim::fuzz {
namespace {

using Image = std::vector<uint8_t>;

uint32_t LoadU32(const Image& image, size_t offset) {
  uint32_t value = 0;
  std::memcpy(&value, image.data() + offset, sizeof(value));
  return value;
}

void StoreU64(Image& image, size_t offset, uint64_t value) {
  std::memcpy(image.data() + offset, &value, sizeof(value));
}

/// Re-fixes the self-describing fields a structural mutation breaks first —
/// the header's file_bytes and every in-bounds section checksum — so a
/// fraction of mutants penetrates past the outer validation layers into the
/// dictionary/code parsing instead of dying at the first checksum.
void FixChecksums(Image& image) {
  if (image.size() < storage::kHeaderBytes) return;
  StoreU64(image, 32, image.size());
  const uint32_t num_sections = LoadU32(image, 20);
  const size_t table_capacity =
      (image.size() - storage::kHeaderBytes) / storage::kSectionEntryBytes;
  const size_t entries =
      std::min<size_t>(num_sections, table_capacity);
  for (size_t s = 0; s < entries; ++s) {
    const size_t entry = storage::kHeaderBytes +
                         s * storage::kSectionEntryBytes;
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, image.data() + entry + 8, sizeof(offset));
    std::memcpy(&length, image.data() + entry + 16, sizeof(length));
    if (offset > image.size() || length > image.size() - offset) continue;
    StoreU64(image, entry + 24,
             storage::Checksum(image.data() + offset,
                               static_cast<size_t>(length)));
  }
}

void MutateImage(util::Rng& rng, const std::vector<Image>& seeds,
                 Image& image) {
  const int64_t rounds = rng.UniformInt(1, 4);
  for (int64_t round = 0; round < rounds; ++round) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // byte scribbles
        const int64_t writes = rng.UniformInt(1, 8);
        for (int64_t w = 0; w < writes && !image.empty(); ++w) {
          image[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(image.size()) - 1))] =
              static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        break;
      }
      case 1: {  // single bit flip
        if (image.empty()) break;
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
        image[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
        break;
      }
      case 2:  // truncation (empty file included)
        image.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(image.size()))));
        break;
      case 3: {  // extension with junk
        const int64_t extra = rng.UniformInt(1, 64);
        for (int64_t b = 0; b < extra; ++b) {
          image.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
        }
        break;
      }
      case 4: {  // header/section-table field scribble (8-byte aligned)
        if (image.size() < 8) break;
        const size_t limit = std::min(
            image.size() - 8,
            storage::kHeaderBytes + 4 * storage::kSectionEntryBytes);
        uint64_t value = rng.Next();
        // Small values hit the interesting boundary cases (0, 1, off-by-one
        // counts) far more often than uniform u64 noise would.
        if (rng.Bernoulli(0.5)) value = static_cast<uint64_t>(
            rng.UniformInt(0, 4096));
        StoreU64(image,
                 static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(limit / 8))) * 8,
                 value);
        break;
      }
      case 5: {  // splice a window from some seed image
        const Image& donor = seeds[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(seeds.size()) - 1))];
        if (donor.empty() || image.empty()) break;
        const size_t from = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(donor.size()) - 1));
        const size_t to = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
        const size_t len = static_cast<size_t>(rng.UniformInt(
            1, static_cast<int64_t>(
                   std::min(donor.size() - from, size_t{512}))));
        if (to + len > image.size()) image.resize(to + len);
        std::memcpy(image.data() + to, donor.data() + from, len);
        break;
      }
      case 6: {  // zero a window
        if (image.empty()) break;
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
        const size_t len = static_cast<size_t>(rng.UniformInt(
            1,
            static_cast<int64_t>(std::min(image.size() - at, size_t{64}))));
        std::memset(image.data() + at, 0, len);
        break;
      }
    }
  }
  // Half the mutants get their checksums re-fixed so the damage reaches the
  // section parsers; the other half exercises the checksum layer itself.
  if (rng.Bernoulli(0.5)) FixChecksums(image);
}

std::string MutateGoal(util::Rng& rng) {
  static const std::vector<std::string> kSeeds = {
      "From=To && Hotels.City=Airline",
      "To \xE2\x89\x88 City \xE2\x88\xA7 Airline \xE2\x89\x88 Discount",
      "From = To AND To = City and Airline=Discount",
      "  From=From  ",
      "",
  };
  static const std::vector<std::string> kTokens = {
      "&&",        "AND",      "and",     "\xE2\x88\xA7", "=",
      "\xE2\x89\x88", "From",  "To",      "City",         "Hotels.City",
      "Airline",   "Discount", "bogus",   " ",            "\t",
      "==",        "&",        "Hotels.", ".",            "\xE2\x88",
  };
  std::string text = rng.PickOne(kSeeds);
  const int64_t rounds = rng.UniformInt(0, 5);
  for (int64_t round = 0; round < rounds; ++round) {
    switch (rng.UniformInt(0, 3)) {
      case 0:  // append a token
        text += rng.PickOne(kTokens);
        break;
      case 1: {  // insert a token mid-string (UTF-8 splitting included)
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size())));
        text.insert(at, rng.PickOne(kTokens));
        break;
      }
      case 2: {  // delete a window
        if (text.empty()) break;
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        text.erase(at, static_cast<size_t>(rng.UniformInt(1, 8)));
        break;
      }
      case 3: {  // scribble a raw byte (invalid UTF-8 included)
        if (text.empty()) break;
        text[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(text.size()) - 1))] =
            static_cast<char>(rng.UniformInt(1, 255));
        break;
      }
    }
  }
  return text;
}

std::string MutateRequestLine(util::Rng& rng) {
  static const std::vector<std::string> kSeeds = {
      R"({"verb":"create","instance":"travel.jimc","strategy":"lookahead-entropy","goal":"To=City","seed":7,"max_steps":64})",
      R"({"verb":"suggest","session":"s1"})",
      R"({"verb":"label","session":"s1","class":12,"answer":true})",
      R"({"verb":"status","session":"s\u00e9\"1"})",
      R"({"verb":"ping","seed":5,"strategy":"random","goal":""})",
      R"({"verb":"stats"})",
      "",
  };
  static const std::vector<std::string> kTokens = {
      "{",       "}",         "[",        "]",         ",",
      ":",       "\"",       "\\",     "\\u0000", "\\ud800",
      "null",    "true",      "false",    "-1",        "0",
      "1e3",     "1.5",       "18446744073709551615",  "9223372036854775807",
      "\"verb\"", "\"class\"", "\"answer\"", "\"seed\"", "\"max_steps\"",
      "\"session\"", " ",     "\n",      "\xC3",     "\xE2\x89\x88",
  };
  std::string text = rng.PickOne(kSeeds);
  const int64_t rounds = rng.UniformInt(0, 5);
  for (int64_t round = 0; round < rounds; ++round) {
    switch (rng.UniformInt(0, 3)) {
      case 0:  // append a token
        text += rng.PickOne(kTokens);
        break;
      case 1: {  // insert a token mid-line
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size())));
        text.insert(at, rng.PickOne(kTokens));
        break;
      }
      case 2: {  // delete a window
        if (text.empty()) break;
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
        text.erase(at, static_cast<size_t>(rng.UniformInt(1, 8)));
        break;
      }
      case 3: {  // scribble a raw byte (NUL and invalid UTF-8 included)
        if (text.empty()) break;
        text[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(text.size()) - 1))] =
            static_cast<char>(rng.UniformInt(0, 255));
        break;
      }
    }
  }
  return text;
}

/// Two encoded seed checkpoints: an empty transcript and a three-step one
/// with a suggestion-less step and a goal.
std::vector<std::string> SeedCheckpoints() {
  serve::SessionCheckpoint empty;
  empty.session_id = "s1";
  empty.instance = "travel.jimc";
  empty.strategy = "random";
  empty.max_steps = 4096;
  serve::SessionCheckpoint labeled = empty;
  labeled.session_id = "s12";
  labeled.strategy = "lookahead-entropy";
  labeled.goal = "To=City";
  labeled.seed = 7;
  labeled.steps = {{3, 3, 17, 1}, {serve::kNoSuggestion, 5, 40, 0},
                   {0, 0, 0, 1}};
  return {serve::EncodeCheckpoint(empty), serve::EncodeCheckpoint(labeled)};
}

/// Damages one seed checkpoint; half the mutants get their trailing
/// checksum re-fixed so the damage reaches the field parser.
std::string MutateCheckpoint(util::Rng& rng,
                             const std::vector<std::string>& seeds) {
  std::string bytes = rng.PickOne(seeds);
  const int64_t rounds = rng.UniformInt(0, 3);
  for (int64_t round = 0; round < rounds; ++round) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // byte scribbles, small values favoured (lengths, counts)
        const int64_t writes = rng.UniformInt(1, 4);
        for (int64_t w = 0; w < writes && !bytes.empty(); ++w) {
          bytes[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(bytes.size()) - 1))] =
              static_cast<char>(rng.Bernoulli(0.5) ? rng.UniformInt(0, 4)
                                                   : rng.UniformInt(0, 255));
        }
        break;
      }
      case 1:  // truncation (empty file included)
        bytes.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
        break;
      case 2: {  // insert junk mid-file
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size())));
        bytes.insert(at, static_cast<size_t>(rng.UniformInt(1, 16)),
                     static_cast<char>(rng.UniformInt(0, 255)));
        break;
      }
      case 3: {  // delete a window
        if (bytes.empty()) break;
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
        break;
      }
    }
  }
  if (bytes.size() >= sizeof(uint64_t) && rng.Bernoulli(0.5)) {
    const size_t body = bytes.size() - sizeof(uint64_t);
    const uint64_t checksum = storage::Checksum(bytes.data(), body);
    for (size_t b = 0; b < sizeof(checksum); ++b) {  // little-endian
      bytes[body + b] = static_cast<char>(checksum >> (8 * b));
    }
  }
  return bytes;
}

int Run(uint64_t seed, int64_t iterations) {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string scratch =
      std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
      "/fuzz_jimc_seed" + std::to_string(seed) + ".jimc";

  const std::vector<Image> seeds = JimcSeedImages(scratch);

  const std::vector<std::string> checkpoint_seeds = SeedCheckpoints();

  util::Rng rng(seed);
  // Checkpoints draw from their own stream, so the other targets' inputs
  // for a (seed, iterations) pair are what they were without it.
  util::Rng checkpoint_rng(seed ^ 0x4A494D53u);
  int64_t images_accepted = 0, images_rejected = 0;
  int64_t goals_parsed = 0, goals_rejected = 0;
  int64_t requests_parsed = 0, requests_rejected = 0;
  int64_t checkpoints_decoded = 0, checkpoints_rejected = 0;
  for (int64_t i = 0; i < iterations; ++i) {
    Image image = seeds[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(seeds.size()) - 1))];
    MutateImage(rng, seeds, image);
    if (FuzzJimcImage(image.data(), image.size(), scratch) == 1) {
      ++images_accepted;
    } else {
      ++images_rejected;
    }
    const std::string goal = MutateGoal(rng);
    if (FuzzGoalParse(reinterpret_cast<const uint8_t*>(goal.data()),
                      goal.size()) == 1) {
      ++goals_parsed;
    } else {
      ++goals_rejected;
    }
    const std::string line = MutateRequestLine(rng);
    if (FuzzRequestLine(reinterpret_cast<const uint8_t*>(line.data()),
                        line.size()) == 1) {
      ++requests_parsed;
    } else {
      ++requests_rejected;
    }
    const std::string checkpoint =
        MutateCheckpoint(checkpoint_rng, checkpoint_seeds);
    if (FuzzCheckpoint(reinterpret_cast<const uint8_t*>(checkpoint.data()),
                       checkpoint.size()) == 1) {
      ++checkpoints_decoded;
    } else {
      ++checkpoints_rejected;
    }
  }
  std::remove(scratch.c_str());

  // Deterministic summary: identical numbers for identical (seed,
  // iterations) — diffable across hosts and sanitizer builds.
  std::printf("fuzz_jimc_main: seed=%llu iterations=%lld\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(iterations));
  std::printf("  jimc images: %lld accepted, %lld rejected as typed errors\n",
              static_cast<long long>(images_accepted),
              static_cast<long long>(images_rejected));
  std::printf("  goal strings: %lld parsed, %lld rejected as typed errors\n",
              static_cast<long long>(goals_parsed),
              static_cast<long long>(goals_rejected));
  std::printf("  request lines: %lld parsed, %lld rejected as typed errors\n",
              static_cast<long long>(requests_parsed),
              static_cast<long long>(requests_rejected));
  std::printf("  checkpoints: %lld decoded, %lld rejected as typed errors\n",
              static_cast<long long>(checkpoints_decoded),
              static_cast<long long>(checkpoints_rejected));
  // Every target must have exercised both outcomes, or the mutators have
  // degenerated (a fuzzer that only ever rejects is testing one branch).
  JIM_CHECK_GT(images_rejected, 0);
  JIM_CHECK_GT(goals_parsed, 0);
  JIM_CHECK_GT(goals_rejected, 0);
  JIM_CHECK_GT(requests_parsed, 0);
  JIM_CHECK_GT(requests_rejected, 0);
  JIM_CHECK_GT(checkpoints_decoded, 0);
  JIM_CHECK_GT(checkpoints_rejected, 0);
  if (iterations >= 100) JIM_CHECK_GT(images_accepted, 0);
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace jim::fuzz

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int64_t iterations = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--iterations=", 0) == 0) {
      iterations = std::strtoll(arg.c_str() + 13, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N] [--iterations=N]\n", argv[0]);
      return 2;
    }
  }
  return jim::fuzz::Run(seed, iterations);
}
