#ifndef JIM_TESTS_FUZZ_FUZZ_TARGETS_H_
#define JIM_TESTS_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// The fuzz targets behind both drivers (the deterministic
// fuzz_jimc_main and the optional libFuzzer entry point). Each target's
// contract is "any byte string in, no undefined behavior out": every
// rejection must be a *typed* util::Status, every acceptance must yield an
// object whose read paths are safe to exercise end to end. The targets
// JIM_CHECK those contracts themselves, so a sanitizer report or a check
// failure is a finding and a clean return is a pass.
namespace jim::fuzz {

/// The JIMC images both drivers start from, written through
/// `scratch_path`: a mixed-type relation (NULLs, NaN, separator-bearing
/// strings) and a wide integer relation, one factor each; Figure 1's
/// Flights × Hotels, two factors; and a three-way self-join of the mixed
/// relation, three factors.
std::vector<std::vector<uint8_t>> JimcSeedImages(
    const std::string& scratch_path);

/// Writes `size` bytes to `scratch_path` and feeds the file to
/// storage::MappedTupleStore::Open. Rejections must carry a known
/// StatusCode and a non-empty message; accepted stores get every cell read
/// through code()/TupleCodes()/DecodeValue() with the NULL sentinel
/// cross-checked (the first 2^16 tuples of a larger product), and an
/// engine built over them passes its invariant audit. Returns 1 if the
/// image was accepted, 0 if rejected.
int FuzzJimcImage(const uint8_t* data, size_t size,
                  const std::string& scratch_path);

/// Feeds `size` bytes as a --goal predicate string to
/// core::JoinPredicate::Parse over a fixed five-attribute schema.
/// Rejections must be kInvalidArgument with a message; accepted predicates
/// must hold a canonical partition and survive a ToSqlWhere → Parse round
/// trip. Returns 1 if parsed, 0 if rejected.
int FuzzGoalParse(const uint8_t* data, size_t size);

/// Feeds `size` bytes as one serving-protocol request line to
/// serve::ParseRequest. Rejections must be kInvalidArgument with a message;
/// accepted requests must survive a RequestToLine → ParseRequest round trip
/// with every member unchanged. Returns 1 if parsed, 0 if rejected.
int FuzzRequestLine(const uint8_t* data, size_t size);

/// Feeds `size` bytes as a session checkpoint file to
/// serve::DecodeCheckpoint. Rejections must be kInvalidArgument with a
/// message; accepted bytes must re-encode byte-identically through
/// serve::EncodeCheckpoint. Returns 1 if decoded, 0 if rejected.
int FuzzCheckpoint(const uint8_t* data, size_t size);

}  // namespace jim::fuzz

#endif  // JIM_TESTS_FUZZ_FUZZ_TARGETS_H_
