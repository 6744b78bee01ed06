#ifndef JIM_EXEC_SCRATCH_POOL_H_
#define JIM_EXEC_SCRATCH_POOL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "lattice/partition.h"

namespace jim::exec {

/// The per-thread working set of the engine's allocation-free simulation
/// kernels: one epoch-stamped PartitionScratch plus the meet output buffer
/// SimulateLabelBothBounded writes through. Exactly what one chunk of a
/// parallel lookahead needs — and nothing is shared, so chunks never
/// contend.
struct EvalScratch {
  lat::PartitionScratch scratch;
  lat::Partition meet_tmp;
};

/// Hands each ParallelFor chunk its own EvalScratch, keyed by chunk id.
/// Slots are allocated once and reused across calls (the PartitionScratch
/// inside is epoch-stamped, so logical clearing is O(1) and a warmed slot
/// never allocates on the hot path). Growth preserves existing slots —
/// addresses are stable because slots live behind unique_ptr.
///
/// Not thread-safe for growth: call EnsureSlots from one thread before
/// fanning out; Slot() accesses to *distinct* ids are then safe
/// concurrently.
class ScratchPool {
 public:
  ScratchPool() = default;

  /// Grows the pool to at least `n` slots (never shrinks).
  void EnsureSlots(size_t n) {
    while (slots_.size() < n) {
      slots_.push_back(std::make_unique<EvalScratch>());
    }
  }

  size_t size() const { return slots_.size(); }

  EvalScratch& Slot(size_t i) { return *slots_[i]; }

 private:
  std::vector<std::unique_ptr<EvalScratch>> slots_;
};

}  // namespace jim::exec

#endif  // JIM_EXEC_SCRATCH_POOL_H_
