#include "core/engine.h"

#include <algorithm>
#include <cstdint>

#include "exec/parallel.h"
#include "lattice/pair_mask.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jim::core {
namespace {

/// `store`, checked before the engine sizes anything from it: tuple and class
/// ids are uint32_t in the class table and in session checkpoints, so a
/// larger count would truncate them silently.
std::shared_ptr<const TupleStore> CheckedStore(
    std::shared_ptr<const TupleStore> store) {
  JIM_CHECK(store != nullptr);
  JIM_CHECK_LT(store->num_tuples(), size_t{1} << 32)
      << "tuple store too large: tuple and class ids are uint32_t";
  return store;
}

constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

size_t HashMaskRow(const uint64_t* words, size_t count) {
  uint64_t h = util::kFnv1a64OffsetBasis;
  for (size_t w = 0; w < count; ++w) {
    h = (h ^ words[w]) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

/// The slot of `slots` (ids into `rows`, `words` words each; a power-of-two
/// count, linear probing) that holds the row equal to `probe`, or the empty
/// slot where it belongs.
size_t ProbeSlot(const std::vector<uint32_t>& slots,
                 const std::vector<uint64_t>& rows, size_t words,
                 const uint64_t* probe) {
  size_t slot = HashMaskRow(probe, words) & (slots.size() - 1);
  for (; slots[slot] != kNoSlot; slot = (slot + 1) & (slots.size() - 1)) {
    if (std::equal(probe, probe + words, rows.data() + slots[slot] * words)) {
      break;
    }
  }
  return slot;
}

/// The distinct pair-mask rows seen so far, each under the id of its first
/// FindOrAdd (0, 1, …): an open-addressing table of ids over one flat row
/// buffer.
class MaskRowIndex {
 public:
  explicit MaskRowIndex(size_t words) : words_(words), slots_(16, kNoSlot) {}

  size_t size() const { return size_; }
  const uint64_t* row(size_t id) const { return rows_.data() + id * words_; }

  /// The id of `probe` (`words` words), or kNoSlot.
  uint32_t Find(const uint64_t* probe) const {
    return slots_[ProbeSlot(slots_, rows_, words_, probe)];
  }

  /// The id of `probe` (`words` words), added under the next id if new.
  uint32_t FindOrAdd(const uint64_t* probe) {
    const size_t slot = ProbeSlot(slots_, rows_, words_, probe);
    if (slots_[slot] != kNoSlot) return slots_[slot];
    const uint32_t id = static_cast<uint32_t>(size_++);
    slots_[slot] = id;
    rows_.insert(rows_.end(), probe, probe + words_);
    if (2 * size_ > slots_.size()) Grow();
    return id;
  }

  /// Moves the rows (by id) and the slots out, for a lookup by ProbeSlot.
  void Release(std::vector<uint64_t>& rows, std::vector<uint32_t>& slots) {
    rows_.shrink_to_fit();
    rows = std::move(rows_);
    slots = std::move(slots_);
  }

 private:
  void Grow() {
    std::vector<uint32_t> slots(2 * slots_.size(), kNoSlot);
    for (uint32_t id = 0; id < size_; ++id) {
      size_t slot = HashMaskRow(row(id), words_) & (slots.size() - 1);
      while (slots[slot] != kNoSlot) slot = (slot + 1) & (slots.size() - 1);
      slots[slot] = id;
    }
    slots_ = std::move(slots);
  }

  size_t words_;
  std::vector<uint32_t> slots_;  ///< ids; a power-of-two count, ≤ half full
  std::vector<uint64_t> rows_;   ///< words_ per id
  size_t size_ = 0;
};

/// The bit of attribute pair (a, b), a < b, in a pair mask over n
/// attributes (row-major pair order, lattice/pair_mask.h).
size_t PairBit(size_t a, size_t b, size_t n) {
  return a * (2 * n - a - 1) / 2 + (b - a - 1);
}

/// ORs into `mask` the bit of every pair lo ≤ a < b < hi of attributes whose
/// codes in `codes` (indexed by attribute) are equal and not NULL.
void OrPairBits(const uint32_t* codes, size_t lo, size_t hi, size_t n,
                uint64_t* mask) {
  for (size_t a = lo; a < hi; ++a) {
    if (codes[a] == rel::kNullCode) continue;
    for (size_t b = a + 1; b < hi; ++b) {
      if (codes[a] == codes[b]) {
        const size_t bit = PairBit(a, b, n);
        mask[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
    }
  }
}

/// Distinct masks found by the chunks of one pass, each chunk's under its
/// local ids (first-occurrence order within the chunk), with the first
/// member and size of each.
struct ChunkGroups {
  std::vector<MaskRowIndex> index;
  std::vector<std::vector<TupleClass>> found;

  ChunkGroups(size_t chunks, size_t words)
      : index(chunks, MaskRowIndex(words)), found(chunks) {}

  /// Merges the chunks in chunk order into `global` and `classes`. A mask's
  /// first chunk holds its first member, and within a chunk local ids
  /// follow first occurrence, so the global ids follow first occurrence —
  /// the same at any chunk count. A mask takes its first member from the
  /// earliest chunk that holds it and its size from all of them. Returns
  /// each chunk's local → global id map.
  std::vector<std::vector<uint32_t>> Merge(
      MaskRowIndex& global, std::vector<TupleClass>& classes) const {
    std::vector<std::vector<uint32_t>> remap(index.size());
    for (size_t j = 0; j < index.size(); ++j) {
      for (size_t id = 0; id < index[j].size(); ++id) {
        const uint32_t c = global.FindOrAdd(index[j].row(id));
        remap[j].push_back(c);
        if (c == classes.size()) {
          classes.push_back({found[j][id].tuple_indices, 0});
        }
        classes[c].count += found[j][id].count;
      }
    }
    return remap;
  }
};

/// Runs body(j) for each of `chunks` chunks, on `pool` when there are
/// several.
template <typename Body>
void ForEachChunk(exec::ThreadPool* pool, size_t chunks, const Body& body) {
  if (chunks > 1) {
    pool->ParallelFor(chunks, [&](size_t j, size_t) { body(j); });
  } else {
    body(0);
  }
}

size_t ChunkCount(exec::ThreadPool* pool, size_t items) {
  return pool == nullptr
             ? 1
             : std::max<size_t>(1, std::min(pool->threads(), items));
}

/// Step 1 of the class build: groups the rows [0, rows) of `store` by
/// their pair mask over the attributes [lo, n) (the store's last factor,
/// whose rows are tuples 0 … rows − 1). The rows split into static
/// contiguous chunks, one per pool thread. Each chunk reads its rows in
/// blocks of kBlock, one column at a time, and ORs each attribute pair's
/// equality bit into the block's word-major masks (masks[w * kBlock + k] is
/// word w of row k's mask), so every inner loop runs over contiguous rows at
/// any mask width. It then groups the block's masks in its own index; a row
/// whose mask equals its predecessor's skips the lookup. With
/// `group_of_row`, each row's local id is written there, and rewritten to
/// its global id after the merge.
void GroupRows(const TupleStore& store, size_t rows, size_t lo,
               exec::ThreadPool* pool, MaskRowIndex& global,
               std::vector<TupleClass>& groups, uint32_t* group_of_row) {
  const size_t n = store.num_attributes();
  const size_t words = lat::PairMaskWords(n);
  const size_t width = n - lo;
  const size_t chunks = ChunkCount(pool, rows);
  const auto chunk_begin = [&](size_t j) { return j * rows / chunks; };
  constexpr size_t kBlock = 1024;
  ChunkGroups local(chunks, words);
  ForEachChunk(pool, chunks, [&](size_t j) {
    std::vector<uint32_t> codes(width * kBlock);
    std::vector<uint64_t> masks(words * kBlock);
    std::vector<uint64_t> last(words);  // the previous row's mask
    std::vector<TupleClass>& ids = local.found[j];
    uint32_t last_id = 0;
    const size_t end = chunk_begin(j + 1);
    for (size_t first = chunk_begin(j); first < end; first += kBlock) {
      const size_t count = std::min(kBlock, end - first);
      for (size_t a = lo; a < n; ++a) {
        store.ColumnCodes(a, first, count, codes.data() + (a - lo) * kBlock);
      }
      std::fill(masks.begin(), masks.end(), 0);
      for (size_t a = lo; a < n; ++a) {
        const uint32_t* left = codes.data() + (a - lo) * kBlock;
        for (size_t b = a + 1; b < n; ++b) {
          const uint32_t* right = codes.data() + (b - lo) * kBlock;
          const size_t bit = PairBit(a, b, n);
          uint64_t* out = masks.data() + (bit >> 6) * kBlock;
          const unsigned shift = bit & 63;
          for (size_t k = 0; k < count; ++k) {
            out[k] |= static_cast<uint64_t>((left[k] == right[k]) &
                                            (left[k] != rel::kNullCode))
                      << shift;
          }
        }
      }
      for (size_t k = 0; k < count; ++k) {
        bool same = !ids.empty();
        for (size_t w = 0; w < words; ++w) {
          same &= masks[w * kBlock + k] == last[w];
        }
        if (!same) {
          for (size_t w = 0; w < words; ++w) last[w] = masks[w * kBlock + k];
          last_id = local.index[j].FindOrAdd(last.data());
          if (last_id == ids.size()) {
            ids.push_back(TupleClass{{static_cast<uint32_t>(first + k)}, 0});
          }
        }
        if (group_of_row != nullptr) group_of_row[first + k] = last_id;
        ++ids[last_id].count;
      }
    }
  });
  const std::vector<std::vector<uint32_t>> remap = local.Merge(global, groups);
  if (group_of_row == nullptr) return;
  for (size_t j = 1; j < chunks; ++j) {
    for (size_t r = chunk_begin(j); r < chunk_begin(j + 1); ++r) {
      group_of_row[r] = remap[j][group_of_row[r]];
    }
  }
}

/// One last-factor attribute's posting lists: for each non-NULL code, the
/// rows holding it (ascending), and how many of those rows each group has.
struct Postings {
  std::vector<uint32_t> keys;         ///< distinct codes, ascending
  std::vector<uint32_t> row_begin;    ///< per key, into rows; one extra
  std::vector<uint32_t> rows;         ///< by key, ascending
  std::vector<uint32_t> tally_begin;  ///< per key, into tallies; one extra
  /// By key, (group, rows of the key in that group), ascending groups.
  std::vector<std::pair<uint32_t, uint32_t>> tallies;

  /// The index of `code` in keys, or keys.size().
  size_t Find(uint32_t code) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), code);
    if (it == keys.end() || *it != code) return keys.size();
    return static_cast<size_t>(it - keys.begin());
  }
};

Postings BuildPostings(const uint32_t* column, size_t rows,
                       const std::vector<uint32_t>& group_of_row) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;  // (code, row)
  for (size_t r = 0; r < rows; ++r) {
    if (column[r] != rel::kNullCode) {
      entries.emplace_back(column[r], static_cast<uint32_t>(r));
    }
  }
  std::sort(entries.begin(), entries.end());
  Postings postings;
  std::vector<uint32_t> groups;
  for (size_t i = 0; i < entries.size();) {
    const uint32_t code = entries[i].first;
    postings.keys.push_back(code);
    postings.row_begin.push_back(static_cast<uint32_t>(postings.rows.size()));
    postings.tally_begin.push_back(
        static_cast<uint32_t>(postings.tallies.size()));
    groups.clear();
    for (; i < entries.size() && entries[i].first == code; ++i) {
      postings.rows.push_back(entries[i].second);
      groups.push_back(group_of_row[entries[i].second]);
    }
    std::sort(groups.begin(), groups.end());
    for (size_t k = 0; k < groups.size(); ++k) {
      if (k == 0 || groups[k] != groups[k - 1]) {
        postings.tallies.emplace_back(groups[k], 0);
      }
      ++postings.tallies.back().second;
    }
  }
  postings.row_begin.push_back(static_cast<uint32_t>(postings.rows.size()));
  postings.tally_begin.push_back(
      static_cast<uint32_t>(postings.tallies.size()));
  return postings;
}

/// Step 2 of the class build over a store of k ≥ 2 factors: tuple t is
/// (p, r) = (t / rows, t % rows), where r is a row of the last factor
/// (attributes [lo, n)) and p a tuple of the product of the others, the
/// prefix. t's mask is p's own mask (pairs inside [0, lo)), r's group's mask
/// (pairs inside [lo, n)), and the cross pairs (a < lo ≤ b) on which p and r
/// hold one non-NULL code. For each prefix tuple p, in tuple order:
///   - each prefix attribute a and last attribute b with a posting list for
///     p's code at a give a run: the rows sharing that code, whose cross
///     pairs include (a, b). Marking the runs' rows finds the rows in two
///     runs or more;
///   - a row in several runs is its own candidate; the rows of group g in
///     exactly one run are one candidate per (run, g), counted from the
///     posting list's group tallies; and the rows of g in no run are one
///     candidate, g's size less its touched rows;
///   - a candidate whose mask the chunk already holds only adds its count.
///     New masks are numbered once p is done, in ascending order of their
///     candidates' first rows (for a (run, g) candidate, the smallest row of
///     g in the run and no other; for the untouched one, the smallest
///     untouched row of g), which is first-occurrence tuple order.
/// So a prefix tuple costs its runs' rows and groups, not the last factor's
/// rows. Prefix chunks merge as GroupRows' chunks do.
void WalkPrefixes(const TupleStore& store, size_t rows, size_t lo,
                  exec::ThreadPool* pool, const MaskRowIndex& group_masks,
                  const std::vector<TupleClass>& groups,
                  const std::vector<uint32_t>& group_of_row,
                  MaskRowIndex& global, std::vector<TupleClass>& classes) {
  const size_t n = store.num_attributes();
  const size_t words = lat::PairMaskWords(n);
  const size_t prefixes = store.num_tuples() / rows;
  const size_t num_groups = groups.size();

  // Each group's members, ascending: a counting sort of the rows.
  std::vector<uint32_t> member_begin(num_groups + 1, 0);
  for (const uint32_t g : group_of_row) ++member_begin[g + 1];
  for (size_t g = 0; g < num_groups; ++g) {
    member_begin[g + 1] += member_begin[g];
  }
  std::vector<uint32_t> members(rows);
  {
    std::vector<uint32_t> next(member_begin.begin(), member_begin.end() - 1);
    for (size_t r = 0; r < rows; ++r) {
      members[next[group_of_row[r]]++] = static_cast<uint32_t>(r);
    }
  }
  std::vector<Postings> postings;
  {
    std::vector<uint32_t> column(rows);
    for (size_t b = lo; b < n; ++b) {
      store.ColumnCodes(b, 0, rows, column.data());
      postings.push_back(BuildPostings(column.data(), rows, group_of_row));
    }
  }

  const size_t chunks = ChunkCount(pool, prefixes);
  const auto chunk_begin = [&](size_t j) { return j * prefixes / chunks; };
  ChunkGroups local(chunks, words);
  ForEachChunk(pool, chunks, [&](size_t j) {
    struct Run {
      const Postings* postings;
      size_t key;
      size_t bit;
    };
    std::vector<uint32_t> codes(n);
    std::vector<uint64_t> prefix_mask(words);
    std::vector<uint64_t> mask(words);
    std::vector<uint64_t> run_bit(words);
    std::vector<Run> runs;
    std::vector<uint32_t> run_of_bit(n * (n - 1) / 2);
    // Row r is touched at prefix p iff touched_at[r] == p + 1, and then
    // cross[r] holds its cross pairs; multi_at likewise marks rows in
    // several runs.
    std::vector<uint64_t> cross(rows * words);
    std::vector<size_t> touched_at(rows, 0);
    std::vector<size_t> multi_at(rows, 0);
    std::vector<uint32_t> multi;
    std::vector<uint32_t> touched_in_group(num_groups, 0);
    std::vector<uint32_t> touched_groups;
    // (run, group) of each multi-run row's runs, to take out of the runs'
    // group tallies.
    std::vector<std::pair<uint32_t, uint32_t>> in_other_runs;
    // Candidates with a mask the chunk has not seen yet: (first row, count)
    // and the mask.
    std::vector<std::pair<uint32_t, uint32_t>> pending;
    std::vector<uint64_t> pending_masks;
    std::vector<size_t> order;
    MaskRowIndex& index = local.index[j];
    std::vector<TupleClass>& ids = local.found[j];
    for (size_t p = chunk_begin(j); p < chunk_begin(j + 1); ++p) {
      const size_t stamp = p + 1;
      const size_t first_tuple = p * rows;
      store.TupleCodes(first_tuple, codes.data());
      std::fill(prefix_mask.begin(), prefix_mask.end(), 0);
      OrPairBits(codes.data(), 0, lo, n, prefix_mask.data());

      // The runs, and their rows marked.
      runs.clear();
      multi.clear();
      for (size_t a = 0; a < lo; ++a) {
        if (codes[a] == rel::kNullCode) continue;
        for (size_t b = lo; b < n; ++b) {
          const Postings& list = postings[b - lo];
          const size_t key = list.Find(codes[a]);
          if (key == list.keys.size()) continue;
          const size_t bit = PairBit(a, b, n);
          run_of_bit[bit] = static_cast<uint32_t>(runs.size());
          runs.push_back({&list, key, bit});
          const uint64_t bit_word = uint64_t{1} << (bit & 63);
          for (uint32_t i = list.row_begin[key]; i < list.row_begin[key + 1];
               ++i) {
            const uint32_t r = list.rows[i];
            uint64_t* row_cross = cross.data() + r * words;
            if (touched_at[r] != stamp) {
              touched_at[r] = stamp;
              std::fill(row_cross, row_cross + words, 0);
            } else if (multi_at[r] != stamp) {
              multi_at[r] = stamp;
              multi.push_back(r);
            }
            row_cross[bit >> 6] |= bit_word;
          }
          for (uint32_t i = list.tally_begin[key];
               i < list.tally_begin[key + 1]; ++i) {
            const auto [g, count] = list.tallies[i];
            if (touched_in_group[g] == 0) touched_groups.push_back(g);
            touched_in_group[g] += count;
          }
        }
      }

      // A mask the chunk already holds only adds to its count. A new mask
      // waits in `pending`, with its candidate's first row, which
      // `first_row` finds.
      const auto add = [&](uint32_t count, const auto& first_row) {
        const uint32_t id = index.Find(mask.data());
        if (id != kNoSlot) {
          ids[id].count += count;
          return;
        }
        pending.emplace_back(first_row(), count);
        pending_masks.insert(pending_masks.end(), mask.begin(), mask.end());
      };
      const auto set_mask = [&](const uint64_t* own, const uint64_t* extra) {
        for (size_t w = 0; w < words; ++w) {
          mask[w] = prefix_mask[w] | own[w] | (extra ? extra[w] : 0);
        }
      };

      // Rows in several runs, one by one.
      in_other_runs.clear();
      for (const uint32_t r : multi) {
        const uint32_t g = group_of_row[r];
        const uint64_t* row_cross = cross.data() + r * words;
        size_t runs_of_row = 0;
        for (size_t w = 0; w < words; ++w) {
          for (uint64_t rest = row_cross[w]; rest != 0; rest &= rest - 1) {
            const size_t bit = w * 64 + __builtin_ctzll(rest);
            in_other_runs.emplace_back(run_of_bit[bit], g);
            ++runs_of_row;
          }
        }
        touched_in_group[g] -= static_cast<uint32_t>(runs_of_row - 1);
        set_mask(group_masks.row(g), row_cross);
        add(1, [r] { return r; });
      }
      std::sort(in_other_runs.begin(), in_other_runs.end());

      // The rows of each group in exactly one run, run by run.
      for (size_t i = 0; i < runs.size(); ++i) {
        const Run& run = runs[i];
        const Postings& list = *run.postings;
        std::fill(run_bit.begin(), run_bit.end(), 0);
        run_bit[run.bit >> 6] = uint64_t{1} << (run.bit & 63);
        auto shared = std::lower_bound(
            in_other_runs.begin(), in_other_runs.end(),
            std::pair<uint32_t, uint32_t>{static_cast<uint32_t>(i), 0});
        for (uint32_t t = list.tally_begin[run.key];
             t < list.tally_begin[run.key + 1]; ++t) {
          const auto [g, tally] = list.tallies[t];
          uint32_t count = tally;
          for (; shared != in_other_runs.end() && shared->first == i &&
                 shared->second <= g;
               ++shared) {
            if (shared->second == g) --count;
          }
          if (count == 0) continue;
          set_mask(group_masks.row(g), run_bit.data());
          add(count, [&, g = g] {
            for (uint32_t k = list.row_begin[run.key];; ++k) {
              const uint32_t r = list.rows[k];
              if (group_of_row[r] == g && multi_at[r] != stamp) return r;
            }
          });
        }
      }

      // The rows of each group in no run.
      for (uint32_t g = 0; g < num_groups; ++g) {
        if (touched_in_group[g] == groups[g].count) continue;
        set_mask(group_masks.row(g), nullptr);
        add(groups[g].count - touched_in_group[g], [&] {
          const uint32_t* member = members.data() + member_begin[g];
          while (touched_at[*member] == stamp) ++member;
          return *member;
        });
      }
      for (const uint32_t g : touched_groups) touched_in_group[g] = 0;
      touched_groups.clear();

      // The classes first seen at p, numbered in ascending row order: first
      // occurrence in tuple order.
      if (!pending.empty()) {
        order.resize(pending.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
          return pending[x].first < pending[y].first;
        });
        for (const size_t i : order) {
          const uint32_t id = index.FindOrAdd(pending_masks.data() + i * words);
          if (id == ids.size()) {
            ids.push_back(TupleClass{
                {static_cast<uint32_t>(first_tuple + pending[i].first)}, 0});
          }
          ids[id].count += pending[i].second;
        }
        pending.clear();
        pending_masks.clear();
      }
    }
  });
  local.Merge(global, classes);
}

}  // namespace

std::string_view ClassStatusToString(ClassStatus status) {
  switch (status) {
    case ClassStatus::kInformative:
      return "informative";
    case ClassStatus::kForcedPositive:
      return "forced-positive";
    case ClassStatus::kForcedNegative:
      return "forced-negative";
    case ClassStatus::kLabeledPositive:
      return "labeled-positive";
    case ClassStatus::kLabeledNegative:
      return "labeled-negative";
  }
  return "?";
}

std::string_view TupleStatusToString(TupleStatus status) {
  switch (status) {
    case TupleStatus::kInformative:
      return "informative";
    case TupleStatus::kForcedPositive:
      return "forced-positive";
    case TupleStatus::kForcedNegative:
      return "forced-negative";
    case TupleStatus::kLabeledPositive:
      return "labeled-positive";
    case TupleStatus::kLabeledNegative:
      return "labeled-negative";
  }
  return "?";
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store,
                                 exec::ThreadPool* pool)
    : store_(CheckedStore(std::move(store))),
      state_(store_->num_attributes()) {
  {
    JIM_SPAN(obs::kHistEngineBuildMicros);
    BuildClasses(pool);
    // Some tuples may be uninformative from the start (e.g. all-values-equal
    // tuples are selected by every predicate).
    Propagate();
  }
  JIM_COUNT(obs::kCounterEngineBuilds);
  JIM_COUNT_N(obs::kCounterEngineClassesBuilt, num_classes());
  JIM_AUDIT(CheckInvariants());
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store)
    : InferenceEngine(std::move(store), &exec::SharedPool()) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const rel::Relation> relation)
    : InferenceEngine(MakeRelationStore(std::move(relation))) {}

void InferenceEngine::BuildClasses(exec::ThreadPool* pool) {
  const size_t num_tuples = store_->num_tuples();
  const size_t n = store_->num_attributes();
  mask_words_ = lat::PairMaskWords(n);
  const size_t words = mask_words_;
  auto table = std::make_shared<ClassTable>();
  std::vector<TupleClass>& classes = table->classes;
  MaskRowIndex global(words);

  // The build walks the store's factors (TupleStore::Factors). Step 1 groups
  // the last factor's rows by their own pair mask. With one factor those
  // rows are the tuples and the groups are the classes; otherwise step 2
  // walks the product of the other factors (WalkPrefixes).
  const std::vector<StoreFactor> factors = store_->Factors();
  JIM_CHECK(!factors.empty());
  const StoreFactor& last = factors.back();
  JIM_CHECK_EQ(last.first_attribute + last.num_attributes, n);
  JIM_CHECK_EQ(last.stride, 1u);
  if (factors.size() == 1) {
    JIM_CHECK_EQ(last.rows, num_tuples);
    GroupRows(*store_, num_tuples, 0, pool, global, classes, nullptr);
  } else {
    JIM_CHECK(last.rows > 0 && num_tuples % last.rows == 0)
        << "factor rows do not divide the tuple count";
    MaskRowIndex group_masks(words);
    std::vector<TupleClass> groups;
    std::vector<uint32_t> group_of_row(last.rows);
    GroupRows(*store_, last.rows, last.first_attribute, pool, group_masks,
              groups, group_of_row.data());
    WalkPrefixes(*store_, last.rows, last.first_attribute, pool, group_masks,
                 groups, group_of_row, global, classes);
  }
  classes.shrink_to_fit();
  const size_t num_classes = classes.size();
  global.Release(table->part_rows, table->part_slots);
  JIM_GAUGE_SET(obs::kGaugeEngineClassTableBytes,
                static_cast<int64_t>(
                    sizeof(TupleClass) * classes.capacity() +
                    sizeof(uint64_t) * table->part_rows.capacity() +
                    sizeof(uint32_t) * table->part_slots.capacity()));

  // Initially θ_P = ⊤, so K_c = ⊤ ∧ Part(c) = Part(c); every class starts on
  // the worklist.
  knowledge_rows_ = table->part_rows;
  knowledge_rank_.resize(num_classes);
  class_status_.assign(num_classes, ClassStatus::kInformative);
  informative_.reserve(num_classes);
  worklist_pos_.reserve(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    knowledge_rank_[c] = static_cast<uint32_t>(
        lat::MaskRank(knowledge_rows_.data() + c * words, words, n));
    informative_.push_back(c);
    worklist_pos_.push_back(static_cast<uint32_t>(c));
  }
  table_ = std::move(table);
}

InferenceEngine::LabelImpact InferenceEngine::Propagate() {
  const size_t words = mask_words_;
  const size_t n = state_.num_attributes();
  const uint64_t* theta = state_.theta_mask();
  size_t out = 0;
  LabelImpact pruned;
  for (size_t c : informative_) {
    // The in-place refresh below is the one mutation of K_c anywhere in the
    // engine.
    uint64_t* k = knowledge_rows_.data() + c * words;
    // The new θ_P refines the old, so meeting the *cached* knowledge with it
    // is the full refresh: K ∧ θ' = (θ ∧ Part(c)) ∧ θ' = θ' ∧ Part(c).
    bool changed = false;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t refreshed = k[w] & theta[w];
      changed |= refreshed != k[w];
      k[w] = refreshed;
    }
    switch (state_.Classify(k)) {
      case TupleClassification::kForcedPositive:
        class_status_[c] = ClassStatus::kForcedPositive;
        break;
      case TupleClassification::kForcedNegative:
        class_status_[c] = ClassStatus::kForcedNegative;
        break;
      case TupleClassification::kInformative:
        break;
    }
    if (class_status_[c] != ClassStatus::kInformative) {
      worklist_pos_[c] = kNoPos;
      ++pruned.pruned_classes;
      pruned.pruned_tuples += tuple_class(c).size();
    } else {
      // rank(K_c) is read per class by every local-strategy decision;
      // recount it here, where the row changes, and only for classes that
      // stay.
      if (changed) {
        knowledge_rank_[c] = static_cast<uint32_t>(lat::MaskRank(k, words, n));
      }
      worklist_pos_[c] = static_cast<uint32_t>(out);
      informative_[out++] = c;
    }
  }
  informative_.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned.pruned_classes);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

InferenceEngine::LabelImpact InferenceEngine::PropagateAfterNegative(
    size_t labeled_class) {
  // θ_P is unchanged, so the labeled class's cached row is still exactly the
  // forbidden zone ApplyLabel inserted (and nothing on this path writes a
  // knowledge row).
  const size_t words = mask_words_;
  const uint64_t* forbidden = KnowledgeRow(labeled_class);
  size_t out = 0;
  LabelImpact pruned;
  for (size_t c : informative_) {
    if (lat::MaskSubset(KnowledgeRow(c), forbidden, words)) {
      class_status_[c] = ClassStatus::kForcedNegative;
      worklist_pos_[c] = kNoPos;
      ++pruned.pruned_classes;
      pruned.pruned_tuples += tuple_class(c).size();
    } else {
      worklist_pos_[c] = static_cast<uint32_t>(out);
      informative_[out++] = c;
    }
  }
  informative_.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned.pruned_classes);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

void InferenceEngine::RemoveFromWorklist(size_t class_id) {
  const uint32_t pos = worklist_pos_[class_id];
  JIM_CHECK(pos != kNoPos && pos < informative_.size() &&
            informative_[pos] == class_id)
      << "worklist position index out of sync for class " << class_id;
  informative_.erase(informative_.begin() + pos);
  for (size_t i = pos; i < informative_.size(); ++i) {
    worklist_pos_[informative_[i]] = static_cast<uint32_t>(i);
  }
  worklist_pos_[class_id] = kNoPos;
}

size_t InferenceEngine::NumInformativeTuples() const {
  size_t count = 0;
  for (size_t c : informative_) count += tuple_class(c).size();
  return count;
}

bool InferenceEngine::IsDone() const { return informative_.empty(); }

size_t InferenceEngine::class_of_tuple(size_t tuple_index) const {
  JIM_CHECK_LT(tuple_index, store_->num_tuples());
  const size_t n = store_->num_attributes();
  std::vector<uint32_t> codes(n);
  store_->TupleCodes(tuple_index, codes.data());
  std::vector<uint64_t> mask(mask_words_, 0);
  OrPairBits(codes.data(), 0, n, n, mask.data());
  const uint32_t class_id = table_->part_slots[ProbeSlot(
      table_->part_slots, table_->part_rows, mask_words_, mask.data())];
  JIM_CHECK(class_id != kNoSlot) << "tuple " << tuple_index << " in no class";
  return class_id;
}

lat::Partition InferenceEngine::ClassPartition(size_t class_id) const {
  return lat::PairMaskToPartition(
      table_->part_rows.data() + class_id * mask_words_,
      state_.num_attributes());
}

JoinPredicate InferenceEngine::Result() const {
  return JoinPredicate(store_->schema(), state_.theta_p());
}

util::Status InferenceEngine::LabelImpl(size_t class_id, size_t tuple_index,
                                        Label label, LabelImpact& impact) {
  const ClassStatus before = class_status_[class_id];
  // Relabeling an explicitly labeled class is rejected as contradictory or
  // accepted as a (wasted) repetition.
  if (before == ClassStatus::kLabeledPositive ||
      before == ClassStatus::kLabeledNegative) {
    const bool agrees = (before == ClassStatus::kLabeledPositive) ==
                        (label == Label::kPositive);
    if (!agrees) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return util::FailedPreconditionError(
          "tuple was already labeled with the opposite label");
    }
    ++wasted_interactions_;
    history_.push_back(LabeledExample{tuple_index, label});
    JIM_COUNT(obs::kCounterEngineLabelsAccepted);
    JIM_COUNT(obs::kCounterEngineLabelsWasted);
    return util::OkStatus();
  }

  const bool was_informative = before == ClassStatus::kInformative;
  {
    // The cached row meets θ_P to θ_P ∧ Part(c) even for a class that left
    // the worklist, so it stands in for Part(c).
    util::Status applied = state_.ApplyLabel(KnowledgeRow(class_id), label);
    if (!applied.ok()) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return applied;
    }
  }
  JIM_COUNT(obs::kCounterEngineLabelsAccepted);
  // One JIM_COUNT site per name: the macro caches its counter in a
  // function-local static, so the name must be a per-site constant.
  if (label == Label::kPositive) {
    JIM_COUNT(obs::kCounterEngineLabelsPositive);
  } else {
    JIM_COUNT(obs::kCounterEngineLabelsNegative);
  }

  class_status_[class_id] = label == Label::kPositive
                                ? ClassStatus::kLabeledPositive
                                : ClassStatus::kLabeledNegative;
  history_.push_back(LabeledExample{tuple_index, label});
  if (!was_informative) {
    // Consistent label on a grayed-out tuple: accepted, teaches nothing.
    ++wasted_interactions_;
    JIM_COUNT(obs::kCounterEngineLabelsWasted);
    return util::OkStatus();
  }
  // The labeled class leaves the pool as kLabeled*; pull it off the worklist
  // before propagation so reclassification cannot overwrite that status.
  RemoveFromWorklist(class_id);
  impact = label == Label::kPositive ? Propagate()
                                     : PropagateAfterNegative(class_id);
  ++impact.pruned_classes;
  impact.pruned_tuples += tuple_class(class_id).size();
  return util::OkStatus();
}

TupleStatus InferenceEngine::tuple_status(size_t tuple_index) const {
  JIM_CHECK_LT(tuple_index, store_->num_tuples());
  const ClassStatus status = class_status_[class_of_tuple(tuple_index)];
  if (IsInformative(status)) return TupleStatus::kInformative;
  // Only a labeled class holds labeled tuples, and every history entry in it
  // carries the class's label (a contradiction is rejected unrecorded).
  const bool labeled =
      (status == ClassStatus::kLabeledPositive ||
       status == ClassStatus::kLabeledNegative) &&
      std::any_of(history_.begin(), history_.end(),
                  [&](const LabeledExample& example) {
                    return example.tuple_index == tuple_index;
                  });
  if (IsPositive(status)) {
    return labeled ? TupleStatus::kLabeledPositive
                   : TupleStatus::kForcedPositive;
  }
  return labeled ? TupleStatus::kLabeledNegative : TupleStatus::kForcedNegative;
}

util::Status InferenceEngine::SubmitTupleLabel(size_t tuple_index,
                                               Label label,
                                               LabelImpact* impact) {
  LabelImpact pruned;
  util::Status status = util::OutOfRangeError("tuple index out of range");
  if (tuple_index < store_->num_tuples()) {
    status = LabelImpl(class_of_tuple(tuple_index), tuple_index, label, pruned);
    // Audited on rejection too: a refused label must leave the engine intact.
    JIM_AUDIT(CheckInvariants());
  }
  if (impact != nullptr) *impact = pruned;
  return status;
}

util::Status InferenceEngine::SubmitClassLabel(size_t class_id, Label label,
                                               LabelImpact* impact) {
  LabelImpact pruned;
  util::Status status = util::OutOfRangeError("class id out of range");
  if (class_id < num_classes()) {
    status = LabelImpl(class_id, tuple_class(class_id).tuple_indices.front(),
                       label, pruned);
    JIM_AUDIT(CheckInvariants());
  }
  if (impact != nullptr) *impact = pruned;
  return status;
}

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBoth(
    size_t class_id) const {
  LookaheadColumns columns;
  PrepareLookaheadColumns(columns);
  return SimulateLabelBoth(class_id, columns);
}

namespace {

constexpr size_t kTile = InferenceEngine::LookaheadColumns::kTileWords;

}  // namespace

void InferenceEngine::PrepareLookaheadColumns(
    LookaheadColumns& columns) const {
  const size_t n = state_.num_attributes();
  const size_t size = informative_.size();
  columns.positions = size;
  columns.tiles = (size + 64 * kTile - 1) / (64 * kTile);
  columns.pairs = n < 2 ? 0 : n * (n - 1) / 2;
  columns.bits.assign(columns.tiles * columns.pairs * kTile, 0);
  columns.live.assign(columns.tiles * kTile, 0);
  columns.class_tuples.resize(size);
  for (size_t i = 0; i < size; ++i) {
    const size_t c = informative_[i];
    columns.class_tuples[i] = table_->classes[c].count;
    // Position i is bit i % 64 of word i / 64, which is lane word % kTile
    // of tile word / kTile.
    const size_t word = i / 64;
    const uint64_t bit = uint64_t{1} << (i % 64);
    columns.live[word] |= bit;
    uint64_t* lane = columns.bits.data() +
                     (word / kTile) * columns.pairs * kTile + word % kTile;
    const uint64_t* k = KnowledgeRow(c);
    for (size_t j = 0; j < mask_words_; ++j) {
      for (uint64_t rest = k[j]; rest != 0; rest &= rest - 1) {
        lane[(j * 64 + static_cast<size_t>(__builtin_ctzll(rest))) * kTile] |=
            bit;
      }
    }
  }
}

namespace {

/// One candidate's scan of InferenceEngine::LookaheadColumns: its row k
/// and the antichain, tile by tile.
struct TileScan {
  const InferenceEngine::LookaheadColumns& columns;
  const uint64_t* k;
  size_t words;         ///< pair-mask words
  uint64_t last_pairs;  ///< the real pairs of the last mask word
  const uint64_t* forbidden;
  size_t num_forbidden;

  /// acc ∧= col[p] (kHas) or acc ∧= ¬col[p] (!kHas) for every pair p set
  /// in the mask words pair_word(j), where col[p] is the tile's lanes at
  /// tile + p · kTile.
  template <size_t kLanes, bool kHas, typename PairWord>
  void And(uint64_t (&acc)[kLanes], const uint64_t* tile,
           const PairWord& pair_word) const {
    for (size_t j = 0; j < words; ++j) {
      for (uint64_t pairs = pair_word(j); pairs != 0; pairs &= pairs - 1) {
        const uint64_t* column =
            tile +
            (j * 64 + static_cast<size_t>(__builtin_ctzll(pairs))) * kTile;
        for (size_t i = 0; i < kLanes; ++i) {
          acc[i] &= kHas ? column[i] : ~column[i];
        }
      }
    }
  }

  /// Adds the classes at the set bits of `set` (tile `t`) to `impact`.
  template <size_t kLanes>
  void Count(const uint64_t (&set)[kLanes], size_t t,
             InferenceEngine::LabelImpact& impact) const {
    for (size_t i = 0; i < kLanes; ++i) {
      const uint32_t* word_tuples =
          columns.class_tuples.data() + (t * kTile + i) * 64;
      for (uint64_t rest = set[i]; rest != 0; rest &= rest - 1) {
        ++impact.pruned_classes;
        impact.pruned_tuples +=
            word_tuples[static_cast<size_t>(__builtin_ctzll(rest))];
      }
    }
  }

  /// Scans tile t, whose positions all lie in its first kLanes words.
  template <size_t kLanes>
  void Run(size_t t, InferenceEngine::LabelImpactPair& result) const {
    const uint64_t* tile = columns.bits.data() + t * columns.pairs * kTile;
    const uint64_t* live = columns.live.data() + t * kTile;
    // Negative answer: the forbidden zone grows by exactly k, so d is
    // pruned iff K_d holds no pair outside k.
    uint64_t negative[kLanes];
    std::copy(live, live + kLanes, negative);
    And<kLanes, false>(negative, tile, [this](size_t j) {
      return ~k[j] & (j + 1 == words ? last_pairs : ~uint64_t{0});
    });
    // Positive answer: the hypothetical θ_P is k, and d's hypothetical
    // knowledge is k ∧ K_d. d is forced positive when that meet is k itself
    // (K_d holds every pair of k), and forced negative when the meet lies
    // inside a forbidden zone F (K_d holds no pair of k∖F).
    uint64_t positive[kLanes];
    std::copy(live, live + kLanes, positive);
    And<kLanes, true>(positive, tile, [this](size_t j) { return k[j]; });
    for (size_t f = 0; f < num_forbidden; ++f) {
      const uint64_t* zone = forbidden + f * words;
      uint64_t inside[kLanes];
      std::copy(live, live + kLanes, inside);
      And<kLanes, false>(inside, tile,
                         [this, zone](size_t j) { return k[j] & ~zone[j]; });
      for (size_t i = 0; i < kLanes; ++i) positive[i] |= inside[i];
    }
    Count(negative, t, result.negative);
    Count(positive, t, result.positive);
  }
};

}  // namespace

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBoth(
    size_t class_id, const LookaheadColumns& columns) const {
  JIM_CHECK_LT(class_id, num_classes());
  JIM_CHECK(class_status_[class_id] == ClassStatus::kInformative);
  JIM_CHECK_EQ(columns.positions, informative_.size())
      << "lookahead columns prepared for another worklist";
  const TileScan scan{
      columns,
      KnowledgeRow(class_id),
      mask_words_,
      columns.pairs % 64 == 0 ? ~uint64_t{0}
                              : (uint64_t{1} << (columns.pairs % 64)) - 1,
      state_.forbidden_masks(),
      state_.num_forbidden()};
  LabelImpactPair result;
  // Every tile but the last is full; the last scans only the words its
  // positions use, rounded up to a power of two.
  static_assert(kTile == 8, "the dispatch below covers 1, 2, 4 or 8 lanes");
  const size_t used_words = (columns.positions + 63) / 64;
  for (size_t t = 0; t < columns.tiles; ++t) {
    const size_t lanes = std::min(kTile, used_words - t * kTile);
    if (lanes > 4) {
      scan.Run<8>(t, result);
    } else if (lanes > 2) {
      scan.Run<4>(t, result);
    } else if (lanes > 1) {
      scan.Run<2>(t, result);
    } else {
      scan.Run<1>(t, result);
    }
  }
  JIM_COUNT(obs::kCounterEngineSimulateLabelBoth);
  return result;
}

void InferenceEngine::CheckInvariants() const {
  state_.CheckInvariants();

  // The class table and the per-class arrays sized for this instance.
  JIM_CHECK(store_ != nullptr && table_ != nullptr);
  const size_t num_tuples = store_->num_tuples();
  const size_t num_classes = table_->classes.size();
  JIM_CHECK_EQ(class_status_.size(), num_classes);
  JIM_CHECK_EQ(mask_words_, lat::PairMaskWords(store_->num_attributes()));
  JIM_CHECK_EQ(table_->part_rows.size(), num_classes * mask_words_);
  JIM_CHECK_EQ(knowledge_rows_.size(), num_classes * mask_words_);
  JIM_CHECK_EQ(knowledge_rank_.size(), num_classes);

  // Re-derived from class_of_tuple, which computes each tuple's mask from
  // its codes: class ids in first-occurrence order, no empty class, and
  // each class's first tuple and size.
  std::vector<uint32_t> sizes(num_classes, 0);
  size_t seen = 0;  // classes met so far, = the next new id
  for (size_t t = 0; t < num_tuples; ++t) {
    const size_t c = class_of_tuple(t);
    JIM_CHECK_LT(c, num_classes) << "tuple " << t << " in no class";
    if (c == seen) {
      JIM_CHECK_EQ(tuple_class(c).tuple_indices[0], t)
          << "class " << c << " does not start at its first tuple";
      ++seen;
    }
    JIM_CHECK_LT(c, seen)
        << "class " << c << " is out of first-occurrence order at tuple "
        << t;
    ++sizes[c];
  }
  JIM_CHECK_EQ(seen, num_classes) << "empty class " << seen;
  for (size_t c = 0; c < num_classes; ++c) {
    JIM_CHECK_EQ(tuple_class(c).size(), sizes[c])
        << "class " << c << " has the wrong size";
  }

  // Worklist = ascending ids of exactly the kInformative classes.
  const std::vector<size_t>& informative = informative_;
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_LT(informative[i], num_classes);
    if (i > 0) {
      JIM_CHECK_LT(informative[i - 1], informative[i])
          << "worklist not strictly ascending at position " << i;
    }
  }
  size_t informative_count = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    const bool on_worklist = std::binary_search(
        informative.begin(), informative.end(), c);
    const bool is_informative =
        class_status_[c] == ClassStatus::kInformative;
    JIM_CHECK_EQ(on_worklist, is_informative)
        << "worklist/status disagreement on class " << c << " ("
        << ClassStatusToString(class_status_[c]) << ")";
    if (is_informative) ++informative_count;
  }
  JIM_CHECK_EQ(informative_count, informative.size());

  // Position index mirrors the worklist exactly; off-pool classes carry the
  // sentinel.
  JIM_CHECK_EQ(worklist_pos_.size(), num_classes);
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_EQ(worklist_pos_[informative[i]],
                 static_cast<uint32_t>(i))
        << "worklist_pos out of sync at position " << i;
  }
  for (size_t c = 0; c < num_classes; ++c) {
    if (class_status_[c] != ClassStatus::kInformative) {
      JIM_CHECK_EQ(worklist_pos_[c], kNoPos)
          << "off-pool class " << c << " still has a worklist position";
    }
  }

  // Per-class: cached knowledge fresh for informative classes, and every
  // non-explicit status reproducible from a from-scratch classification.
  std::vector<uint64_t> expected(mask_words_);
  for (size_t c = 0; c < num_classes; ++c) {
    // The Part(c) row is a partition's mask: re-encoding its decode is exact.
    const lat::Partition part = ClassPartition(c);
    part.CheckInvariants();
    std::fill(expected.begin(), expected.end(), 0);
    lat::FillPairMask(part, expected.data());
    JIM_CHECK(std::equal(expected.begin(), expected.end(),
                         table_->part_rows.data() + c * mask_words_))
        << "Part(c) row " << c << " is not the mask of a partition";
    switch (class_status_[c]) {
      case ClassStatus::kInformative:
        std::fill(expected.begin(), expected.end(), 0);
        lat::FillPairMask(state_.theta_p().Meet(part), expected.data());
        JIM_CHECK(std::equal(expected.begin(), expected.end(),
                             KnowledgeRow(c)))
            << "stale knowledge cache K_" << c;
        JIM_CHECK_EQ(ClassKnowledgeRank(c),
                     lat::MaskRank(expected.data(), mask_words_,
                                   store_->num_attributes()))
            << "stale knowledge rank K_" << c;
        JIM_CHECK(state_.Classify(part) == TupleClassification::kInformative)
            << "class " << c << " marked informative but classifies otherwise";
        break;
      case ClassStatus::kForcedPositive:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " wrongly forced positive";
        break;
      case ClassStatus::kForcedNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " wrongly forced negative";
        break;
      case ClassStatus::kLabeledPositive:
        // An accepted positive label implies every consistent predicate now
        // selects the class (the label made it so).
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " labeled positive but not forced by θ_P";
        break;
      case ClassStatus::kLabeledNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " labeled negative but not in a forbidden zone";
        break;
    }
  }

  // Every recorded label sits in a class labeled the same way, i.e. shows
  // as labeled with that label.
  for (const LabeledExample& example : history_) {
    const TupleStatus status = tuple_status(example.tuple_index);
    JIM_CHECK(status == (example.label == Label::kPositive
                             ? TupleStatus::kLabeledPositive
                             : TupleStatus::kLabeledNegative))
        << "tuple " << example.tuple_index << " labeled "
        << LabelToString(example.label) << " shows as "
        << TupleStatusToString(status);
  }
}

InferenceEngine::Stats InferenceEngine::GetStats() const {
  Stats stats;
  stats.num_tuples = store_->num_tuples();
  stats.num_classes = num_classes();
  stats.interactions = history_.size();
  stats.wasted_interactions = wasted_interactions_;
  for (size_t c = 0; c < num_classes(); ++c) {
    const size_t members = tuple_class(c).size();
    switch (class_status_[c]) {
      case ClassStatus::kInformative:
        ++stats.informative_classes;
        stats.informative_tuples += members;
        break;
      case ClassStatus::kForcedPositive:
      case ClassStatus::kLabeledPositive:
        stats.forced_positive_tuples += members;
        break;
      case ClassStatus::kForcedNegative:
      case ClassStatus::kLabeledNegative:
        stats.forced_negative_tuples += members;
        break;
    }
  }
  // Labeled classes split into distinct labeled tuples and forced mates, as
  // in tuple_status(); no tuple holds both labels, so 2·t + negative dedups.
  std::vector<size_t> labeled;
  for (const LabeledExample& e : history_) {
    labeled.push_back(2 * e.tuple_index + (e.label == Label::kNegative));
  }
  std::sort(labeled.begin(), labeled.end());
  labeled.erase(std::unique(labeled.begin(), labeled.end()), labeled.end());
  stats.explicitly_labeled_tuples = labeled.size();
  for (size_t key : labeled) {
    --(key % 2 == 0 ? stats.forced_positive_tuples
                    : stats.forced_negative_tuples);
  }
  return stats;
}

}  // namespace jim::core
