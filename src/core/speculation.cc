#include "core/speculation.h"

#include "util/logging.h"

namespace jim::core {

SpeculativeSession::SpeculativeSession(const InferenceEngine& engine)
    : engine_(engine),
      state_(engine.state()),
      sentinel_(engine.num_classes()),
      next_(engine.num_classes() + 1),
      prev_(engine.num_classes() + 1) {
  // Thread the live list through the informative worklist (ascending).
  uint32_t tail = static_cast<uint32_t>(sentinel_);
  for (size_t c : engine.InformativeClasses()) {
    next_[tail] = static_cast<uint32_t>(c);
    prev_[c] = tail;
    tail = static_cast<uint32_t>(c);
    ++num_live_;
  }
  next_[tail] = static_cast<uint32_t>(sentinel_);
  prev_[sentinel_] = tail;
}

std::vector<size_t> SpeculativeSession::LiveClasses() const {
  std::vector<size_t> live;
  live.reserve(num_live_);
  for (size_t c = FirstLive(); c != LiveEnd(); c = NextLive(c)) {
    live.push_back(c);
  }
  return live;
}

void SpeculativeSession::Apply(size_t class_id, Label label) {
  JIM_CHECK_LT(class_id, engine_.num_classes());
  JIM_CHECK(IsLive(class_id)) << "speculative label on a non-live class";
  // Park the pre-label state in the pooled frame for this depth; the
  // assignment reuses the frame's warmed capacity after the first visit.
  if (depth_ == frames_.size()) {
    frames_.push_back(Frame{state_, {}});
  } else {
    frames_[depth_].saved = state_;
    frames_[depth_].removed.clear();
  }
  Frame& frame = frames_[depth_];
  ++depth_;

  JIM_CHECK_OK(
      state_.ApplyLabel(engine_.tuple_class(class_id).partition, label));

  // The labeled class leaves first (its status is now settled), then one
  // walk of the remaining live list removes everything the new state
  // classifies as uninformative. Removal order is the trail; Undo replays it
  // backwards.
  Unlink(class_id);
  frame.removed.push_back(static_cast<uint32_t>(class_id));
  for (size_t c = FirstLive(); c != LiveEnd();) {
    const size_t next = NextLive(c);
    if (state_.ClassifyWith(engine_.tuple_class(c).partition, meet_tmp_,
                            scratch_) != TupleClassification::kInformative) {
      Unlink(c);
      frame.removed.push_back(static_cast<uint32_t>(c));
    }
    c = next;
  }
}

void SpeculativeSession::Undo() {
  JIM_CHECK_GT(depth_, size_t{0}) << "Undo with an empty trail";
  Frame& frame = frames_[--depth_];
  // Dancing links: each removed node kept its own pointers, so re-linking in
  // exact reverse removal order restores the list bit for bit.
  for (size_t i = frame.removed.size(); i-- > 0;) {
    Relink(frame.removed[i]);
  }
  state_.Swap(frame.saved);
}

void SpeculativeSession::CheckInvariants() const {
  state_.CheckInvariants();
  // The list is one ascending cycle through the sentinel of length num_live.
  size_t count = 0;
  size_t last = sentinel_;
  for (size_t c = FirstLive(); c != LiveEnd(); c = NextLive(c)) {
    JIM_CHECK_LT(c, engine_.num_classes());
    JIM_CHECK_EQ(static_cast<size_t>(prev_[c]), last)
        << "live list prev/next disagree at class " << c;
    if (last != sentinel_) {
      JIM_CHECK_LT(last, c) << "live list not ascending";
    }
    last = c;
    JIM_CHECK_LE(++count, engine_.num_classes()) << "live list cycles";
  }
  JIM_CHECK_EQ(static_cast<size_t>(prev_[sentinel_]), last);
  JIM_CHECK_EQ(count, num_live_);
  // Live = engine-informative classes still informative under state().
  lat::Partition meet_tmp;
  lat::PartitionScratch scratch;
  for (size_t c : engine_.InformativeClasses()) {
    const bool expect_live =
        state_.ClassifyWith(engine_.tuple_class(c).partition, meet_tmp,
                            scratch) == TupleClassification::kInformative;
    JIM_CHECK_EQ(IsLive(c), expect_live)
        << "live list disagrees with classification for class " << c;
  }
}

}  // namespace jim::core
