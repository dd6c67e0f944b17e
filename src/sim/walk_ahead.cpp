#include "sim/walk_ahead.hpp"

#include <algorithm>

namespace ptb {

WalkAhead::WalkAhead(int nprocs, double ns_per_work)
    : ns_per_work_(ns_per_work),
      entered_(static_cast<std::size_t>(nprocs), 0),
      slots_(kSlots) {
  PTB_CHECK(nprocs >= 1);
}

WalkAhead::~WalkAhead() { stop(); }

void WalkAhead::arm(Plan plan) {
  PTB_CHECK(plan.units.size() == entered_.size());
  std::unique_lock<std::mutex> lk(m_);
  // A phase whose sections did not take every chunk (a program that skipped
  // a processor's section) may still have a walk in flight; its buffer is
  // reused below.
  ready_cv_.wait(lk, [this] { return walking_ == 0; });
  plan_ = std::move(plan);
  base_.assign(1, 0);
  for (std::size_t u : plan_.units)
    base_.push_back(base_.back() + (u + kChunkUnits - 1) / kChunkUnits);
  state_.assign(base_.back(), State::kOpen);
  slot_of_.assign(base_.back(), 0);
  free_.clear();
  for (std::size_t s = slots_.size(); s-- > 0;)
    free_.push_back(static_cast<std::uint32_t>(s));
  cursor_ = 0;
  if (!helper_.joinable()) {
    stop_ = false;
    helper_ = std::thread([this] { helper_main(); });
  }
  helper_cv_.notify_one();
  // The phase's first chunk is always the helper's. Waiting for it costs one
  // wake-up and one chunk's walk, which its section would otherwise spend
  // walking it inline, and it means every phase replays at least one chunk
  // however late the host runs the helper.
  ready_cv_.wait(lk, [this] { return state_.empty() || state_[0] == State::kReady; });
}

void WalkAhead::fill(Chunk& c, int p, std::size_t k) const {
  c.first = k * kChunkUnits;
  c.count = std::min(kChunkUnits, plan_.units[static_cast<std::size_t>(p)] - c.first);
  c.out_words = (plan_.out_bytes + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  c.records.clear();
  c.ends.clear();
  c.outs.resize(c.count * c.out_words);
  for (std::size_t u = 0; u < c.count; ++u) {
    ChargeRecorder rec(c.records, ns_per_work_);
    plan_.walk(p, c.first + u, rec, c.outs.data() + u * c.out_words);
    c.ends.push_back(static_cast<std::uint32_t>(c.records.size()));
  }
}

bool WalkAhead::open_chunk() {
  while (cursor_ < state_.size() && state_[cursor_] != State::kOpen) ++cursor_;
  return cursor_ < state_.size();
}

void WalkAhead::helper_main() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    // Sleeps until the next phase, or until release() has freed half the
    // ring: a full ring then costs one wake-up per several chunks rather
    // than one per chunk.
    helper_cv_.wait(lk, [this] { return stop_ || (!free_.empty() && open_chunk()); });
    if (stop_) return;
    const std::size_t c = cursor_++;
    const std::uint32_t s = free_.back();
    free_.pop_back();
    state_[c] = State::kWalking;
    slot_of_[c] = s;
    ++walking_;
    const auto p = static_cast<int>(std::upper_bound(base_.begin(), base_.end(), c) -
                                    base_.begin() - 1);
    lk.unlock();
    Chunk& ch = slots_[s];
    ch.index = c;
    fill(ch, p, c - base_[static_cast<std::size_t>(p)]);
    lk.lock();
    state_[c] = State::kReady;
    --walking_;
    ready_cv_.notify_all();
  }
}

const WalkAhead::Chunk* WalkAhead::take(int p, std::size_t k) {
  std::unique_lock<std::mutex> lk(m_);
  const auto pi = static_cast<std::size_t>(p);
  PTB_CHECK_MSG(pi + 1 < base_.size() && k < base_[pi + 1] - base_[pi],
                "walk-ahead: no such chunk in the armed phase");
  const std::size_t c = base_[pi] + k;
  if (state_[c] == State::kOpen) {
    state_[c] = State::kSection;
    return nullptr;
  }
  PTB_CHECK_MSG(state_[c] == State::kWalking || state_[c] == State::kReady,
                "walk-ahead: chunk taken twice");
  ready_cv_.wait(lk, [&] { return state_[c] == State::kReady; });
  state_[c] = State::kTaken;
  ++handed_;
  return &slots_[slot_of_[c]];
}

void WalkAhead::release(const Chunk* ch) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> g(m_);
    PTB_CHECK(state_[ch->index] == State::kTaken);
    state_[ch->index] = State::kDone;
    free_.push_back(slot_of_[ch->index]);
    wake = free_.size() == (slots_.size() + 1) / 2;
  }
  if (wake) helper_cv_.notify_one();
}

void WalkAhead::stop() {
  {
    std::lock_guard<std::mutex> g(m_);
    stop_ = true;
  }
  helper_cv_.notify_one();
  if (helper_.joinable()) helper_.join();
  std::lock_guard<std::mutex> g(m_);
  state_.clear();
  base_.assign(1, 0);
  std::fill(entered_.begin(), entered_.end(), 0);
  phases_ = 0;
}

std::uint64_t WalkAhead::handed() {
  std::lock_guard<std::mutex> g(m_);
  return handed_;
}

}  // namespace ptb
