#include "verdicts.hpp"

#include <utility>

namespace perfbench {

namespace {

void hash_verdicts(Fnv& fnv, std::uint64_t interval, const acn::DeviceSet& isolated,
                   const acn::DeviceSet& massive, const acn::DeviceSet& unresolved) {
  fnv.value(interval);
  for (const acn::DeviceSet* set : {&isolated, &massive, &unresolved}) {
    fnv.value(set->size());
    fnv.bytes(set->ids().data(), set->size() * sizeof(acn::DeviceId));
  }
}

}  // namespace

void VerdictLedger::note(std::string text) {
  constexpr std::size_t kKept = 8;
  if (notes.size() < kKept) notes.push_back(std::move(text));
}

StreamCheck::StreamCheck(const Inputs& inputs, VerdictLedger& ledger,
                         std::string stream)
    : inputs_(inputs),
      ledger_(ledger),
      stream_(std::move(stream)),
      state_(inputs.intervals() + 1, State::kPending) {}

void StreamCheck::sealed(std::uint64_t interval, const acn::DeviceSet& isolated,
                         const acn::DeviceSet& massive,
                         const acn::DeviceSet& unresolved, bool degraded,
                         bool forced) {
  hash_verdicts(hash_, interval, isolated, massive, unresolved);
  const std::string where = stream_ + " interval " + std::to_string(interval);
  if (interval == 0 || interval >= state_.size()) {
    ledger_.note(where + ": not in the stream");
    ++unexpected_;
    return;
  }
  State& state = state_[interval];
  if (state != State::kPending) {
    ledger_.note(where + ": sealed twice");
    state = State::kFailed;
    return;
  }
  state = State::kOk;
  if (interval != last_ + 1) {
    ledger_.note(where + ": out of order");
    state = State::kFailed;
  }
  last_ = interval;
  if (degraded || forced) {
    ledger_.note(where + ": sealed degraded or forced");
    state = State::kFailed;
  }
  const Expected& want = inputs_.expected[interval];
  if (isolated != want.isolated || massive != want.massive ||
      unresolved != want.unresolved) {
    ledger_.note(where + ": verdicts differ from the from-scratch reference");
    state = State::kFailed;
  }
}

void StreamCheck::threw(const std::exception& error) {
  ledger_.note(stream_ + ": threw: " + error.what());
}

void StreamCheck::finish() {
  const std::size_t intervals = state_.size() - 1;
  // An interval the stream should not have produced is one more attempt,
  // and a failed one.
  ledger_.attempted += intervals + unexpected_;
  ledger_.failed += unexpected_;
  std::size_t missing = 0;
  for (std::size_t k = 1; k <= intervals; ++k) {
    if (state_[k] == State::kOk) continue;
    ++ledger_.failed;
    if (state_[k] == State::kPending) ++missing;
  }
  if (missing > 0) {
    ledger_.note(stream_ + ": " + std::to_string(missing) +
                 " intervals never sealed");
  }
}

std::uint64_t expected_hash(const Inputs& inputs) {
  Fnv fnv;
  for (std::size_t k = 1; k <= inputs.intervals(); ++k) {
    const Expected& e = inputs.expected[k];
    hash_verdicts(fnv, k, e.isolated, e.massive, e.unresolved);
  }
  return fnv.digest();
}

}  // namespace perfbench
