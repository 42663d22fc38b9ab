// The verdict oracle and failure accounting.
//
// Every stream the benchmark drives — a pipeline pass, or one layer stack
// of the traced run — is checked interval by interval against the
// from-scratch Characterizer's verdicts on the same (S_{k-1}, S_k, A_k),
// computed when the inputs were generated. All checks run outside the timed
// regions. An interval counts as failed when its isolated, massive or
// unresolved set differs, when it is missing or sealed twice or out of
// order, when it was sealed degraded or forced (every workload stays inside
// its lateness budget), or when the stream threw before sealing it.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "common/device_set.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Attempted and failed intervals over every stream of a run.
struct VerdictLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< the first few failure descriptions

  void note(std::string text);
  [[nodiscard]] double failed_ratio() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Checks one stream of K intervals; call finish() once at its end.
class StreamCheck {
 public:
  StreamCheck(const Inputs& inputs, VerdictLedger& ledger, std::string stream);

  /// An interval came out of the stream with these verdicts.
  void sealed(std::uint64_t interval, const acn::DeviceSet& isolated,
              const acn::DeviceSet& massive, const acn::DeviceSet& unresolved,
              bool degraded = false, bool forced = false);
  /// The stream threw; the intervals it had not sealed count as failed.
  void threw(const std::exception& error);
  /// Books the stream's K attempted intervals and its failures.
  void finish();

  /// Hash of the verdict stream in sealing order.
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_.digest(); }

 private:
  enum class State : std::uint8_t { kPending, kOk, kFailed };

  const Inputs& inputs_;
  VerdictLedger& ledger_;
  std::string stream_;
  std::vector<State> state_;  ///< index 1..K
  std::uint64_t unexpected_ = 0;  ///< sealed intervals outside 1..K
  std::uint64_t last_ = 0;
  Fnv hash_;
};

/// Hash of the expected verdict stream, in the same form as hash().
std::uint64_t expected_hash(const Inputs& inputs);

}  // namespace perfbench
