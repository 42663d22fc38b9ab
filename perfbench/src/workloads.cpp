#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "core/characterizer.hpp"
#include "measure.hpp"
#include "sim/hostile.hpp"
#include "sim/report_source.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

/// The paper's dimensioning carried to n (§VII-A, Fig. 6): r = 0.03 at
/// n = 1000, scaled so the expected 2r-vicinity population n * (2r)^2 of a
/// d = 2 fleet stays at its n = 1000 value.
double paper_r(std::size_t n) {
  return 0.03 * std::sqrt(1000.0 / static_cast<double>(n));
}

void store_block(Inputs& in, std::size_t k, const std::vector<acn::Point>& row) {
  double* out = in.coords.data() + k * in.n() * in.dim;
  for (const acn::Point& p : row) {
    for (std::size_t t = 0; t < in.dim; ++t) *out++ = p[t];
  }
}

void store_verdicts(Inputs& in, std::size_t k, const acn::StatePair& state) {
  const Clock::time_point start = Clock::now();
  acn::Characterizer scratch(state, in.spec.model);
  acn::CharacterizationSets sets = scratch.characterize_all();
  in.expected[k] = Expected{std::move(sets.isolated), std::move(sets.massive),
                            std::move(sets.unresolved)};
  in.oracle_s += ms_between(start, Clock::now()) / 1000.0;
}

/// The clean §VII-A stream, delivered in order and exactly once: the same
/// schedule acn::delivery_schedule builds for DeliveryFaults{}, flattened
/// here without materializing K full snapshots first.
void generate_clean(Inputs& in) {
  const WorkloadSpec& spec = in.spec;
  acn::ScenarioParams params;
  params.n = spec.n;
  params.errors_per_step = spec.errors;
  params.model = spec.model;
  params.seed = in.seed;
  acn::ScenarioGenerator generator(params);
  store_block(in, 0, generator.positions());
  in.schedule.reserve(spec.n * spec.intervals);
  for (std::size_t k = 1; k <= spec.intervals; ++k) {
    const acn::ScenarioStep step = generator.advance();
    store_block(in, k, step.state.curr().positions());
    in.abnormal[k] = step.state.abnormal();
    store_verdicts(in, k, step.state);
    std::vector<bool> flagged(spec.n, false);
    for (const acn::DeviceId j : in.abnormal[k]) flagged[j] = true;
    for (std::size_t j = 0; j < spec.n; ++j) {
      in.schedule.push_back(Delivery{static_cast<std::uint32_t>(j),
                                     static_cast<std::uint32_t>(k), k,
                                     flagged[j]});
    }
  }
}

/// The combined-stress hostile family (churn, report loss and staleness,
/// drift, regional outages), re-delivered through a faulted schedule that
/// stays inside an allowed_lag = 2 lateness budget. The run's seed draws
/// the delivery schedule (reorder, duplicates); the family's own stream is
/// drawn from a fixed seed. Its cost is dominated by how many regional
/// outages a seed happens to draw and how tightly each converges: over
/// five seeds of 12 intervals its median cycle time spread by half, which
/// no affordable run length averages out.
constexpr std::uint64_t kHostileFamilySeed = 2014;

void generate_hostile(Inputs& in) {
  const WorkloadSpec& spec = in.spec;
  acn::HostileParams params;
  bool found = false;
  for (const acn::HostileSpec& family :
       acn::standard_hostile_suite(spec.n, kHostileFamilySeed)) {
    if (family.name == "combined-stress") {
      params = family.params;
      found = true;
    }
  }
  if (!found) throw std::logic_error("combined-stress family missing");
  params.base.errors_per_step = spec.errors;
  params.base.model = spec.model;

  acn::HostileScenario scenario(params);
  acn::Snapshot previous = scenario.initial();
  store_block(in, 0, previous.positions());
  std::vector<acn::ObservedInterval> stream;
  stream.reserve(spec.intervals);
  for (std::size_t k = 1; k <= spec.intervals; ++k) {
    acn::HostileStep step = scenario.advance();
    store_block(in, k, step.observed.positions());
    in.abnormal[k] = step.abnormal;
    store_verdicts(in, k, acn::StatePair(previous, step.observed, step.abnormal));
    previous = step.observed;
    stream.push_back(
        acn::ObservedInterval{std::move(step.observed), std::move(step.abnormal)});
  }

  acn::DeliveryFaults faults;
  faults.reorder_window = spec.n / 2;
  faults.duplicate_rate = 0.3;
  faults.seed = in.seed * 0x9E3779B97F4A7C15ULL + 17;
  const std::vector<acn::QosReport> reports = acn::delivery_schedule(stream, faults);
  stream.clear();
  in.schedule.reserve(reports.size());
  for (const acn::QosReport& r : reports) {
    in.schedule.push_back(Delivery{static_cast<std::uint32_t>(r.device),
                                   static_cast<std::uint32_t>(r.interval),
                                   r.arrival_seq, r.abnormal});
  }
}

std::uint64_t fingerprint_of(const Inputs& in) {
  Fnv fnv;
  fnv.value(in.spec.n);
  fnv.value(in.dim);
  fnv.value(in.spec.intervals);
  fnv.bytes(in.coords.data(), in.coords.size() * sizeof(double));
  for (const acn::DeviceSet& set : in.abnormal) fnv.value(set.hash());
  for (const Delivery& d : in.schedule) {
    fnv.value(d.device);
    fnv.value(d.interval);
    fnv.value(d.seq);
    fnv.value(static_cast<std::uint8_t>(d.abnormal));
  }
  for (const std::size_t cut : in.burst_begin) fnv.value(cut);
  return fnv.digest();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet-inorder", "blob-storm",
                                                 "hostile-delivery"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fleet-inorder") {
    spec.regime = "paper-dimensioned";
    spec.n = tiny ? 2'000 : 200'000;
    spec.errors = tiny ? 8 : 80;
    spec.model.r = paper_r(spec.n);
    spec.intervals = tiny ? 6 : 8;
    spec.allowed_lag = 1;
  } else if (name == "blob-storm") {
    spec.regime = "stress";
    spec.n = tiny ? 1'000 : 20'000;
    spec.errors = tiny ? 10 : 80;
    spec.model.r = 0.03;
    spec.intervals = tiny ? 6 : 20;
    spec.allowed_lag = 1;
  } else if (name == "hostile-delivery") {
    spec.regime = "paper-dimensioned";
    spec.n = tiny ? 1'000 : 50'000;
    spec.errors = tiny ? 10 : 250;
    spec.model.r = paper_r(spec.n);
    spec.intervals = tiny ? 6 : 12;
    spec.allowed_lag = 2;
    spec.hostile = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.model.tau = 3;
  return spec;
}

Inputs generate(const WorkloadSpec& spec, std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Inputs in;
  in.spec = spec;
  in.seed = seed;
  in.coords.resize((spec.intervals + 1) * spec.n * in.dim);
  in.abnormal.resize(spec.intervals + 1);
  in.expected.resize(spec.intervals + 1);
  if (spec.hostile) {
    generate_hostile(in);
  } else {
    generate_clean(in);
  }
  // As many equal bursts as intervals.
  const std::size_t total = in.schedule.size();
  for (std::size_t b = 0; b <= spec.intervals; ++b) {
    in.burst_begin.push_back(total * b / spec.intervals);
  }
  in.fingerprint = fingerprint_of(in);
  in.generate_s = ms_between(start, Clock::now()) / 1000.0;
  return in;
}

acn::Point Inputs::claim(std::size_t k, std::size_t j) const {
  return acn::Point(std::span<const double>(
      coords.data() + (k * spec.n + j) * dim, dim));
}

acn::Snapshot Inputs::snapshot(std::size_t k) const {
  std::vector<acn::Point> row;
  claims_into(k, row);
  return acn::Snapshot(std::move(row));
}

void Inputs::claims_into(std::size_t k, std::vector<acn::Point>& out) const {
  out.resize(spec.n);
  for (std::size_t j = 0; j < spec.n; ++j) out[j] = claim(k, j);
}

std::vector<std::pair<acn::GatewayKey, acn::Point>> Inputs::fleet() const {
  std::vector<std::pair<acn::GatewayKey, acn::Point>> out;
  out.reserve(spec.n);
  for (std::size_t j = 0; j < spec.n; ++j) {
    out.emplace_back(static_cast<acn::GatewayKey>(j), claim(0, j));
  }
  return out;
}

void Inputs::materialize(std::size_t b, std::vector<acn::QosReport>& out) const {
  const std::size_t begin = burst_begin[b];
  out.resize(burst_begin[b + 1] - begin);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Delivery& d = schedule[begin + i];
    acn::QosReport& report = out[i];
    report.device = d.device;
    report.interval = d.interval;
    report.claim = claim(d.interval, d.device);
    report.abnormal = d.abnormal;
    report.arrival_seq = d.seq;
  }
}

}  // namespace perfbench
