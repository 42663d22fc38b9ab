#include "core/report.hpp"

#include <sstream>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace acn {

std::string CharacterizationReport::to_text() const {
  std::ostringstream os;
  os << "abnormal: " << decisions.size() << "  massive: " << sets.massive.size()
     << "  isolated: " << sets.isolated.size()
     << "  unresolved: " << sets.unresolved.size() << "\n";
  Table table({"device", "class", "rule", "exact", "|M(j)|", "|W(j)|", "collections"});
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& decision = decisions[i];
    table.add_row({std::to_string(abnormal[i]), to_string(decision.cls),
                   to_string(decision.rule), decision.exact ? "yes" : "no",
                   std::to_string(decision.maximal_motion_count),
                   std::to_string(decision.dense_motion_count),
                   std::to_string(decision.collections_tested)});
  }
  os << table.to_string();
  return os.str();
}

std::string CharacterizationReport::to_csv() const {
  CsvWriter csv({"device", "class", "rule", "exact", "maximal_motions",
                 "dense_motions", "collections_tested"});
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& decision = decisions[i];
    csv.add_row({std::to_string(abnormal[i]), to_string(decision.cls),
                 to_string(decision.rule), decision.exact ? "1" : "0",
                 std::to_string(decision.maximal_motion_count),
                 std::to_string(decision.dense_motion_count),
                 std::to_string(decision.collections_tested)});
  }
  return csv.to_string();
}

CharacterizationReport make_report(const StatePair& state, Params params,
                                   CharacterizeOptions options) {
  CharacterizationReport report;
  report.abnormal = state.abnormal();
  report.decisions = Characterizer(state, params, options).decide();
  report.sets = bucket(report.abnormal, report.decisions);
  return report;
}

}  // namespace acn
