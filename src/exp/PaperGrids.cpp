//===- exp/PaperGrids.cpp -------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "exp/PaperGrids.h"

#include "support/StringUtils.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::exp;
using namespace dynfb::xform;

TimingGrid exp::runTimingGrid(const App &App,
                              const std::vector<unsigned> &Procs,
                              const fb::FeedbackConfig &Config) {
  const rt::FlatMachineModel Flat;
  TimingGrid Grid;
  Grid.SerialSeconds =
      runAppSeconds(App, 1, VersionSpec::serial(), Flat, Config);

  for (PolicyKind P : AllPolicies) {
    std::map<unsigned, double> Row;
    for (unsigned N : Procs)
      Row[N] = runAppSeconds(App, N, VersionSpec::fixed(P), Flat, Config);
    Grid.Rows.emplace_back(policyName(P), std::move(Row));
  }
  std::map<unsigned, double> Dyn;
  for (unsigned N : Procs)
    Dyn[N] = runAppSeconds(App, N, VersionSpec::dynamicFeedback(), Flat,
                           Config);
  Grid.Rows.emplace_back("Dynamic", std::move(Dyn));
  return Grid;
}

std::vector<std::string>
exp::versionByProcsHeader(const std::vector<unsigned> &Procs) {
  std::vector<std::string> Header{"Version"};
  for (unsigned N : Procs)
    Header.push_back(format("%u", N));
  return Header;
}

Table exp::timesTable(const std::string &Title, const TimingGrid &Grid,
                      const std::vector<unsigned> &Procs) {
  Table T(Title);
  T.setHeader(versionByProcsHeader(Procs));

  std::vector<std::string> SerialRow{"Serial", formatDouble(
      Grid.SerialSeconds, 2)};
  for (size_t I = 1; I < Procs.size(); ++I)
    SerialRow.push_back("-");
  T.addRow(SerialRow);

  for (const auto &[Label, Row] : Grid.Rows) {
    std::vector<std::string> Cells{Label};
    for (unsigned N : Procs)
      Cells.push_back(formatDouble(Row.at(N), 2));
    T.addRow(Cells);
  }
  return T;
}

Table exp::speedupTable(const std::string &Title, const TimingGrid &Grid,
                        const std::vector<unsigned> &Procs) {
  Table T(Title);
  T.setHeader(versionByProcsHeader(Procs));
  for (const auto &[Label, Row] : Grid.Rows) {
    std::vector<std::string> Cells{Label};
    for (unsigned N : Procs)
      Cells.push_back(formatDouble(Grid.SerialSeconds / Row.at(N), 2));
    T.addRow(Cells);
  }
  return T;
}

std::string exp::speedupCsv(const TimingGrid &Grid,
                            const std::vector<unsigned> &Procs) {
  SeriesSet Set;
  for (const auto &[Label, Row] : Grid.Rows) {
    Series &S = Set.getOrCreate(Label);
    for (unsigned N : Procs)
      S.addPoint(static_cast<double>(N), Grid.SerialSeconds / Row.at(N));
  }
  return renderSeriesCsv(Set, "processors", "speedup");
}
