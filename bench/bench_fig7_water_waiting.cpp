//===- bench/bench_fig7_water_waiting.cpp -----------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Figure 7: the waiting proportion of Water -- the
// fraction of total execution time spent waiting to acquire locks held by
// other processors -- per policy and processor count. The Aggressive
// version's false exclusion makes its waiting proportion climb with the
// processor count; Original and Bounded stay low.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/water/WaterApp.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;
using namespace dynfb::xform;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  water::WaterConfig Config;
  Config.scale(CL.getDouble("scale", 1.0));
  water::WaterApp App(Config);

  Table T("Figure 7: Waiting Proportion for Water");
  std::vector<std::string> Header{"Version"};
  for (unsigned N : PaperProcCounts)
    Header.push_back(format("%u", N));
  T.setHeader(Header);

  SeriesSet Set;
  for (PolicyKind P : AllPolicies) {
    std::vector<std::string> Row{policyName(P)};
    Series &S = Set.getOrCreate(policyName(P));
    for (unsigned N : PaperProcCounts) {
      const fb::RunResult R = runApp(App, N, VersionSpec::fixed(P),
                                     rt::FlatMachineModel());
      const double W = R.ParallelStats.waitingProportion();
      Row.push_back(formatDouble(W, 3));
      S.addPoint(static_cast<double>(N), W);
    }
    T.addRow(Row);
  }
  printTable(T);
  printCsv("fig7_waiting", renderSeriesCsv(Set, "processors",
                                           "waiting_proportion"));
  std::printf("Paper reference: waiting overhead is the primary cause of "
              "performance loss; the Aggressive policy generates enough "
              "false exclusion to severely degrade performance.\n");
  return 0;
}
