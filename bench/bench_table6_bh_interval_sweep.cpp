//===- bench/bench_table6_bh_interval_sweep.cpp -----------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Table 6: mean execution times of the Barnes-Hut FORCES
// section on eight processors for combinations of target sampling and
// target production intervals. The paper's observation -- the performance
// is relatively insensitive to the intervals -- should reproduce.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/barnes_hut/BarnesHutApp.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  bh::BarnesHutConfig Config;
  Config.scale(CL.getDouble("scale", 1.0));
  bh::BarnesHutApp App(Config);

  const double SamplingSeconds[] = {0.01, 0.1, 1.0};
  const double ProductionSeconds[] = {1.0, 5.0, 10.0, 100.0};

  Table T("Table 6: Mean Execution Times for Varying Production and "
          "Sampling Intervals, Barnes-Hut FORCES, Eight Processors "
          "(seconds)");
  T.setHeader({"Target Sampling Interval", "1 s", "5 s", "10 s", "100 s"});

  for (double S : SamplingSeconds) {
    std::vector<std::string> Row{format("%.2f seconds", S)};
    for (double P : ProductionSeconds) {
      fb::FeedbackConfig FC;
      FC.TargetSamplingNanos = rt::secondsToNanos(S);
      FC.TargetProductionNanos = rt::secondsToNanos(P);
      const fb::RunResult R =
          runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
                 FC);
      // Mean FORCES section execution time over its occurrences.
      RunningStat Stat;
      for (const fb::SectionExecutionTrace &Trace : R.Occurrences)
        if (Trace.SectionName == "FORCES")
          Stat.add(rt::nanosToSeconds(Trace.durationNanos()));
      Row.push_back(formatDouble(Stat.mean(), 2));
    }
    T.addRow(Row);
  }
  printTable(T);
  std::printf("Paper reference: 8.2-10.3 s across the sweep -- performance "
              "relatively insensitive to the interval choice.\n");
  return 0;
}
