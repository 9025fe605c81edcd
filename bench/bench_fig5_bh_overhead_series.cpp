//===- bench/bench_fig5_bh_overhead_series.cpp ------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Figure 5: the sampled overhead of each synchronization
// policy over time for the Barnes-Hut FORCES section on eight processors,
// using small target sampling and production intervals so the section
// resamples many times. The gap in the series corresponds to the serial
// tree-build phase between the two FORCES executions.
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

  fb::FeedbackConfig FC;
  FC.TargetSamplingNanos = rt::millisToNanos(5.0);
  FC.TargetProductionNanos = rt::secondsToNanos(1.0);
  const fb::RunResult R =
      runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
             FC);

  const SeriesSet OverheadSet = R.mergedOverheadSeries("FORCES");
  std::printf("Figure 5: Sampled Overhead for the Barnes-Hut FORCES "
              "Section on Eight Processors\n");
  std::printf("(one (time seconds, overhead) point per sampling interval; "
              "series per policy)\n\n");
  Table T("Per-policy sampled overhead summary");
  T.setHeader({"Version", "Samples", "Mean overhead", "Min", "Max"});
  for (const Series &S : OverheadSet.all()) {
    RunningStat Stat;
    for (double V : S.Values)
      Stat.add(V);
    T.addRow({S.Label, format("%llu", (unsigned long long)Stat.count()),
              formatDouble(Stat.mean(), 4), formatDouble(Stat.min(), 4),
              formatDouble(Stat.max(), 4)});
  }
  printTable(T);
  printCsv("fig5_overhead_series",
           renderSeriesCsv(OverheadSet, "time_s", "overhead"));
  std::printf("Paper reference: overheads stay relatively stable over "
              "time; Original highest, Aggressive lowest.\n");
  return 0;
}
