//===- bench/bench_fig8_water_interf_series.cpp -----------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Figure 8: sampled overhead over time for the Water
// INTERF section on eight processors. INTERF generates only two versions
// (Bounded and Aggressive produce the same code), so the series cover
// Original and Bounded/Aggressive. The gaps correspond to the executions
// of the other serial and parallel sections.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/water/WaterApp.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  water::WaterConfig Config;
  Config.scale(CL.getDouble("scale", 1.0));
  water::WaterApp App(Config);

  fb::FeedbackConfig FC;
  FC.TargetSamplingNanos = rt::millisToNanos(5.0);
  FC.TargetProductionNanos = rt::secondsToNanos(1.0);
  const fb::RunResult R =
      runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
             FC);

  const SeriesSet OverheadSet = R.mergedOverheadSeries("INTERF");
  std::printf("Figure 8: Sampled Overhead for the Water INTERF Section on "
              "Eight Processors\n\n");
  Table T("Per-version sampled overhead summary");
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
  printCsv("fig8_overhead_series",
           renderSeriesCsv(OverheadSet, "time_s", "overhead"));
  std::printf("Paper reference: two series (Original above Bounded), both "
              "stable over time.\n");
  return 0;
}
