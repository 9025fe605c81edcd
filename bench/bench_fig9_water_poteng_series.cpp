//===- bench/bench_fig9_water_poteng_series.cpp -----------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Figure 9: sampled overhead over time for the Water
// POTENG section on eight processors. POTENG generates only two versions
// (Original and Bounded coincide); the Aggressive version's overhead is
// dramatically higher because holding the global accumulator's lock across
// whole iterations serializes the computation.
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
  FC.TargetProductionNanos = rt::secondsToNanos(0.5);
  const fb::RunResult R =
      runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
             FC);

  const SeriesSet OverheadSet = R.mergedOverheadSeries("POTENG");
  std::printf("Figure 9: Sampled Overhead for the Water POTENG Section on "
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
  printCsv("fig9_overhead_series",
           renderSeriesCsv(OverheadSet, "time_s", "overhead"));
  std::printf("Paper reference: the Aggressive series sits far above "
              "Original/Bounded (serialization through false exclusion); "
              "both stable over time.\n");
  return 0;
}
