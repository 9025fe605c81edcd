//===- bench/bench_table13_14_water_interval_sweep.cpp ----------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Tables 13 and 14: mean execution times of the Water
// INTERF and POTENG sections on eight processors across combinations of
// target sampling and production intervals. INTERF should be insensitive
// (its two versions perform similarly); POTENG should be sensitive at
// small production intervals (there is a dramatic difference between its
// Original and Aggressive versions).
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

  const double SamplingSeconds[] = {0.01, 0.1, 1.0};
  const double ProductionSeconds[] = {1.0, 5.0, 10.0, 100.0};

  for (const char *Section : {"INTERF", "POTENG"}) {
    Table T(std::string("Table ") +
            (std::string(Section) == "INTERF" ? "13" : "14") +
            ": Mean Execution Times for Varying Production and Sampling "
            "Intervals, Water " +
            Section + ", Eight Processors (seconds)");
    T.setHeader({"Target Sampling Interval", "1 s", "5 s", "10 s", "100 s"});
    for (double S : SamplingSeconds) {
      std::vector<std::string> Row{format("%.2f seconds", S)};
      for (double P : ProductionSeconds) {
        fb::FeedbackConfig FC;
        FC.TargetSamplingNanos = rt::secondsToNanos(S);
        FC.TargetProductionNanos = rt::secondsToNanos(P);
        const fb::RunResult R = runApp(App, 8, VersionSpec::dynamicFeedback(),
                                       rt::FlatMachineModel(), FC);
        RunningStat Stat;
        for (const fb::SectionExecutionTrace &Trace : R.Occurrences)
          if (Trace.SectionName == Section)
            Stat.add(rt::nanosToSeconds(Trace.durationNanos()));
        Row.push_back(formatDouble(Stat.mean(), 2));
      }
      T.addRow(Row);
    }
    printTable(T);
  }
  std::printf("Paper reference: INTERF uniform across the sweep; POTENG "
              "sensitive to the sampling interval at production intervals "
              "of 1-5 seconds.\n");
  return 0;
}
