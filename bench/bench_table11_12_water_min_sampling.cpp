//===- bench/bench_table11_12_water_min_sampling.cpp ------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Regenerates paper Tables 11 and 12: mean minimum effective sampling
// intervals for the Water INTERF and POTENG sections on eight processors.
// The POTENG Aggressive version's interval is far larger than the
// iteration size because the policy serializes the computation (paper
// Section 4.1's discussion of especially bad policies).
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
  FC.TargetSamplingNanos = rt::millisToNanos(0.1);
  FC.TargetProductionNanos = rt::secondsToNanos(1.0);
  const fb::RunResult R =
      runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
             FC);

  for (const char *Section : {"INTERF", "POTENG"}) {
    std::map<std::string, RunningStat> PerVersion;
    for (const fb::SectionExecutionTrace &T : R.Occurrences)
      if (T.SectionName == Section)
        for (const auto &[Label, Stat] : T.EffectiveSamplingByVersion)
          PerVersion[Label].merge(Stat);

    Table T(std::string("Table ") +
            (std::string(Section) == "INTERF" ? "11" : "12") +
            ": Mean Minimum Effective Sampling Intervals for the Water " +
            Section + " Section on Eight Processors");
    T.setHeader({"Version",
                 "Mean Minimum Effective Sampling Interval (milliseconds)"});
    for (const auto &[Label, Stat] : PerVersion)
      T.addRow({Label, formatDouble(Stat.mean() * 1e3, 1)});
    printTable(T);
  }
  std::printf("Paper reference: INTERF 93 / 82 ms; POTENG: Aggressive "
              "significantly larger than Original/Bounded because it "
              "serializes much of the computation.\n");
  return 0;
}
