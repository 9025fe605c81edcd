//===- bench/bench_ablation_early_cutoff.cpp --------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Ablation of the Section 4.5 refinements: early cut-off of the sampling
// phase and policy ordering from past executions. Reports, for Barnes-Hut
// and Water on eight processors, the end-to-end time, the number of
// sampled intervals and the number of versions skipped by the cut-off.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/water/WaterApp.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;

namespace {

struct Variant {
  const char *Name;
  bool Cutoff;
  bool Ordering;
};

void runAblation(const App &App, const char *AppName, Table &T) {
  const Variant Variants[] = {{"baseline", false, false},
                              {"early cut-off", true, false},
                              {"cut-off + ordering", true, true}};
  for (const Variant &V : Variants) {
    fb::FeedbackConfig FC;
    FC.EarlyCutoff = V.Cutoff;
    FC.EarlyCutoffThreshold = 0.05;
    FC.UsePolicyOrdering = V.Ordering;
    fb::PolicyHistory History;
    const fb::RunResult R =
        runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
               FC, V.Ordering ? &History : nullptr);
    unsigned Sampled = 0, Skipped = 0;
    for (const fb::SectionExecutionTrace &Trace : R.Occurrences) {
      Sampled += Trace.SampledIntervals;
      Skipped += Trace.SkippedByCutoff;
    }
    T.addRow({AppName, V.Name,
              formatDouble(rt::nanosToSeconds(R.TotalNanos), 3),
              format("%u", Sampled), format("%u", Skipped)});
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  const double Scale = CL.getDouble("scale", 1.0);

  Table T("Ablation: early cut-off and policy ordering (8 processors)");
  T.setHeader({"Application", "Variant", "Time (s)", "Sampled intervals",
               "Skipped by cut-off"});
  {
    bh::BarnesHutConfig Config;
    Config.scale(Scale);
    bh::BarnesHutApp App(Config);
    runAblation(App, "Barnes-Hut", T);
  }
  {
    water::WaterConfig Config;
    Config.scale(Scale);
    water::WaterApp App(Config);
    runAblation(App, "Water", T);
  }
  printTable(T);
  std::printf("Expectation: the refinements reduce sampled intervals (and "
              "never change which version production uses), trimming the "
              "sampling cost.\n");
  return 0;
}
