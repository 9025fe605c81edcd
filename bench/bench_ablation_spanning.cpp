//===- bench/bench_ablation_spanning.cpp ------------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Ablation of Section 4.4's proposed extension: letting sampling and
// production intervals span multiple executions of a parallel section.
// The paper notes that a section without enough computation for a full
// production interval "may be unable to successfully amortize the sampling
// overhead"; spanning intervals fix exactly that. The experiment uses a
// small Water configuration (1/8 scale, 8 timesteps) whose sections are
// much shorter than a production interval.
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
  Config.Timesteps = 8;
  Config.scale(CL.getDouble("scale", 0.125));
  water::WaterApp App(Config);

  std::printf("Water at 1/8 scale (%u molecules, %u timesteps): sections "
              "too short to amortize per-occurrence sampling.\n\n",
              Config.NumMolecules, Config.Timesteps);

  Table T("Ablation: intervals spanning section executions "
          "(8 processors)");
  T.setHeader({"Variant", "Time (s)", "Sampled intervals"});

  const double Bounded =
      runAppSeconds(App, 8, VersionSpec::fixed(PolicyKind::Bounded),
                    rt::FlatMachineModel());
  T.addRow({"best static (Bounded)", formatDouble(Bounded, 3), "-"});

  for (bool Span : {false, true}) {
    fb::FeedbackConfig FC;
    FC.SpanSectionExecutions = Span;
    const fb::RunResult R =
        runApp(App, 8, VersionSpec::dynamicFeedback(), rt::FlatMachineModel(),
               FC);
    unsigned Sampled = 0;
    for (const fb::SectionExecutionTrace &Trace : R.Occurrences)
      Sampled += Trace.SampledIntervals;
    T.addRow({Span ? "dynamic, spanning intervals (4.4 extension)"
                   : "dynamic, per-occurrence intervals",
              formatDouble(rt::nanosToSeconds(R.TotalNanos), 3),
              format("%u", Sampled)});
  }
  printTable(T);
  std::printf("Expectation: spanning cuts the sampled-interval count by "
              "roughly the number of occurrences and closes most of the "
              "gap to the best static version.\n");
  return 0;
}
