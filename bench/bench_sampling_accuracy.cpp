//===- bench/bench_sampling_accuracy.cpp ------------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Reproduces the paper's Section 4.4 claim that very small target sampling
// intervals still work: "the minimum effective sampling intervals are
// large enough to provide overhead measurements that accurately reflect
// the relative overheads in the production phases." For every section and
// version, the overhead measured in ONE minimal sampling interval is
// compared with the overhead over the section's whole execution.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/Factory.h"
#include "sim/Backend.h"

#include <limits>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;
using namespace dynfb::xform;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  const double Scale = CL.getDouble("scale", 0.25);

  Table T("Sampling accuracy: one minimal sampling interval vs the whole "
          "section (8 processors)");
  T.setHeader({"Application", "Section", "Version", "Sampled overhead",
               "Full-section overhead", "Abs. error"});

  for (const std::string &Name : appNames()) {
    std::unique_ptr<App> TheApp = createApp(Name, Scale);
    for (const VersionedSection &VS : TheApp->program().Sections) {
      for (const SectionVersion &V : VS.Versions) {
        // One minimal sampling interval (tiny target: the effective
        // interval is the minimum the application permits).
        sim::SimBackend Backend(8, rt::FlatMachineModel(), true);
        Backend.addSection(VS.Name, &TheApp->binding(VS.Name),
                           {sim::SimVersion{V.label(), V.Entry}});
        auto Runner = Backend.beginSectionSim(VS.Name);
        const rt::IntervalReport Sample =
            Runner->runInterval(0, rt::millisToNanos(0.1));
        // The rest of the section.
        rt::OverheadStats Full = Sample.Stats;
        while (!Runner->done())
          Full.merge(Runner
                         ->runInterval(
                             0, std::numeric_limits<rt::Nanos>::max() / 4)
                         .Stats);

        const double S = Sample.Stats.totalOverhead();
        const double F = Full.totalOverhead();
        T.addRow({Name, VS.Name, V.label(), formatDouble(S, 4),
                  formatDouble(F, 4), formatDouble(S > F ? S - F : F - S,
                                                   4)});
      }
    }
  }
  printTable(T);
  std::printf("Paper reference (Section 4.4): minimum effective sampling "
              "intervals provide overhead measurements that accurately "
              "reflect the relative overheads of the production phases.\n");
  return 0;
}
