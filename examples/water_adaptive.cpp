//===- examples/water_adaptive.cpp - Per-section adaptation demo -----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Demonstrates why dynamic feedback beats any static choice: in Water the
// best synchronization policy differs per section AND per machine size.
//  - INTERF generates two versions (Bounded and Aggressive coincide);
//    Bounded is best.
//  - POTENG generates two versions (Original and Bounded coincide); the
//    Aggressive version wins on one processor (least locking) but
//    serializes the whole section on many processors (false exclusion).
// The controller discovers the right per-section, per-machine choice at
// run time.
//
// Run: ./water_adaptive [--molecules N]
//
//===----------------------------------------------------------------------===//

#include "apps/Harness.h"
#include "apps/water/WaterApp.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace dynfb;
using namespace dynfb::apps;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  water::WaterConfig Config;
  Config.scale(static_cast<double>(CL.getInt("molecules", 512)) /
               Config.NumMolecules);
  water::WaterApp App(Config);

  std::printf("Water, %u molecules. Generated versions:\n",
              Config.NumMolecules);
  for (const xform::VersionedSection &VS : App.program().Sections) {
    std::printf("  %s:", VS.Name.c_str());
    for (const xform::SectionVersion &V : VS.Versions)
      std::printf("  [%s]", V.label().c_str());
    std::printf("\n");
  }

  for (unsigned Procs : {1u, 8u}) {
    std::printf("\n--- %u simulated processor%s ---\n", Procs,
                Procs == 1 ? "" : "s");
    for (xform::PolicyKind P : xform::AllPolicies)
      std::printf("  static %-10s : %8.2f s\n", xform::policyName(P),
                  runAppSeconds(App, Procs, VersionSpec::fixed(P),
                                rt::FlatMachineModel()));
    const fb::RunResult Dyn = runApp(App, Procs, VersionSpec::dynamicFeedback(),
                                     rt::FlatMachineModel());
    std::printf("  dynamic feedback  : %8.2f s\n",
                rt::nanosToSeconds(Dyn.TotalNanos));

    // What did the controller choose, per section occurrence?
    for (const fb::SectionExecutionTrace &T : Dyn.Occurrences) {
      if (T.ChosenVersions.empty())
        continue;
      const xform::VersionedSection *VS =
          App.program().find(T.SectionName);
      std::printf("    %-7s -> '%s'  (sampled overheads:",
                  T.SectionName.c_str(),
                  VS->Versions[*T.dominantVersion()].label().c_str());
      for (const Series &S : T.SampledOverheads.all())
        if (S.size() > 0)
          std::printf(" %s=%.3f", S.Label.c_str(), S.Values.front());
      std::printf(")\n");
    }
  }
  std::printf("\nNote how POTENG's choice flips between one processor "
              "(Aggressive: least locking) and eight (Original: avoids the "
              "serializing false exclusion) -- no static policy gets both "
              "right.\n");
  return 0;
}
