//===- examples/barnes_hut_adaptive.cpp - Full compiler pipeline demo ------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// The flagship domain example: the whole paper pipeline on Barnes-Hut.
//  1. The application is authored as an object-based IR program (the
//     paper's Figure 1).
//  2. Commutativity analysis proves the FORCES operations commute, so the
//     compiler may parallelize the section.
//  3. The synchronization optimizer generates one version per policy --
//     the Aggressive version is exactly the paper's Figure 2 (the lock
//     lifted out of the interaction loop, interprocedurally).
//  4. The generated code runs on the simulated 16-processor DASH-like
//     machine under dynamic feedback, which discovers that Aggressive is
//     the best policy for this application.
//
// Run: ./barnes_hut_adaptive [--bodies N] [--procs P]
//
//===----------------------------------------------------------------------===//

#include "analysis/Commutativity.h"
#include "apps/Harness.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "ir/Printer.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace dynfb;
using namespace dynfb::apps;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  bh::BarnesHutConfig Config;
  Config.scale(static_cast<double>(CL.getInt("bodies", 2048)) /
               Config.NumBodies);
  const unsigned Procs = static_cast<unsigned>(CL.getInt("procs", 8));

  bh::BarnesHutApp App(Config);
  std::printf("=== 1. The source program (paper Figure 1, author form) "
              "===\n\n%s\n",
              ir::printModule(App.module(), /*IncludeSynthetic=*/false)
                  .c_str());

  const auto CR =
      analysis::analyzeSection(*App.module().findSection("FORCES"));
  std::printf("=== 2. Commutativity analysis ===\n\nFORCES operations %s\n\n",
              CR.Commutes ? "commute: the compiler parallelizes the section"
                          : "do NOT commute");

  std::printf("=== 3. Generated synchronization versions ===\n\n");
  const xform::VersionedSection *VS = App.program().find("FORCES");
  for (const xform::SectionVersion &V : VS->Versions) {
    std::printf("--- %s ---\n%s\n", V.label().c_str(),
                ir::printMethod(*V.Entry).c_str());
  }

  std::printf("=== 4. Adaptive execution on %u simulated processors ===\n\n",
              Procs);
  for (xform::PolicyKind P : xform::AllPolicies)
    std::printf("  static %-10s : %8.2f s\n", xform::policyName(P),
                runAppSeconds(App, Procs, VersionSpec::fixed(P),
                              rt::FlatMachineModel()));

  const fb::RunResult Dyn = runApp(App, Procs, VersionSpec::dynamicFeedback(),
                                   rt::FlatMachineModel());
  std::printf("  dynamic feedback  : %8.2f s\n",
              rt::nanosToSeconds(Dyn.TotalNanos));
  for (const fb::SectionExecutionTrace &T : Dyn.Occurrences)
    if (auto Best = T.dominantVersion())
      std::printf("    %s production phases used version '%s'\n",
                  T.SectionName.c_str(),
                  VS->Versions[*Best].label().c_str());
  return 0;
}
