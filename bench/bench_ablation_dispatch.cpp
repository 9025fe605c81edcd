//===- bench/bench_ablation_dispatch.cpp ------------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Ablation of the Section 4.2 code-generation alternatives for switching
// policies: (a) one version per policy plus a switch dispatch (what the
// compiler generates; guarantees fast switching, costs code size), versus
// (b) a single version with conditional acquire/release sites guarded by
// flags (no code growth, but a residual flag check at every site on every
// execution). The flag-based runtime penalty is the per-site check cost
// times the number of potential acquire sites executed, which equals the
// Original placement's pair count.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "analysis/CallGraph.h"
#include "apps/barnes_hut/BarnesHutApp.h"
#include "xform/CodeSize.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;
using namespace dynfb::xform;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  bh::BarnesHutConfig Config;
  Config.scale(CL.getDouble("scale", 1.0));
  bh::BarnesHutApp App(Config);

  const CodeSizeModel Model;
  const uint64_t SerialBase = 24800;
  const ExecutableSizes Sizes =
      computeExecutableSizes(App.program(), Model, SerialBase);

  // Flag-based single version: the Original placement's code (it contains
  // every potential acquire/release site) with each site guarded by a flag
  // test (~8 extra bytes), no per-section dispatch.
  const VersionedSection *VS = App.program().find("FORCES");
  const ir::Method *OrigEntry =
      VS->versionFor(PolicyKind::Original).Entry;
  uint64_t SiteCount = 0;
  {
    // Count acquire sites in the Original closure (each has a release twin).
    analysis::CallGraph CG(*OrigEntry);
    for (const ir::Method *M : CG.nodes()) {
      std::vector<const std::vector<ir::Stmt *> *> Lists{&M->body()};
      while (!Lists.empty()) {
        const auto *List = Lists.back();
        Lists.pop_back();
        for (const ir::Stmt *S : *List) {
          if (S->kind() == ir::StmtKind::Acquire)
            ++SiteCount;
          else if (const auto *L = ir::stmtDynCast<ir::LoopStmt>(S))
            Lists.push_back(&L->Body);
        }
      }
    }
  }
  const uint64_t FlagBytesPerSite = 8;
  const uint64_t FlagBased =
      SerialBase + Model.closureBytes({OrigEntry}, true) +
      2 * SiteCount * FlagBytesPerSite;

  Table Code("Code size: multi-version dispatch vs flag-based single "
             "version (Barnes-Hut)");
  Code.setHeader({"Strategy", "Size (bytes)"});
  Code.addRow({"Serial", withThousandsSep(Sizes.Serial)});
  Code.addRow({"Multi-version + switch dispatch (Dynamic)",
               withThousandsSep(Sizes.Dynamic)});
  Code.addRow({"Flag-based single version", withThousandsSep(FlagBased)});
  printTable(Code);

  // Runtime: flag checks execute at every potential site whether or not the
  // current policy acquires there.
  const rt::Nanos FlagCheckNanos = 150;
  const fb::RunResult Orig =
      runApp(App, 8, VersionSpec::fixed(PolicyKind::Original),
             rt::FlatMachineModel());
  const uint64_t SitesExecuted = Orig.ParallelStats.AcquireReleasePairs;
  const double FlagPenaltySeconds = rt::nanosToSeconds(
      static_cast<rt::Nanos>(SitesExecuted) * 2 * FlagCheckNanos / 8);

  const double Dyn = runAppSeconds(App, 8, VersionSpec::dynamicFeedback(),
                                   rt::FlatMachineModel());
  const double Agg =
      runAppSeconds(App, 8, VersionSpec::fixed(PolicyKind::Aggressive),
                    rt::FlatMachineModel());

  Table Run("Runtime: residual flag-check cost vs dispatch (8 procs)");
  Run.setHeader({"Strategy", "Time (s)"});
  Run.addRow({"Multi-version dynamic feedback", formatDouble(Dyn, 2)});
  Run.addRow({"Flag-based (best policy + per-site checks, est.)",
              formatDouble(Agg + FlagPenaltySeconds, 2)});
  Run.addRow({"  of which flag-check penalty",
              formatDouble(FlagPenaltySeconds, 2)});
  printTable(Run);
  std::printf("Paper Section 4.2: flag-based generation guarantees no code "
              "growth at the price of residual flag checking at each "
              "conditional acquire or release site.\n");
  return 0;
}
