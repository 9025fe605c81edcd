//===- bench/bench_string_suite.cpp -----------------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// String experiments. The paper's String experimental subsection (6.3) is
// truncated in our source text, so this suite mirrors the Barnes-Hut
// experiment structure (see DESIGN.md): execution times and speedups per
// version and processor count, plus the locking-overhead table. Expected
// shape: Aggressive best (the coalesced per-ray region on the shared model
// object is short), Dynamic close behind.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/string_tomo/StringApp.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;
using namespace dynfb::xform;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  string_tomo::StringConfig Config;
  Config.scale(CL.getDouble("scale", 1.0));
  std::printf("== String: %u rays, %ux%u grid, %u sweeps ==\n",
              Config.NumRays, Config.GridW, Config.GridH, Config.Sweeps);
  string_tomo::StringApp App(Config);
  std::printf("(workload: %llu total ray segments per sweep)\n\n",
              static_cast<unsigned long long>(App.totalSegments()));

  const TimingGrid Grid = runTimingGrid(App, PaperProcCounts);
  printTable(timesTable("String: Execution Times (seconds)", Grid,
                        PaperProcCounts));
  printTable(speedupTable("String: Speedups", Grid, PaperProcCounts));
  printCsv("string_speedups", speedupCsv(Grid, PaperProcCounts));

  Table T("String: Locking Overhead");
  T.setHeader({"Version", "Executed Acquire/Release Pairs",
               "Absolute Locking Overhead (seconds)"});
  for (PolicyKind P : AllPolicies) {
    const fb::RunResult R = runApp(App, 8, VersionSpec::fixed(P),
                                   rt::FlatMachineModel());
    T.addRow({policyName(P),
              withThousandsSep(R.ParallelStats.AcquireReleasePairs),
              formatDouble(rt::nanosToSeconds(R.ParallelStats.LockOpNanos),
                           3)});
  }
  {
    const fb::RunResult R = runApp(App, 8, VersionSpec::dynamicFeedback(),
                                   rt::FlatMachineModel());
    T.addRow({"Dynamic",
              withThousandsSep(R.ParallelStats.AcquireReleasePairs),
              formatDouble(rt::nanosToSeconds(R.ParallelStats.LockOpNanos),
                           3)});
  }
  printTable(T);
  return 0;
}
