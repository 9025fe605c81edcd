//===- bench/bench_instrumentation_overhead.cpp -----------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Reproduces the paper's Section 4.3 measurement: "We measure the
// [instrumentation] overhead by generating versions of the applications
// that use a single, statically chosen, synchronization optimization
// policy ... with the instrumentation turned on and turned off. The
// performance differences ... are very small." The Dynamic executable can
// therefore run instrumented code even in production phases without
// hurting performance (which is how it avoids further code growth).
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "apps/Factory.h"

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::bench;
using namespace dynfb::xform;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  const double Scale = CL.getDouble("scale", 0.25);

  Table T("Instrumentation overhead: statically chosen policies with "
          "overhead counters on vs off (8 processors)");
  T.setHeader({"Application", "Policy", "Uninstrumented (s)",
               "Instrumented (s)", "Delta"});

  for (const std::string &Name : appNames()) {
    std::unique_ptr<App> TheApp = createApp(Name, Scale);
    for (PolicyKind P : AllPolicies) {
      // Flavour::Fixed is uninstrumented; build the instrumented variant
      // through a backend with instrumentation enabled.
      const double Off = runAppSeconds(*TheApp, 8, VersionSpec::fixed(P),
                                       rt::FlatMachineModel());

      auto Backend = std::make_unique<sim::SimBackend>(
          8, rt::FlatMachineModel(), /*Instrumented=*/true);
      for (const VersionedSection &VS : TheApp->program().Sections)
        Backend->addSection(
            VS.Name, &TheApp->binding(VS.Name),
            {sim::SimVersion{policyName(P), VS.versionFor(P).Entry}});
      fb::RunOptions Options;
      Options.Mode = fb::ExecMode::Fixed;
      const double On = rt::nanosToSeconds(
          fb::runSchedule(*Backend, TheApp->schedule(), Options).TotalNanos);

      T.addRow({Name, policyName(P), formatDouble(Off, 3),
                formatDouble(On, 3),
                format("%+.2f%%", 100.0 * (On - Off) / Off)});
    }
  }
  printTable(T);
  std::printf("Paper reference: the differences between instrumented and "
              "uninstrumented versions are very small, so instrumentation "
              "can stay on in production phases.\n");
  return 0;
}
