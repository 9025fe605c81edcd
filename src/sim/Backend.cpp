//===- sim/Backend.cpp ----------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Backend.h"

#include "support/Compiler.h"

#include <cassert>

using namespace dynfb;
using namespace dynfb::sim;

void SimBackend::addSection(const std::string &Name,
                            const rt::DataBinding *Binding,
                            std::vector<SimVersion> Versions) {
  assert(Binding && "section registered without a binding");
  assert(!Versions.empty() && "section registered without versions");
  SectionInfo &Info = Sections[Name];
  Info.Binding = Binding;
  Info.Versions = std::move(Versions);
  // Fresh caches: a re-registered section may bring new code versions or a
  // new binding, invalidating previously memoized sequences.
  Info.OpsCaches = std::vector<rt::EmittedOpsCache>(Info.Versions.size());
}

void SimBackend::addSections(const rt::SectionRegistry &Registry) {
  for (const rt::SectionDesc &D : Registry.sections()) {
    std::vector<SimVersion> Versions;
    Versions.reserve(D.Versions.size());
    for (const rt::IrVersion &V : D.Versions)
      Versions.push_back(SimVersion{V.Label, V.Entry, V.Sched});
    addSection(D.Name, D.Binding, std::move(Versions));
  }
}

std::unique_ptr<SimSectionRunner>
SimBackend::beginSectionSim(const std::string &Name) {
  auto It = Sections.find(Name);
  if (It == Sections.end())
    reportFatalError("beginSection: unknown parallel section name");
  auto Runner = std::make_unique<SimSectionRunner>(
      Machine, *It->second.Binding, It->second.Versions, Instrumented);
  Runner->attachOpsCaches(&It->second.OpsCaches);
  Runner->setPerturbation(Machine.perturbation(), Name);
  if (CollectSectionTraces) {
    rt::IntervalTrace &Trace = SectionTraces[Name];
    Trace.Cumulative = true;
    Runner->attachTrace(&Trace);
  }
  return Runner;
}

std::unique_ptr<rt::IntervalRunner>
SimBackend::beginSection(const std::string &Name) {
  return beginSectionSim(Name);
}
