//===- rt/NativeBackend.cpp -----------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/NativeBackend.h"

#include "rt/NativeSection.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace dynfb;
using namespace dynfb::rt;

NativeBackend::NativeBackend(unsigned NumProcs, SectionRegistry Sections,
                             Options Opts)
    : Sections(std::move(Sections)), Opts(Opts),
      Team(std::max(1u, NumProcs)), Epoch(steadyNow()) {}

void NativeBackend::runSerial(Nanos Dur) {
  // Serial phases burn real time at the same virtual-to-real scale as the
  // parallel compute, so phase timestamps stay proportional to a simulated
  // run's.
  busyWait(static_cast<Nanos>(static_cast<double>(Dur) * Opts.TimeScale));
}

std::unique_ptr<IntervalRunner>
NativeBackend::beginSection(const std::string &Name) {
  const SectionDesc *Desc = Sections.find(Name);
  if (!Desc)
    reportFatalError("beginSection: unknown parallel section name");
  std::vector<NativeIrVersion> Versions;
  Versions.reserve(Desc->Versions.size());
  for (const IrVersion &V : Desc->Versions)
    Versions.push_back(NativeIrVersion{V.Label, V.Entry, V.Sched});
  std::unique_ptr<RealSectionRunner> Runner = makeNativeIrRunner(
      Team, *Desc->Binding, std::move(Versions), Opts.TimeScale);
  Runner->setClockOffset(Epoch);
  if (CollectSectionTraces) {
    IntervalTrace &Trace = SectionTraces[Name];
    Trace.Cumulative = true;
    Runner->attachTrace(&Trace);
  }
  return Runner;
}
