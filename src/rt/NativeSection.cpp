//===- rt/NativeSection.cpp -----------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/NativeSection.h"

#include <cassert>

using namespace dynfb;
using namespace dynfb::rt;

void dynfb::rt::busyWait(Nanos Dur) {
  if (Dur <= 0)
    return;
  const Nanos End = steadyNow() + Dur;
  while (steadyNow() < End) {
    // Spin.
  }
}

namespace {

/// State shared by every version closure of one native IR section.
struct NativeIrState {
  std::unique_ptr<SpinLock[]> Locks;
  uint32_t LockCount = 0;
  std::vector<IterationEmitter> Emitters;
  double TimeScale = 1.0;
};

} // namespace

std::unique_ptr<RealSectionRunner>
rt::makeNativeIrRunner(ThreadTeam &Team, const DataBinding &Binding,
                       std::vector<NativeIrVersion> Versions,
                       double TimeScale) {
  assert(!Versions.empty() && "section needs at least one version");
  auto State = std::make_shared<NativeIrState>();
  State->LockCount = Binding.objectCount();
  State->Locks = std::make_unique<SpinLock[]>(State->LockCount);
  State->TimeScale = TimeScale;
  State->Emitters.reserve(Versions.size());
  for (const NativeIrVersion &V : Versions)
    State->Emitters.emplace_back(V.Entry, Binding, CostModel::dashLike());

  std::vector<NativeVersion> Native;
  Native.reserve(Versions.size());
  for (size_t VI = 0; VI < Versions.size(); ++VI) {
    Native.push_back(NativeVersion{
        Versions[VI].Label,
        [State, VI](uint64_t Iter, WorkerCtx &Ctx) {
          thread_local std::vector<MicroOp> Ops;
          State->Emitters[VI].emit(Iter, Ops);
          for (const MicroOp &Op : Ops) {
            switch (Op.K) {
            case MicroOp::Kind::Compute:
              busyWait(static_cast<Nanos>(static_cast<double>(Op.Dur) *
                                          State->TimeScale));
              break;
            case MicroOp::Kind::Acquire:
              assert(Op.Obj < State->LockCount && "object id out of range");
              Ctx.acquire(State->Locks[Op.Obj], Op.Obj);
              break;
            case MicroOp::Kind::Release:
              Ctx.release(State->Locks[Op.Obj]);
              break;
            }
          }
        },
        Versions[VI].Sched});
  }
  return std::make_unique<RealSectionRunner>(Team, std::move(Native),
                                             Binding.iterationCount());
}
