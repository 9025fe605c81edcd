//===- bench/bench_micro_primitives.cpp -------------------------------------=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// google-benchmark micro-benchmarks of the runtime primitives: spin lock
// operations, timer reads (the analog of the paper's ~9 microsecond DASH
// timer), iteration lowering, and one simulated interval. These calibrate
// the real-threads backend and document the simulator's host cost.
//
//===----------------------------------------------------------------------===//

#include "apps/barnes_hut/BarnesHutApp.h"
#include "rt/Interp.h"
#include "rt/RealRunner.h"
#include "rt/SpinLock.h"
#include "sim/SectionSim.h"
#include "xform/MultiVersion.h"

#include <benchmark/benchmark.h>

using namespace dynfb;

static void BM_SpinLockUncontended(benchmark::State &State) {
  rt::SpinLock L;
  for (auto _ : State) {
    L.acquire();
    L.release();
  }
}
BENCHMARK(BM_SpinLockUncontended);

static void BM_SpinLockTryAcquire(benchmark::State &State) {
  rt::SpinLock L;
  for (auto _ : State) {
    benchmark::DoNotOptimize(L.tryAcquire());
    L.release();
  }
}
BENCHMARK(BM_SpinLockTryAcquire);

static void BM_TimerRead(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(rt::steadyNow());
}
BENCHMARK(BM_TimerRead);

static void BM_WorkerCtxLockPair(benchmark::State &State) {
  rt::SpinLock L;
  rt::WorkerCtx Ctx;
  for (auto _ : State) {
    Ctx.acquire(L);
    Ctx.release(L);
  }
}
BENCHMARK(BM_WorkerCtxLockPair);

namespace {

/// Shared small Barnes-Hut app for the lowering/simulation benchmarks.
apps::bh::BarnesHutApp &smallApp() {
  static apps::bh::BarnesHutApp *App = [] {
    apps::bh::BarnesHutConfig Config;
    Config.scale(1024.0 / 16384.0);
    return new apps::bh::BarnesHutApp(Config);
  }();
  return *App;
}

} // namespace

static void BM_EmitIterationOriginal(benchmark::State &State) {
  auto &App = smallApp();
  const auto *VS = App.program().find("FORCES");
  rt::IterationEmitter Emitter(
      VS->versionFor(xform::PolicyKind::Original).Entry,
      App.binding("FORCES"), rt::CostModel::dashLike());
  std::vector<rt::MicroOp> Ops;
  uint64_t Iter = 0;
  for (auto _ : State) {
    Emitter.emit(Iter++ % App.bodies().size(), Ops);
    benchmark::DoNotOptimize(Ops.data());
  }
}
BENCHMARK(BM_EmitIterationOriginal);

static void BM_SimulateForcesInterval(benchmark::State &State) {
  auto &App = smallApp();
  const auto *VS = App.program().find("FORCES");
  for (auto _ : State) {
    sim::SimMachine Machine(8, rt::FlatMachineModel());
    sim::SimSectionRunner Runner(
        Machine, App.binding("FORCES"),
        {sim::SimVersion{"Original",
                         VS->versionFor(xform::PolicyKind::Original).Entry}},
        false);
    benchmark::DoNotOptimize(
        Runner.runInterval(0, rt::millisToNanos(50)).EffectiveNanos);
  }
}
BENCHMARK(BM_SimulateForcesInterval);

BENCHMARK_MAIN();
