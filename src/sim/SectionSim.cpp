//===- sim/SectionSim.cpp -------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Event-driven simulation. Runnable processors live in a min-heap keyed by
// their local virtual clock; the processor with the smallest clock executes
// its next micro-op. Processing in global time order makes lock request
// ordering exact: an acquire processed later was issued later. Blocked
// processors leave the heap and are re-inserted when the lock holder's
// release grants them the lock (FIFO), with their waiting time converted
// into counted failed acquire attempts, exactly how the paper's
// instrumentation accounts waiting overhead.
//
// The loop is allocation-free in steady state: the per-interval state
// (processors, locks, ready heap) lives in a reusable IntervalState that is
// reset -- not reallocated -- each interval, iteration micro-op sequences
// come from the backend-owned EmittedOpsCache (or a reused per-processor
// scratch buffer on the live-interpretation fallback), and the whole loop
// is instantiated per machine-model topology so the flat-model path
// contains no virtual pricing calls.
//
//===----------------------------------------------------------------------===//

#include "sim/SectionSim.h"

#include "obs/Metrics.h"
#include "perturb/Engine.h"
#include "sim/Throughput.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>

namespace {

bool anyNonDynamicSched(const std::vector<dynfb::sim::SimVersion> &Versions) {
  return std::any_of(Versions.begin(), Versions.end(),
                     [](const dynfb::sim::SimVersion &V) {
                       return V.Sched.Kind != dynfb::rt::SchedKind::Dynamic;
                     });
}

/// Run-wide simulator counters in the global metrics registry. The hot loop
/// accumulates plain local tallies; they are flushed here once per interval
/// so the event loop pays no atomic per micro-op.
struct SimCounters {
  dynfb::obs::Counter &Intervals =
      dynfb::obs::globalMetrics().counter("sim.intervals");
  dynfb::obs::Counter &Iterations =
      dynfb::obs::globalMetrics().counter("sim.iterations");
  dynfb::obs::Counter &SchedFetches =
      dynfb::obs::globalMetrics().counter("sim.sched_fetches");
  dynfb::obs::Counter &LockAcquires =
      dynfb::obs::globalMetrics().counter("sim.lock_acquires");
  dynfb::obs::Counter &LockContended =
      dynfb::obs::globalMetrics().counter("sim.lock_contended");
  dynfb::obs::Counter &LockWaitNanos =
      dynfb::obs::globalMetrics().counter("sim.lock_wait_ns");
  dynfb::obs::Counter &BarrierImbalanceNanos =
      dynfb::obs::globalMetrics().counter("sim.barrier_imbalance_ns");
};

SimCounters &simCounters() {
  static SimCounters C;
  return C;
}

} // namespace

using namespace dynfb;
using namespace dynfb::rt;
using namespace dynfb::sim;

ThroughputCounters &sim::throughputCounters() {
  static ThroughputCounters C;
  return C;
}

namespace {

/// Sentinel processor index ("none") for the intrusive waiter links.
constexpr uint32_t NoProc = ~0u;

struct Proc {
  Nanos Clock = 0;
  /// Current iteration's micro-ops: a view into the version's ops cache or
  /// into this processor's Scratch buffer (live-interpretation fallback).
  const MicroOp *Ops = nullptr;
  size_t NumOps = 0;
  size_t Pc = 0;
  bool HasIteration = false;
  bool Stopped = false;
  Nanos EndTime = 0;
  OverheadStats Stats;
  /// Claimed-but-unexecuted iteration range of the current scheduling
  /// chunk ([ClaimNext, ClaimEnd)). Empty under dynamic self-scheduling,
  /// where every fetch claims exactly one iteration.
  uint64_t ClaimNext = 0;
  uint64_t ClaimEnd = 0;
  /// Next processor in the lock's FIFO while this one is blocked (a
  /// processor waits on at most one lock at a time).
  uint32_t NextWaiter = NoProc;
  /// Reused live-emit buffer; its capacity survives across iterations and
  /// intervals.
  std::vector<MicroOp> Scratch;
};

/// FIFO spin lock over the intrusive Proc::NextWaiter links.
struct SimLock {
  bool Held = false;
  uint32_t WaitHead = NoProc;
  uint32_t WaitTail = NoProc;
  uint32_t NumWaiters = 0;
};

struct HeapEntry {
  Nanos T;
  uint32_t P;
  friend bool operator>(const HeapEntry &A, const HeapEntry &B) {
    if (A.T != B.T)
      return A.T > B.T;
    return A.P > B.P;
  }
};

} // namespace

/// The per-interval simulation state, hoisted out of runInterval so buffers
/// are reset rather than reallocated each interval. (T, P) heap keys are
/// unique -- a processor is in the heap at most once -- so the
/// push_heap/pop_heap order is identical to the std::priority_queue the
/// seed used.
struct SimSectionRunner::IntervalState {
  std::vector<Proc> Procs;
  std::vector<SimLock> Locks;
  std::vector<HeapEntry> Heap;
  std::vector<uint64_t> NodeContended;
};

SimSectionRunner::SimSectionRunner(SimMachine &Machine,
                                   const DataBinding &Binding,
                                   std::vector<SimVersion> Versions,
                                   bool Instrumented)
    : Machine(Machine), Binding(Binding), Versions(std::move(Versions)),
      Instrumented(Instrumented),
      SchedInstrumented(anyNonDynamicSched(this->Versions)),
      NumIterations(Binding.iterationCount()) {
  assert(!this->Versions.empty() && "section needs at least one version");
  Emitters.reserve(this->Versions.size());
  for (const SimVersion &V : this->Versions)
    Emitters.emplace_back(V.Entry, Binding, Machine.model().costs());
}

SimSectionRunner::~SimSectionRunner() = default;

void SimSectionRunner::setPerturbation(
    const perturb::PerturbationEngine *Engine, std::string Section) {
  SectionName = std::move(Section);
  // Keep the unperturbed fast path free of per-op queries when the schedule
  // cannot touch this section.
  Perturb = Engine && Engine->mayAffect(SectionName) ? Engine : nullptr;
}

void SimSectionRunner::attachOpsCaches(
    std::vector<rt::EmittedOpsCache> *Caches) {
  assert((!Caches || Caches->size() == Emitters.size()) &&
         "one ops cache per code version");
  for (size_t V = 0; V < Emitters.size(); ++V)
    Emitters[V].attachCache(Caches ? &(*Caches)[V] : nullptr);
}

IntervalReport SimSectionRunner::runInterval(unsigned V, Nanos Target) {
  // One instantiation per topology class: the flat path carries no virtual
  // pricing calls and no per-op topology branches.
  return Machine.model().topologyAware() ? runIntervalImpl<true>(V, Target)
                                         : runIntervalImpl<false>(V, Target);
}

template <bool Topo>
IntervalReport SimSectionRunner::runIntervalImpl(unsigned V, Nanos Target) {
  assert(V < Versions.size() && "version index out of range");
  assert(Machine.model().topologyAware() == Topo && "wrong instantiation");
  const CostModel &CM = Machine.model().costs();
  const Nanos Start = Machine.now();
  const Nanos Deadline = Start + Target;
  const Nanos InstrCost = Instrumented ? CM.InstrumentNanos : 0;
  const Nanos AcqCost = CM.AcquireNanos + InstrCost;
  const Nanos RelCost = CM.ReleaseNanos + InstrCost;

  const unsigned P = Machine.numProcs();

  // Topology-aware machine models (dash-numa) price lock events from the
  // home node of each lock's cache line and the contention depth; the flat
  // models keep the seed's constant-folded arithmetic above, untouched.
  const rt::MachineModel &MM = Machine.model();
  std::vector<int> *Homes = nullptr;
  unsigned NumNodes = 1;
  if constexpr (Topo) {
    Homes = &Machine.lockHomes(SectionName, Binding.objectCount());
    NumNodes = MM.nodeOf(P - 1) + 1;
  }
  const Nanos FailedAcqNanos =
      Topo ? MM.failedAcquireNanos() : CM.FailedAcquireNanos;
  // Waiting time is converted to counted failed acquires by ceil-dividing
  // with the failed-attempt cost. Zero is a legal cost ("spinning is free"),
  // so the conversion divisor is clamped to one nanosecond per attempt.
  const Nanos FailedAcqDiv = std::max<Nanos>(1, FailedAcqNanos);

  // Per-node contention tallies plus the local/remote/cold acquire split,
  // flushed into the metrics registry at interval end (topology-aware
  // models only, so flat-machine metric exports stay byte-identical).
  uint64_t TallyLocalAcq = 0, TallyRemoteAcq = 0, TallyColdAcq = 0;

  if (!State)
    State = std::make_unique<IntervalState>();
  IntervalState &S = *State;
  if (S.Procs.size() != P) {
    S.Procs.assign(P, Proc{});
    for (Proc &Pr : S.Procs)
      Pr.Scratch.reserve(64);
  }
  for (Proc &Pr : S.Procs) {
    Pr.Clock = Start;
    Pr.Ops = nullptr;
    Pr.NumOps = 0;
    Pr.Pc = 0;
    Pr.HasIteration = false;
    Pr.Stopped = false;
    Pr.EndTime = 0;
    Pr.Stats = OverheadStats{};
    Pr.ClaimNext = 0;
    Pr.ClaimEnd = 0;
    Pr.NextWaiter = NoProc;
  }
  // assign() keeps the vectors' capacity: no reallocation after the first
  // interval of a run.
  S.Locks.assign(Binding.objectCount(), SimLock{});
  S.NodeContended.assign(Topo ? NumNodes : 0, 0);
  S.Heap.clear();
  std::vector<Proc> &Procs = S.Procs;
  std::vector<SimLock> &Locks = S.Locks;
  std::vector<HeapEntry> &Heap = S.Heap;

  const auto HeapPush = [&Heap](Nanos T, uint32_t ProcIdx) {
    Heap.push_back(HeapEntry{T, ProcIdx});
    std::push_heap(Heap.begin(), Heap.end(), std::greater<HeapEntry>());
  };

  // Prices one successful acquire and moves the lock's line to the
  // acquirer's cluster. \p Depth is the number of waiters still queued.
  auto AcquirePrice = [&](uint32_t ProcIdx, uint32_t Obj,
                          unsigned Depth) -> Nanos {
    if constexpr (!Topo) {
      (void)ProcIdx;
      (void)Obj;
      (void)Depth;
      return AcqCost;
    } else {
      const int Home = (*Homes)[Obj];
      const unsigned Node = MM.nodeOf(ProcIdx);
      if (Home < 0)
        ++TallyColdAcq;
      else if (static_cast<unsigned>(Home) == Node)
        ++TallyLocalAcq;
      else
        ++TallyRemoteAcq;
      const Nanos Cost =
          MM.acquireNanos(rt::LockEvent{ProcIdx, Obj, Home, Depth}) +
          InstrCost;
      (*Homes)[Obj] = static_cast<int>(Node);
      return Cost;
    }
  };
  auto ReleasePrice = [&](uint32_t ProcIdx, uint32_t Obj) -> Nanos {
    if constexpr (!Topo) {
      (void)ProcIdx;
      (void)Obj;
      return RelCost;
    } else {
      return MM.releaseNanos(rt::LockEvent{ProcIdx, Obj, (*Homes)[Obj], 0}) +
             InstrCost;
    }
  };

  for (unsigned I = 0; I < P; ++I)
    HeapPush(Start, I);

  if (Trace) {
    if (!Trace->Cumulative)
      Trace->clear();
    if (Trace->Procs.size() < P)
      Trace->Procs.resize(P);
  }

  // Interval-local tallies flushed into the metrics registry at the end;
  // plain integers so the event loop stays free of atomics.
  uint64_t TallyIterations = 0;
  uint64_t TallyMicroOps = 0;
  uint64_t TallySchedFetches = 0;
  uint64_t TallyAcquires = 0;
  uint64_t TallyContended = 0;
  Nanos TallyLockWaitNanos = 0;

  auto Stop = [&](Proc &Pr) {
    Pr.Stopped = true;
    Pr.EndTime = Pr.Clock;
  };

  // Injected-fault accounting (zero and untouched without an engine).
  const perturb::PerturbationEngine *PE = Perturb;
  Nanos Injected = 0;

  // An acquire succeeding during a contention burst additionally waits for
  // the injected interloper, accounted exactly like organic spinning.
  auto InjectContention = [&](Proc &Pr, uint32_t ProcIdx, uint32_t Obj) {
    if (!PE)
      return;
    const Nanos Extra = PE->contentionExtra(SectionName, Obj, Pr.Clock);
    if (Extra <= 0)
      return;
    TallyLockWaitNanos += Extra;
    Pr.Stats.WaitNanos += Extra;
    Pr.Stats.FailedAcquires += static_cast<uint64_t>(
        (Extra + FailedAcqDiv - 1) / FailedAcqDiv);
    Pr.Clock += Extra;
    Injected += Extra;
    if (Trace)
      Trace->Procs[ProcIdx].WaitNanos += Extra;
  };

  // Lock-hold spikes surcharge every lock construct.
  auto LockExtra = [&](Nanos T) -> Nanos {
    if (!PE)
      return 0;
    const Nanos Extra = PE->lockHoldExtra(SectionName, T);
    Injected += Extra;
    return Extra;
  };

  const IterationEmitter &Emitter = Emitters[V];
  // Iterations one scheduler fetch claims: 1 under dynamic
  // self-scheduling, the chunk size under blocked scheduling. The DLS
  // family computes its claim per fetch from the unassigned remainder.
  const rt::SchedSpec &Sched = Versions[V].Sched;
  const bool VariableChunk = Sched.variableChunk();
  const uint64_t Chunk = Sched.chunkIters();

  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), std::greater<HeapEntry>());
    const HeapEntry Top = Heap.back();
    Heap.pop_back();
    Proc &Pr = Procs[Top.P];
    assert(!Pr.Stopped && "stopped processor in ready heap");

    if (!Pr.HasIteration) {
      if (Pr.ClaimNext >= Pr.ClaimEnd) {
        // Self-scheduling: fetch the next chunk of iterations (exactly one
        // under dynamic scheduling).
        ++TallySchedFetches;
        const Nanos FetchCost =
            Topo ? MM.schedFetchNanos(Top.P) : CM.SchedFetchNanos;
        Pr.Clock += FetchCost;
        if (SchedInstrumented)
          Pr.Stats.SchedNanos += FetchCost;
        if (Trace)
          Trace->Procs[Top.P].OverheadNanos += FetchCost;
        if (NextIter >= NumIterations) {
          Stop(Pr);
          continue;
        }
        const uint64_t Claim =
            VariableChunk ? Sched.fetchIters(NumIterations - NextIter,
                                             NumIterations, P, Top.P)
                          : Chunk;
        Pr.ClaimNext = NextIter;
        Pr.ClaimEnd = std::min(NextIter + Claim, NumIterations);
        NextIter = Pr.ClaimEnd;
      }
      const std::vector<MicroOp> &Seq =
          Emitter.ops(Pr.ClaimNext++, Pr.Scratch);
      Pr.Ops = Seq.data();
      Pr.NumOps = Seq.size();
      Pr.Pc = 0;
      Pr.HasIteration = true;
      ++TallyIterations;
      // Fetched iterations always run to completion (the deadline is only
      // checked at chunk boundaries), so ops-at-fetch equals ops-executed.
      TallyMicroOps += Pr.NumOps;
      if (Trace)
        ++Trace->Procs[Top.P].Iterations;
      HeapPush(Pr.Clock, Top.P);
      continue;
    }

    if (Pr.Pc == Pr.NumOps) {
      Pr.HasIteration = false;
      if (Pr.ClaimNext < Pr.ClaimEnd) {
        // Mid-chunk iteration boundary: the claimed chunk continues
        // back-to-back -- no timer poll, not a potential switch point.
        HeapPush(Pr.Clock, Top.P);
        continue;
      }
      // Chunk boundary, a potential switch point: poll the timer.
      Nanos TimerCost = Topo ? MM.timerReadNanos(Top.P) : CM.TimerReadNanos;
      if (PE) {
        Nanos Noise = PE->timerNoise(SectionName, Top.P, Pr.Clock);
        if (TimerCost + Noise < 0)
          Noise = -TimerCost; // A read can be fast, never negative.
        TimerCost += Noise;
        Injected += Noise;
      }
      Pr.Clock += TimerCost;
      if (Trace)
        Trace->Procs[Top.P].OverheadNanos += TimerCost;
      if (Pr.Clock >= Deadline)
        Stop(Pr);
      else
        HeapPush(Pr.Clock, Top.P);
      continue;
    }

    const MicroOp &Op = Pr.Ops[Pr.Pc];
    switch (Op.K) {
    case MicroOp::Kind::Compute: {
      Nanos Dur = Op.Dur;
      if (PE) {
        const double Scale = PE->computeScale(SectionName, Top.P, Pr.Clock);
        if (Scale != 1.0) {
          const Nanos Scaled = std::max<Nanos>(
              0, static_cast<Nanos>(
                     std::llround(static_cast<double>(Dur) * Scale)));
          Injected += Scaled - Dur;
          Dur = Scaled;
        }
      }
      Pr.Clock += Dur;
      ++Pr.Pc;
      if (Trace)
        Trace->Procs[Top.P].ComputeNanos += Dur;
      HeapPush(Pr.Clock, Top.P);
      break;
    }

    case MicroOp::Kind::Acquire: {
      SimLock &L = Locks[Op.Obj];
      if (!L.Held) {
        InjectContention(Pr, Top.P, Op.Obj);
        const Nanos Cost = AcquirePrice(Top.P, Op.Obj, 0) +
                           LockExtra(Pr.Clock);
        L.Held = true;
        ++TallyAcquires;
        ++Pr.Stats.AcquireReleasePairs;
        Pr.Stats.LockOpNanos += Cost;
        Pr.Clock += Cost;
        ++Pr.Pc;
        if (Trace) {
          Trace->Procs[Top.P].LockOpNanos += Cost;
          ++Trace->Locks[Op.Obj].Acquires;
        }
        HeapPush(Pr.Clock, Top.P);
      } else {
        // Block: the processor spins until the holder's release grants it
        // the lock. Its clock stays at the request time.
        Pr.NextWaiter = NoProc;
        if (L.WaitTail == NoProc)
          L.WaitHead = Top.P;
        else
          Procs[L.WaitTail].NextWaiter = Top.P;
        L.WaitTail = Top.P;
        ++L.NumWaiters;
      }
      break;
    }

    case MicroOp::Kind::Release: {
      SimLock &L = Locks[Op.Obj];
      assert(L.Held && "release of a free lock");
      const Nanos RelTotal = ReleasePrice(Top.P, Op.Obj) + LockExtra(Pr.Clock);
      Pr.Stats.LockOpNanos += RelTotal;
      Pr.Clock += RelTotal;
      ++Pr.Pc;
      if (Trace)
        Trace->Procs[Top.P].LockOpNanos += RelTotal;
      if (L.WaitHead != NoProc) {
        const uint32_t W = L.WaitHead;
        Proc &Waiter = Procs[W];
        L.WaitHead = Waiter.NextWaiter;
        if (L.WaitHead == NoProc)
          L.WaitTail = NoProc;
        --L.NumWaiters;
        Waiter.NextWaiter = NoProc;
        const Nanos Wait = Pr.Clock - Waiter.Clock;
        assert(Wait >= 0 && "negative waiting time");
        ++TallyAcquires;
        ++TallyContended;
        TallyLockWaitNanos += Wait;
        Waiter.Stats.WaitNanos += Wait;
        Waiter.Stats.FailedAcquires +=
            Wait > 0 ? static_cast<uint64_t>((Wait + FailedAcqDiv - 1) /
                                             FailedAcqDiv)
                     : 1;
        Waiter.Clock = Pr.Clock;
        if constexpr (Topo)
          ++S.NodeContended[MM.nodeOf(W)];
        if (Trace) {
          IntervalTrace::ProcSummary &WS = Trace->Procs[W];
          WS.WaitNanos += Wait;
          IntervalTrace::LockSummary &LS = Trace->Locks[Op.Obj];
          ++LS.Acquires;
          ++LS.Contended;
          LS.WaitNanos += Wait;
        }
        // The granted waiter completes its acquire (paying any injected
        // contention and lock-construct surcharge active at grant time).
        InjectContention(Waiter, W, Op.Obj);
        const Nanos WAcqCost =
            AcquirePrice(W, Op.Obj, L.NumWaiters) + LockExtra(Waiter.Clock);
        ++Waiter.Stats.AcquireReleasePairs;
        Waiter.Stats.LockOpNanos += WAcqCost;
        Waiter.Clock += WAcqCost;
        ++Waiter.Pc;
        if (Trace)
          Trace->Procs[W].LockOpNanos += WAcqCost;
        HeapPush(Waiter.Clock, W);
      } else {
        L.Held = false;
      }
      HeapPush(Pr.Clock, Top.P);
      break;
    }
    }
  }

  IntervalReport Report;
  Nanos LastEnd = Start;
  for (const Proc &Pr : Procs) {
    assert(Pr.Stopped && "processor never reached the switch barrier");
    LastEnd = std::max(LastEnd, Pr.EndTime);
  }
  for (Proc &Pr : Procs) {
    if (SchedInstrumented) {
      // With a scheduling dimension the instrumentation also observes the
      // synchronous switch barrier: a processor out of work (or stopped at
      // a coarse chunk boundary) spins there until the slowest finishes,
      // which is how chunk-induced load imbalance reaches the overhead
      // metric the controller compares versions by.
      Pr.Stats.WaitNanos += LastEnd - Pr.EndTime;
      Pr.Stats.ExecNanos = LastEnd - Start;
    } else {
      Pr.Stats.ExecNanos = Pr.EndTime - Start;
    }
    Report.Stats.merge(Pr.Stats);
  }
  Report.EffectiveNanos = LastEnd - Start;
  Report.Finished = NextIter >= NumIterations;
  Report.InjectedNanos = Injected;

  // Flush the interval's tallies into the run-wide metrics registry.
  {
    SimCounters &C = simCounters();
    C.Intervals.add();
    C.Iterations.add(TallyIterations);
    C.SchedFetches.add(TallySchedFetches);
    C.LockAcquires.add(TallyAcquires);
    C.LockContended.add(TallyContended);
    C.LockWaitNanos.add(static_cast<uint64_t>(TallyLockWaitNanos));
    Nanos Imbalance = 0;
    for (const Proc &Pr : Procs)
      Imbalance += LastEnd - Pr.EndTime;
    C.BarrierImbalanceNanos.add(static_cast<uint64_t>(Imbalance));
  }
  {
    ThroughputCounters &TC = throughputCounters();
    TC.MicroOps += TallyMicroOps;
    TC.Iterations += TallyIterations;
    ++TC.Intervals;
  }
  if constexpr (Topo) {
    obs::MetricsRegistry &M = obs::globalMetrics();
    M.counter("sim.numa.local_acquires").add(TallyLocalAcq);
    M.counter("sim.numa.remote_acquires").add(TallyRemoteAcq);
    M.counter("sim.numa.cold_acquires").add(TallyColdAcq);
    for (unsigned Node = 0; Node < NumNodes; ++Node)
      if (S.NodeContended[Node])
        M.counter(format("sim.node%u.contended", Node))
            .add(S.NodeContended[Node]);
  }

  // Synchronous switch: all processors wait at a barrier for the slowest,
  // then the machine proceeds.
  Machine.advance(Report.EffectiveNanos +
                  (Topo ? MM.barrierNanos() : CM.BarrierNanos));
  return Report;
}
