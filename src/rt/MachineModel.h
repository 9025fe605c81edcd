//===- rt/MachineModel.h - Pluggable machine cost models --------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable machine layer, the only thing that prices a run (CostModel
/// is its flat parameter block): a MachineModel prices each primitive event
/// (acquire/release/failed-attempt/timer/barrier/sched-fetch/update) as a
/// function of machine state -- which processor runs it, which node last
/// held the lock's cache line, how many waiters are queued behind the lock.
/// The paper's central claim is that the best synchronization policy
/// depends on the machine; this layer makes "machine" a first-class
/// experimental variable.
///
/// Three models ship (see createMachineModel):
///
///  - "dash-flat": the constant-cost model every paper table was produced
///    on. Bit-for-bit the default: pricing returns exactly the CostModel
///    constants, so all goldens stay byte-identical.
///  - "dash-numa": DASH's two-level cluster topology (4 processors per
///    cluster). A lock acquire is cheap when the lock's line is already in
///    the acquirer's cluster, expensive when the line must migrate from
///    another cluster, with a per-queued-waiter surcharge for migratory
///    hand-off chains. sim::SimMachine tracks each lock's home node.
///  - "uma-cheaplock": a modern-SMP-like flat machine where lock operations
///    are cheap relative to timer reads -- flipping which policy wins.
///
/// Every parameter of a model (the flat cost block plus any model-specific
/// extras) is exposed by name through params()/setParam(), so the full
/// parameter set can be stamped into result files, cache keys and trace
/// meta, and overridden from the command line (dynfb-run --cost).
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_RT_MACHINEMODEL_H
#define DYNFB_RT_MACHINEMODEL_H

#include "rt/CostModel.h"
#include "rt/Time.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dynfb::rt {

/// One lock event's machine state, as the simulator sees it.
struct LockEvent {
  unsigned Proc = 0;    ///< Processor executing the operation.
  uint32_t Object = 0;  ///< Lock object id within the section.
  /// Node that last held the lock's cache line, -1 when the line is cold
  /// (never acquired in this run). Maintained by sim::SimMachine.
  int Home = -1;
  /// Number of processors still queued on the lock when the operation
  /// completes (0 for an uncontended acquire).
  unsigned ContentionDepth = 0;
};

/// Abstract machine: a flat cost block plus per-event pricing hooks. The
/// base-class implementations return the flat constants, so a model only
/// overrides the events its topology makes state-dependent.
class MachineModel {
public:
  explicit MachineModel(CostModel Costs) : Costs(Costs) {}
  virtual ~MachineModel();

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// The flat cost block. Compute/update pricing inside the IR emitter and
  /// every event the model does not override read from here.
  const CostModel &costs() const { return Costs; }

  /// Cluster of \p Proc. Flat machines map every processor to node 0.
  virtual unsigned nodeOf(unsigned Proc) const {
    (void)Proc;
    return 0;
  }
  /// True when pricing depends on lock home nodes: the simulator then
  /// maintains the home tracker and queries the model per lock event. The
  /// flat models keep the seed's exact constant-folded arithmetic.
  virtual bool topologyAware() const { return false; }

  /// Event pricing, in virtual nanoseconds.
  virtual Nanos acquireNanos(const LockEvent &E) const {
    (void)E;
    return Costs.AcquireNanos;
  }
  virtual Nanos releaseNanos(const LockEvent &E) const {
    (void)E;
    return Costs.ReleaseNanos;
  }
  virtual Nanos failedAcquireNanos() const { return Costs.FailedAcquireNanos; }
  virtual Nanos timerReadNanos(unsigned Proc) const {
    (void)Proc;
    return Costs.TimerReadNanos;
  }
  virtual Nanos barrierNanos() const { return Costs.BarrierNanos; }
  virtual Nanos schedFetchNanos(unsigned Proc) const {
    (void)Proc;
    return Costs.SchedFetchNanos;
  }
  Nanos updateNanos() const { return Costs.UpdateNanos; }
  Nanos instrumentNanos() const { return Costs.InstrumentNanos; }

  /// The full parameter set, ordered: the eight flat cost fields by their
  /// struct names, then any model-specific extras.
  std::vector<std::pair<std::string, Nanos>> params() const;
  /// Canonical "Name=Value,Name=Value" rendering of params() -- the string
  /// stamped into exp job configs (hence result files and the cache key)
  /// and JSONL trace meta.
  std::string paramsString() const;
  /// All parameter names, for did-you-mean hints.
  std::vector<std::string> paramNames() const;
  /// Sets the named parameter; false when the name is unknown to this
  /// model. Values are non-negative integer nanoseconds (extras may
  /// validate further, e.g. ClusterProcs must be at least 1).
  bool setParam(const std::string &Name, Nanos Value);

  virtual std::unique_ptr<MachineModel> clone() const = 0;

protected:
  CostModel Costs;

  /// A model-specific named parameter slot, registered by subclass
  /// constructors (the slot must live inside the model object so clone()
  /// copies it).
  struct ExtraParam {
    std::string Name;
    Nanos *Slot;
    Nanos MinValue = 0;
  };
  std::vector<ExtraParam> Extras;
};

/// The constant-cost machine every paper table was produced on ("dash-flat"
/// with the default cost block), or any other flat cost block.
class FlatMachineModel final : public MachineModel {
public:
  explicit FlatMachineModel(CostModel Costs = CostModel::dashLike())
      : MachineModel(Costs) {}
  std::string name() const override { return "dash-flat"; }
  std::string description() const override {
    return "constant-cost 16-processor DASH (the paper's tables)";
  }
  std::unique_ptr<MachineModel> clone() const override {
    return std::make_unique<FlatMachineModel>(*this);
  }
};

/// DASH's two-level cluster topology: 4 processors per cluster, lock lines
/// migrate between clusters through the directory. Acquire pricing:
///
///   home < 0 (cold line)        AcquireNanos      (directory allocation)
///   home == acquirer's cluster  LocalAcquireNanos (line already local)
///   home != acquirer's cluster  RemoteAcquireNanos
///                               + depth * MigrateHopNanos
///
/// The last case is the migratory pattern: every cross-cluster hand-off
/// fetches the dirty line from the previous holder's cluster, and each
/// waiter queued behind the lock adds one more hop the line is forwarded
/// through. Releases stay local (the releaser owns the line).
class DashNumaModel final : public MachineModel {
public:
  DashNumaModel();
  std::string name() const override { return "dash-numa"; }
  std::string description() const override {
    return "two-level DASH: cluster-local locks cheap, migratory expensive";
  }
  unsigned nodeOf(unsigned Proc) const override {
    return Proc / static_cast<unsigned>(ClusterProcs);
  }
  bool topologyAware() const override { return true; }
  Nanos acquireNanos(const LockEvent &E) const override;
  std::unique_ptr<MachineModel> clone() const override;

  Nanos ClusterProcs = 4;
  Nanos LocalAcquireNanos = 1500;
  Nanos RemoteAcquireNanos = 9000;
  Nanos MigrateHopNanos = 750;

private:
  void registerExtras();
};

/// A modern-SMP-like UMA machine: lock operations are two orders of
/// magnitude cheaper than on DASH while shared-data updates (dirty-line
/// transfers) and timer reads stay comparatively expensive, so
/// critical-region residency -- not lock-operation count -- decides the
/// policy ordering, and finer-grain locking wins where DASH favoured
/// maximal coarsening.
class UmaCheapLockModel final : public MachineModel {
public:
  UmaCheapLockModel();
  std::string name() const override { return "uma-cheaplock"; }
  std::string description() const override {
    return "modern SMP: cheap locks relative to timer reads";
  }
  std::unique_ptr<MachineModel> clone() const override {
    return std::make_unique<UmaCheapLockModel>(*this);
  }
};

/// The shipped model names, in registry order.
std::vector<std::string> machineModelNames();

/// Creates the named model with its default parameters; nullptr when the
/// name is unknown.
std::unique_ptr<MachineModel> createMachineModel(const std::string &Name);

/// Applies a "Field=nanos[,Field=nanos]" override spec to \p M (the format
/// paramsString() emits and dynfb-run --cost accepts). False with \p Error
/// set -- including a did-you-mean hint for near-miss field names -- on any
/// unknown field or malformed value.
bool applyCostOverrides(MachineModel &M, const std::string &Spec,
                        std::string &Error);

} // namespace dynfb::rt

#endif // DYNFB_RT_MACHINEMODEL_H
