//===- bench/e2e/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four named workloads of dynfb-e2e. Each builds its applications in
/// a timed set-up, then runs one closed-loop pass of jobs on the simulator,
/// one job at a time. Why each workload exists is recorded in README.md.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_BENCH_E2E_WORKLOADS_H
#define DYNFB_BENCH_E2E_WORKLOADS_H

#include "Layers.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dynfb::e2e {

/// What one pass produced.
struct PassOutput {
  /// Deterministic simulated outputs keyed "<job>/<field>" ("pass/<field>"
  /// for pass totals): identical in every pass of a run and, at seed 0,
  /// equal to expected_seed0.json.
  std::map<std::string, double> Facts;
  unsigned Jobs = 0;               ///< Jobs attempted.
  std::vector<std::string> Errors; ///< One line per failed job or check.
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Constructs the pass's applications: everything setup_s times.
  virtual void setup() = 0;

  /// Runs one pass over the applications setup() built. \p Profile is
  /// non-null in traced passes.
  virtual void run(PassOutput &Out, LayerProfile *Profile) = 0;

  /// Destroys the applications (part of the pass's run time).
  void teardown() { Apps.clear(); }

  /// Emission probe over the applications setup() built.
  EmissionProbe probe() const;

protected:
  struct NamedApp {
    std::string Name;
    std::unique_ptr<apps::App> App;
  };
  std::vector<NamedApp> Apps;
  std::unique_ptr<rt::MachineModel> Model;
};

/// The workload names, in the order run.sh runs them.
const std::vector<std::string> &workloadNames();

/// The named workload with every input derived from \p Seed; nullptr for
/// an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

/// The paper_suite's orchestration phase: `dynfb-bench run --suite paper
/// --scale 0.125 --jobs 1` (the program at \p Tool), cold into a fresh
/// cache under \p WorkDir and then warm, with the cold result file diffed
/// at zero tolerance against the checked-in baseline at \p BaselinePath.
struct ExpPhase {
  double ColdSeconds = 0;
  double JobSeconds = 0; ///< Sum of per-job wall time of the cold run.
  double WarmSeconds = 0;
  size_t Jobs = 0;     ///< Jobs per run (cold and warm each).
  size_t WarmHits = 0; ///< Warm jobs served from the cache.
  std::vector<std::string> Errors;
};

ExpPhase runExpPhase(const std::string &Tool, const std::string &WorkDir,
                     const std::string &BaselinePath);

} // namespace dynfb::e2e

#endif // DYNFB_BENCH_E2E_WORKLOADS_H
