//===- apps/App.h - Benchmark application base -------------------*- C++ -*-=//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common shape of the three benchmark applications (Barnes-Hut, Water,
/// String). Each application owns an IR module with its parallel sections,
/// the multi-versioned program the synchronization optimizer generates from
/// it, a data binding per section (derived from genuinely computed data:
/// octree traversals, pair lists, ray paths), and a phase schedule. The
/// base class builds execution backends for the four executable flavours
/// the paper measures: Serial, a fixed static policy, and Dynamic.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_APPS_APP_H
#define DYNFB_APPS_APP_H

#include "ir/Module.h"
#include "rt/Backend.h"
#include "rt/Binding.h"
#include "rt/MachineModel.h"
#include "rt/NativeBackend.h"
#include "rt/SectionRegistry.h"
#include "sim/Backend.h"
#include "xform/MultiVersion.h"

#include <memory>
#include <string>

namespace dynfb::apps {

/// Statistics of one parallel section measured on the serial version
/// (paper Tables 4, 9, 10).
struct SectionStats {
  double MeanSectionSeconds = 0; ///< Serial execution time of the section.
  uint64_t Iterations = 0;
  double MeanIterationSeconds = 0;
};

/// Executable flavour.
enum class Flavour {
  Serial,  ///< Lock-free serial code (run on one processor).
  Fixed,   ///< One statically chosen code version.
  Dynamic  ///< All versions + dynamic feedback, instrumented.
};

/// Which executable to build and -- for the Fixed flavour -- which point of
/// the version space to pin. This is the single description of "what runs"
/// shared by App backend construction and the Harness entry points.
struct VersionSpec {
  Flavour F = Flavour::Dynamic;
  /// The pinned version for Flavour::Fixed (ignored otherwise).
  xform::VersionDescriptor Fixed;

  static VersionSpec serial() { return {Flavour::Serial, {}}; }
  static VersionSpec fixed(xform::VersionDescriptor D) {
    return {Flavour::Fixed, D};
  }
  static VersionSpec fixed(xform::PolicyKind Policy,
                           rt::SchedSpec Sched = rt::SchedSpec::dynamic()) {
    return {Flavour::Fixed, xform::VersionDescriptor{Policy, Sched}};
  }
  static VersionSpec dynamicFeedback() { return {Flavour::Dynamic, {}}; }
};

/// Base class of the benchmark applications.
class App {
public:
  virtual ~App() = default;

  const ir::Module &module() const { return M; }
  ir::Module &module() { return M; }

  /// The generated versions (valid after finalize()).
  const xform::VersionedProgram &program() const { return Program; }

  /// The version space the application was finalized with.
  const xform::VersionSpace &versionSpace() const { return Program.Space; }

  /// The application's phase schedule.
  virtual rt::Schedule schedule() const = 0;

  /// The data binding of the named section.
  virtual const rt::DataBinding &binding(const std::string &Section) const = 0;

  /// The backend-agnostic section table for one executable described by
  /// \p Spec: every backend (simulator or native threads) is constructed
  /// from this single description. Bindings and IR are owned by the app and
  /// must outlive the backend.
  rt::SectionRegistry makeSectionRegistry(const VersionSpec &Spec) const;

  /// Builds a simulator backend for one executable described by \p Spec,
  /// on the machine \p Model describes (cloned into the backend).
  std::unique_ptr<sim::SimBackend>
  makeSimBackend(unsigned Procs, const rt::MachineModel &Model,
                 const VersionSpec &Spec) const;

  /// Builds a native-threads backend for the same executable. Native runs
  /// ignore MachineModel pricing (the hardware sets the prices); \p Opts
  /// carries the virtual-to-real time scale.
  std::unique_ptr<rt::NativeBackend>
  makeNativeBackend(unsigned Procs, const VersionSpec &Spec,
                    rt::NativeBackend::Options Opts) const;
  std::unique_ptr<rt::NativeBackend>
  makeNativeBackend(unsigned Procs, const VersionSpec &Spec) const {
    return makeNativeBackend(Procs, Spec, rt::NativeBackend::Options());
  }

  /// Serial-version statistics of one section (Tables 4, 9, 10).
  SectionStats sectionStats(const std::string &Section,
                            const rt::CostModel &Costs) const;

protected:
  explicit App(std::string Name) : M(std::move(Name)) {}

  /// Runs version generation over \p Space; call once after the module is
  /// authored.
  void finalize(const xform::VersionSpace &Space = {}) {
    Program = xform::generateVersions(M, Space);
  }

  ir::Module M;
  xform::VersionedProgram Program;
};

} // namespace dynfb::apps

#endif // DYNFB_APPS_APP_H
