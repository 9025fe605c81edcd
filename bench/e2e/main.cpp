//===- bench/e2e/main.cpp - dynfb-e2e benchmark driver --------------------===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//   dynfb-e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//             [--out FILE]
//
// Run from the repository root (it reads bench/e2e/expected_seed0.json and
// tests/baselines/; paper_suite's exp phase runs the dynfb-bench built
// beside it and keeps that run's cache under build/e2e).
// Runs one workload in this process, serially: passes (set-up, then a
// closed loop of simulator jobs) until T seconds have been measured, with
// a few set-ups timed alone before and after them, then
// checks every simulated output and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end metrics, or with --trace 1 the per-layer metrics of the
// traced passes (which alternate with untraced ones). --out writes the full
// result -- every sample, host stamp and deterministic output -- as JSON.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Json.h"
#include "sim/Throughput.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace dynfb;
using namespace dynfb::e2e;

namespace {

using Facts = std::map<std::string, double>;

struct Pass {
  bool Traced = false;
  double Setup = 0; ///< App construction.
  double Run = 0;   ///< Everything after set-up, including app teardown.
  sim::ThroughputCounters Work;
  LayerProfile Profile;
};

Pass runPass(Workload &W, bool Traced, PassOutput &Out) {
  Pass P;
  P.Traced = Traced;
  const sim::ThroughputCounters Before = sim::throughputCounters();
  const Clock::time_point Start = Clock::now();
  W.setup();
  P.Setup = secondsSince(Start);
  const Clock::time_point RunStart = Clock::now();
  W.run(Out, Traced ? &P.Profile : nullptr);
  W.teardown();
  P.Run = secondsSince(RunStart);
  const sim::ThroughputCounters &After = sim::throughputCounters();
  P.Work.MicroOps = After.MicroOps - Before.MicroOps;
  P.Work.Iterations = After.Iterations - Before.Iterations;
  P.Work.Intervals = After.Intervals - Before.Intervals;
  if (Traced)
    P.Profile.AppsCreate = P.Setup;
  Out.Facts["pass/micro_ops"] = static_cast<double>(P.Work.MicroOps);
  Out.Facts["pass/iterations"] = static_cast<double>(P.Work.Iterations);
  Out.Facts["pass/intervals"] = static_cast<double>(P.Work.Intervals);
  return P;
}

/// One line per job whose facts differ between \p Want and \p Got.
std::vector<std::string> diffFacts(const Facts &Want, const Facts &Got,
                                   const std::string &Against) {
  std::map<std::string, std::string> ByJob;
  const auto Note = [&](const std::string &Key, const std::string &What) {
    ByJob.try_emplace(Key.substr(0, Key.rfind('/')),
                      Key + " " + What + " (" + Against + ")");
  };
  for (const auto &[Key, V] : Want) {
    const auto It = Got.find(Key);
    if (It == Got.end())
      Note(Key, "missing");
    else if (It->second != V)
      Note(Key, format("= %.17g, expected %.17g", It->second, V));
  }
  for (const auto &[Key, V] : Got)
    if (!Want.count(Key))
      Note(Key, format("= %.17g is not expected", V));
  std::vector<std::string> Lines;
  for (auto &[Job, Line] : ByJob)
    Lines.push_back(std::move(Line));
  return Lines;
}

/// The workload's entry of the expected-values file.
std::optional<Facts> loadExpected(const std::string &Path,
                                  const std::string &Workload,
                                  std::string &Error) {
  std::ifstream Stream(Path);
  if (!Stream) {
    Error = "cannot read '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream Text;
  Text << Stream.rdbuf();
  const std::optional<obs::JsonValue> Doc = obs::parseJson(Text.str(), Error);
  if (!Doc)
    return std::nullopt;
  const obs::JsonValue *Entry = Doc->find(Workload);
  if (!Entry || Entry->kind() != obs::JsonValue::Kind::Object) {
    Error = "'" + Path + "' has no entry for " + Workload;
    return std::nullopt;
  }
  Facts F;
  for (const auto &[Key, V] : Entry->members())
    F[Key] = V.asNumber();
  return F;
}

/// Median and spread of one metric's samples; quartiles as Python's
/// statistics.quantiles(n=4) computes them.
struct Summary {
  double Median = 0, Min = 0, Max = 0, Iqr = 0;
};

Summary summarize(std::vector<double> V) {
  Summary S;
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  S.Min = V.front();
  S.Max = V.back();
  S.Median = N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
  if (N >= 2) {
    const auto Quartile = [&](size_t I) {
      const size_t M = N + 1;
      const size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
      const double Delta = static_cast<double>(I * M) - 4.0 * J;
      return V[J - 1] + (V[J] - V[J - 1]) * Delta / 4.0;
    };
    S.Iqr = Quartile(3) - Quartile(1);
  }
  return S;
}

struct Metric {
  std::string Name;
  std::string Unit;
  std::vector<double> Samples;
  Summary summary() const { return summarize(Samples); }
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

std::string number(double V) {
  return std::isfinite(V) ? format("%.17g", V) : "0";
}

/// One quantity over the untraced (or traced) passes.
template <typename Fn>
std::vector<double> collect(const std::vector<Pass> &Passes, bool Traced,
                            Fn Value) {
  std::vector<double> Samples;
  for (const Pass &P : Passes)
    if (P.Traced == Traced)
      Samples.push_back(Value(P));
  return Samples;
}

std::vector<Metric> endToEndMetrics(const std::vector<Pass> &Passes,
                                    std::vector<double> Setups,
                                    double PeakRssMb) {
  for (double S : collect(Passes, false, [](auto &P) { return P.Setup; }))
    Setups.push_back(S);
  return {
      {"setup_s", "s", std::move(Setups)},
      {"run_s", "s", collect(Passes, false, [](auto &P) { return P.Run; })},
      {"mops_per_s", "Mops/s", collect(Passes, false, [](auto &P) {
         return ratio(static_cast<double>(P.Work.MicroOps) / 1e6, P.Run);
       })},
      {"peak_rss_mb", "MB", {PeakRssMb}},
  };
}

std::vector<Metric> layerMetrics(const std::vector<Pass> &Passes,
                                 const EmissionProbe &Probe,
                                 const ExpPhase &Phase, const Facts &F) {
  std::vector<Metric> Out;
  const auto Layer = [&](const char *Name, const char *Unit, auto Value) {
    Out.push_back({Name, Unit, collect(Passes, true, Value)});
  };
  const auto Field = [](double LayerProfile::*Member, double Scale = 1.0) {
    return [=](const Pass &P) { return P.Profile.*Member * Scale; };
  };
  const auto Count = [](auto Get) {
    return [=](const Pass &P) { return static_cast<double>(Get(P)); };
  };
  Layer("apps.create_s", "s", Field(&LayerProfile::AppsCreate));
  Layer("sim.backend_s", "s", Field(&LayerProfile::SimBackend));
  Layer("sim.begin_s", "s", Field(&LayerProfile::SimBegin));
  Layer("sim.interval_s", "s", Field(&LayerProfile::SimInterval));
  Layer("sim.serial_s", "s", Field(&LayerProfile::SimSerial));
  // Rates over the decorated runs only (whatif_replay also simulates
  // inside replay and explore, which the pass totals below include).
  Layer("sim.ns_per_op", "ns/op", [](const Pass &P) {
    return ratio(P.Profile.SimInterval * 1e9,
                 static_cast<double>(P.Profile.SimOps));
  });
  Layer("sim.us_per_interval", "us/interval", [](const Pass &P) {
    return ratio(P.Profile.SimInterval * 1e6,
                 static_cast<double>(P.Profile.SimIntervals));
  });
  Layer("sim.micro_ops", "count",
        Count([](auto &P) { return P.Work.MicroOps; }));
  Layer("sim.iterations", "count",
        Count([](auto &P) { return P.Work.Iterations; }));
  Layer("sim.intervals", "count",
        Count([](auto &P) { return P.Work.Intervals; }));
  Layer("fb.self_s", "s", Field(&LayerProfile::FbSelf));
  Layer("fb.decisions", "count",
        Count([](auto &P) { return P.Profile.Decisions; }));
  Layer("obs.export_ms", "ms", Field(&LayerProfile::ObsExport, 1e3));
  Layer("obs.parse_ms", "ms", Field(&LayerProfile::ObsParse, 1e3));
  Layer("obs.trace_bytes", "bytes",
        Count([](auto &P) { return P.Profile.TraceBytes; }));
  Layer("replay.replay_s", "s", Field(&LayerProfile::ReplayReplay));
  Layer("replay.explore_s", "s", Field(&LayerProfile::ReplayExplore));
  Layer("replay.whatifs", "count",
        Count([](auto &P) { return P.Profile.WhatIfs; }));
  Layer("unattributed_frac", "ratio", [](const Pass &P) {
    return 1.0 - ratio(P.Profile.attributed(), P.Setup + P.Run);
  });

  const double Iters = static_cast<double>(Probe.Iterations);
  const auto Fact = [&](const std::string &Key) {
    const auto It = F.find(Key);
    return It == F.end() ? 0.0 : It->second;
  };
  const auto MedianRun = [&](bool Traced) {
    return summarize(collect(Passes, Traced, [](auto &P) { return P.Run; }))
        .Median;
  };
  const std::vector<Metric> Single = {
      {"rt.emit_cold_ns_per_iter", "ns/iter",
       {ratio(Probe.ColdSeconds * 1e9, Iters)}},
      {"rt.emit_hit_ns_per_iter", "ns/iter",
       {ratio(Probe.HitSeconds * 1e9, Iters)}},
      {"rt.emit_ops_per_iter", "ops/iter",
       {ratio(static_cast<double>(Probe.Ops), Iters)}},
      {"exp.cold_s", "s", {Phase.ColdSeconds}},
      {"exp.overhead_s", "s", {Phase.ColdSeconds - Phase.JobSeconds}},
      {"exp.warm_ms", "ms", {Phase.WarmSeconds * 1e3}},
      {"exp.cache_hit_frac", "ratio",
       {ratio(static_cast<double>(Phase.WarmHits),
              static_cast<double>(Phase.Jobs))}},
      {"dyn_vs_best", "ratio", {Fact("pass/dyn_vs_best")}},
      {"dyn_vs_oracle", "ratio", {Fact("pass/dyn_vs_oracle")}},
      {"trace_overhead_frac", "ratio",
       {ratio(MedianRun(true), MedianRun(false)) - 1.0}},
  };
  Out.insert(Out.end(), Single.begin(), Single.end());
  return Out;
}

struct Host {
  unsigned Procs = std::thread::hardware_concurrency();
  std::string Cpu = "unknown";
  double Load[3] = {0, 0, 0};
  std::string Compiler = __VERSION__;

  Host() {
    std::ifstream CpuInfo("/proc/cpuinfo");
    for (std::string Line; std::getline(CpuInfo, Line);)
      if (Line.rfind("model name", 0) == 0) {
        Cpu = trim(Line.substr(Line.find(':') + 1));
        break;
      }
    if (getloadavg(Load, 3) != 3)
      Load[0] = Load[1] = Load[2] = 0;
  }
};

/// Everything one run produced, for the report and the result file.
struct RunResult {
  std::string Workload;
  uint64_t Seed = 0;
  bool Trace = false;
  double Seconds = 0;
  Host H;
  std::vector<double> Setups; ///< Set-ups timed alone, outside the passes.
  std::vector<Pass> Passes;
  Facts First; ///< The first pass's deterministic outputs.
  unsigned Attempted = 0;
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;
};

void printReport(const RunResult &R, double Elapsed) {
  std::printf("dynfb-e2e %s: seed %llu, %s, %zu passes in %.1f s\n",
              R.Workload.c_str(), static_cast<unsigned long long>(R.Seed),
              R.Trace ? "traced" : "untraced", R.Passes.size(), Elapsed);
  std::printf("  host: %u cpus, %s, load %.2f %.2f %.2f, gcc %s, build %s\n",
              R.H.Procs, R.H.Cpu.c_str(), R.H.Load[0], R.H.Load[1],
              R.H.Load[2], R.H.Compiler.c_str(), buildHash());
  for (const Metric &M : R.Metrics) {
    const Summary S = M.summary();
    std::printf("  %-26s %14.6g %-11s median of %zu [min %.6g, max %.6g, "
                "IQR %.3g]\n",
                M.Name.c_str(), S.Median, M.Unit.c_str(), M.Samples.size(),
                S.Min, S.Max, S.Iqr);
  }
  if (!R.Trace)
    for (const std::string Key : {"dyn_vs_best", "dyn_vs_oracle"})
      if (const auto It = R.First.find("pass/" + Key); It != R.First.end())
        std::printf("  %-26s %14.6g ratio       simulated, deterministic\n",
                    Key.c_str(), It->second);
  std::printf("  checks: %u jobs attempted, %zu failed\n", R.Attempted,
              R.Failures.size());
  for (const std::string &Line : R.Failures)
    std::printf("    FAILED %s\n", Line.c_str());
}

/// The full result file agree.py reads.
std::string resultJson(const RunResult &R) {
  std::string J = "{\n";
  J += format("  \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"seconds\": %s, \"passes\": %zu,\n",
              R.Workload.c_str(), static_cast<unsigned long long>(R.Seed),
              R.Trace ? 1 : 0, number(R.Seconds).c_str(), R.Passes.size());
  J += "  \"build\": \"" + obs::jsonEscape(buildHash()) + "\",\n";
  J += format("  \"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"loadavg\": "
              "[%s, %s, %s], \"compiler\": \"%s\"},\n",
              R.H.Procs, obs::jsonEscape(R.H.Cpu).c_str(),
              number(R.H.Load[0]).c_str(), number(R.H.Load[1]).c_str(),
              number(R.H.Load[2]).c_str(),
              obs::jsonEscape(R.H.Compiler).c_str());
  J += format("  \"correct\": %s, \"attempted\": %u, \"failed\": %zu,\n",
              R.Failures.empty() ? "true" : "false", R.Attempted,
              R.Failures.size());
  J += "  \"failures\": [";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    J += (I ? ", \"" : "\"") + obs::jsonEscape(R.Failures[I]) + "\"";
  J += "],\n  \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    const Summary S = M.summary();
    J += format("%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                "\"min\": %s, \"max\": %s, \"iqr\": %s, \"samples\": [",
                I ? "," : "", M.Name.c_str(), number(S.Median).c_str(),
                M.Unit.c_str(), number(S.Min).c_str(), number(S.Max).c_str(),
                number(S.Iqr).c_str());
    for (size_t K = 0; K < M.Samples.size(); ++K)
      J += (K ? ", " : "") + number(M.Samples[K]);
    J += "]}";
  }
  J += "\n  },\n  \"facts\": {";
  size_t K = 0;
  for (const auto &[Key, V] : R.First)
    J += format("%s\n    \"%s\": %s", K++ ? "," : "",
                obs::jsonEscape(Key).c_str(), number(V).c_str());
  return J + "\n  }\n}\n";
}

/// The one-line result: medians only.
std::string resultLine(const RunResult &R) {
  std::string Line = format("{\"correct\": %s, \"attempted\": %u, "
                            "\"failed\": %zu, \"metrics\": {",
                            R.Failures.empty() ? "true" : "false",
                            R.Attempted, R.Failures.size());
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Line += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   I ? ", " : "", R.Metrics[I].Name.c_str(),
                   number(R.Metrics[I].summary().Median).c_str(),
                   R.Metrics[I].Unit.c_str());
  return Line + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: dynfb-e2e --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--out FILE]\n"
               "workloads:");
  for (const std::string &Name : workloadNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  RunResult R;
  R.Workload = CL.getString("workload", "");
  const int64_t SeedArg = CL.getInt("seed", 0);
  R.Seconds = CL.getDouble("seconds", 25);
  R.Trace = CL.getBool("trace", false);
  const std::string OutPath = CL.getString("out", "");
  if (!rejectUnknownFlags(CL, "dynfb-e2e",
                          {"workload", "seed", "seconds", "trace", "out"}))
    return 2;
  if (SeedArg < 0 || !(R.Seconds > 0 && R.Seconds <= 3600))
    return usage();
  R.Seed = static_cast<uint64_t>(SeedArg);
  const std::unique_ptr<Workload> W = makeWorkload(R.Workload, R.Seed);
  if (!W)
    return usage();

  // Set-ups alone, before and after the passes: a workload with long
  // passes would otherwise give setup_s only a few samples, all taken in
  // whatever state the host was in at one moment.
  const auto TimeSetups = [&] {
    for (int I = 0; I < 5; ++I) {
      const Clock::time_point SetupStart = Clock::now();
      W->setup();
      R.Setups.push_back(secondsSince(SetupStart));
      W->teardown();
    }
  };
  const Clock::time_point Start = Clock::now();
  TimeSetups();

  // Closed loop, one pass at a time; traced runs alternate untraced and
  // traced passes so the tracing overhead is measured under equal
  // conditions.
  do {
    PassOutput Out;
    R.Passes.push_back(
        runPass(*W, R.Trace && R.Passes.size() % 2 == 1, Out));
    R.Attempted += Out.Jobs;
    R.Failures.insert(R.Failures.end(), Out.Errors.begin(), Out.Errors.end());
    if (R.Passes.size() == 1)
      R.First = std::move(Out.Facts);
    else
      for (std::string &Line :
           diffFacts(R.First, Out.Facts,
                     format("pass %zu vs pass 1", R.Passes.size())))
        R.Failures.push_back(std::move(Line));
  } while (secondsSince(Start) < R.Seconds ||
           (R.Trace && R.Passes.size() < 2));
  TimeSetups();
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  const double PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;

  if (R.Seed == 0) {
    std::string Error;
    if (const std::optional<Facts> Want =
            loadExpected("bench/e2e/expected_seed0.json", R.Workload, Error))
      for (std::string &Line : diffFacts(*Want, R.First, "seed 0 expected"))
        R.Failures.push_back(std::move(Line));
    else
      R.Failures.push_back("expected values: " + Error);
  }

  ExpPhase Phase;
  if (R.Workload == "paper_suite") {
    Phase = runExpPhase(DYNFB_BENCH_TOOL, format("build/e2e/exp-%d", getpid()),
                        "tests/baselines/bench_paper_scale0.125.json");
    R.Attempted += 2 * Phase.Jobs;
    R.Failures.insert(R.Failures.end(), Phase.Errors.begin(),
                      Phase.Errors.end());
  }

  if (!R.Trace) {
    R.Metrics = endToEndMetrics(R.Passes, R.Setups, PeakRssMb);
  } else {
    // Emission, outside any pass: every iteration of every version, cold
    // and then from a filled cache.
    W->setup();
    const EmissionProbe Probe = W->probe();
    W->teardown();
    if (Probe.HitOps != Probe.Ops)
      R.Failures.push_back(format(
          "rt: cache hits served %llu micro-ops, cold emission %llu",
          static_cast<unsigned long long>(Probe.HitOps),
          static_cast<unsigned long long>(Probe.Ops)));
    R.Metrics = layerMetrics(R.Passes, Probe, Phase, R.First);
    for (const Metric &M : R.Metrics)
      if (M.Name == "unattributed_frac" && M.summary().Median >= 0.05)
        R.Failures.push_back(format("unattributed_frac %.4f is not below 0.05",
                                    M.summary().Median));
  }

  printReport(R, secondsSince(Start));
  if (!OutPath.empty()) {
    std::ofstream Stream(OutPath);
    Stream << resultJson(R);
    if (!Stream) {
      std::fprintf(stderr, "dynfb-e2e: cannot write '%s'\n", OutPath.c_str());
      return 2;
    }
  }
  std::printf("%s\n", resultLine(R).c_str());
  return R.Failures.empty() ? 0 : 1;
}
