//===- main.cpp - Repository benchmark entry point --------------------===//
//
// perfbench --workload <bert|serve> --seed <n>
//           --seconds <s> --trace <0|1> --scratch <dir> [--trace-dir <dir>]
//           [--source-id <id>] [--corrupt]
//
// Prints report lines starting with '#', then one JSON result line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer metrics
// and write a chrome trace plus a flat metric file to --trace-dir.
// Normally started through perfbench/run.py, which builds it first.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "kernels/cpu_features.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

bool parseArgs(int Argc, char **Argv, RunOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--workload")
      O.Workload = next();
    else if (A == "--seed")
      O.Seed = std::stoull(next());
    else if (A == "--seconds")
      O.Seconds = std::stod(next());
    else if (A == "--trace")
      O.Trace = next() == "1";
    else if (A == "--scratch")
      O.Scratch = next();
    else if (A == "--trace-dir")
      O.TraceDir = next();
    else if (A == "--source-id")
      O.SourceId = next();
    else if (A == "--corrupt")
      O.Corrupt = true;
    else
      return false;
  }
  return (O.Workload == "bert" || O.Workload == "serve") &&
         O.Seconds > 0 && !O.Scratch.empty();
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

/// Host and build identity, printed on every result.
void printFingerprint(const RunOptions &O) {
  int PoolT1 = 0, PoolMax = 0;
  {
    gc::api::Session S1(sessionOptions(1));
    PoolT1 = S1.threadPool().numThreads();
  }
  {
    gc::api::Session SMax(sessionOptions(maxThreads()));
    PoolMax = SMax.threadPool().numThreads();
  }
  std::printf("# fingerprint {\"workload\":%s,\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"nproc\":%d,\"pool_threads_t1\":%d,"
              "\"pool_threads_tmax\":%d,\"isa\":%s,\"kernel_tier\":%s,"
              "\"compiler\":%s,\"build_type\":%s,\"source\":%s}\n",
              jsonString(O.Workload).c_str(), (unsigned long long)O.Seed,
              O.Seconds, O.Trace ? 1 : 0, maxThreads(), PoolT1, PoolMax,
              jsonString(gc::kernels::isaName()).c_str(),
              jsonString(gc::kernels::kernelTierName(
                             gc::kernels::activeKernelTier()))
                  .c_str(),
              jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(O.SourceId).c_str());
}

bool isEndToEnd(const std::string &Name) {
  for (const auto &[N, U] : endToEndMetrics())
    if (N == Name)
      return true;
  return false;
}

void printResult(Result &R) {
  std::string Metrics;
  for (const auto &[Name, V] : R.all()) {
    if (isEndToEnd(Name) == R.Opts.Trace)
      continue;
    double Value = V.first;
    if (!std::isfinite(Value)) {
      R.count(false, "metric " + Name + " is not finite");
      Value = 0;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Metrics += (Metrics.empty() ? "" : ", ") + jsonString(Name) +
               ": {\"value\": " + Buf + ", \"unit\": " + jsonString(V.second) +
               "}";
    std::printf("# metric %s = %s %s\n", Name.c_str(), Buf, V.second.c_str());
  }
  if (R.attempted())
    std::printf("# error_rate = %.6g (%llu of %llu operations failed)\n",
                static_cast<double>(R.failed()) /
                    static_cast<double>(R.attempted()),
                (unsigned long long)R.failed(),
                (unsigned long long)R.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.failed() == 0 && R.attempted() > 0 ? "true" : "false",
              (unsigned long long)R.attempted(),
              (unsigned long long)R.failed(), Metrics.c_str());
}

int run(const RunOptions &O) {
  std::filesystem::create_directories(O.Scratch);
  printFingerprint(O);
  Result R(O);
  const GraphSet Set = buildGraphSet(O.Workload, O.Seed);
  for (const Model *M : Set.all())
    R.note(M->Name + ": outputs checked against the " + M->Oracle);
  for (const Model &M : Set.Anchors)
    R.note(M.Name + ": outputs checked against the " + M.Oracle);
  if (!O.Trace) {
    runWorkload(Set, O.Seconds, R);
  } else {
    // Four quarters, untraced, traced, traced, untraced, so a drift in the
    // host's speed that is linear over the run reaches both sides alike.
    // trace.overhead.<metric> is traced over untraced, minus 1. The
    // probes then run traced.
    Result Quarters[4] = {Result(O), Result(O), Result(O), Result(O)};
    E2E E;
    for (int Q = 0; Q < 4; ++Q) {
      const bool On = Q == 1 || Q == 2;
      Tracer::get().setEnabled(On);
      R.note(On ? "traced quarter" : "untraced quarter");
      const E2E Part = runWorkload(Set, O.Seconds / 4, Quarters[Q]);
      if (Q == 0)
        E = Part;
      R.absorb(Quarters[Q]);
    }
    for (const auto &[Name, Unit] : endToEndMetrics()) {
      const double U = Quarters[0].get(Name) + Quarters[3].get(Name);
      const double T = Quarters[1].get(Name) + Quarters[2].get(Name);
      R.set("trace.overhead." + Name, U > 0 ? T / U - 1 : 0, "ratio");
    }
    // The peak resident set only ever rises within a process, so the
    // memory tracing adds is its span store, over the untraced peak.
    const double Base = Quarters[0].get("rss_peak_mb");
    R.set("trace.overhead.rss_peak_mb",
          Base > 0 ? Tracer::get().bytes() / (1024.0 * 1024.0) / Base : 0,
          "ratio");
    Tracer::get().setEnabled(true);
    runLayerProbes(Set, E, R);
    if (!O.TraceDir.empty()) {
      std::filesystem::create_directories(O.TraceDir);
      const std::string Base = O.TraceDir + "/" + O.Workload + "-seed" +
                               std::to_string(O.Seed);
      Tracer::get().write(Base + ".trace.json", Base + ".layers.json",
                          R.all());
      R.note("trace written to " + Base + ".trace.json");
    }
  }
  printResult(R);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload bert|serve "
                   "--seed N --seconds S --trace 0|1 --scratch DIR "
                   "[--trace-dir DIR] [--source-id ID] [--corrupt]\n");
      return 2;
    }
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
