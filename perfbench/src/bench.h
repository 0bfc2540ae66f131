//===- bench.h - Repository benchmark: shared declarations ------*- C++ -*-===//
///
/// \file
/// Shared pieces of the repository benchmark (perfbench/README.md): the
/// run options, the result accumulator, the span tracer, the workload
/// models with their oracle outputs, and small statistics helpers. The
/// benchmark drives the library only through its public surface.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/session.h"
#include "graph/graph.h"
#include "runtime/tensor_data.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

namespace graph = gc::graph;
namespace runtime = gc::runtime;
using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since process start.
double nowS();

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory (inside the checkout) for this run's cache directories.
  std::string Scratch;
  /// Directory for the traced run's chrome trace and layer table.
  std::string TraceDir;
  /// Self-check hook: corrupt one element of every checked output, so
  /// every check must fail.
  bool Corrupt = false;
  /// Source identity (commit or source digest) for the fingerprint.
  std::string SourceId = "unknown";
};

/// Worker-thread counts the benchmark sweeps: 1 and every usable core.
int maxThreads();

/// Pins the calling thread to each usable CPU in turn. On a shared host
/// the CPUs differ in speed over minutes (busy hyperthread siblings), and
/// a single-threaded measurement left to the scheduler may stay on one of
/// them for a whole run; cycling spreads it over all of them alike. Never
/// start threads (sessions, servers) while pinned: they inherit the mask.
class CpuCycle {
public:
  CpuCycle();
  ~CpuCycle() { unpin(); }
  CpuCycle(const CpuCycle &) = delete;
  CpuCycle &operator=(const CpuCycle &) = delete;
  size_t size() const { return Cpus.size(); }
  /// Pins the calling thread to the next CPU.
  void pinNext();
  /// Restores the calling thread's original CPU mask.
  void unpin();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
  bool Pinned = false;
};

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// The benchmark's own fixed compute loop (no library code), timed on the
/// calling thread: how fast the CPU under the caller runs right now. On a
/// shared virtual host that speed changes by up to 3x within seconds.
double calibrationS();
/// The loop's time at the reference host speed.
constexpr double kCalibRefS = 150e-6;

/// Scales a time to the reference host speed (perfbench/README.md). Times
/// the loop when constructed and when scaled() is called; per CPU, the
/// faster of the two is its speed over the interval between them. Without
/// \p Cpus the loop runs on the calling thread where it is (for work on
/// that thread alone); with it, on each of its CPUs in turn, and the mean
/// time counts (for work spread over all of them). The caller must not be
/// pinned then: it is unpinned afterwards.
class RefSpeed {
public:
  explicit RefSpeed(CpuCycle *Cpus = nullptr)
      : Cpus(Cpus), Before(measure()) {}
  double scaled(double Seconds) const;

private:
  std::vector<double> measure() const;
  CpuCycle *Cpus;
  std::vector<double> Before;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
/// Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
double supportedPercentile(size_t N);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Everything a run reports: operations attempted and failed, and metrics
/// by name.
class Result {
public:
  explicit Result(const RunOptions &Opts) : Opts(Opts) {}
  void set(const std::string &Name, double Value, const std::string &Unit);
  double get(const std::string &Name) const;
  /// Counts one operation; a false \p Ok counts it failed and logs
  /// \p What (first few only).
  void count(bool Ok, const std::string &What);
  /// A human-readable report line (stdout, before the result line).
  void note(const std::string &Line) const;
  /// Adds \p O's attempted and failed operations to this result.
  void absorb(const Result &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::map<std::string, std::pair<double, std::string>> &all() const {
    return Metrics;
  }
  const RunOptions &Opts;

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded around the benchmark's calls into each layer
//===----------------------------------------------------------------------===//

struct SpanRecord {
  std::string Name;
  double Start = 0, End = 0; ///< seconds, nowS() clock
  int64_t Id = 0, Parent = -1, Request = -1;
  uint32_t Thread = 0;
};

/// In-memory span store; written out once at exit. Disabled, recording
/// costs one branch.
class Tracer {
public:
  static Tracer &get();
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Opens a span on the calling thread (child of its innermost open span).
  int64_t open(const std::string &Name, int64_t Request);
  void close(int64_t Id);
  /// Records a finished span with explicit times (e.g. a request timed
  /// from its due time).
  void record(const std::string &Name, double Start, double End,
              int64_t Request);
  size_t size() const;
  /// Memory the span store holds, bytes.
  double bytes() const;
  /// Sum of durations (seconds) of spans named \p Name recorded at index
  /// \p From or later.
  double total(const std::string &Name, size_t From = 0) const;
  /// Writes a chrome-trace file, and a flat file holding \p Metrics and a
  /// per-span-name total and self time table.
  void write(const std::string &TracePath, const std::string &FlatPath,
             const std::map<std::string, std::pair<double, std::string>>
                 &Metrics) const;

private:
  bool Enabled = false;
  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans;
};

/// RAII span; a no-op while tracing is disabled.
class Span {
public:
  explicit Span(const std::string &Name, int64_t Request = -1);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Id = -1;
};

//===----------------------------------------------------------------------===//
// Models: graphs, seeded inputs, oracle outputs
//===----------------------------------------------------------------------===//

/// One graph of a workload with its seeded inputs and the outputs every
/// execution must reproduce.
struct Model {
  std::string Name; ///< e.g. "bert.int8", "mlp1.int8"
  bool Int8 = false;
  graph::Graph G;          ///< as served (dynamic batch for mlp1)
  graph::Graph Static;     ///< static-shape form (== G unless dynamic)
  bool Dynamic = false;
  std::vector<runtime::TensorData> Inputs;   ///< for Static
  std::vector<runtime::TensorData> Expected; ///< oracle outputs
  double RelTol = 0;   ///< float outputs: max relative error (1e-2 floor)
  double QuantTol = 0; ///< quantized outputs: max absolute grid steps
  std::string Oracle;  ///< which executor produced Expected
};

/// The graphs of one workload, split by precision.
struct GraphSet {
  std::vector<Model> F32, Int8;
  /// Small graphs checked against graph::runGraphReference in every run
  /// of a workload whose main oracle is not the reference (bert).
  std::vector<Model> Anchors;
  const std::vector<Model> &of(bool I8) const { return I8 ? Int8 : F32; }
  std::vector<const Model *> all() const;
};

/// Builds the graph set of \p Workload ("bert" or "serve") with
/// inputs drawn from \p Seed and oracle outputs.
GraphSet buildGraphSet(const std::string &Workload, uint64_t Seed);
/// Builds the workload's graphs (weights included) again from the
/// repository's workload builders, without inputs or oracles: the first
/// step of every timed set-up.
void rebuildGraphs(const std::string &Workload);

/// Compile options every benchmark session uses: explicit values for
/// every field, so no environment knob changes what is measured.
gc::core::CompileOptions sessionOptions(int Threads,
                                        gc::runtime::CacheMode Mode =
                                            gc::runtime::CacheMode::Off,
                                        const std::string &Dir = "");

/// Checks \p Got against the model's oracle outputs with its tolerances.
/// Under RunOptions::Corrupt, first corrupts one element.
bool outputsMatch(const Model &M, std::vector<runtime::TensorData> &Got,
                  bool Corrupt);
/// Checks \p Got, whose rows are the model's input rows repeated
/// cyclically from the first, against the same rows of the first oracle
/// output (row-wise graphs: the MLPs).
bool rowsMatch(const Model &M, const runtime::TensorData &Got);
/// Byte equality (serve responses against solo executions).
bool bitIdentical(const runtime::TensorData &A, const runtime::TensorData &B);
/// Overwrites \p T with an all-ones byte pattern (NaN / 255), so an
/// execution that writes nothing fails its check.
void poison(runtime::TensorData &T);

/// A model compiled in one session, with its own output buffers.
struct Bound {
  const Model *M = nullptr;
  gc::api::CompiledGraphPtr CG;
  std::vector<runtime::TensorData> Outs;
  std::vector<runtime::TensorData *> InPtrs, OutPtrs;
};
/// Compiles \p M (as served: dynamic-batch graphs stay polymorphic and
/// run at the static form's batch) in \p S.
gc::Expected<Bound> bindModel(gc::api::Session &S, const Model &M);
/// Binds \p M's inputs and fresh output buffers to an already compiled
/// \p CG.
Bound bindCompiled(gc::api::CompiledGraphPtr CG, const Model &M);
/// Poisons the outputs, executes, and returns the status.
gc::Status runBound(const gc::api::Stream &Str, Bound &B);

/// Matmul FLOPs of one execution of \p G (2*M*N*K per MatMul).
double matmulFlops(const graph::Graph &G);

/// Peak resident set size of this process, MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Workloads and layer probes
//===----------------------------------------------------------------------===//

/// End-to-end measurements shared with the layer probes.
struct E2E {
  /// Median op latency as measured per "<f32|int8>.<t1|tmax>" config,
  /// seconds.
  std::map<std::string, double> LatencyS;
  /// Serve-only facts for the serve.* layer metrics.
  double ServeP50Ms = 0, ServeGenLagMs = 0, ServeAvgFill = 0,
         ServeLingerRatio = 0, ServeRejects = 0;
};

/// Runs the end-to-end phase of the workload named in \p R.Opts; sets the
/// end-to-end metrics on \p R and returns what the layer probes reuse.
E2E runWorkload(const GraphSet &Set, double Seconds, Result &R);

/// Traced-run probes: times every layer call on the workload's graphs
/// and sets the per-layer metrics on \p R.
void runLayerProbes(const GraphSet &Set, const E2E &E, Result &R);

/// Names of the end-to-end metrics (every workload emits all of them).
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
