//===- layers.cpp - Per-layer probes of the traced run ----------------===//
//
// Each probe calls one layer's public functions on the workload's graphs
// (static form, nproc threads unless named otherwise) inside a span, and
// the per-layer time metrics are the span totals. Counts come from the
// compiled objects. perfbench/README.md maps every metric to the
// end-to-end metric it should move.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "baseline/loopnest.h"
#include "core/artifact.h"
#include "exec/program.h"
#include "kernels/brgemm.h"
#include "lower/driver.h"
#include "passes/pass.h"
#include "runtime/artifact_cache.h"
#include "support/rng.h"
#include "tir/stmt.h"
#include "tirpass/tirpass.h"
#include "verify/verify.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

namespace perfbench {

using namespace gc;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Runs \p Fn at least \p MinIters times and until \p Budget seconds have
/// passed; returns the median seconds per call. \p Fn returns whether its
/// call succeeded, and every call counts as one operation of \p R, so no
/// time can come from a failed call unnoticed.
double medianTime(const std::function<bool()> &Fn, double Budget, Result &R,
                  const std::string &What, int MinIters = 3) {
  std::vector<double> T;
  const double End = nowS() + Budget;
  while (static_cast<int>(T.size()) < MinIters || nowS() < End) {
    const double T0 = nowS();
    const bool Ok = Fn();
    T.push_back(nowS() - T0);
    R.count(Ok, What);
  }
  return median(T);
}

/// Counts one probe call by its status; returns whether it succeeded.
bool checked(Result &R, const Status &St, const std::string &What) {
  R.count(St.isOk(), "probe " + What + ": " + St.toString());
  return St.isOk();
}

/// The leading parallel loop of a top-level nest (the shape
/// tirpass::countParallelNests counts), or null.
const tir::ForNode *leadingParallelFor(const tir::Stmt &S) {
  const tir::StmtNode *Node = S.get();
  if (Node->kind() == tir::StmtNode::Kind::Seq) {
    const auto &Q = static_cast<const tir::SeqNode &>(*Node);
    if (Q.Body.size() != 1)
      return nullptr;
    Node = Q.Body[0].get();
  }
  if (Node->kind() != tir::StmtNode::Kind::For)
    return nullptr;
  const auto *For = static_cast<const tir::ForNode *>(Node);
  return For->Parallel ? For : nullptr;
}

/// Counts of one workload's compiled partitions.
struct Counts {
  double Partitions = 0, Fallback = 0, Nests = 0, FullNests = 0, Merges = 0,
         Arena = 0, ArenaNoReuse = 0, Instrs = 0, Calls = 0, Pars = 0,
         FoldedBytes = 0, OpsAfter = 0, CacheBytes = 0;
  std::vector<int64_t> Trips; ///< trip count per parallel nest (-1: unknown)
};

void countEntry(const tir::Func &F, int PoolSize, Counts &C) {
  for (const tir::Stmt &S : F.Body) {
    const tir::ForNode *For = leadingParallelFor(S);
    if (!For)
      continue;
    ++C.Nests;
    int64_t B = 0, E = 0, St = 1, Trip = -1;
    if (tir::asConstInt(For->Begin, B) && tir::asConstInt(For->End, E) &&
        tir::asConstInt(For->Step, St) && St > 0)
      Trip = (E - B + St - 1) / St;
    C.Trips.push_back(Trip);
    if (Trip >= PoolSize)
      ++C.FullNests;
  }
}

passes::PassOptions passOptions(int Threads) {
  const core::CompileOptions O = sessionOptions(Threads);
  passes::PassOptions P;
  P.Threads = Threads;
  P.FastSoftmax = O.FastSoftmax;
  P.EnableLowPrecision = O.EnableLowPrecision;
  P.EnableFineGrainFusion = O.EnableFineGrainFusion;
  P.EnableLayoutPropagation = O.EnableLayoutPropagation;
  P.PrimitivesMode = O.PrimitivesMode;
  return P;
}

/// Compile pipeline of one model, stage by stage, each in a span; the
/// artifact cache round trip and the verifiers on its compiled partition.
void probeCompile(const Model &M, const std::string &CacheDir, uint64_t Key,
                  Counts &C, Result &R) {
  const int T = maxThreads();
  api::Session Sess(sessionOptions(T));
  Expected<api::CompiledGraphPtr> CG = [&] {
    Span S("api.compile");
    return Sess.compile(M.Static);
  }();
  if (!checked(R, CG ? Status::ok() : CG.status(), M.Name + " compile"))
    return;
  C.Partitions += static_cast<double>((*CG)->numPartitions());
  C.Fallback += static_cast<double>((*CG)->numFallbackPartitions());
  Status VSt;
  {
    Span S("verify.graph");
    VSt = verify::verifyGraph(M.Static, "perfbench");
  }
  checked(R, VSt, M.Name + " verifyGraph");
  runtime::ArtifactCache::Config CC;
  CC.Mode = runtime::CacheMode::ReadWrite;
  CC.Dir = CacheDir;
  CC.MaxBytes = int64_t(1) << 30;
  runtime::ArtifactCache Cache(CC);
  for (size_t I = 0; I < (*CG)->numPartitions(); ++I) {
    std::shared_ptr<core::CompiledPartition> P = (*CG)->compiledPartition(I);
    if (!P)
      continue;
    {
      Span S("runtime.fold");
      P->ensureFolded();
    }
    const core::PartitionStats St = P->stats();
    C.FoldedBytes += static_cast<double>(St.FoldedBytes);
    C.Merges += St.CoarseGrainMerges;
    C.Arena += static_cast<double>(St.ScratchArenaBytes);
    C.ArenaNoReuse += static_cast<double>(St.ScratchArenaBytesNoReuse);
    countEntry(P->entry(), T, C);
    C.Instrs += static_cast<double>(P->bytecode().Code.size());
    C.Calls += static_cast<double>(P->bytecode().Calls.size());
    C.Pars += static_cast<double>(P->bytecode().Pars.size());
    {
      Span S("verify.func");
      VSt = verify::verifyFunc(P->entry(), "perfbench");
    }
    checked(R, VSt, M.Name + " verifyFunc");
    {
      Span S("verify.program");
      VSt = verify::verifyProgram(P->bytecode(), "perfbench");
    }
    checked(R, VSt, M.Name + " verifyProgram");
    {
      Span S("verify.loaded");
      VSt = verify::verifyLoadedProgram(P->bytecode(), "perfbench");
    }
    checked(R, VSt, M.Name + " verifyLoadedProgram");
    std::shared_ptr<const exec::Program> Prog;
    {
      Span S("exec.compile");
      Prog = exec::compileProgram(P->entry());
    }
    R.count(Prog && Prog->Code.size() == P->bytecode().Code.size() &&
                Prog->Calls.size() == P->bytecode().Calls.size(),
            "probe " + M.Name + " compileProgram: not the session's program");
    const uint64_t K = Key * 131 + I;
    Status Stored = [&] {
      Span S("runtime.cache_store");
      const std::vector<uint8_t> Bytes = core::ArtifactCodec::serialize(*P);
      return Cache.store(K, Bytes.data(), Bytes.size());
    }();
    if (!checked(R, Stored, M.Name + " cache store"))
      continue;
    bool Ok;
    {
      Span S("runtime.cache_load");
      auto Pool = std::make_shared<runtime::ThreadPool>(1);
      auto Loaded = Cache.load(K);
      Ok = Loaded && core::ArtifactCodec::deserialize(
                         Loaded->Payload, Loaded->PayloadBytes, Loaded->Map,
                         Pool);
    }
    R.count(Ok, "probe " + M.Name + " cache load");
  }
  C.CacheBytes = static_cast<double>(Cache.totalBytes());

  // Graph IR passes one at a time on a clone, then lowering.
  graph::Graph G = M.Static.clone();
  checked(R, G.finalize(), M.Name + " finalize");
  const passes::PassOptions PO = passOptions(T);
  std::map<std::string, int> Seen;
  for (std::unique_ptr<passes::Pass> &P : passes::buildStandardPipeline(PO)) {
    std::string Name = P->name();
    if (int N = ++Seen[Name]; N > 1)
      Name += "." + std::to_string(N);
    Span S("passes." + Name);
    P->run(G, PO);
  }
  C.OpsAfter += static_cast<double>(G.numOps());
  checked(R, verify::verifyGraph(G, "perfbench"),
          M.Name + " verifyGraph after the passes");
  lower::DriverOptions DO;
  DO.Threads = T;
  Status LSt;
  {
    Span S("lower");
    auto Lowered = lower::lowerGraph(G, DO);
    LSt = Lowered ? Status::ok() : Lowered.status();
  }
  checked(R, LSt, M.Name + " lowering");
}

/// Stream::execute minus CompiledPartition::execute on the same graph and
/// buffers, microseconds: the median over back-to-back pairs. Both calls'
/// outputs are checked every time.
double streamOverheadUs(const Model &M, Result &R) {
  api::Session Sess(sessionOptions(maxThreads()));
  auto CG = Sess.compile(M.Static);
  if (!checked(R, CG ? Status::ok() : CG.status(), M.Name + " compile"))
    return 0;
  if ((*CG)->numPartitions() != 1 || !(*CG)->compiledPartition(0))
    return 0;
  std::vector<runtime::TensorData> Outs;
  std::vector<runtime::TensorData *> In, Out;
  for (const runtime::TensorData &W : M.Expected)
    Outs.emplace_back(W.dtype(), W.shape());
  for (const runtime::TensorData &T : M.Inputs)
    In.push_back(const_cast<runtime::TensorData *>(&T));
  for (runtime::TensorData &T : Outs)
    Out.push_back(&T);
  api::Stream Str = Sess.stream();
  auto P = (*CG)->compiledPartition(0);
  std::vector<double> A, B;
  const double End = nowS() + 0.4;
  auto timed = [&](const std::function<Status()> &Call,
                   std::vector<double> &Into, const char *What) {
    for (runtime::TensorData &T : Outs)
      poison(T);
    const double T0 = nowS();
    const Status St = Call();
    Into.push_back(nowS() - T0);
    R.count(St.isOk() && outputsMatch(M, Outs, false),
            "probe " + M.Name + " " + What + ": " + St.toString());
  };
  std::vector<double> Diff;
  while (A.size() < 5 || nowS() < End) {
    timed([&] { return Str.execute(**CG, In, Out); }, A, "Stream::execute");
    timed([&] { return P->execute(In, Out); }, B,
          "CompiledPartition::execute");
    Diff.push_back(A.back() - B.back());
  }
  // Paired differences: a drift in the host's speed reaches both calls of
  // a pair alike.
  return median(Diff) * 1e6;
}

/// Share of executions served by a cached bucket specialization over a
/// seeded sequence of request sizes (1-8 rows).
double specHitRatio(const Model &M, uint64_t Seed, Result &R) {
  api::Session Sess(sessionOptions(maxThreads()));
  auto CG = Sess.compile(M.G);
  if (!checked(R, CG ? Status::ok() : CG.status(), M.Name + " compile"))
    return 0;
  Rng Gen(Seed * 31 + 7);
  const runtime::TensorData &In0 = M.Inputs[0];
  const graph::LogicalTensor &OutT = M.Static.tensor(M.Static.outputs()[0]);
  for (int I = 0; I < 200; ++I) {
    const int64_t Rows = Gen.uniformInt(1, In0.dim(0));
    runtime::TensorData In = runtime::TensorData::view(
        In0.dtype(), {Rows, In0.dim(1)},
        const_cast<void *>(In0.data()));
    runtime::TensorData Out(OutT.Ty, {Rows, OutT.Shape[1]});
    poison(Out);
    const Status St = Sess.stream().execute(**CG, {&In}, {&Out});
    R.count(St.isOk() && rowsMatch(M, Out),
            "probe " + M.Name + " bucketed execute: " + St.toString());
  }
  const double H = static_cast<double>((*CG)->specializationHits());
  const double Miss = static_cast<double>((*CG)->specializationMisses());
  return H + Miss > 0 ? H / (H + Miss) : 0;
}

/// Single-thread microkernel rates on BERT-like blocks (32x64 output
/// tile, K = 16 blocks of 64): GFLOP/s for f32, GOP/s for u8 x s8.
std::pair<double, double> brgemmRates(Result &R) {
  constexpr int64_t M = 32, N = 64, K = 64, Batch = 16;
  const double Ops = 2.0 * M * N * K * Batch;
  std::vector<float> A(M * K * Batch, 0.5f), B(K * N * Batch, 0.25f),
      C(M * N);
  kernels::BrgemmF32Args F;
  F.A = A.data();
  F.AStrideBatch = M * K;
  F.Lda = K;
  F.B = B.data();
  F.BStrideBatch = K * N;
  F.Ldb = N;
  F.C = C.data();
  F.Ldc = N;
  F.M = M;
  F.N = N;
  F.K = K;
  F.Batch = Batch;
  double TF;
  {
    Span S("kernels.brgemm_f32");
    TF = medianTime(
        [&] {
          kernels::brgemmF32(F);
          return true;
        },
        0.2, R, "probe brgemmF32", 50);
  }
  // Every output is sum over K x Batch of 0.5 x 0.25, exact in f32.
  R.count(std::all_of(C.begin(), C.end(),
                      [](float X) { return X == 0.125f * K * Batch; }),
          "probe brgemmF32: wrong result");
  std::vector<uint8_t> A8(M * K * Batch, 3);
  std::vector<int8_t> B8(K * N * Batch, 2);
  std::vector<int32_t> C32(M * N);
  kernels::BrgemmU8S8Args Q;
  Q.A = A8.data();
  Q.AStrideBatch = M * K;
  Q.Lda = K;
  Q.B = B8.data();
  Q.BStrideBatch = K * N;
  Q.NPadded = N;
  Q.C = C32.data();
  Q.Ldc = N;
  Q.M = M;
  Q.N = N;
  Q.K = K;
  Q.Batch = Batch;
  double TQ;
  {
    Span S("kernels.brgemm_u8s8");
    TQ = medianTime(
        [&] {
          kernels::brgemmU8S8(Q);
          return true;
        },
        0.2, R, "probe brgemmU8S8", 50);
  }
  R.count(std::all_of(C32.begin(), C32.end(),
                      [](int32_t X) { return X == 3 * 2 * K * Batch; }),
          "probe brgemmU8S8: wrong result");
  return {Ops / TF / 1e9, Ops / TQ / 1e9};
}

/// Median execute time (ms) of the dynamic graph \p M at \p B rows, timed
/// outside the server. The rows are the model's checked input rows
/// repeated, so the outputs are checked too.
double bucketExecMs(const Model &M, int64_t B, Result &R) {
  api::Session Sess(sessionOptions(maxThreads()));
  auto CG = Sess.compile(M.G);
  const std::string What = M.Name + " bucket " + std::to_string(B);
  if (!checked(R, CG ? Status::ok() : CG.status(), What + " compile"))
    return 0;
  const runtime::TensorData &In0 = M.Inputs[0];
  const graph::LogicalTensor &OutT = M.Static.tensor(M.Static.outputs()[0]);
  runtime::TensorData In(In0.dtype(), {B, In0.dim(1)});
  runtime::TensorData Out(OutT.Ty, {B, OutT.Shape[1]});
  const int64_t RowBytes = In0.numBytes() / In0.dim(0);
  for (int64_t Row = 0; Row < B; ++Row)
    std::memcpy(static_cast<char *>(In.data()) + Row * RowBytes,
                static_cast<const char *>(In0.data()) +
                    (Row % In0.dim(0)) * RowBytes,
                static_cast<size_t>(RowBytes));
  poison(Out);
  api::Stream Str = Sess.stream();
  double Ms;
  {
    Span S("serve.exec.b" + std::to_string(B));
    Ms = 1e3 * medianTime(
                   [&] { return Str.execute(**CG, {&In}, {&Out}).isOk(); },
                   0.1, R, "probe " + What + " execute", 20);
  }
  R.count(rowsMatch(M, Out), "probe " + What + ": wrong output");
  return Ms;
}

core::CompileOptions primitivesOptions(int Threads) {
  const core::CompileOptions S = sessionOptions(Threads);
  core::CompileOptions O = core::primitivesBaselineOptions(Threads);
  O.Exec = S.Exec;
  O.SplitIndependentPartitions = S.SplitIndependentPartitions;
  O.AsyncExec = S.AsyncExec;
  O.Bucketing = S.Bucketing;
  O.SpecCacheCap = S.SpecCacheCap;
  O.CacheMode = S.CacheMode;
  O.CacheDir = S.CacheDir;
  O.CacheMaxBytes = S.CacheMaxBytes;
  return O;
}

/// Closed-loop median latency (ms) of one pass over \p Models (static
/// forms) in a fresh session with \p Opts.
double steadyMs(const std::vector<Model> &Models,
                const core::CompileOptions &Opts, const std::string &Tag,
                Result &R) {
  api::Session Sess(Opts);
  api::Stream Str = Sess.stream();
  std::vector<Bound> Bs;
  for (const Model &M : Models) {
    auto B = bindModel(Sess, M);
    if (!checked(R, B ? Status::ok() : B.status(), Tag + " " + M.Name))
      return 0;
    const Status St = runBound(Str, *B);
    R.count(St.isOk() && outputsMatch(M, B->Outs, false),
            "probe " + Tag + " " + M.Name + ": " + St.toString());
    Bs.push_back(B.takeValue());
  }
  for (Bound &B : Bs)
    for (runtime::TensorData &T : B.Outs)
      poison(T);
  double Ms;
  {
    Span S(Tag);
    Ms = 1e3 * medianTime(
                   [&] {
                     bool Ok = true;
                     for (Bound &B : Bs)
                       Ok = Str.execute(*B.CG, B.InPtrs, B.OutPtrs).isOk() &&
                            Ok;
                     return Ok;
                   },
                   0.3, R, "probe " + Tag + " execute");
  }
  // The last timed execution's outputs.
  for (Bound &B : Bs)
    R.count(outputsMatch(*B.M, B.Outs, false),
            "probe " + Tag + " " + B.M->Name + ": wrong output");
  return Ms;
}

} // namespace

void runLayerProbes(const GraphSet &Set, const E2E &E, Result &R) {
  const size_t From = Tracer::get().size();
  const int T = maxThreads();
  const std::string Dir = R.Opts.Scratch + "/probe-cache";
  std::filesystem::remove_all(Dir);
  Counts C;
  uint64_t Key = R.Opts.Seed * 1000;
  for (const Model *M : Set.all()) {
    const Counts B = C;
    probeCompile(*M, Dir, ++Key, C, R);
    std::string Trips;
    for (size_t I = B.Trips.size(); I < C.Trips.size(); ++I)
      Trips += (Trips.empty() ? "" : " ") + std::to_string(C.Trips[I]);
    char Line[320];
    std::snprintf(Line, sizeof(Line),
                  "static %s: partitions %.0f, parallel nests %.0f (filling "
                  "the pool %.0f; trip counts %s), coarse merges %.0f, arena "
                  "bytes %.0f, instrs %.0f, call sites %.0f, par regions %.0f",
                  M->Name.c_str(), C.Partitions - B.Partitions,
                  C.Nests - B.Nests, C.FullNests - B.FullNests, Trips.c_str(),
                  C.Merges - B.Merges, C.Arena - B.Arena, C.Instrs - B.Instrs,
                  C.Calls - B.Calls, C.Pars - B.Pars);
    R.note(Line);
  }
  std::filesystem::remove_all(Dir);
  auto ms = [&](const std::string &Span) {
    return Tracer::get().total(Span, From) * 1e3;
  };

  R.set("api.compile_ms", ms("api.compile"), "ms");
  R.set("api.partitions", C.Partitions, "count");
  R.set("api.fallback_partitions", C.Fallback, "count");
  double Overhead = 0;
  for (const Model &M : Set.Int8)
    Overhead += streamOverheadUs(M, R);
  R.set("api.stream_overhead_us", Overhead, "us");
  double Hit = 0;
  for (const Model &M : Set.Int8)
    if (M.Dynamic)
      Hit = specHitRatio(M, R.Opts.Seed, R);
  R.set("api.spec_hit_ratio", Hit, "ratio");

  std::map<std::string, int> Seen;
  for (auto &P : passes::buildStandardPipeline(passOptions(T))) {
    std::string Name = P->name();
    if (int N = ++Seen[Name]; N > 1)
      Name += "." + std::to_string(N);
    R.set("passes." + Name + "_ms", ms("passes." + Name), "ms");
  }
  R.set("passes.ops_after", C.OpsAfter, "count");

  R.set("lower.ms", ms("lower"), "ms");
  R.set("lower.parallel_nests", C.Nests, "count");
  R.set("lower.pool_fill_ratio", C.Nests ? C.FullNests / C.Nests : 0,
        "ratio");
  R.set("tirpass.coarse_merges", C.Merges, "count");
  R.set("tirpass.arena_bytes", C.Arena, "bytes");
  R.set("tirpass.arena_reuse_ratio",
        C.ArenaNoReuse ? 1 - C.Arena / C.ArenaNoReuse : 0, "ratio");
  R.set("exec.compile_ms", ms("exec.compile"), "ms");
  R.set("exec.instrs", C.Instrs, "count");
  R.set("exec.call_sites", C.Calls, "count");
  R.set("exec.par_regions", C.Pars, "count");

  const auto [F32Rate, U8Rate] = brgemmRates(R);
  R.set("kernels.brgemm_f32_gflops", F32Rate, "GFLOP/s");
  R.set("kernels.brgemm_u8s8_gops", U8Rate, "GOP/s");
  // Efficiency needs a latency that is all execution: on serve, request
  // latency includes linger and queueing, so it is 0 there.
  const bool Serve = R.Opts.Workload == "serve";
  for (bool I8 : {false, true}) {
    double Flops = 0;
    for (const Model &M : Set.of(I8))
      Flops += Serve ? 0 : matmulFlops(M.Static);
    for (bool Max : {false, true}) {
      const std::string Key =
          std::string(I8 ? "int8" : "f32") + (Max ? ".tmax" : ".t1");
      auto It = E.LatencyS.find(Key);
      const double Lat = It == E.LatencyS.end() ? 0 : It->second;
      const double Peak = (I8 ? U8Rate : F32Rate) * (Max ? T : 1);
      R.set("kernels.efficiency." + Key,
            Lat > 0 && Peak > 0 ? Flops / Lat / 1e9 / Peak : 0, "ratio");
    }
  }

  R.set("runtime.fold_ms", ms("runtime.fold"), "ms");
  R.set("runtime.folded_mb", C.FoldedBytes / kMiB, "MB");
  {
    api::Session Sess(sessionOptions(T));
    runtime::ThreadPool &Pool = Sess.threadPool();
    std::vector<char> Ran(static_cast<size_t>(T), 0);
    Span S("runtime.pool_barrier");
    R.set("runtime.pool_barrier_us",
          1e6 * medianTime(
                    [&] {
                      Pool.parallelFor(0, T,
                                       [&](int64_t I, int) { Ran[I] = 1; });
                      const bool All = std::count(Ran.begin(), Ran.end(), 1) ==
                                       static_cast<std::ptrdiff_t>(T);
                      std::fill(Ran.begin(), Ran.end(), 0);
                      return All;
                    },
                    0.2, R, "probe parallelFor: an index did not run", 1000),
          "us");
  }
  R.set("runtime.cache_store_ms", ms("runtime.cache_store"), "ms");
  R.set("runtime.cache_load_ms", ms("runtime.cache_load"), "ms");
  R.set("runtime.cache_mb", C.CacheBytes / kMiB, "MB");
  R.set("verify.graph_ms", ms("verify.graph"), "ms");
  R.set("verify.func_ms", ms("verify.func"), "ms");
  R.set("verify.program_ms", ms("verify.program"), "ms");
  R.set("verify.loaded_ms", ms("verify.loaded"), "ms");

  // serve.*: only the serve workload has a server; elsewhere 0.
  R.set("serve.avg_fill", E.ServeAvgFill, "rows");
  R.set("serve.linger_flush_ratio", E.ServeLingerRatio, "ratio");
  R.set("serve.queue_rejects", E.ServeRejects, "count");
  double ExecAtFill = 0;
  for (int64_t B = 1; B <= 32; B *= 2) {
    double Ms = 0;
    if (Serve)
      Ms = bucketExecMs(Set.Int8[0], B, R);
    R.set("serve.exec_ms.b" + std::to_string(B), Ms, "ms");
    if (ExecAtFill == 0 && static_cast<double>(B) >= E.ServeAvgFill)
      ExecAtFill = Ms;
  }
  R.set("serve.overhead_ms", Serve ? E.ServeP50Ms - ExecAtFill : 0, "ms");
  R.set("serve.gen_lag_ms", E.ServeGenLagMs, "ms");

  for (bool I8 : {false, true}) {
    const std::string D = I8 ? "int8" : "f32";
    for (bool Max : {false, true}) {
      const int Th = Max ? T : 1;
      const std::string Key = D + (Max ? ".tmax" : ".t1");
      const double Prim =
          steadyMs(Set.of(I8), primitivesOptions(Th), "core.primitives", R);
      const double Gc =
          steadyMs(Set.of(I8), sessionOptions(Th), "core.graph_compiler", R);
      R.set("core.prim_ms." + Key, Prim, "ms");
      R.set("core.gc_over_prim." + Key, Gc > 0 ? Prim / Gc : 0, "ratio");
    }
    // The loop-nest baseline at nproc threads.
    std::vector<std::unique_ptr<baseline::LoopNestExecutor>> Execs;
    std::vector<std::vector<runtime::TensorData>> Outs;
    std::vector<std::vector<runtime::TensorData *>> InP, OutP;
    for (const Model &M : Set.of(I8)) {
      Execs.push_back(
          std::make_unique<baseline::LoopNestExecutor>(M.Static, T));
      Outs.emplace_back();
      InP.emplace_back();
      OutP.emplace_back();
      for (const runtime::TensorData &W : M.Expected)
        Outs.back().emplace_back(W.dtype(), W.shape());
      for (const runtime::TensorData &In : M.Inputs)
        InP.back().push_back(const_cast<runtime::TensorData *>(&In));
      for (runtime::TensorData &O : Outs.back())
        OutP.back().push_back(&O);
    }
    double Ms;
    {
      Span S("baseline.loopnest");
      Ms = 1e3 * medianTime(
                     [&] {
                       for (size_t I = 0; I < Execs.size(); ++I)
                         Execs[I]->execute(InP[I], OutP[I]);
                       return true;
                     },
                     0.3, R, "probe loop-nest execute");
    }
    R.set("baseline.loopnest_ms." + D, Ms, "ms");
    for (size_t I = 0; I < Execs.size(); ++I)
      if (!outputsMatch(Set.of(I8)[I], Outs[I], false))
        R.note("baseline: the loop-nest output of " + Set.of(I8)[I].Name +
               " is outside the tolerance (not counted: not the system "
               "under test)");
  }
}

} // namespace perfbench
