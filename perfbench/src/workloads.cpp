//===- workloads.cpp - The end-to-end workloads -----------------------===//
//
// bert runs a closed loop with one caller; serve drives a
// serve::Server with open-loop Poisson arrivals from one generator thread.
// Every workload also takes fresh sessions to a first correct inference of
// its graphs, with the artifact cache off and from a warm cache. See
// perfbench/README.md for why each workload exists and what it stresses.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "serve/server.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

namespace perfbench {

using namespace gc;
namespace fs = std::filesystem;

namespace {

/// One measured configuration: precision x session thread count.
struct Config {
  bool Int8;
  bool Max; ///< nproc threads (else 1)
  std::string key() const {
    return std::string(Int8 ? "int8" : "f32") + (Max ? ".tmax" : ".t1");
  }
  int threads() const { return Max ? maxThreads() : 1; }
};
const Config kConfigs[] = {
    {false, false}, {false, true}, {true, false}, {true, true}};

std::string fmt(const char *F, double A, double B = 0, double C = 0,
                double D = 0) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), F, A, B, C, D);
  return Buf;
}

/// Prints a latency sample summary: median, the highest percentile the
/// sample supports, and the sample count.
void noteLatency(const Result &R, const std::string &Name,
                 const std::vector<double> &Ms) {
  const double P = supportedPercentile(Ms.size());
  R.note(Name + fmt(": median %.4f ms, p%g %.4f ms, n=%g", median(Ms),
                    P * 100, quantile(Ms, P), static_cast<double>(Ms.size())));
}

/// Static structure of a compiled graph: partitions, and per compiled
/// partition its coarse-grain merges, parallel nests, arena bytes and
/// bytecode sizes. Must repeat exactly across compiles.
std::vector<int64_t> staticCounts(const api::CompiledGraph &CG) {
  std::vector<int64_t> V{static_cast<int64_t>(CG.numPartitions())};
  for (size_t I = 0; I < CG.numPartitions(); ++I) {
    auto P = CG.compiledPartition(I);
    if (!P)
      continue;
    const core::PartitionStats S = P->stats();
    V.insert(V.end(), {S.CoarseGrainMerges, S.ParallelNests,
                       S.ScratchArenaBytes,
                       static_cast<int64_t>(P->bytecode().Code.size()),
                       static_cast<int64_t>(P->bytecode().Calls.size())});
  }
  return V;
}

/// The compiled graph a model's executions actually run: the bucket
/// specialization for a polymorphic graph.
const api::CompiledGraph &executedGraph(const Bound &B) {
  if (B.CG->isPolymorphic())
    if (auto Spec = B.CG->cachedSpecializationFor(B.M->Inputs[0].dim(0)))
      return *Spec;
  return *B.CG;
}

//===----------------------------------------------------------------------===//
// Loads: fresh session -> checked first inference
//===----------------------------------------------------------------------===//

/// Takes \p Models from nothing to a checked first inference in one fresh
/// session; returns the seconds spent in session construction, compile and
/// first execution (checks excluded), at the reference host speed. The
/// compiles run on this thread, pinned to \p Cycle's next CPU once the
/// session has started its pool.
/// \p DiskHits receives the session's artifact-cache hits.
double loadOnce(const std::vector<const Model *> &Models, int Threads,
                runtime::CacheMode Mode, const std::string &Dir,
                const std::string &What, CpuCycle &Cycle, Result &R,
                uint64_t *DiskHits = nullptr) {
  Span Top("load." + What);
  // The compiles run on one CPU, folding and first executions on all.
  const RefSpeed Speed(&Cycle);
  double Spent = 0;
  double T0 = nowS();
  api::Session Sess(sessionOptions(Threads, Mode, Dir));
  api::Stream Str = Sess.stream();
  Spent += nowS() - T0;
  Cycle.pinNext();
  for (const Model *M : Models) {
    T0 = nowS();
    Expected<Bound> B = [&] {
      Span S("api.compile");
      return bindModel(Sess, *M);
    }();
    const Status St = B ? runBound(Str, *B) : B.status();
    Spent += nowS() - T0;
    R.count(St.isOk() && outputsMatch(*M, B->Outs, R.Opts.Corrupt),
            M->Name + " first inference (" + What + "): " + St.toString());
  }
  Cycle.unpin();
  Spent = Speed.scaled(Spent);
  if (DiskHits)
    *DiskHits = Sess.diskCacheHits();
  return Spent;
}

/// Load samples of one run. The warm cache is stored once per run, into
/// an empty directory; every later warm load reads it.
struct LoadSamples {
  std::vector<double> Cold, Store, Warm;
  CpuCycle Cycle;
  std::string Dir;
  ~LoadSamples() {
    if (!Dir.empty())
      fs::remove_all(Dir);
  }
};

/// Cold (cache off) and warm (from the run's cache directory) loads of
/// \p Models at nproc threads, repeated until \p Budget seconds are spent
/// (at least once). The first call stores the cache directory first.
void loadRounds(const std::vector<const Model *> &Models, double Budget,
                Result &R, LoadSamples &Out) {
  const double End = nowS() + Budget;
  const int T = maxThreads();
  if (Out.Dir.empty()) {
    Out.Dir = R.Opts.Scratch + "/warm-cache";
    fs::remove_all(Out.Dir);
    Out.Store.push_back(loadOnce(Models, T, runtime::CacheMode::ReadWrite,
                                 Out.Dir, "store", Out.Cycle, R));
  }
  do {
    Out.Cold.push_back(loadOnce(Models, T, runtime::CacheMode::Off, "",
                                "cold", Out.Cycle, R));
    uint64_t Hits = 0;
    Out.Warm.push_back(loadOnce(Models, T, runtime::CacheMode::Read, Out.Dir,
                                "warm", Out.Cycle, R, &Hits));
    R.count(Hits >= Models.size(),
            fmt("warm load served %g of %g graphs from the artifact cache",
                static_cast<double>(Hits),
                static_cast<double>(Models.size())));
  } while (nowS() < End);
}

void setLoadMetrics(const LoadSamples &L, Result &R) {
  R.set("cold_load_s", median(L.Cold), "s");
  R.set("warm_load_s", median(L.Warm), "s");
  R.note(fmt("loads at the reference host speed: cold %.4f s, warm %.4f s, "
             "n=%g; one store %.4f s",
             median(L.Cold), median(L.Warm),
             static_cast<double>(L.Cold.size()), median(L.Store)));
}

//===----------------------------------------------------------------------===//
// bert: closed loop, one caller
//===----------------------------------------------------------------------===//

/// Sessions at 1 and nproc threads, each with every model of the set
/// compiled and run once (fold included).
struct Fixture {
  std::unique_ptr<api::Session> Sess[2];
  std::vector<api::Stream> Streams;
  std::vector<Bound> Bound_[4]; ///< per kConfigs index
  std::vector<int64_t> Counts;  ///< static counts of the nproc session
};

std::unique_ptr<Fixture> makeFixture(const GraphSet &Set, Result &R) {
  auto F = std::make_unique<Fixture>();
  for (int Max = 0; Max < 2; ++Max) {
    F->Sess[Max] = std::make_unique<api::Session>(
        sessionOptions(Max ? maxThreads() : 1));
    F->Streams.push_back(F->Sess[Max]->stream());
  }
  for (int C = 0; C < 4; ++C) {
    const Config &Cfg = kConfigs[C];
    for (const Model &M : Set.of(Cfg.Int8)) {
      Expected<Bound> B = bindModel(*F->Sess[Cfg.Max], M);
      if (!B) {
        R.count(false, M.Name + " compile: " + B.status().toString());
        continue;
      }
      const Status St = runBound(F->Streams[Cfg.Max], *B);
      R.count(St.isOk() && outputsMatch(M, B->Outs, R.Opts.Corrupt),
              M.Name + " first inference " + Cfg.key());
      if (Cfg.Max) {
        const std::vector<int64_t> V = staticCounts(executedGraph(*B));
        F->Counts.insert(F->Counts.end(), V.begin(), V.end());
      }
      F->Bound_[C].push_back(B.takeValue());
    }
  }
  return F;
}

/// Rounds per run. Set-up, loads and every configuration are measured in
/// each round, so drifts in the host's speed over a run reach every metric
/// alike; the static counts must repeat exactly from round to round.
constexpr int kRounds = 12;

/// The end of round \p Round of a run that started at \p Start.
double roundEnd(double Start, double Seconds, int Round) {
  return Start + Seconds * (Round + 1) / kRounds;
}

/// Latency samples of one configuration (ms): as measured, and at the
/// reference host speed. A failed operation's sample is infinite.
struct Samples {
  std::vector<double> Ms, RefMs;
};

/// One timed inference of configuration \p C: every graph of the set in
/// turn, outputs poisoned before and checked after. An nproc configuration
/// gauges the host's speed on every CPU of \p Cycle.
void timedInference(Fixture &F, int C, CpuCycle &Cycle, Result &R,
                    Samples &S, int64_t Op) {
  Span Top("e2e.inference." + kConfigs[C].key(), Op);
  const api::Stream &Str = F.Streams[kConfigs[C].Max];
  Status St;
  for (Bound &B : F.Bound_[C])
    for (runtime::TensorData &T : B.Outs)
      poison(T);
  const RefSpeed Speed(kConfigs[C].Max ? &Cycle : nullptr);
  const double T0 = nowS();
  for (Bound &B : F.Bound_[C]) {
    Span X("api.execute");
    if (St.isOk())
      St = Str.execute(*B.CG, B.InPtrs, B.OutPtrs);
  }
  const double Lat = nowS() - T0;
  bool Ok = St.isOk();
  for (Bound &B : F.Bound_[C])
    Ok = Ok && outputsMatch(*B.M, B.Outs, R.Opts.Corrupt);
  // Gauged after the checks, when the pool's workers have gone idle.
  const double RefLat = Speed.scaled(Lat);
  R.count(Ok, "inference " + kConfigs[C].key() + ": " + St.toString());
  constexpr double Inf = std::numeric_limits<double>::infinity();
  S.Ms.push_back(Ok ? Lat * 1e3 : Inf);
  S.RefMs.push_back(Ok ? RefLat * 1e3 : Inf);
}

/// Runs every configuration's closed loop until \p End, sharing the time
/// evenly. A 1-thread configuration runs an equal share of its slice on
/// every CPU; an nproc one spans them all anyway. Nothing here starts a
/// thread, which would inherit the pinned mask.
void closedLoopSlices(Fixture &F, double End, Result &R, Samples (&S)[4],
                      int64_t &Op) {
  CpuCycle Cycle;
  for (int C = 0; C < 4; ++C) {
    const double SliceEnd = nowS() + std::max(0.0, End - nowS()) / (4 - C);
    const size_t Parts =
        kConfigs[C].Max ? 1 : std::max<size_t>(1, Cycle.size());
    for (size_t Part = 0; Part < Parts; ++Part) {
      if (!kConfigs[C].Max)
        Cycle.pinNext();
      const double PartEnd =
          nowS() + std::max(0.0, SliceEnd - nowS()) / (Parts - Part);
      do
        timedInference(F, C, Cycle, R, S[C], Op++);
      while (nowS() < PartEnd);
    }
    Cycle.unpin();
  }
}

/// Sets "<f32|int8>_ms.<t1|tmax>" from per-configuration samples: the
/// median of \p Metric's, which are \p Raw's or their values at the
/// reference host speed.
void setLatencyMetrics(const std::vector<double> (&Metric)[4],
                       const std::vector<double> (&Raw)[4],
                       const std::string &What, Result &R, E2E &E) {
  for (int C = 0; C < 4; ++C) {
    const std::string Key = kConfigs[C].key();
    const size_t Dot = Key.find('.');
    R.set(Key.substr(0, Dot) + "_ms" + Key.substr(Dot), median(Metric[C]),
          "ms");
    E.LatencyS[Key] = median(Raw[C]) / 1e3;
    noteLatency(R, Key + What + " as measured", Raw[C]);
    if (&Metric[C] != &Raw[C])
      noteLatency(R, Key + What + " at the reference host speed", Metric[C]);
  }
}

/// Every bert run checks the small BERT layers against the reference
/// interpreter at both thread counts.
void checkAnchors(const GraphSet &Set, Result &R) {
  for (int T : {1, maxThreads()}) {
    api::Session Sess(sessionOptions(T));
    for (const Model &M : Set.Anchors) {
      Expected<Bound> B = bindModel(Sess, M);
      const Status St = B ? runBound(Sess.stream(), *B) : B.status();
      R.count(St.isOk() && outputsMatch(M, B->Outs, R.Opts.Corrupt),
              M.Name + " against the reference");
    }
  }
}

E2E runClosedLoop(const GraphSet &Set, double Seconds, Result &R) {
  E2E E;
  checkAnchors(Set, R);
  std::vector<double> Setup;
  Samples S[4];
  std::vector<size_t> RoundStart[4];
  std::vector<int64_t> Counts;
  LoadSamples L;
  std::unique_ptr<Fixture> F;
  int64_t Op = 0;
  const double Start = nowS();
  for (int Round = 0; Round < kRounds; ++Round) {
    // Loads in every round, next to the fixture's idle sessions; set-up
    // afresh in every other round: a BERT-Large set-up takes about 0.6 s,
    // too much to repeat in every round.
    loadRounds(Set.all(), 0.15 * Seconds / kRounds, R, L);
    if (Round % 2 == 0) {
      F.reset(); // one fixture's sessions at a time
      const RefSpeed Speed(&L.Cycle);
      const double T0 = nowS();
      rebuildGraphs(R.Opts.Workload);
      F = makeFixture(Set, R);
      Setup.push_back(Speed.scaled(nowS() - T0));
      if (Round == 0)
        Counts = F->Counts;
      else
        R.count(F->Counts == Counts, "static counts differ between compiles");
    }
    for (int C = 0; C < 4; ++C)
      RoundStart[C].push_back(S[C].Ms.size());
    closedLoopSlices(*F, roundEnd(Start, Seconds, Round), R, S, Op);
  }
  F.reset();
  // Per-round medians show how much the host's speed moved in this run.
  std::vector<double> Raw[4], Ref[4];
  for (int C = 0; C < 4; ++C) {
    RoundStart[C].push_back(S[C].Ms.size());
    for (auto [V, Tag] : {std::pair{&S[C].Ms, " as measured"},
                          std::pair{&S[C].RefMs, " at the reference speed"}}) {
      std::string Line = kConfigs[C].key() + " per-round medians (ms)" + Tag +
                         ":";
      for (size_t I = 0; I + 1 < RoundStart[C].size(); ++I)
        Line += fmt(" %.4g", median(std::vector<double>(
                                 V->begin() + RoundStart[C][I],
                                 V->begin() + RoundStart[C][I + 1])));
      R.note(Line);
    }
    Raw[C] = std::move(S[C].Ms);
    Ref[C] = std::move(S[C].RefMs);
  }
  R.set("setup_s", median(Setup), "s");
  setLatencyMetrics(Ref, Raw, "", R, E);
  setLoadMetrics(L, R);
  return E;
}

//===----------------------------------------------------------------------===//
// serve: open-loop Poisson arrivals into serve::Server
//===----------------------------------------------------------------------===//

/// The fixed rate ladder (requests/s); the middle rate is kMidRate.
constexpr double kRates[] = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr double kMidRate = 4000;
/// Latency limit on p99 for serve_max_rps.
constexpr double kLimitMs = 2.0;
constexpr int64_t kMaxRows = 8;
constexpr size_t kPoolSize = 64;

/// Seeded requests of one precision and the solo Stream::execute output
/// of each, per session thread count.
struct RequestPool {
  const Model *M = nullptr;
  std::vector<runtime::TensorData> In;
  std::vector<runtime::TensorData> Solo[2]; ///< [Max]
};

RequestPool makePool(const Model &M, uint64_t Seed, Result &R) {
  RequestPool P;
  P.M = &M;
  Rng Gen(Seed * 7919 + M.Int8);
  const graph::LogicalTensor &InT = M.Static.tensor(M.Static.inputs()[0]);
  for (size_t I = 0; I < kPoolSize; ++I) {
    runtime::TensorData D(InT.Ty, {Gen.uniformInt(1, kMaxRows), InT.Shape[1]});
    D.fillRandom(Gen);
    if (InT.Ty == DataType::F32) {
      float *X = D.dataAs<float>();
      for (int64_t J = 0, E = D.numElements(); J < E; ++J)
        X[J] *= 0.5f;
    }
    P.In.push_back(std::move(D));
  }
  const graph::LogicalTensor &OutT = M.Static.tensor(M.Static.outputs()[0]);
  for (int Max = 0; Max < 2; ++Max) {
    api::Session Sess(sessionOptions(Max ? maxThreads() : 1));
    auto CG = Sess.compile(M.G);
    for (runtime::TensorData &In : P.In) {
      runtime::TensorData Out(OutT.Ty, {In.dim(0), OutT.Shape[1]});
      const Status St =
          CG ? Sess.stream().execute(**CG, {&In}, {&Out}) : CG.status();
      R.count(St.isOk(), M.Name + " solo request: " + St.toString());
      P.Solo[Max].push_back(std::move(Out));
    }
    // The solo path itself agrees with the reference interpreter on the
    // model's checked input.
    if (CG) {
      Bound B = bindCompiled(*CG, M);
      const Status St = runBound(Sess.stream(), B);
      R.count(St.isOk() && outputsMatch(M, B.Outs, R.Opts.Corrupt),
              M.Name + " solo path against the reference");
    }
  }
  return P;
}

struct Phase {
  std::vector<double> LatMs; ///< inf for failed or refused requests
  std::vector<double> LagMs;
  double DrainMs = 0;
  serve::ServerStats Before, After;
};

/// One open-loop phase: Poisson arrivals at \p Rate for \p Dur seconds
/// from this (the generator) thread; latency runs from each request's due
/// time to the moment the generator sees it answered.
Phase runPhase(serve::Server &Srv, serve::ModelId Id, const RequestPool &P,
               int Max, double Rate, double Dur, Rng &Gen, Result &R) {
  struct Slot {
    runtime::TensorData Buf, View;
    serve::Ticket T;
    size_t Req = 0;
    double Due = 0;
    bool Busy = false;
  };
  constexpr size_t kRing = 2048;
  const graph::LogicalTensor &OutT =
      P.M->Static.tensor(P.M->Static.outputs()[0]);
  std::vector<Slot> Ring(kRing);
  for (Slot &S : Ring)
    S.Buf = runtime::TensorData(OutT.Ty, {kMaxRows, OutT.Shape[1]});
  Phase Ph;
  Ph.Before = Srv.stats();
  std::vector<size_t> Outstanding;
  double LastDone = 0, LastDue = 0;
  auto finish = [&](Slot &S, double Now) {
    const Status St = S.T.wait();
    const runtime::TensorData &Want = P.Solo[Max][S.Req];
    bool Ok = St.isOk();
    if (Ok) {
      if (R.Opts.Corrupt)
        static_cast<uint8_t *>(S.View.data())[0] ^= 0x80;
      Ok = bitIdentical(S.View, Want);
    }
    R.count(Ok, P.M->Name + " response: " + St.toString());
    Ph.LatMs.push_back(Ok ? (Now - S.Due) * 1e3
                          : std::numeric_limits<double>::infinity());
    Tracer::get().record("serve.request", S.Due, Now, S.Req);
    LastDone = std::max(LastDone, Now);
    S.Busy = false;
  };
  auto poll = [&](double Now) {
    size_t Keep = 0;
    for (size_t I : Outstanding) {
      if (Ring[I].T.query())
        finish(Ring[I], Now);
      else
        Outstanding[Keep++] = I;
    }
    Outstanding.resize(Keep);
  };
  const double T0 = nowS();
  double Due = T0;
  for (size_t N = 0;; ++N) {
    Due += -std::log(1.0 - Gen.uniform(0, 0.999999f)) / Rate;
    if (Due > T0 + Dur)
      break;
    double Now = nowS();
    while (Now < Due) {
      poll(Now);
      if (Outstanding.empty() && Due - Now > 300e-6)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(Due - Now - 200e-6));
      Now = nowS();
    }
    Ph.LagMs.push_back((Now - Due) * 1e3);
    Slot &S = Ring[N % kRing];
    if (S.Busy) {
      Outstanding.erase(
          std::find(Outstanding.begin(), Outstanding.end(), N % kRing));
      finish(S, nowS());
    }
    S.Req = static_cast<size_t>(Gen.uniformInt(0, kPoolSize - 1));
    S.Due = Due;
    LastDue = Due;
    const runtime::TensorData &In = P.In[S.Req];
    S.View = runtime::TensorData::view(OutT.Ty, {In.dim(0), OutT.Shape[1]},
                                       S.Buf.data());
    poison(S.View);
    Expected<serve::Ticket> Tk = [&] {
      Span Sub("serve.submit", static_cast<int64_t>(S.Req));
      return Srv.submit(Id, {const_cast<runtime::TensorData *>(&In)},
                        {&S.View});
    }();
    if (!Tk) {
      R.count(false, "request refused: " + Tk.status().toString());
      Ph.LatMs.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    S.T = Tk.takeValue();
    S.Busy = true;
    Outstanding.push_back(N % kRing);
  }
  while (!Outstanding.empty()) {
    poll(nowS());
    std::this_thread::yield();
  }
  Ph.DrainMs = std::max(0.0, LastDone - LastDue) * 1e3;
  Ph.After = Srv.stats();
  return Ph;
}

/// Servers at 1 and nproc threads, each serving the f32 and int8 graphs,
/// with every batch bucket compiled by one solo request of its size.
struct ServeRig {
  std::unique_ptr<serve::Server> Srv[2];
  serve::ModelId Id[2][2]; ///< [Max][Int8]
};

std::unique_ptr<ServeRig> makeRig(const GraphSet &Set, Result &R) {
  auto Rig = std::make_unique<ServeRig>();
  serve::ServerOptions SO;
  SO.MaxBatch = 32;
  SO.LingerUs = 200;
  SO.QueueCap = 16384; // overload shows as latency, not refusals
  SO.Workers = 2;
  for (int Max = 0; Max < 2; ++Max) {
    Rig->Srv[Max] = std::make_unique<serve::Server>(
        SO, sessionOptions(Max ? maxThreads() : 1));
    for (int I8 = 0; I8 < 2; ++I8) {
      const Model &M = Set.of(I8)[0];
      auto Id = Rig->Srv[Max]->load(M.G);
      if (!Id) {
        R.count(false, M.Name + " load: " + Id.status().toString());
        continue;
      }
      Rig->Id[Max][I8] = *Id;
      const graph::LogicalTensor &InT = M.Static.tensor(M.Static.inputs()[0]);
      const graph::LogicalTensor &OutT =
          M.Static.tensor(M.Static.outputs()[0]);
      for (int64_t Rows = 1; Rows <= 32; Rows *= 2) {
        runtime::TensorData In(InT.Ty, {Rows, InT.Shape[1]});
        runtime::TensorData Out(OutT.Ty, {Rows, OutT.Shape[1]});
        In.fillConstant(1);
        auto T = Rig->Srv[Max]->submit(*Id, {&In}, {&Out});
        const Status St = T ? T->wait() : T.status();
        R.count(St.isOk(), M.Name + " bucket warm-up: " + St.toString());
      }
    }
  }
  return Rig;
}

E2E runServe(const GraphSet &Set, double Seconds, Result &R) {
  E2E E;
  // Solo outputs first, while no server pool is alive.
  RequestPool Pools[2] = {makePool(Set.F32[0], R.Opts.Seed, R),
                          makePool(Set.Int8[0], R.Opts.Seed, R)};
  Rng Gen(R.Opts.Seed * 104729 + 3);
  std::vector<double> Setup, Mid[4], MidLag;
  std::map<double, std::vector<double>> Ladder;
  std::map<double, double> Drain;
  double Batches = 0, Rows = 0, Lingers = 0;
  LoadSamples L;
  std::vector<double> Others;
  for (double Rate : kRates)
    if (Rate != kMidRate)
      Others.push_back(Rate);
  const double Start = nowS();
  for (int Round = 0; Round < kRounds; ++Round) {
    loadRounds(Set.all(), 0.15 * Seconds / kRounds, R, L);
    const RefSpeed Speed(&L.Cycle);
    const double T0 = nowS();
    rebuildGraphs(R.Opts.Workload);
    std::unique_ptr<ServeRig> Rig = makeRig(Set, R);
    Setup.push_back(Speed.scaled(nowS() - T0));
    // The middle rate on every configuration, and one more ladder rate
    // on the int8 graph at nproc threads.
    const bool HasLadder = Round < static_cast<int>(Others.size());
    const double Dur = std::max(0.05, roundEnd(Start, Seconds, Round) -
                                          nowS()) /
                       (4 + HasLadder);
    for (int C = 0; C < 4; ++C) {
      const Config &Cfg = kConfigs[C];
      Phase Ph = runPhase(*Rig->Srv[Cfg.Max], Rig->Id[Cfg.Max][Cfg.Int8],
                          Pools[Cfg.Int8], Cfg.Max, kMidRate, Dur, Gen, R);
      Mid[C].insert(Mid[C].end(), Ph.LatMs.begin(), Ph.LatMs.end());
      if (Cfg.Int8 && Cfg.Max) {
        MidLag.insert(MidLag.end(), Ph.LagMs.begin(), Ph.LagMs.end());
        Ladder[kMidRate].insert(Ladder[kMidRate].end(), Ph.LatMs.begin(),
                                Ph.LatMs.end());
        Drain[kMidRate] = std::max(Drain[kMidRate], Ph.DrainMs);
        Batches += static_cast<double>(Ph.After.Batches - Ph.Before.Batches);
        Rows += static_cast<double>(Ph.After.BatchedRows -
                                    Ph.Before.BatchedRows);
        Lingers += static_cast<double>(Ph.After.LingerFlushes -
                                       Ph.Before.LingerFlushes);
        E.ServeRejects += static_cast<double>(Ph.After.RejectedQueueFull -
                                              Ph.Before.RejectedQueueFull);
      }
    }
    if (HasLadder) {
      const double Rate = Others[static_cast<size_t>(Round)];
      Phase Ph = runPhase(*Rig->Srv[1], Rig->Id[1][1], Pools[1], 1, Rate, Dur,
                          Gen, R);
      Ladder[Rate] = Ph.LatMs;
      Drain[Rate] = Ph.DrainMs;
    }
  }
  R.set("setup_s", median(Setup), "s");
  // Request latency is mostly waiting (linger, queueing), not computing,
  // so it is not scaled to the reference host speed.
  setLatencyMetrics(Mid, Mid, fmt(" requests at %g/s", kMidRate), R, E);
  // serve_max_rps: the highest ladder rate whose p99 meets the limit and
  // whose backlog drains within the limit after the last arrival, with
  // every lower rate meeting it too.
  double MaxRps = 0;
  bool AllMet = true;
  for (const auto &[Rate, Lat] : Ladder) {
    const double P99 = quantile(Lat, 0.99);
    const bool Meets = P99 <= kLimitMs && Drain[Rate] <= kLimitMs;
    AllMet = AllMet && Meets;
    if (AllMet)
      MaxRps = Rate;
    R.note(fmt("serve int8.tmax at %g/s: p50 %.4f ms, p99 %.4f ms", Rate,
               median(Lat), P99) +
           fmt(", drain %.3f ms, n=%g", Drain[Rate],
               static_cast<double>(Lat.size())) +
           (Meets ? "" : "  (misses the limit)"));
  }
  E.ServeP50Ms = median(Mid[3]);
  R.note(fmt("serve_p50_ms %.4f ms, serve_p99_ms %.4f ms, serve_max_rps %g "
             "(p99 limit %g ms)",
             E.ServeP50Ms, quantile(Mid[3], 0.99), MaxRps, kLimitMs));
  E.ServeAvgFill = Batches ? Rows / Batches : 0;
  E.ServeLingerRatio = Batches ? Lingers / Batches : 0;
  E.ServeGenLagMs = quantile(MidLag, 0.99);
  setLoadMetrics(L, R);
  return E;
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},         {"rss_peak_mb", "MB"},
      {"f32_ms.t1", "ms"},      {"f32_ms.tmax", "ms"},
      {"int8_ms.t1", "ms"},     {"int8_ms.tmax", "ms"},
      {"cold_load_s", "s"},     {"warm_load_s", "s"}};
  return M;
}

E2E runWorkload(const GraphSet &Set, double Seconds, Result &R) {
  const std::string &W = R.Opts.Workload;
  E2E E = W == "serve" ? runServe(Set, Seconds, R)
                       : runClosedLoop(Set, Seconds, R);
  R.set("rss_peak_mb", peakRssMb(), "MB");
  return E;
}

} // namespace perfbench
