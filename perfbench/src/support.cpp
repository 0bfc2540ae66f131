//===- support.cpp - Statistics, results, tracing, checks -------------===//

#include "bench.h"

#include "graph/op_kind.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <thread>

namespace perfbench {

using namespace gc;

double nowS() {
  static const Clock::time_point Start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

int maxThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return CPU_COUNT(&Set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

CpuCycle::CpuCycle() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
}

void CpuCycle::pinNext() {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  Pinned = sched_setaffinity(0, sizeof(Set), &Set) == 0 || Pinned;
}

void CpuCycle::unpin() {
  if (!Pinned)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
  Pinned = false;
}

double calibrationS() {
  // 2^20 multiply-adds on three 16 KiB tiles: the caller's core, not the
  // memory system, sets the time.
  constexpr int N = 64;
  thread_local std::vector<float> A(N * N, 1.0f), B(N * N, 0.5f),
      C(N * N, 0.0f);
  const double T0 = nowS();
  for (int Rep = 0; Rep < 4; ++Rep)
    for (int I = 0; I < N; ++I)
      for (int K = 0; K < N; ++K) {
        const float X = A[I * N + K];
        for (int J = 0; J < N; ++J)
          C[I * N + J] += X * B[K * N + J];
      }
  // Keeps the stores: C is read by nothing else.
  asm volatile("" : : "r"(C.data()) : "memory");
  return nowS() - T0;
}

std::vector<double> RefSpeed::measure() const {
  if (!Cpus)
    return {calibrationS()};
  std::vector<double> T;
  for (size_t I = 0; I < Cpus->size(); ++I) {
    Cpus->pinNext();
    T.push_back(calibrationS());
  }
  Cpus->unpin();
  return T;
}

double RefSpeed::scaled(double Seconds) const {
  const std::vector<double> After = measure();
  double Sum = 0;
  for (size_t I = 0; I < After.size(); ++I)
    Sum += std::min(Before[I], After[I]);
  return Sum > 0 ? Seconds * kCalibRefS * static_cast<double>(After.size()) /
                       Sum
                 : Seconds;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double supportedPercentile(size_t N) {
  double Best = 0.5;
  for (double P : {0.9, 0.99, 0.999})
    if (static_cast<double>(N) * (1 - P) >= 10)
      Best = P;
  return Best;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

double Result::get(const std::string &Name) const {
  auto It = Metrics.find(Name);
  return It == Metrics.end() ? 0.0 : It->second.first;
}

void Result::count(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    note("FAILED: " + What);
}

void Result::note(const std::string &Line) const {
  std::printf("# %s\n", Line.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int64_t> OpenSpans;

uint32_t threadTag() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tag = Next++;
  return Tag;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::open(const std::string &Name, int64_t Request) {
  SpanRecord S;
  S.Name = Name;
  S.Start = nowS();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Request = Request;
  S.Thread = threadTag();
  std::lock_guard<std::mutex> Lock(Mutex);
  S.Id = static_cast<int64_t>(Spans.size());
  Spans.push_back(std::move(S));
  OpenSpans.push_back(Spans.back().Id);
  return Spans.back().Id;
}

void Tracer::close(int64_t Id) {
  const double End = nowS();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].End = End;
}

void Tracer::record(const std::string &Name, double Start, double End,
                    int64_t Request) {
  if (!Enabled)
    return;
  SpanRecord S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Request = Request;
  S.Thread = threadTag();
  std::lock_guard<std::mutex> Lock(Mutex);
  S.Id = static_cast<int64_t>(Spans.size());
  Spans.push_back(std::move(S));
}

double Tracer::bytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double B = static_cast<double>(Spans.capacity() * sizeof(SpanRecord));
  for (const SpanRecord &S : Spans)
    B += static_cast<double>(S.Name.size());
  return B;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

double Tracer::total(const std::string &Name, size_t From) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double Sum = 0;
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Name == Name)
      Sum += Spans[I].End - Spans[I].Start;
  return Sum;
}

void Tracer::write(
    const std::string &TracePath, const std::string &FlatPath,
    const std::map<std::string, std::pair<double, std::string>> &Metrics)
    const {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent never overlap here: each is opened
  // and closed on the parent's thread, or is a request recorded inside it).
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Kids[static_cast<size_t>(S.Parent)].push_back({S.Start, S.End});
  std::map<std::string, std::pair<double, double>> ByName; // total, self
  std::map<std::string, uint64_t> Count;
  for (const SpanRecord &S : Spans) {
    auto &K = Kids[static_cast<size_t>(S.Id)];
    std::sort(K.begin(), K.end());
    double Covered = 0, Hi = S.Start;
    for (auto [B, E] : K) {
      B = std::max(B, Hi);
      E = std::min(E, S.End);
      if (E > B) {
        Covered += E - B;
        Hi = E;
      }
    }
    auto &Acc = ByName[S.Name];
    Acc.first += S.End - S.Start;
    Acc.second += S.End - S.Start - Covered;
    ++Count[S.Name];
  }
  if (std::FILE *F = std::fopen(TracePath.c_str(), "w")) {
    std::fprintf(F, "{\"traceEvents\":[");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRecord &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   I ? "," : "", jsonEscape(S.Name).c_str(), S.Thread,
                   S.Start * 1e6, (S.End - S.Start) * 1e6, (long long)S.Id,
                   (long long)S.Parent, (long long)S.Request);
    }
    std::fprintf(F, "\n]}\n");
    std::fclose(F);
  }
  if (std::FILE *F = std::fopen(FlatPath.c_str(), "w")) {
    std::fprintf(F, "{\"metrics\":{");
    bool First = true;
    for (const auto &[Name, V] : Metrics) {
      std::fprintf(F, "%s\n\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                   First ? "" : ",", jsonEscape(Name).c_str(),
                   std::isfinite(V.first) ? V.first : 0.0,
                   jsonEscape(V.second).c_str());
      First = false;
    }
    std::fprintf(F, "\n},\n\"spans\":{");
    First = true;
    for (const auto &[Name, Acc] : ByName) {
      std::fprintf(F,
                   "%s\n\"%s\":{\"count\":%llu,\"total_ms\":%.6f,"
                   "\"self_ms\":%.6f}",
                   First ? "" : ",", jsonEscape(Name).c_str(),
                   (unsigned long long)Count[Name], Acc.first * 1e3,
                   Acc.second * 1e3);
      First = false;
    }
    std::fprintf(F, "\n}}\n");
    std::fclose(F);
  }
}

Span::Span(const std::string &Name, int64_t Request) {
  if (Tracer::get().enabled())
    Id = Tracer::get().open(Name, Request);
}

Span::~Span() {
  if (Id >= 0)
    Tracer::get().close(Id);
}

//===----------------------------------------------------------------------===//
// Sessions, checks, execution
//===----------------------------------------------------------------------===//

core::CompileOptions sessionOptions(int Threads, runtime::CacheMode Mode,
                                    const std::string &Dir) {
  core::CompileOptions O;
  O.Threads = Threads;
  O.EnableLowPrecision = true;
  O.EnableFineGrainFusion = true;
  O.EnableCoarseGrainFusion = true;
  O.EnableLayoutPropagation = true;
  O.EnableBufferReuse = true;
  // The exact softmax: the fast one (no max subtraction) gives int8
  // BERT-Large outputs tens of grid steps away from the reference, and
  // the repository's BERT tests run the exact one too. The MLP graphs
  // have no softmax, so the choice does not touch them.
  O.FastSoftmax = false;
  O.PrimitivesMode = false;
  O.Exec = exec::Backend::Bytecode;
  O.SplitIndependentPartitions = false;
  O.AsyncExec = false;
  O.Bucketing = core::BatchBucketing::Pow2;
  O.SpecCacheCap = 16;
  O.CacheMode = Mode;
  O.CacheDir = Dir;
  O.CacheMaxBytes = int64_t(1) << 30;
  return O;
}

void poison(runtime::TensorData &T) {
  std::memset(T.data(), 0xFF, static_cast<size_t>(T.numBytes()));
}

bool bitIdentical(const runtime::TensorData &A, const runtime::TensorData &B) {
  return A.numBytes() == B.numBytes() &&
         std::memcmp(A.data(), B.data(), static_cast<size_t>(A.numBytes())) ==
             0;
}

namespace {
double elementAt(const runtime::TensorData &T, int64_t I) {
  switch (T.dtype()) {
  case DataType::F32:
    return T.dataAs<float>()[I];
  case DataType::U8:
    return T.dataAs<uint8_t>()[I];
  case DataType::S8:
    return T.dataAs<int8_t>()[I];
  case DataType::S32:
    return T.dataAs<int32_t>()[I];
  default:
    return std::nan("");
  }
}

/// Element I of \p A against element I (cyclically) of \p W, within the
/// model's tolerances.
bool closeTo(const Model &M, const runtime::TensorData &A,
             const runtime::TensorData &W) {
  if (A.dtype() != W.dtype() || W.numElements() == 0)
    return false;
  const bool Quant = isQuantizedType(A.dtype());
  for (int64_t I = 0, E = A.numElements(); I < E; ++I) {
    const double X = elementAt(A, I), Y = elementAt(W, I % W.numElements());
    if (!std::isfinite(X))
      return false;
    const double Err =
        Quant ? std::abs(X - Y) : std::abs(X - Y) / (std::abs(Y) + 1e-2);
    if (!(Err <= (Quant ? M.QuantTol : M.RelTol)))
      return false;
  }
  return true;
}
} // namespace

bool outputsMatch(const Model &M, std::vector<runtime::TensorData> &Got,
                  bool Corrupt) {
  if (Got.size() != M.Expected.size())
    return false;
  if (Corrupt && !Got.empty() && Got[0].numElements() > 0) {
    // Push the first element far outside any tolerance.
    if (Got[0].dtype() == DataType::F32)
      Got[0].dataAs<float>()[0] += 1000.0f;
    else
      static_cast<uint8_t *>(Got[0].data())[0] ^= 0x80;
  }
  for (size_t O = 0; O < Got.size(); ++O)
    if (Got[O].numElements() != M.Expected[O].numElements() ||
        !closeTo(M, Got[O], M.Expected[O]))
      return false;
  return true;
}

bool rowsMatch(const Model &M, const runtime::TensorData &Got) {
  return !M.Expected.empty() && Got.numElements() > 0 &&
         Got.numElements() % M.Expected[0].dim(1) == 0 &&
         closeTo(M, Got, M.Expected[0]);
}

Expected<Bound> bindModel(api::Session &S, const Model &M) {
  auto CG = S.compile(M.G);
  if (!CG)
    return CG.status();
  return bindCompiled(CG.takeValue(), M);
}

Bound bindCompiled(api::CompiledGraphPtr CG, const Model &M) {
  Bound B;
  B.M = &M;
  B.CG = std::move(CG);
  for (const runtime::TensorData &W : M.Expected)
    B.Outs.emplace_back(W.dtype(), W.shape());
  for (const runtime::TensorData &In : M.Inputs)
    B.InPtrs.push_back(const_cast<runtime::TensorData *>(&In));
  for (runtime::TensorData &T : B.Outs)
    B.OutPtrs.push_back(&T);
  return B;
}

Status runBound(const api::Stream &Str, Bound &B) {
  for (runtime::TensorData &T : B.Outs)
    poison(T);
  Span S("api.execute");
  return Str.execute(*B.CG, B.InPtrs, B.OutPtrs);
}

double matmulFlops(const graph::Graph &G) {
  double Flops = 0;
  for (int64_t Id : G.opIds()) {
    const graph::Op &O = G.op(Id);
    if (O.kind() != graph::OpKind::MatMul)
      continue;
    const auto &A = G.tensor(O.input(0)).Shape;
    const auto &Out = G.tensor(O.output(0)).Shape;
    const int64_t K = O.getAttrInt("transpose_a", 0) ? A[A.size() - 2]
                                                      : A.back();
    double N = 1;
    for (int64_t D : Out)
      N *= static_cast<double>(D);
    Flops += 2.0 * N * static_cast<double>(K);
  }
  return Flops;
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

std::vector<const Model *> GraphSet::all() const {
  std::vector<const Model *> Out;
  for (const Model &M : F32)
    Out.push_back(&M);
  for (const Model &M : Int8)
    Out.push_back(&M);
  return Out;
}

} // namespace perfbench
