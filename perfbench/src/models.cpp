//===- models.cpp - Workload graphs, seeded inputs and oracles --------===//
//
// The graphs are the repository's own workload builders with their fixed
// weights; only the inputs come from the run's seed. Oracle outputs come
// from graph::runGraphReference, except for BERT-Large, where the
// reference interpreter needs about 24 s per layer on a 4-vCPU host; there
// the loop-nest executor (an independent executor that the test suite
// checks against the reference) is the oracle, and every bert run also
// checks a small BERT layer against the reference (workloads.cpp).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "baseline/loopnest.h"
#include "core/compiler.h"
#include "graph/reference.h"
#include "support/rng.h"
#include "workloads/bert.h"
#include "workloads/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

using namespace gc;

namespace {

constexpr int64_t kServeRows = 8; ///< rows of the static mlp1 form

/// Tolerances of the repository's tests: kF32LooseTol and QuantTol 1 for
/// the MLPs (test_compiler_e2e, test_baselines), 2e-2 and 16 grid steps
/// for the BERT layer (test_bert_layer).
constexpr double kMlpRelTol = 5e-3, kMlpQuantTol = 1.0;
constexpr double kBertRelTol = 2e-2, kBertQuantTol = 16.0;

double gaussian(Rng &R) {
  const double U1 = std::max(1e-12, static_cast<double>(R.uniform(0, 1)));
  const double U2 = R.uniform(0, 1);
  return std::sqrt(-2.0 * std::log(U1)) * std::cos(6.283185307179586 * U2);
}

/// MLP inputs as the tests draw them: uniform f32 in [-0.5, 0.5), uniform
/// u8 codes.
void fillMlpInputs(Model &M, Rng &R) {
  for (int64_t In : M.Static.inputs()) {
    const graph::LogicalTensor &T = M.Static.tensor(In);
    runtime::TensorData D(T.Ty, T.Shape);
    D.fillRandom(R);
    if (T.Ty == DataType::F32) {
      float *P = D.dataAs<float>();
      for (int64_t I = 0, E = D.numElements(); I < E; ++I)
        P[I] *= 0.5f;
    }
    M.Inputs.push_back(std::move(D));
  }
}

/// BERT inputs: hidden states distributed like a layernorm output,
/// N(0, 1), in f32 or in the layer's own u8 encoding (scale 0.02, zero
/// point 0, the encoding of its output), and an attention mask that
/// hides a seeded tail of padding tokens.
void fillBertInputs(Model &M, Rng &R) {
  for (int64_t In : M.Static.inputs()) {
    const graph::LogicalTensor &T = M.Static.tensor(In);
    runtime::TensorData D(T.Ty, T.Shape);
    if (T.Name == "mask") {
      const int64_t S = T.Shape.back();
      const int64_t Valid = R.uniformInt(S * 3 / 4, S);
      float *P = D.dataAs<float>();
      for (int64_t I = 0, E = D.numElements(); I < E; ++I)
        P[I] = (I % S) < Valid ? 0.0f : -10000.0f;
    } else if (T.Ty == DataType::F32) {
      float *P = D.dataAs<float>();
      for (int64_t I = 0, E = D.numElements(); I < E; ++I)
        P[I] = static_cast<float>(gaussian(R));
    } else {
      uint8_t *P = D.dataAs<uint8_t>();
      for (int64_t I = 0, E = D.numElements(); I < E; ++I)
        P[I] = static_cast<uint8_t>(
            std::clamp(std::round(gaussian(R) / 0.02), 0.0, 255.0));
    }
    M.Inputs.push_back(std::move(D));
  }
}

void referenceOracle(Model &M) {
  graph::TensorMap Env;
  for (size_t I = 0; I < M.Inputs.size(); ++I)
    Env[M.Static.inputs()[I]] = M.Inputs[I].clone();
  M.Expected = graph::runGraphReference(M.Static, std::move(Env));
  M.Oracle = "reference interpreter";
}

void loopNestOracle(Model &M) {
  baseline::LoopNestExecutor Exec(M.Static, maxThreads());
  std::vector<runtime::TensorData *> In, Out;
  for (runtime::TensorData &T : M.Inputs)
    In.push_back(&T);
  for (int64_t Id : M.Static.outputs()) {
    const graph::LogicalTensor &T = M.Static.tensor(Id);
    M.Expected.emplace_back(T.Ty, T.Shape);
  }
  for (runtime::TensorData &T : M.Expected)
    Out.push_back(&T);
  Exec.execute(In, Out);
  M.Oracle = "loop-nest executor";
}

/// BERT-Large (hidden 1024, 16 heads, FFN 4096), seq 128, batch 1.
workloads::BertLayerSpec bertSpec(bool Int8) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 1;
  Spec.SeqLen = 128;
  Spec.Int8 = Int8;
  return Spec;
}

Model bertModel(bool Int8, Rng &R) {
  Model M;
  M.Name = Int8 ? "bert.int8" : "bert.f32";
  M.Int8 = Int8;
  M.G = workloads::buildBertLayer(bertSpec(Int8));
  M.Static = M.G.clone();
  M.RelTol = kBertRelTol;
  M.QuantTol = kBertQuantTol;
  fillBertInputs(M, R);
  loopNestOracle(M);
  return M;
}

Model mlpModel(const std::string &Name, const workloads::MlpSpec &Spec,
               Rng &R) {
  Model M;
  M.Name = Name + (Spec.Int8 ? ".int8" : ".f32");
  M.Int8 = Spec.Int8;
  M.G = workloads::buildMlp(Spec);
  M.Dynamic = Spec.Batch == graph::LogicalTensor::kDynamicDim;
  if (M.Dynamic) {
    auto S = core::specializeForBatch(M.G, kServeRows);
    if (!S)
      throw std::runtime_error("specializeForBatch: " + S.status().toString());
    M.Static = S.takeValue();
  } else {
    M.Static = M.G.clone();
  }
  M.RelTol = kMlpRelTol;
  M.QuantTol = kMlpQuantTol;
  fillMlpInputs(M, R);
  referenceOracle(M);
  return M;
}

/// The dynamic-batch MLP-1 graph the serve workload serves.
workloads::MlpSpec mlp1Spec(bool Int8) {
  workloads::MlpSpec Spec;
  Spec.Batch = graph::LogicalTensor::kDynamicDim;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = Int8;
  Spec.Seed = 5;
  return Spec;
}

/// A small BERT layer (the shape of tests/test_bert_layer.cpp) checked
/// against the reference interpreter.
Model smallBertModel(bool Int8, Rng &R) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 2;
  Spec.SeqLen = 16;
  Spec.Hidden = 64;
  Spec.Heads = 4;
  Spec.FfnDim = 128;
  Spec.Int8 = Int8;
  Spec.Seed = 61;
  Model M;
  M.Name = Int8 ? "bert_small.int8" : "bert_small.f32";
  M.Int8 = Int8;
  M.G = workloads::buildBertLayer(Spec);
  M.Static = M.G.clone();
  M.RelTol = kBertRelTol;
  M.QuantTol = kBertQuantTol;
  fillBertInputs(M, R);
  referenceOracle(M);
  return M;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

void addModels(const std::string &Part, bool Int8, Rng &R,
               std::vector<Model> &Out) {
  if (Part == "bert") {
    Out.push_back(bertModel(Int8, R));
  } else if (Part == "serve") {
    Out.push_back(mlpModel("mlp1", mlp1Spec(Int8), R));
  }
}

} // namespace

GraphSet buildGraphSet(const std::string &Workload, uint64_t Seed) {
  GraphSet Set;
  for (bool Int8 : {false, true}) {
    Rng R(Seed * 1000003 + fnv1a(Workload) * 2 + Int8);
    addModels(Workload, Int8, R, Int8 ? Set.Int8 : Set.F32);
    if (Workload == "bert") {
      Rng R(Seed * 1000003 + fnv1a("bert_small") * 2 + Int8);
      Set.Anchors.push_back(smallBertModel(Int8, R));
    }
  }
  return Set;
}

void rebuildGraphs(const std::string &Workload) {
  for (bool Int8 : {false, true}) {
    if (Workload == "bert") {
      workloads::buildBertLayer(bertSpec(Int8));
    } else {
      workloads::buildMlp(mlp1Spec(Int8));
    }
  }
}

} // namespace perfbench
