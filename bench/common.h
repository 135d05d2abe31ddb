// Shared experiment scaffolding for the table/figure benches: builds and
// trains the edge systems and cloud models on the synthetic workloads
// (DESIGN.md §1 documents how these substitute the paper's setups).
#pragma once

#include <string>

#include "core/builders.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "sim/system.h"

namespace meanet::bench {

enum class EdgeModel {
  kResNetA,     // paper: ResNet32 A (split trunk)
  kResNetB,     // paper: ResNet32 B / ResNet18 B (full trunk + extension)
  kMobileNetB,  // paper: MobileNetV2 B
};

enum class DatasetKind {
  kCifarLike,     // 20 classes, 16x16x3 (paper: CIFAR-100)
  kImageNetLike,  // 10 classes, 24x24x3 (paper: ImageNet)
};

const char* edge_model_name(EdgeModel model);
const char* dataset_name(DatasetKind kind);

data::SyntheticSpec spec_for(DatasetKind kind);

/// Default hard-class count: half of all classes (the paper's default).
int default_num_hard(DatasetKind kind);

core::MEANet build_edge_model(EdgeModel model, DatasetKind kind, int num_hard,
                              core::FusionMode fusion, util::Rng& rng);

/// A fully trained edge-cloud-ready system (Alg. 1 executed end to end).
struct TrainedSystem {
  data::SyntheticDataset data;
  data::Dataset train;       // 90% of generated training data
  data::Dataset validation;  // 10% held out for hard-class selection
  core::MEANet net;
  data::ClassDict dict;
  core::TrainCurve main_curve;
  core::TrainCurve edge_curve;
};

struct TrainBudget {
  int main_epochs = 10;
  int edge_epochs = 10;
  int batch_size = 32;
};

/// Runs Alg. 1: train main on train split, pick hard classes on the
/// validation split, blockwise-train the extension + adaptive blocks.
///
/// Trained weights and the hard-class dictionary are cached on disk
/// under ./meanet_bench_cache keyed by the full configuration, so
/// benches sharing a system configuration load it instead of retraining
/// (the serialized weights reproduce training bit-exactly). Delete the
/// cache directory to force retraining.
TrainedSystem train_system(EdgeModel model, DatasetKind kind, int num_hard,
                           core::FusionMode fusion, const TrainBudget& budget,
                           std::uint64_t seed = 1234);

/// Trains the deeper cloud classifier on the same training split (also
/// disk-cached, keyed by dataset geometry + epochs + seed).
nn::Sequential train_cloud_model(const TrainedSystem& system, int epochs = 18,
                                 std::uint64_t seed = 99);

/// Confidence-comparison prediction with the extension always activated
/// (the evaluation mode of the paper's Tables II/V).
std::vector<int> meanet_predictions_always_extended(core::MEANet& net,
                                                    const data::Dataset& dataset,
                                                    const data::ClassDict& dict,
                                                    int batch_size = 64);

}  // namespace meanet::bench
