// Model preparation and workload inputs.
//
// Preparation trains, with the library under test, every model the serving
// workloads load: Alg. 1 on ResNet-B (CIFAR-like) and on MobileNetV2-B
// (ImageNet-like), plus the deeper CIFAR-like cloud classifier. The three
// trainings are independent and single-threaded each, so they run side by
// side. The result is a directory of nn::save_model files that each run
// loads as part of its timed set-up.
//
// Inputs: serving inputs are drawn from a held-out pool of the prepared
// distribution (the synthetic test split, which training never sees); the
// workload seed picks which pool instances are sent, in which order, and
// adds a small seeded perturbation so no two sent instances are
// byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/meanet.h"
#include "data/class_dict.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "nn/sequential.h"

namespace e2e {

enum class Family {
  kResNetCifar,     // ResNet-B edge, 20 classes of 16x16x3
  kMobileNetImage,  // MobileNetV2-B edge, 10 classes of 24x24x3
};

/// Generator spec of a family's synthetic dataset.
meanet::data::SyntheticSpec family_spec(Family family);

/// Untrained edge model of a family (weights are overwritten on load).
meanet::core::MEANet build_edge(Family family, std::uint64_t seed);

/// Untrained CIFAR-like cloud classifier.
meanet::nn::Sequential build_cloud(std::uint64_t seed);

/// Trains every served model from `prep_seed` and writes them to `dir`
/// (created if missing): Alg. 1 with 10 + 10 epochs on each edge family,
/// 12 epochs on the cloud classifier. Also records, in `dir`/meta.txt, the
/// entropy threshold that sends about half of the CIFAR-like pool to the
/// cloud.
void prepare_models(const std::string& dir, std::uint64_t prep_seed);

/// A prepared edge model with its hard-class dictionary.
struct EdgeModel {
  std::unique_ptr<meanet::core::MEANet> net;
  meanet::data::ClassDict dict;
};

/// nn::load_model of a prepared family's four blocks plus its dictionary.
EdgeModel load_edge(const std::string& dir, Family family);
/// nn::load_model of the prepared cloud classifier.
meanet::nn::Sequential load_cloud(const std::string& dir);
std::string cloud_weights_path(const std::string& dir);
/// The half-offload entropy threshold recorded by prepare_models.
double wire_threshold(const std::string& dir);

/// Held-out pool of a family's distribution (`per_class` instances per
/// class), generated from the preparation seed.
meanet::data::Dataset held_out_pool(Family family, std::uint64_t prep_seed, int per_class);

/// `count` instances drawn from `pool` by `seed`: uniform picks with
/// replacement, each perturbed by N(0, 0.02) pixel noise. Labels follow
/// the picked pool instance.
meanet::data::Dataset sample_inputs(const meanet::data::Dataset& pool, int count,
                                    std::uint64_t seed);

/// Alg. 2's edge half replayed directly on MEANet's public forwards (no
/// engine or session): route by main-exit entropy against `threshold`
/// (+inf = never offload), extension for hard-class argmaxes, and keep the
/// more confident exit. Returns per-instance (prediction, route index).
struct EdgeReplay {
  std::vector<int> prediction;
  std::vector<int> route;  // core::Route as int
};
EdgeReplay replay_edge(meanet::core::MEANet& net, const meanet::data::ClassDict& dict,
                       const meanet::Tensor& images, double threshold, bool cloud_available);

}  // namespace e2e
