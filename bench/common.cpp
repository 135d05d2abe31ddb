#include "common.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "nn/serialize.h"
#include "tensor/ops.h"

namespace meanet::bench {

const char* edge_model_name(EdgeModel model) {
  switch (model) {
    case EdgeModel::kResNetA:
      return "ResNet A";
    case EdgeModel::kResNetB:
      return "ResNet B";
    case EdgeModel::kMobileNetB:
      return "MobileNetV2 B";
  }
  return "?";
}

const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kCifarLike:
      return "CIFAR-100-like";
    case DatasetKind::kImageNetLike:
      return "ImageNet-like";
  }
  return "?";
}

data::SyntheticSpec spec_for(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kCifarLike: {
      data::SyntheticSpec spec = data::cifar_like_spec();
      spec.train_per_class = 80;
      spec.test_per_class = 25;
      // Tuned so the scaled main block lands in the paper's accuracy
      // regime (~60-75%) instead of saturating.
      spec.min_difficulty = 0.3f;
      spec.max_difficulty = 0.95f;
      spec.noise_stddev = 0.45f;
      return spec;
    }
    case DatasetKind::kImageNetLike: {
      data::SyntheticSpec spec = data::imagenet_like_spec();
      spec.train_per_class = 100;
      spec.test_per_class = 30;
      spec.min_difficulty = 0.5f;
      spec.max_difficulty = 0.98f;
      spec.noise_stddev = 0.7f;
      return spec;
    }
  }
  throw std::logic_error("spec_for: bad kind");
}

int default_num_hard(DatasetKind kind) { return spec_for(kind).num_classes / 2; }

namespace {

core::ResNetConfig resnet_config(DatasetKind kind) {
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  // Paper uses 16/32/64 (CIFAR) and 64/128/256/512 (ImageNet); scaled
  // for the single-core budget.
  config.channels = {8, 16, 32};
  config.image_channels = 3;
  config.num_classes = spec_for(kind).num_classes;
  return config;
}

core::MobileNetConfig mobilenet_config(DatasetKind kind) {
  core::MobileNetConfig config;
  config.stem_channels = 8;
  config.blocks = {{8, 1, 1}, {12, 2, 4}, {12, 1, 4}, {16, 2, 4}, {16, 1, 4}};
  config.image_channels = 3;
  config.num_classes = spec_for(kind).num_classes;
  return config;
}

}  // namespace

core::MEANet build_edge_model(EdgeModel model, DatasetKind kind, int num_hard,
                              core::FusionMode fusion, util::Rng& rng) {
  switch (model) {
    case EdgeModel::kResNetA:
      return core::build_resnet_meanet_a(resnet_config(kind), num_hard, fusion, rng);
    case EdgeModel::kResNetB:
      return core::build_resnet_meanet_b(resnet_config(kind), num_hard, fusion, rng);
    case EdgeModel::kMobileNetB:
      return core::build_mobilenet_meanet_b(mobilenet_config(kind), num_hard, fusion, rng);
  }
  throw std::logic_error("build_edge_model: bad model");
}

namespace {

const char* kCacheDir = "meanet_bench_cache";

std::string system_cache_key(EdgeModel model, DatasetKind kind, int num_hard,
                             core::FusionMode fusion, const TrainBudget& budget,
                             std::uint64_t seed) {
  char key[160];
  std::snprintf(key, sizeof(key), "sys_m%d_k%d_h%d_f%d_e%d_%d_b%d_s%llu",
                static_cast<int>(model), static_cast<int>(kind), num_hard,
                static_cast<int>(fusion), budget.main_epochs, budget.edge_epochs,
                budget.batch_size, static_cast<unsigned long long>(seed));
  return std::string(kCacheDir) + "/" + key;
}

bool load_cached_system(const std::string& prefix, TrainedSystem& system) {
  const std::string dict_path = prefix + ".dict";
  std::ifstream dict_file(dict_path);
  if (!dict_file) return false;
  int num_hard = 0;
  dict_file >> num_hard;
  std::vector<int> hard(static_cast<std::size_t>(num_hard));
  for (int& c : hard) dict_file >> c;
  if (!dict_file) return false;
  try {
    nn::load_model(system.net.main_trunk(), prefix + ".trunk.bin");
    nn::load_model(system.net.main_exit(), prefix + ".exit.bin");
    nn::load_model(system.net.adaptive(), prefix + ".adaptive.bin");
    nn::load_model(system.net.extension(), prefix + ".extension.bin");
  } catch (const std::exception&) {
    return false;
  }
  system.dict = data::ClassDict(system.train.num_classes, hard);
  system.net.freeze_main();  // deployment state after Alg. 1
  std::fprintf(stderr, "[bench cache] loaded %s\n", prefix.c_str());
  return true;
}

void store_cached_system(const std::string& prefix, TrainedSystem& system) {
  std::error_code ec;
  std::filesystem::create_directories(kCacheDir, ec);
  if (ec) return;  // cache is best-effort
  try {
    nn::save_model(system.net.main_trunk(), prefix + ".trunk.bin");
    nn::save_model(system.net.main_exit(), prefix + ".exit.bin");
    nn::save_model(system.net.adaptive(), prefix + ".adaptive.bin");
    nn::save_model(system.net.extension(), prefix + ".extension.bin");
    std::ofstream dict_file(prefix + ".dict", std::ios::trunc);
    dict_file << system.dict.num_hard();
    for (int c : system.dict.hard_classes()) dict_file << ' ' << c;
    dict_file << '\n';
  } catch (const std::exception&) {
    // best-effort: a failed cache write only costs a retrain next run
  }
}

}  // namespace

TrainedSystem train_system(EdgeModel model, DatasetKind kind, int num_hard,
                           core::FusionMode fusion, const TrainBudget& budget,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  data::SyntheticDataset data = data::make_synthetic(spec_for(kind), seed * 7919 + 13);
  util::Rng split_rng = rng.fork();
  data::SplitResult parts = data::split(data.train, 0.9, split_rng);

  util::Rng model_rng = rng.fork();
  TrainedSystem system{std::move(data),       std::move(parts.first), std::move(parts.second),
                       build_edge_model(model, kind, num_hard, fusion, model_rng),
                       data::ClassDict(),     {},                     {}};

  const std::string cache_prefix =
      system_cache_key(model, kind, num_hard, fusion, budget, seed);
  if (load_cached_system(cache_prefix, system)) return system;

  core::DistributedTrainer trainer(system.net);
  core::TrainOptions main_opts;
  main_opts.epochs = budget.main_epochs;
  main_opts.batch_size = budget.batch_size;
  main_opts.sgd.learning_rate = 0.1f;
  // Scaled version of the paper's CIFAR schedule (decay at 60/120/160 of
  // 200 epochs -> decay at 60% / 85% here).
  main_opts.milestones = {(budget.main_epochs * 3) / 5, (budget.main_epochs * 17) / 20};
  util::Rng train_rng = rng.fork();
  system.main_curve = trainer.train_main(system.train, main_opts, train_rng);

  system.dict = trainer.select_hard_classes_from_validation(system.validation, num_hard);

  core::TrainOptions edge_opts;
  edge_opts.epochs = budget.edge_epochs;
  edge_opts.batch_size = budget.batch_size;
  edge_opts.sgd.learning_rate = 0.05f;
  edge_opts.milestones = {(budget.edge_epochs * 3) / 5, (budget.edge_epochs * 17) / 20};
  system.edge_curve = trainer.train_edge_blocks(system.train, system.dict, edge_opts, train_rng);
  store_cached_system(cache_prefix, system);
  return system;
}

nn::Sequential train_cloud_model(const TrainedSystem& system, int epochs, std::uint64_t seed) {
  util::Rng rng(seed);
  const Shape& image = system.train.images.shape();
  nn::Sequential cloud = core::build_cloud_classifier(image.channels(),
                                                      system.train.num_classes, rng);
  char key[128];
  std::snprintf(key, sizeof(key), "%s/cloud_c%d_h%d_w%d_n%d_e%d_s%llu", kCacheDir,
                image.channels(), image.height(), image.width(), system.train.num_classes,
                epochs, static_cast<unsigned long long>(seed));
  const std::string cloud_path = std::string(key) + ".bin";
  {
    std::ifstream probe(cloud_path, std::ios::binary);
    if (probe) {
      try {
        nn::load_model(cloud, cloud_path);
        std::fprintf(stderr, "[bench cache] loaded %s\n", cloud_path.c_str());
        return cloud;
      } catch (const std::exception&) {
        // fall through to retraining
      }
    }
  }
  core::TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 32;
  opts.sgd.learning_rate = 0.1f;
  opts.milestones = {(epochs * 3) / 5, (epochs * 17) / 20};
  util::Rng train_rng = rng.fork();
  core::train_classifier(cloud, system.train, opts, train_rng);
  std::error_code ec;
  std::filesystem::create_directories(kCacheDir, ec);
  if (!ec) {
    try {
      nn::save_model(cloud, cloud_path);
    } catch (const std::exception&) {
    }
  }
  return cloud;
}

std::vector<int> meanet_predictions_always_extended(core::MEANet& net,
                                                    const data::Dataset& dataset,
                                                    const data::ClassDict& dict,
                                                    int batch_size) {
  std::vector<int> predictions;
  predictions.reserve(static_cast<std::size_t>(dataset.size()));
  for (int start = 0; start < dataset.size(); start += batch_size) {
    const int count = std::min(batch_size, dataset.size() - start);
    const Tensor images = dataset.images.slice_batch(start, count);
    const core::MainForward fwd = net.forward_main(images, nn::Mode::kEval);
    const Tensor y2 = net.forward_extension(images, fwd.features, nn::Mode::kEval);
    const Tensor p1 = ops::softmax(fwd.logits);
    const Tensor p2 = ops::softmax(y2);
    const auto pred1 = ops::row_argmax(p1);
    const auto conf1 = ops::row_max(p1);
    const auto pred2 = ops::row_argmax(p2);
    const auto conf2 = ops::row_max(p2);
    for (int i = 0; i < count; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      predictions.push_back(conf2[idx] > conf1[idx] ? dict.to_global(pred2[idx]) : pred1[idx]);
    }
  }
  return predictions;
}

}  // namespace meanet::bench
